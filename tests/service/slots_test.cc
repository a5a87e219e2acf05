#include "service/slots.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <functional>
#include <thread>
#include <vector>

namespace qbism::service {
namespace {

using Clock = SlotAdmission::Clock;

TenantShare Tenant(double weight, int max_waiting = 64) {
  TenantShare t;
  t.weight = weight;
  t.max_waiting = max_waiting;
  return t;
}

void WaitUntil(const std::function<bool()>& pred) {
  for (int i = 0; i < 2000 && !pred(); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_TRUE(pred());
}

TEST(AdmissionTest, SlotCapsFollowWeights) {
  // 8 slots split 2:1:1 -> 4/2/2.
  SlotAdmission admission(/*num_slots=*/8, 64,
                          {Tenant(2.0), Tenant(1.0), Tenant(1.0)});
  EXPECT_EQ(admission.slot_cap(0), 4);
  EXPECT_EQ(admission.slot_cap(1), 2);
  EXPECT_EQ(admission.slot_cap(2), 2);
}

TEST(AdmissionTest, EveryTenantGetsAtLeastOneSlot) {
  // A tiny weight still reserves one slot: a greedy tenant can never
  // starve another tenant completely.
  SlotAdmission admission(/*num_slots=*/4, 64, {Tenant(100.0), Tenant(0.01)});
  EXPECT_GE(admission.slot_cap(1), 1);
  EXPECT_LE(admission.slot_cap(0), 4);
}

TEST(AdmissionTest, ExplicitMaxInflightOverridesWeight) {
  TenantShare capped = Tenant(10.0);
  capped.max_inflight = 1;
  SlotAdmission admission(8, 64, {capped, Tenant(1.0)});
  EXPECT_EQ(admission.slot_cap(0), 1);
}

TEST(AdmissionTest, AdmitUpToCapThenRejectBeyondWaitingQuota) {
  SlotAdmission admission(/*num_slots=*/2, 64,
                          {Tenant(1.0, /*max_waiting=*/1)});
  ASSERT_EQ(admission.slot_cap(0), 2);
  auto s1 = admission.Acquire(0);
  auto s2 = admission.Acquire(0);
  ASSERT_TRUE(s1.ok());
  ASSERT_TRUE(s2.ok());
  EXPECT_NE(s1->index(), s2->index());

  // Cap reached: the next request waits...
  std::atomic<bool> admitted{false};
  std::thread waiter([&] {
    auto s3 = admission.Acquire(0);
    if (s3.ok()) admitted.store(true);
  });
  WaitUntil([&] { return admission.tenant_stats(0).waiting == 1; });

  // ...and with the waiting line full, a fourth rejects immediately.
  auto s4 = admission.Acquire(0);
  ASSERT_FALSE(s4.ok());
  EXPECT_TRUE(SlotAdmission::IsQuotaRejection(s4.status()))
      << s4.status().ToString();
  EXPECT_EQ(admission.tenant_stats(0).rejected_quota, 1u);

  // Releasing a slot admits the waiter.
  s1->Release();
  waiter.join();
  EXPECT_TRUE(admitted.load());
  TenantAdmissionStats stats = admission.tenant_stats(0);
  EXPECT_EQ(stats.admitted, 3u);
  EXPECT_EQ(stats.waited, 1u);
  // The waiter's slot released when its thread exited; only s2 remains.
  EXPECT_EQ(stats.inflight, 1);
}

TEST(AdmissionTest, UnknownTenantRejected) {
  SlotAdmission admission(2, 64, {Tenant(1.0)});
  EXPECT_TRUE(admission.Acquire(-1).status().IsInvalidArgument());
  EXPECT_TRUE(admission.Acquire(1).status().IsInvalidArgument());
}

TEST(AdmissionTest, SlotReleaseOnDestruction) {
  SlotAdmission admission(1, 64, {Tenant(1.0)});
  {
    auto slot = admission.Acquire(0);
    ASSERT_TRUE(slot.ok());
    EXPECT_EQ(admission.total_inflight(), 1);
  }
  EXPECT_EQ(admission.total_inflight(), 0);
  // Double release is harmless.
  auto slot = admission.Acquire(0);
  ASSERT_TRUE(slot.ok());
  slot->Release();
  slot->Release();
  EXPECT_EQ(admission.total_inflight(), 0);
}

TEST(AdmissionTest, CloseWakesAllWaiters) {
  SlotAdmission admission(1, 64, {Tenant(1.0, /*max_waiting=*/8)});
  auto held = admission.Acquire(0);
  ASSERT_TRUE(held.ok());
  std::atomic<int> cancelled{0};
  std::vector<std::thread> waiters;
  for (int i = 0; i < 4; ++i) {
    waiters.emplace_back([&] {
      auto slot = admission.Acquire(0);
      if (!slot.ok() && slot.status().IsCancelled()) cancelled.fetch_add(1);
    });
  }
  WaitUntil([&] { return admission.tenant_stats(0).waiting == 4; });
  admission.Close();
  for (auto& t : waiters) t.join();
  EXPECT_EQ(cancelled.load(), 4);
  // Admissions after Close fail fast.
  EXPECT_TRUE(admission.Acquire(0).status().IsCancelled());
}

// The fair-share property the E19 bench demonstrates end to end, in
// miniature: a greedy tenant hammering the admission point from many
// threads can never hold more than its cap, so the victim's slots stay
// free.
TEST(AdmissionTest, GreedyTenantCannotExceedItsCap) {
  SlotAdmission admission(/*num_slots=*/4, 64,
                          {Tenant(1.0, /*max_waiting=*/4), Tenant(1.0)});
  ASSERT_EQ(admission.slot_cap(0), 2);

  std::atomic<bool> stop{false};
  std::atomic<int> max_seen{0};
  std::vector<std::thread> greedy;
  for (int i = 0; i < 8; ++i) {
    greedy.emplace_back([&] {
      while (!stop.load()) {
        auto slot = admission.Acquire(0);
        if (slot.ok()) {
          int inflight = admission.tenant_stats(0).inflight;
          int seen = max_seen.load();
          while (inflight > seen &&
                 !max_seen.compare_exchange_weak(seen, inflight)) {
          }
          std::this_thread::sleep_for(std::chrono::microseconds(100));
        }
      }
    });
  }
  // While the greedy tenant churns, the victim always admits instantly.
  for (int i = 0; i < 50; ++i) {
    auto slot = admission.Acquire(1);
    ASSERT_TRUE(slot.ok());
    std::this_thread::sleep_for(std::chrono::microseconds(50));
  }
  stop.store(true);
  admission.Close();
  for (auto& t : greedy) t.join();
  EXPECT_LE(max_seen.load(), admission.slot_cap(0));
  EXPECT_EQ(admission.tenant_stats(1).waited, 0u);
}

TEST(AdmissionTest, DeadlineExpiresWhileWaitingForASlot) {
  SlotAdmission admission(1, 64, {Tenant(1.0)});
  auto held = admission.Acquire(0);
  ASSERT_TRUE(held.ok());
  auto start = Clock::now();
  auto late = admission.Acquire(0, start + std::chrono::milliseconds(20));
  EXPECT_TRUE(late.status().IsDeadlineExceeded()) << late.status().ToString();
  EXPECT_GE(Clock::now() - start, std::chrono::milliseconds(20));
  // The expired waiter left the line: a release now finds nobody.
  EXPECT_EQ(admission.waiting(), 0u);
  EXPECT_EQ(admission.tenant_stats(0).waiting, 0);
  held->Release();
  EXPECT_EQ(admission.total_inflight(), 0);
  // A deadline already past still admits when a slot is free.
  EXPECT_TRUE(admission.Acquire(0, start).ok());
}

TEST(AdmissionTest, GlobalWaitingBoundRejectsAcrossTenants) {
  // Two tenants with roomy quotas, but only two requests may wait in
  // all: the third waiter is refused as queue-full, not as quota.
  SlotAdmission admission(1, /*max_waiting_total=*/2,
                          {Tenant(1.0), Tenant(1.0)});
  auto held = admission.Acquire(0);
  ASSERT_TRUE(held.ok());
  std::vector<std::thread> waiters;
  std::atomic<int> admitted{0};
  for (int tenant : {0, 1}) {
    waiters.emplace_back([&, tenant] {
      if (admission.Acquire(tenant).ok()) admitted.fetch_add(1);
    });
  }
  WaitUntil([&] { return admission.waiting() == 2; });
  auto third = admission.Acquire(1);
  ASSERT_TRUE(third.status().IsResourceExhausted());
  EXPECT_FALSE(SlotAdmission::IsQuotaRejection(third.status()));
  EXPECT_EQ(admission.tenant_stats(1).rejected_quota, 0u);
  held->Release();
  for (auto& t : waiters) t.join();
  EXPECT_EQ(admitted.load(), 2);
}

// Caps derived with max(1, ...) can sum past the slot count. The
// surplus must wait for a slot, never bounce: every request of every
// tenant is eventually admitted, and no more than num_slots run at once.
TEST(AdmissionTest, CapsAboveSlotCountWaitInsteadOfBouncing) {
  std::vector<TenantShare> tenants(5, Tenant(1.0, /*max_waiting=*/8));
  SlotAdmission admission(/*num_slots=*/2, 64, tenants);
  int cap_sum = 0;
  for (int t = 0; t < 5; ++t) cap_sum += admission.slot_cap(t);
  ASSERT_GT(cap_sum, admission.num_slots());

  std::atomic<int> failures{0};
  std::atomic<int> running{0};
  std::atomic<int> max_running{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 5; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < 20; ++i) {
        auto slot = admission.Acquire(t);
        if (!slot.ok()) {
          failures.fetch_add(1);
          continue;
        }
        int now = running.fetch_add(1) + 1;
        int seen = max_running.load();
        while (now > seen && !max_running.compare_exchange_weak(seen, now)) {
        }
        std::this_thread::sleep_for(std::chrono::microseconds(200));
        running.fetch_sub(1);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_LE(max_running.load(), admission.num_slots());
  EXPECT_EQ(admission.total_inflight(), 0);
}

}  // namespace
}  // namespace qbism::service
