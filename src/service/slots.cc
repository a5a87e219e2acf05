#include "service/slots.h"

#include <algorithm>
#include <climits>
#include <cmath>
#include <string>

namespace qbism::service {

namespace {

constexpr char kQuotaMessage[] = "tenant quota: ";

}  // namespace

SlotAdmission::Slot& SlotAdmission::Slot::operator=(Slot&& other) noexcept {
  if (this != &other) {
    Release();
    owner_ = other.owner_;
    tenant_ = other.tenant_;
    index_ = other.index_;
    other.owner_ = nullptr;
    other.tenant_ = -1;
    other.index_ = -1;
  }
  return *this;
}

void SlotAdmission::Slot::Release() {
  if (owner_ == nullptr) return;
  owner_->Release(tenant_, index_);
  owner_ = nullptr;
  tenant_ = -1;
  index_ = -1;
}

SlotAdmission::SlotAdmission(int num_slots, size_t max_waiting_total,
                             const std::vector<TenantShare>& tenants)
    : num_slots_(std::max(0, num_slots)),
      max_waiting_total_(max_waiting_total) {
  std::vector<TenantShare> shares = tenants;
  if (shares.empty()) {
    TenantShare only;
    only.max_inflight = std::max(1, num_slots_);
    only.max_waiting = static_cast<int>(
        std::min<size_t>(max_waiting_total_, INT_MAX));
    shares.push_back(only);
  }
  double weight_sum = 0.0;
  for (const TenantShare& t : shares) {
    weight_sum += t.weight > 0.0 ? t.weight : 0.0;
  }
  if (weight_sum <= 0.0) weight_sum = 1.0;
  for (const TenantShare& t : shares) {
    TenantState state;
    if (t.max_inflight > 0) {
      state.slot_cap = t.max_inflight;
    } else {
      double weight = t.weight > 0.0 ? t.weight : 0.0;
      state.slot_cap = std::max(
          1, static_cast<int>(std::floor(static_cast<double>(num_slots_) *
                                         weight / weight_sum)));
    }
    state.max_waiting = t.max_waiting > 0 ? t.max_waiting : 1;
    tenants_.push_back(state);
  }
  // Lowest index on top, so an idle service reuses slot 0 first.
  for (int i = num_slots_ - 1; i >= 0; --i) free_slots_.push_back(i);
}

int SlotAdmission::TakeLocked(int tenant) {
  int index = free_slots_.back();
  free_slots_.pop_back();
  TenantState& state = tenants_[static_cast<size_t>(tenant)];
  ++state.inflight;
  ++state.admitted;
  ++inflight_;
  return index;
}

void SlotAdmission::DispatchLocked() {
  if (closed_) return;  // the waiters are leaving with Cancelled
  for (auto it = waiters_.begin();
       it != waiters_.end() && !free_slots_.empty();) {
    Waiter* waiter = *it;
    const TenantState& state = tenants_[static_cast<size_t>(waiter->tenant)];
    if (state.inflight >= state.slot_cap) {
      ++it;
      continue;
    }
    waiter->slot = TakeLocked(waiter->tenant);
    --tenants_[static_cast<size_t>(waiter->tenant)].waiting;
    it = waiters_.erase(it);
    waiter->cv.notify_one();
  }
}

Result<SlotAdmission::Slot> SlotAdmission::Acquire(
    int tenant, Clock::time_point deadline) {
  if (tenant < 0 || tenant >= static_cast<int>(tenants_.size())) {
    return Status::InvalidArgument("unknown tenant index " +
                                   std::to_string(tenant));
  }
  std::unique_lock<std::mutex> lock(mu_);
  if (closed_) return Status::Cancelled("admission closed");
  TenantState& state = tenants_[static_cast<size_t>(tenant)];
  // Every waiter left after a dispatch is blocked by its tenant's cap,
  // so an arrival under its own cap overtakes nobody it could wait on.
  if (state.inflight < state.slot_cap && !free_slots_.empty()) {
    return Slot(this, tenant, TakeLocked(tenant));
  }
  // Bounded waiting: reject fast so surplus bounces instead of piling
  // up behind the slots.
  if (waiters_.size() >= max_waiting_total_) {
    return Status::ResourceExhausted(
        "admission queue full (" + std::to_string(max_waiting_total_) +
        " waiting); retry with backoff");
  }
  if (state.waiting >= state.max_waiting) {
    ++state.rejected_quota;
    return Status::ResourceExhausted(std::string(kQuotaMessage) +
                                     std::to_string(state.max_waiting) +
                                     " requests already waiting");
  }
  Waiter waiter;
  waiter.tenant = tenant;
  waiters_.push_back(&waiter);
  ++state.waiting;
  ++state.waited;
  bool timed_out = false;
  while (waiter.slot < 0 && !closed_ && !timed_out) {
    if (deadline == Clock::time_point::max()) {
      waiter.cv.wait(lock);
    } else {
      timed_out = waiter.cv.wait_until(lock, deadline) ==
                  std::cv_status::timeout;
    }
  }
  if (waiter.slot >= 0) return Slot(this, tenant, waiter.slot);
  --state.waiting;
  waiters_.erase(std::find(waiters_.begin(), waiters_.end(), &waiter));
  if (closed_) return Status::Cancelled("admission closed");
  return Status::DeadlineExceeded("deadline expired waiting for a slot");
}

bool SlotAdmission::IsQuotaRejection(const Status& status) {
  return status.IsResourceExhausted() &&
         status.message().rfind(kQuotaMessage, 0) == 0;
}

void SlotAdmission::Release(int tenant, int index) {
  std::lock_guard<std::mutex> lock(mu_);
  --tenants_[static_cast<size_t>(tenant)].inflight;
  --inflight_;
  free_slots_.push_back(index);
  DispatchLocked();
  // Notified under the lock: WaitIdle's caller may destroy this object
  // as soon as it reacquires the mutex.
  if (inflight_ == 0) idle_.notify_all();
}

void SlotAdmission::Close() {
  std::lock_guard<std::mutex> lock(mu_);
  closed_ = true;
  for (Waiter* waiter : waiters_) waiter->cv.notify_one();
}

void SlotAdmission::WaitIdle() {
  std::unique_lock<std::mutex> lock(mu_);
  idle_.wait(lock, [&] { return inflight_ == 0; });
}

TenantAdmissionStats SlotAdmission::tenant_stats(int tenant) const {
  std::lock_guard<std::mutex> lock(mu_);
  const TenantState& state = tenants_[static_cast<size_t>(tenant)];
  TenantAdmissionStats out;
  out.admitted = state.admitted;
  out.rejected_quota = state.rejected_quota;
  out.waited = state.waited;
  out.inflight = state.inflight;
  out.waiting = state.waiting;
  out.slot_cap = state.slot_cap;
  return out;
}

int SlotAdmission::total_inflight() const {
  std::lock_guard<std::mutex> lock(mu_);
  return inflight_;
}

size_t SlotAdmission::waiting() const {
  std::lock_guard<std::mutex> lock(mu_);
  return waiters_.size();
}

}  // namespace qbism::service
