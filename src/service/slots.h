#ifndef QBISM_SERVICE_SLOTS_H_
#define QBISM_SERVICE_SLOTS_H_

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <mutex>
#include <utility>
#include <vector>

#include "common/result.h"

namespace qbism::service {

/// One tenant's fair-share knobs (the socket server's TenantConfig adds
/// credentials on top). docs/NETWORK.md documents the semantics.
struct TenantShare {
  /// Fair-share weight: the tenant may hold up to
  /// max(1, floor(slots * weight / sum(weights))) slots at once (unless
  /// max_inflight overrides it).
  double weight = 1.0;
  /// Explicit in-flight cap; 0 derives it from the weight.
  int max_inflight = 0;
  /// Requests allowed to *wait* for this tenant's slots at once;
  /// arrivals beyond this are rejected immediately (quota_rejected).
  int max_waiting = 64;
};

/// Point-in-time view of one tenant's admission accounting.
struct TenantAdmissionStats {
  uint64_t admitted = 0;        // slots granted
  uint64_t rejected_quota = 0;  // bounced at the tenant's waiting cap
  uint64_t waited = 0;          // admissions that had to block
  int inflight = 0;             // slots currently held
  int waiting = 0;              // currently blocked in Acquire
  int slot_cap = 0;             // the tenant's fair-share in-flight cap
};

/// The query service's one admission point: `num_slots` execution slots
/// (one per MedicalServer) shared by tenants under weighted caps.
///
/// A request takes a slot when one is free and its tenant is under its
/// cap; otherwise it waits on its own thread, in one FIFO line shared by
/// all tenants, until a freed slot is granted to it. A freed slot goes
/// to the first waiter whose tenant is under its cap, so a greedy
/// tenant at its cap never takes a slot another tenant's waiter could
/// use. Waiting is bounded three ways: per tenant (`max_waiting`,
/// quota_rejected), globally (`max_waiting_total`, queue full), and by
/// the request's deadline. Caps may sum to more than the slot count;
/// the surplus then waits in the line, it is never bounced.
class SlotAdmission {
 public:
  using Clock = std::chrono::steady_clock;

  /// A held slot; releasing (or destroying) it hands the slot to the
  /// next eligible waiter. Movable, not copyable.
  class Slot {
   public:
    Slot() = default;
    Slot(Slot&& other) noexcept { *this = std::move(other); }
    Slot& operator=(Slot&& other) noexcept;
    ~Slot() { Release(); }
    Slot(const Slot&) = delete;
    Slot& operator=(const Slot&) = delete;

    void Release();
    /// Which of the num_slots slots this is (valid while held).
    int index() const { return index_; }

   private:
    friend class SlotAdmission;
    Slot(SlotAdmission* owner, int tenant, int index)
        : owner_(owner), tenant_(tenant), index_(index) {}

    SlotAdmission* owner_ = nullptr;
    int tenant_ = -1;
    int index_ = -1;
  };

  /// An empty `tenants` list means one tenant that may use every slot
  /// and whose waiting is bounded only by `max_waiting_total`.
  SlotAdmission(int num_slots, size_t max_waiting_total,
                const std::vector<TenantShare>& tenants);

  /// Takes a slot for `tenant`, waiting until `deadline` if need be.
  ///   InvalidArgument    unknown tenant index
  ///   ResourceExhausted  waiting line full: the tenant's (see
  ///                      IsQuotaRejection) or the global one
  ///   DeadlineExceeded   the deadline passed while waiting
  ///   Cancelled          closed (service shutdown)
  Result<Slot> Acquire(int tenant,
                       Clock::time_point deadline = Clock::time_point::max());

  /// True for the ResourceExhausted that Acquire returns when the
  /// tenant's own waiting line is full (as opposed to the global one).
  static bool IsQuotaRejection(const Status& status);

  /// Wakes every waiter with Cancelled and fails further Acquire calls;
  /// held slots may still be released.
  void Close();
  /// Blocks until no slot is held.
  void WaitIdle();

  int num_slots() const { return num_slots_; }
  int slot_cap(int tenant) const {
    return tenants_[static_cast<size_t>(tenant)].slot_cap;
  }
  TenantAdmissionStats tenant_stats(int tenant) const;
  int total_inflight() const;
  size_t waiting() const;

 private:
  struct TenantState {
    int slot_cap = 0;
    int max_waiting = 0;
    int inflight = 0;
    int waiting = 0;
    uint64_t admitted = 0;
    uint64_t rejected_quota = 0;
    uint64_t waited = 0;
  };
  struct Waiter {
    int tenant = -1;
    int slot = -1;  // set when a slot is granted
    std::condition_variable cv;
  };

  /// Hands free slots to eligible waiters in arrival order.
  void DispatchLocked();
  int TakeLocked(int tenant);
  void Release(int tenant, int index);

  const int num_slots_;
  const size_t max_waiting_total_;
  mutable std::mutex mu_;
  std::condition_variable idle_;
  std::vector<TenantState> tenants_;  // guarded by mu_
  std::vector<int> free_slots_;       // guarded by mu_
  std::deque<Waiter*> waiters_;       // guarded by mu_
  int inflight_ = 0;                  // guarded by mu_
  bool closed_ = false;               // guarded by mu_
};

}  // namespace qbism::service

#endif  // QBISM_SERVICE_SLOTS_H_
