#ifndef QBISM_SERVICE_METRICS_H_
#define QBISM_SERVICE_METRICS_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "obs/trace.h"

namespace qbism::service {

/// Point-in-time copy of the service counters, safe to read and print.
struct MetricsSnapshot {
  uint64_t submitted = 0;
  uint64_t rejected_queue_full = 0;
  uint64_t deadline_expired = 0;  // expired in queue or between stages
  uint64_t cancelled = 0;
  uint64_t failed = 0;     // non-OK from the query path itself
  uint64_t completed = 0;  // OK replies
  uint64_t retries = 0;    // transient-fault re-executions of a query
  uint64_t giveups = 0;    // requests failed with the retry budget spent
  /// Front-end rejections (the socket server's admission edge; see
  /// docs/NETWORK.md). Counted alongside rejected_queue_full so one
  /// snapshot covers every way a request can bounce before execution.
  uint64_t unauthorized = 0;     // bad credentials / bad session token
  uint64_t quota_rejected = 0;   // per-tenant quota or fair-share bound
  uint64_t session_expired = 0;  // request on a session past its TTL
  /// Result-cache counters, read from ResultCache::stats() (the cache
  /// counts its own hits, misses and invalidations).
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;
  /// Online-ingest accounting (docs/DURABILITY.md): committed ingest
  /// transactions, failed/aborted ones, and cache entries dropped by
  /// per-study invalidation at ingest commit.
  uint64_t ingests = 0;
  uint64_t ingest_failures = 0;
  uint64_t cache_invalidations = 0;
  uint64_t lfm_pages = 0;
  double network_seconds = 0.0;
  /// The service-side latency distributions: arrival to reply (the
  /// interval the tracer records as kQuery) and arrival to slot grant
  /// (kQueueWait). queue_wait.total_seconds is the summed queue wait.
  obs::StageSummary latency;
  obs::StageSummary queue_wait;

  /// Extraction fast-path counters, merged in by the service from its
  /// shared ParallelExtractor (deltas over the service's lifetime).
  uint64_t extract_extents_planned = 0;
  uint64_t extract_pages_read = 0;
  uint64_t extract_pages_demanded = 0;  // the per-run seed path's cost
  uint64_t extract_bytes_moved = 0;
  uint64_t extract_helper_tasks = 0;    // shard tasks run by donated threads
  double extract_coalescing_ratio = 1.0;   // pages_demanded / pages_read
  double extract_parallel_efficiency = 1.0;  // avg threads in extraction

  /// Per-stage tracing summaries, filled by the service when a Tracer
  /// is attached (empty otherwise). See docs/OBSERVABILITY.md.
  std::vector<obs::StageSummary> stages;

  /// One-line JSON object (keys stable for the benchmark harness).
  std::string ToJson() const;
};

/// Shared service-wide counters, aggregated across threads via atomics;
/// doubles totaled via compare-exchange loops (no double fetch_add until
/// C++20 libstdc++ catches up everywhere).
class ServiceMetrics {
 public:
  void AddSubmitted() { submitted_.fetch_add(1, std::memory_order_relaxed); }
  void AddRejectedQueueFull() {
    rejected_queue_full_.fetch_add(1, std::memory_order_relaxed);
  }
  void AddDeadlineExpired() {
    deadline_expired_.fetch_add(1, std::memory_order_relaxed);
  }
  void AddCancelled() { cancelled_.fetch_add(1, std::memory_order_relaxed); }
  void AddFailed() { failed_.fetch_add(1, std::memory_order_relaxed); }
  void AddCompleted() { completed_.fetch_add(1, std::memory_order_relaxed); }
  void AddRetry() { retries_.fetch_add(1, std::memory_order_relaxed); }
  void AddGiveup() { giveups_.fetch_add(1, std::memory_order_relaxed); }
  void AddUnauthorized() {
    unauthorized_.fetch_add(1, std::memory_order_relaxed);
  }
  void AddQuotaRejected() {
    quota_rejected_.fetch_add(1, std::memory_order_relaxed);
  }
  void AddSessionExpired() {
    session_expired_.fetch_add(1, std::memory_order_relaxed);
  }
  void AddIngest() { ingests_.fetch_add(1, std::memory_order_relaxed); }
  void AddIngestFailure() {
    ingest_failures_.fetch_add(1, std::memory_order_relaxed);
  }
  void AddLfmPages(uint64_t pages) {
    lfm_pages_.fetch_add(pages, std::memory_order_relaxed);
  }
  void AddNetworkSeconds(double s) { AddDouble(network_seconds_, s); }

  void RecordLatency(double seconds) { latency_.RecordSeconds(seconds); }
  void RecordQueueWait(double seconds) { queue_wait_.RecordSeconds(seconds); }

  /// Everything but the cache, extraction and stage fields, which the
  /// owning QueryService fills from their sources.
  MetricsSnapshot Snapshot() const;

 private:
  static void AddDouble(std::atomic<double>& target, double delta) {
    double cur = target.load(std::memory_order_relaxed);
    while (!target.compare_exchange_weak(cur, cur + delta,
                                         std::memory_order_relaxed)) {
    }
  }

  std::atomic<uint64_t> submitted_{0};
  std::atomic<uint64_t> rejected_queue_full_{0};
  std::atomic<uint64_t> deadline_expired_{0};
  std::atomic<uint64_t> cancelled_{0};
  std::atomic<uint64_t> failed_{0};
  std::atomic<uint64_t> completed_{0};
  std::atomic<uint64_t> retries_{0};
  std::atomic<uint64_t> giveups_{0};
  std::atomic<uint64_t> unauthorized_{0};
  std::atomic<uint64_t> quota_rejected_{0};
  std::atomic<uint64_t> session_expired_{0};
  std::atomic<uint64_t> ingests_{0};
  std::atomic<uint64_t> ingest_failures_{0};
  std::atomic<uint64_t> lfm_pages_{0};
  std::atomic<double> network_seconds_{0.0};
  obs::StageHistogram latency_;
  obs::StageHistogram queue_wait_;
};

}  // namespace qbism::service

#endif  // QBISM_SERVICE_METRICS_H_
