#ifndef QBISM_OBS_TRACE_H_
#define QBISM_OBS_TRACE_H_

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"

namespace qbism::obs {

/// Stage tags for spans. One query produces a tree: a kQuery root
/// (admission to reply) whose children partition the request's wall
/// time (kQueueWait, kTranslate, kInfo, kData, kShip, kImport,
/// kRender, ...), with the database phase decomposed further by the
/// layers it crosses (kExtract -> kPlan/kShard -> kIo; kDecode for
/// REGION/DATA_REGION unmarshalling). docs/OBSERVABILITY.md is the
/// reference for what each stage covers.
enum class Stage : uint8_t {
  kQuery = 0,   // whole request, admission -> reply (root span)
  kQueueWait,   // wait for a service slot (recorded retroactively)
  kCacheProbe,  // shared result-cache probe (hit or miss)
  kTranslate,   // QuerySpec -> the two §3.4 SQL statements
  kInfo,        // the atlas/info query (the paper's "other" phase)
  kData,        // the data query, end to end (SQL exec + UDF depth)
  kPlan,        // LFM read planning (PlanRead / BuildReadPlan)
  kIo,          // device page transfers (LFM reads, any thread)
  kDecode,      // REGION / DATA_REGION gamma-decode + unmarshalling
  kShip,        // answer frames written to the client socket
  kImport,      // DX executive ImportVolume
  kRender,      // DX executive rendering
  kExtract,     // one vectored EXTRACT_DATA execution
  kShard,       // one extraction shard task (caller or donated helper)
  kScan,        // one streaming whole-field scan (bandregion/volumemean)
  kRetry,       // transient-fault retry backoff sleep
  kIoWait,      // realized modeled I/O+network wait (io_wait_scale)
  kRequest,     // one wire request on the socket server (root span)
  kAccept,      // reading the request frame off the socket
  kAdmit,       // never recorded; kept for perfbench, which names it
  kIngest,      // one online study ingest (warp + band + store, logged)
  kWalSync,     // write-ahead-log page flush (the commit fsync)
  kVacuum,      // reclamation of dead long-field extents
  kOptimize,    // SQL cost-based planning (statistics + join order)
  kCompile,     // SQL plan -> batch-VM bytecode lowering
  kIndexBuild,  // cross-study spatial index pack/rebuild (src/index)
  kIndexProbe,  // one R-tree + bitmap candidate probe
};
inline constexpr int kNumStages = 27;

/// Stable lower-case stage name ("query", "queue", "io", ...).
const char* StageName(Stage stage);

class Tracer;

/// The propagated handle: which tracer (if any) records spans on this
/// thread, which trace (query) the work belongs to, and the span the
/// next child should hang under. Copyable POD; an all-zero context is
/// valid and means "tracing off".
struct TraceContext {
  Tracer* tracer = nullptr;
  uint64_t trace_id = 0;
  uint64_t span_id = 0;  // parent span for children opened under this
};

/// The calling thread's current context. Work that crosses threads
/// (TaskPool donation) captures the submitter's context and installs it
/// on the executing thread with ScopedTraceContext, so helper work is
/// attributed to the owning query.
TraceContext& CurrentTraceContext();

/// RAII install/restore of the thread's current context.
class ScopedTraceContext {
 public:
  explicit ScopedTraceContext(const TraceContext& ctx)
      : saved_(CurrentTraceContext()) {
    CurrentTraceContext() = ctx;
  }
  ~ScopedTraceContext() { CurrentTraceContext() = saved_; }
  ScopedTraceContext(const ScopedTraceContext&) = delete;
  ScopedTraceContext& operator=(const ScopedTraceContext&) = delete;

 private:
  TraceContext saved_;
};

/// One finished span. `start_seconds` is relative to the tracer's
/// construction (its epoch), so spans from all threads share a clock.
struct SpanRecord {
  uint64_t trace_id = 0;
  uint64_t span_id = 0;
  uint64_t parent_id = 0;  // 0 = root
  Stage stage = Stage::kQuery;
  bool ok = true;
  uint32_t thread = 0;  // stable per-thread hash, not a TID
  double start_seconds = 0.0;
  double duration_seconds = 0.0;
  uint64_t pages = 0;  // page transfers attributed to this span
  uint64_t bytes = 0;  // payload bytes attributed to this span
  char label[16] = {0};  // optional short tag ("full", "retry2", ...)
};

/// Aggregated view of one stage's histogram (percentiles are estimated
/// from log-linear latency buckets to within 1/16; count/total/max are
/// exact).
struct StageSummary {
  Stage stage = Stage::kQuery;
  uint64_t count = 0;
  double total_seconds = 0.0;
  double p50 = 0.0;
  double p95 = 0.0;
  double p99 = 0.0;
  double max_seconds = 0.0;
  uint64_t pages = 0;
  uint64_t bytes = 0;
};

struct TracerOptions {
  /// Completed spans kept for DumpTrace; further spans still feed the
  /// stage histograms but their records are dropped (counted).
  size_t span_capacity = 1 << 16;
  bool enabled = true;
};

/// Lock-free latency histogram, the library's one latency
/// distribution (tracer stages, service latency and queue wait,
/// per-tenant wire latency). Log-linear nanosecond buckets in the
/// HdrHistogram style: durations below 8 ns get one bucket each; every
/// power-of-two octave [2^e, 2^{e+1}) above that is split into 8 equal
/// sub-buckets, so a bucket is at most 1/8 of its lower bound wide and
/// its midpoint is within 1/16 of any duration in it. Count / total /
/// max are exact. All relaxed atomics: recording from many threads
/// never takes a lock.
class StageHistogram {
 public:
  static constexpr int kSubBits = 3;  // 8 sub-buckets per octave
  static constexpr int kSubBuckets = 1 << kSubBits;
  static constexpr int kTopOctave = 47;  // up to 2^48 ns ~ 78 hours
  static constexpr int kBuckets = (kTopOctave - kSubBits + 2) * kSubBuckets;

  void Record(uint64_t nanos) {
    count_.fetch_add(1, std::memory_order_relaxed);
    total_nanos_.fetch_add(nanos, std::memory_order_relaxed);
    buckets_[BucketOf(nanos)].fetch_add(1, std::memory_order_relaxed);
    uint64_t prev = max_nanos_.load(std::memory_order_relaxed);
    while (nanos > prev && !max_nanos_.compare_exchange_weak(
                               prev, nanos, std::memory_order_relaxed)) {
    }
  }

  /// Record() for a duration in seconds, rounded to the nanosecond
  /// (negative clamps to zero).
  void RecordSeconds(double seconds) {
    Record(static_cast<uint64_t>(std::max(0.0, seconds) * 1e9 + 0.5));
  }

  void AddPayload(uint64_t pages, uint64_t bytes) {
    if (pages) pages_.fetch_add(pages, std::memory_order_relaxed);
    if (bytes) bytes_.fetch_add(bytes, std::memory_order_relaxed);
  }

  uint64_t count() const { return count_.load(std::memory_order_relaxed); }

  /// Aggregates the buckets into a summary for `stage`.
  StageSummary Summarize(Stage stage) const;

  /// Not thread-safe against concurrent Record; quiesce first.
  void Reset();

  /// Bucket index of a duration; past the top octave, the last bucket.
  static int BucketOf(uint64_t nanos) {
    if (nanos < kSubBuckets) return static_cast<int>(nanos);
    int octave = 63 - std::countl_zero(nanos);
    if (octave > kTopOctave) return kBuckets - 1;
    // The top kSubBits + 1 bits are 1sss: the octave's leading one and
    // the sub-bucket.
    int top = static_cast<int>(nanos >> (octave - kSubBits));
    return (octave - kSubBits) * kSubBuckets + top;
  }

  /// Smallest duration (ns) that lands in `bucket`; bucket b covers
  /// [BucketLowerBound(b), BucketLowerBound(b + 1)).
  static uint64_t BucketLowerBound(int bucket) {
    if (bucket < kSubBuckets) return static_cast<uint64_t>(bucket);
    int octave = bucket / kSubBuckets + kSubBits - 1;
    uint64_t top = static_cast<uint64_t>(kSubBuckets + bucket % kSubBuckets);
    return top << (octave - kSubBits);
  }

 private:
  std::atomic<uint64_t> count_{0};
  std::atomic<uint64_t> total_nanos_{0};
  std::atomic<uint64_t> max_nanos_{0};
  std::atomic<uint64_t> pages_{0};
  std::atomic<uint64_t> bytes_{0};
  std::atomic<uint64_t> buckets_[kBuckets] = {};
};

/// The tracing sink: hands out trace/span ids, stores finished spans in
/// a bounded lock-free buffer, and aggregates per-stage histograms.
/// One Tracer is shared by a whole service (all workers and helper
/// threads); recording is wait-free. When disabled (or when no tracer
/// is installed in the current context) every Span is inert: the cost
/// of an instrumentation point is one thread-local read and a branch.
///
/// Reset() and the dump accessors may run concurrently with recording
/// (they see a consistent prefix), but Reset() concurrent with
/// recording loses the racing spans; quiesce for exact results.
class Tracer {
 public:
  explicit Tracer(TracerOptions options = {});

  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  void set_enabled(bool on) {
    enabled_.store(on, std::memory_order_relaxed);
  }

  /// Seconds since this tracer's construction (the span clock).
  double NowSeconds() const;

  /// Fresh trace: new trace id, no parent span.
  TraceContext StartTrace() {
    return TraceContext{this, next_trace_.fetch_add(1, std::memory_order_relaxed),
                        0};
  }

  uint64_t NextSpanId() {
    return next_span_.fetch_add(1, std::memory_order_relaxed);
  }

  /// Records a finished span: feeds the stage histogram and (capacity
  /// permitting) the span buffer. Used by Span::End and directly for
  /// retroactive spans (queue wait).
  void Record(const SpanRecord& record);

  /// --- Aggregates ------------------------------------------------------

  /// Per-stage summaries for every stage with at least one span, in
  /// Stage order.
  std::vector<StageSummary> StageSummaries() const;

  uint64_t recorded() const {
    return recorded_.load(std::memory_order_relaxed);
  }
  uint64_t dropped() const { return dropped_.load(std::memory_order_relaxed); }

  /// Clears spans and histograms (see class comment re concurrency).
  void Reset();

  /// --- Structured export (DumpTrace / DumpStats) -----------------------

  /// Finished spans currently buffered, in completion order.
  std::vector<SpanRecord> Spans() const;

  /// One JSON object per line per span.
  std::string DumpTraceJsonl() const;

  /// chrome://tracing "trace_event" JSON (open chrome://tracing or
  /// https://ui.perfetto.dev and load the file).
  std::string DumpTraceChrome() const;

  /// Human-readable per-stage table (DumpStats).
  std::string DumpStatsTable() const;

  /// Per-stage summaries as a JSON array (embeds in MetricsSnapshot).
  static std::string StagesToJson(const std::vector<StageSummary>& stages);

  Status WriteFile(const std::string& path, const std::string& contents) const;

 private:
  struct Slot {
    std::atomic<uint32_t> ready{0};
    SpanRecord record;
  };

  TracerOptions options_;
  std::atomic<bool> enabled_;
  std::atomic<uint64_t> next_trace_{1};
  std::atomic<uint64_t> next_span_{1};
  std::atomic<uint64_t> next_slot_{0};
  std::atomic<uint64_t> recorded_{0};
  std::atomic<uint64_t> dropped_{0};
  std::unique_ptr<Slot[]> slots_;
  StageHistogram histograms_[kNumStages];
  double epoch_seconds_ = 0.0;  // steady-clock seconds at construction
};

/// RAII span. Construction captures the parent context (explicitly or
/// from the thread-local current context); destruction or End()
/// records. Inert — no clock reads, no allocation — when the context
/// has no tracer or the tracer is disabled.
class Span {
 public:
  explicit Span(Stage stage) : Span(CurrentTraceContext(), stage) {}
  Span(const TraceContext& parent, Stage stage);
  ~Span() { End(); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  bool active() const { return tracer_ != nullptr; }

  /// Context for children of this span. Falls through to the parent
  /// context when inert, so nesting code needs no special-casing.
  TraceContext context() const {
    return active()
               ? TraceContext{tracer_, record_.trace_id, record_.span_id}
               : parent_;
  }

  void AddPages(uint64_t pages) { record_.pages += pages; }
  void AddBytes(uint64_t bytes) { record_.bytes += bytes; }
  void SetFailed() { record_.ok = false; }
  void SetLabel(const char* label) {
    if (!active() || label == nullptr) return;
    std::strncpy(record_.label, label, sizeof(record_.label) - 1);
    record_.label[sizeof(record_.label) - 1] = '\0';
  }

  /// Records the span (idempotent; the destructor calls it).
  void End();

 private:
  Tracer* tracer_ = nullptr;
  TraceContext parent_;
  SpanRecord record_;
};

}  // namespace qbism::obs

#endif  // QBISM_OBS_TRACE_H_
