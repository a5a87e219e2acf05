// Shared pieces of the QBISM end-to-end benchmark (perfbench): command
// line, clocks, percentiles, the metric report, and span bookkeeping.
//
// One process drives one workload. A timed run keeps tracing off; a
// traced run (--trace 1) repeats the same request list with spans on
// and reports per-layer metrics instead of end-to-end ones.

#ifndef QBISM_PERFBENCH_BENCH_H_
#define QBISM_PERFBENCH_BENCH_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "obs/trace.h"

namespace perfbench {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  // Miniature mode: tiny request lists and a small corpus, so the
  // benchmark's own test runs every code path in seconds.
  bool mini = false;
  // Test hook: flip one byte of one answer (or one row) after it
  // arrives, so the test can prove the correctness checks fire.
  bool corrupt = false;
};

double NowSeconds();             // steady clock
double ProcessCpuSeconds();      // getrusage(RUSAGE_SELF): user + sys
double PeakRssMb();              // getrusage(RUSAGE_SELF).ru_maxrss

/// Host CPU time stolen by the hypervisor, from /proc/stat: call
/// Start() before a measured slice and StealPercent() after it.
class StealMeter {
 public:
  void Start();
  double StealPercent() const;

 private:
  static bool Read(uint64_t* total, uint64_t* steal);
  uint64_t total0_ = 0;
  uint64_t steal0_ = 0;
};

/// Nearest-rank percentile (p in [0, 1]) of `samples`; 0 when empty.
double Percentile(std::vector<double> samples, double p);
double Median(std::vector<double> samples);
double Mean(const std::vector<double>& samples);

/// 64-bit FNV-1a style hash, 8 bytes per step.
uint64_t HashBytes(const void* data, size_t size, uint64_t seed);

/// Metrics of one run. `samples` is how many observations the value
/// summarizes (requests, writes, probes...).
class Report {
 public:
  void Add(const std::string& name, double value, const std::string& unit,
           uint64_t samples);
  /// Free-form lines (stamp, error rate, writer lag) printed before the
  /// metrics.
  void Note(const std::string& line) { notes_.push_back(line); }

  /// Prints the notes, an error_rate line, one line per metric, then
  /// the result as one JSON object on the last line of stdout, and
  /// returns the exit code (0 iff nothing failed). A traced run prints
  /// the per-layer metrics in their fixed order, each one the workload
  /// did not measure as 0 with samples=0.
  int Finish(bool traced, uint64_t attempted, uint64_t failed) const;

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
    uint64_t samples;
  };
  std::vector<std::string> notes_;
  std::vector<Metric> metrics_;
};

/// Records a benchmark-side span into `tracer` (label "bench.<what>") and
/// returns the context layer code running under it should inherit, so
/// the program's own stage spans become its children.
class BenchSpan {
 public:
  BenchSpan(qbism::obs::Tracer* tracer, const char* label);
  ~BenchSpan();
  BenchSpan(const BenchSpan&) = delete;
  BenchSpan& operator=(const BenchSpan&) = delete;

  const qbism::obs::TraceContext& context() const { return ctx_; }

 private:
  qbism::obs::Tracer* tracer_;
  qbism::obs::TraceContext ctx_;
  qbism::obs::SpanRecord record_;
};

/// The request list: whole passes over `pool_size` distinct requests,
/// each pass in its own seeded order, at least `length` long. Every
/// seed runs the same multiset of requests.
std::vector<size_t> MakePassList(size_t pool_size, size_t length,
                                 uint64_t seed);

/// Reads of one closed-loop run.
struct ReadPass {
  std::vector<double> latencies;  // correct reads, seconds
  uint64_t attempted = 0;
  uint64_t failed = 0;  // errors plus wrong answers
  double wall_seconds = 0.0;  // the readers' span
  double cpu_seconds = 0.0;   // process CPU over that span

  void Absorb(const ReadPass& other);
};

/// Runs entries 0..count-1 of a request list on `threads` closed-loop
/// threads (thread t takes t, t + threads, ...). `read(t, j)` performs
/// entry j and returns whether its answer was right; the harness times
/// it. `beside`, when set, runs on its own thread from the same start
/// and is joined after the readers' clock stops.
ReadPass RunClosedLoop(int threads, size_t count,
                       const std::function<bool(int, size_t)>& read,
                       const std::function<void()>& beside = nullptr);

/// Runs `setup` `times` times; returns each one's wall seconds.
std::vector<double> TimeSetups(int times, const std::function<void()>& setup);

/// One measured slice of a timed run.
struct Segment {
  ReadPass reads;
  double steal_pct = 0.0;  // host steal during the slice
};

/// A timed run: the list split into at most `max_segments` slices of
/// whole passes over the distinct requests, run one after another.
struct TimedRun {
  std::vector<Segment> segments;  // the scored slices, in order
  ReadPass total;                 // their reads together
  uint64_t reruns = 0;            // slices re-run after host steal
  uint64_t disturbed = 0;         // reads of slices still over the limit
};

/// Host steal above this share of a slice's CPU time means another
/// guest took the cores: the slice is run again, up to once per slice
/// in total; reads of a slice still over it when the re-runs are spent
/// count as failed, so such a run is never scored as a normal one.
constexpr double kMaxStealPct = 10.0;

/// Runs the timed list. `run_slice(k, begin, end)` runs list entries
/// [begin, end) as slice k (again, if slice k is re-run) and returns its
/// reads. Notes the per-slice throughput and steal in `report`.
TimedRun RunTimed(size_t list_size, size_t pool_size, size_t max_segments,
                  const std::function<ReadPass(size_t, size_t, size_t)>&
                      run_slice,
                  Report* report);

/// Adds the end-to-end metrics: setup_s (median set-up), qps,
/// latency_p50_ms, latency_p90_ms, latency_p99_ms, cpu_ms_per_query and
/// peak_rss_mb. qps, CPU per read, p50 and p90 are medians of the
/// per-slice values, so a burst of host interference moves one slice
/// rather than the run; p99 is taken over every read of the run, which
/// needs >= 1000 of them.
void AddEndToEnd(const std::vector<double>& setup_seconds,
                 const TimedRun& run, Report* report);

/// Span tree statistics over everything a tracer recorded.
struct SpanTotals {
  // Sum of the durations of the benchmark's own root spans.
  double bench_root_seconds = 0.0;
  // Time under those roots covered by the program's stage spans (their
  // interval union, clipped to the root), plus the full duration of
  // detached program roots (server-side kRequest trees, which run
  // inside a client's root but carry no link across the socket).
  double covered_seconds = 0.0;
  // Self time per stage: duration minus the part its children cover.
  double self_seconds[qbism::obs::kNumStages] = {};
  // All durations per stage (for percentiles).
  std::vector<double> durations[qbism::obs::kNumStages];
};
SpanTotals SummarizeSpans(const std::vector<qbism::obs::SpanRecord>& spans);

/// Stamp line: workload, seed, run length, mode, nproc and build type
/// (run.py prints the source sha beside it).
std::string StampLine(const Args& args);

}  // namespace perfbench

#endif  // QBISM_PERFBENCH_BENCH_H_
