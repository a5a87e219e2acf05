#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <map>
#include <numeric>
#include <string>
#include <thread>

#include "bench.h"
#include "common/macros.h"
#include "common/rng.h"

namespace perfbench {

namespace obs = qbism::obs;

double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double ProcessCpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + 1e-6 * tv.tv_usec;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

bool StealMeter::Read(uint64_t* total, uint64_t* steal) {
  FILE* f = std::fopen("/proc/stat", "r");
  if (f == nullptr) return false;
  unsigned long long v[8] = {};
  int got = std::fscanf(f, "cpu %llu %llu %llu %llu %llu %llu %llu %llu",
                        &v[0], &v[1], &v[2], &v[3], &v[4], &v[5], &v[6],
                        &v[7]);
  std::fclose(f);
  if (got != 8) return false;
  *total = 0;
  for (unsigned long long x : v) *total += x;
  *steal = v[7];
  return true;
}

void StealMeter::Start() {
  if (!Read(&total0_, &steal0_)) total0_ = steal0_ = 0;
}

double StealMeter::StealPercent() const {
  uint64_t total = 0, steal = 0;
  if (!Read(&total, &steal) || total <= total0_) return 0.0;
  return 100.0 * static_cast<double>(steal - steal0_) /
         static_cast<double>(total - total0_);
}

double Percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  double rank = std::ceil(p * static_cast<double>(samples.size()));
  size_t at = rank < 1.0 ? 0 : static_cast<size_t>(rank) - 1;
  return samples[std::min(at, samples.size() - 1)];
}

double Median(std::vector<double> samples) {
  return Percentile(std::move(samples), 0.5);
}

double Mean(const std::vector<double>& samples) {
  if (samples.empty()) return 0.0;
  double sum = 0.0;
  for (double s : samples) sum += s;
  return sum / static_cast<double>(samples.size());
}

uint64_t HashBytes(const void* data, size_t size, uint64_t seed) {
  const auto* bytes = static_cast<const uint8_t*>(data);
  uint64_t h = 0xcbf29ce484222325ull ^ seed;
  size_t i = 0;
  for (; i + 8 <= size; i += 8) {
    uint64_t word;
    std::memcpy(&word, bytes + i, 8);
    h = (h ^ word) * 0x100000001b3ull;
    h ^= h >> 29;
  }
  for (; i < size; ++i) h = (h ^ bytes[i]) * 0x100000001b3ull;
  return h ^ size;
}

namespace {

struct MetricName {
  const char* name;
  const char* unit;
};

// Every per-layer metric of BENCHMARK.json, in its order. A traced run
// prints all of them; the benchmark's self-test checks the two agree.
constexpr MetricName kPerLayerMetrics[] = {
    {"server.encode_ms_per_mb", "ms/MB"},
    {"server.crc_ms_per_mb", "ms/MB"},
    {"server.decode_ms_per_mb", "ms/MB"},
    {"server.ship_mb_per_query", "MB"},
    {"server.frames_per_query", "count"},
    {"service.queue_wait_ms_p50", "ms"},
    {"service.admit_wait_ms_p50", "ms"},
    {"qbism.extract_ms_per_query", "ms"},
    {"qbism.extract_shards_per_query", "count"},
    {"qbism.ingest_ms_per_study", "ms"},
    {"storage.lfm_pages_per_query", "count"},
    {"storage.pages_per_result_mb", "count/MB"},
    {"storage.wal_bytes_per_study", "B"},
    {"storage.wal_syncs_per_study", "count"},
    {"storage.wal_sync_ms", "ms"},
    {"storage.vacuum_pages_freed", "count"},
    {"sql.optimize_ms", "ms"},
    {"sql.compile_ms", "ms"},
    {"sql.plan_cache_hit_rate", "ratio"},
    {"sql.exec_ms_per_stmt", "ms"},
    {"sql.rows_examined_per_row", "ratio"},
    {"index.probe_ms", "ms"},
    {"index.candidate_frac", "ratio"},
    {"index.pages_per_probe", "count"},
    {"index.upsert_ms", "ms"},
    {"region.encoded_op_ms", "ms"},
    {"compress.gamma_msym_per_s", "Msym/s"},
    {"curve.span_decode_ns_per_voxel", "ns"},
    {"warp.ms_per_study", "ms"},
    {"obs.trace_overhead_pct", "%"},
    {"obs.stage_coverage_pct", "%"},
};

}  // namespace

void Report::Add(const std::string& name, double value,
                 const std::string& unit, uint64_t samples) {
  metrics_.push_back({name, value, unit, samples});
}

int Report::Finish(bool traced, uint64_t attempted, uint64_t failed) const {
  std::vector<Metric> metrics = metrics_;
  if (traced) {
    metrics.clear();
    for (const MetricName& known : kPerLayerMetrics) {
      auto it = std::find_if(metrics_.begin(), metrics_.end(),
                             [&](const Metric& m) { return m.name == known.name; });
      metrics.push_back(it != metrics_.end()
                            ? *it
                            : Metric{known.name, 0.0, known.unit, 0});
    }
    for (const Metric& m : metrics_) {
      bool listed = std::any_of(
          std::begin(kPerLayerMetrics), std::end(kPerLayerMetrics),
          [&](const MetricName& known) { return m.name == known.name; });
      QBISM_CHECK(listed);
    }
  }
  for (const std::string& note : notes_) std::printf("%s\n", note.c_str());
  std::printf("error_rate %.6f (failed %llu of %llu operations attempted)\n",
              attempted ? static_cast<double>(failed) / attempted : 1.0,
              static_cast<unsigned long long>(failed),
              static_cast<unsigned long long>(attempted));
  for (const Metric& m : metrics) {
    std::printf("metric %-34s %14.6g %-8s samples=%llu\n", m.name.c_str(),
                m.value, m.unit.c_str(),
                static_cast<unsigned long long>(m.samples));
  }
  const bool correct = failed == 0 && attempted > 0;
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  for (size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    double value = std::isfinite(m.value) ? m.value : 0.0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i ? ", " : "", m.name.c_str(), value, m.unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
  return correct ? 0 : 1;
}

std::vector<size_t> MakePassList(size_t pool_size, size_t length,
                                 uint64_t seed) {
  qbism::Rng rng(seed ^ 0x5bd1e9955bd1e995ull);
  std::vector<size_t> order(pool_size);
  std::iota(order.begin(), order.end(), size_t{0});
  std::vector<size_t> list;
  while (list.size() < length) {
    for (size_t i = pool_size; i > 1; --i) {
      std::swap(order[i - 1], order[rng.NextBounded(i)]);
    }
    list.insert(list.end(), order.begin(), order.end());
  }
  return list;
}

void ReadPass::Absorb(const ReadPass& other) {
  latencies.insert(latencies.end(), other.latencies.begin(),
                   other.latencies.end());
  attempted += other.attempted;
  failed += other.failed;
  wall_seconds += other.wall_seconds;
  cpu_seconds += other.cpu_seconds;
}

ReadPass RunClosedLoop(int threads, size_t count,
                       const std::function<bool(int, size_t)>& read,
                       const std::function<void()>& beside) {
  std::vector<ReadPass> per_thread(static_cast<size_t>(threads));
  std::atomic<int> ready{0};
  std::atomic<bool> go{false};
  auto wait_for_go = [&] {
    ready.fetch_add(1);
    while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
  };
  std::vector<std::thread> readers;
  for (int t = 0; t < threads; ++t) {
    readers.emplace_back([&, t] {
      ReadPass& mine = per_thread[static_cast<size_t>(t)];
      wait_for_go();
      for (size_t j = static_cast<size_t>(t); j < count;
           j += static_cast<size_t>(threads)) {
        ++mine.attempted;
        double start = NowSeconds();
        bool right = read(t, j);
        double latency = NowSeconds() - start;
        if (right) {
          mine.latencies.push_back(latency);
        } else {
          ++mine.failed;
        }
      }
    });
  }
  std::thread side;
  if (beside) {
    side = std::thread([&] {
      wait_for_go();
      beside();
    });
  }
  const int expected = threads + (beside ? 1 : 0);
  while (ready.load() < expected) std::this_thread::yield();
  double cpu0 = ProcessCpuSeconds();
  double t0 = NowSeconds();
  go.store(true, std::memory_order_release);
  for (auto& t : readers) t.join();
  ReadPass out;
  out.wall_seconds = NowSeconds() - t0;
  out.cpu_seconds = ProcessCpuSeconds() - cpu0;
  if (side.joinable()) side.join();
  for (const ReadPass& p : per_thread) {
    out.latencies.insert(out.latencies.end(), p.latencies.begin(),
                         p.latencies.end());
    out.attempted += p.attempted;
    out.failed += p.failed;
  }
  return out;
}

std::vector<double> TimeSetups(int times, const std::function<void()>& setup) {
  std::vector<double> seconds;
  for (int i = 0; i < times; ++i) {
    double start = NowSeconds();
    setup();
    seconds.push_back(NowSeconds() - start);
  }
  return seconds;
}

TimedRun RunTimed(size_t list_size, size_t pool_size, size_t max_segments,
                  const std::function<ReadPass(size_t, size_t, size_t)>&
                      run_slice,
                  Report* report) {
  const size_t passes = list_size / pool_size;
  const size_t parts = std::max<size_t>(1, std::min(passes, max_segments));
  TimedRun run;
  std::string qps_line = "segments qps";
  std::string steal_line = "segments host steal %";
  char buf[64];
  for (size_t k = 0; k < parts; ++k) {
    const size_t begin = k * passes / parts * pool_size;
    const size_t end = (k + 1) * passes / parts * pool_size;
    Segment seg;
    while (true) {
      StealMeter steal;
      steal.Start();
      seg.reads = run_slice(k, begin, end);
      seg.steal_pct = steal.StealPercent();
      if (seg.steal_pct <= kMaxStealPct) break;
      if (run.reruns == parts) {
        run.disturbed += seg.reads.attempted;
        break;
      }
      ++run.reruns;
      std::snprintf(buf, sizeof(buf), " (%.1f rerun)", seg.steal_pct);
      steal_line += buf;
    }
    std::snprintf(buf, sizeof(buf), " %.1f",
                  seg.reads.latencies.size() / seg.reads.wall_seconds);
    qps_line += buf;
    std::snprintf(buf, sizeof(buf), " %.1f", seg.steal_pct);
    steal_line += buf;
    run.total.Absorb(seg.reads);
    run.segments.push_back(std::move(seg));
  }
  report->Note(qps_line);
  report->Note(steal_line);
  if (run.disturbed > 0) {
    char line[128];
    std::snprintf(line, sizeof(line),
                  "HOST DISTURBED: %llu reads over %.0f%% steal (not a "
                  "normal run)",
                  static_cast<unsigned long long>(run.disturbed),
                  kMaxStealPct);
    report->Note(line);
  }
  return run;
}

void AddEndToEnd(const std::vector<double>& setup_seconds,
                 const TimedRun& run, Report* report) {
  std::vector<double> qps, cpu, p50, p90;
  for (const Segment& s : run.segments) {
    const std::vector<double>& lat = s.reads.latencies;
    if (lat.empty()) continue;
    double n = static_cast<double>(lat.size());
    qps.push_back(n / s.reads.wall_seconds);
    cpu.push_back(1e3 * s.reads.cpu_seconds / n);
    p50.push_back(1e3 * Percentile(lat, 0.50));
    p90.push_back(1e3 * Percentile(lat, 0.90));
  }
  const std::vector<double>& all = run.total.latencies;
  const uint64_t n = all.size();
  char line[256];
  std::snprintf(line, sizeof(line),
                "read tail ms: p95 %.3f p99 %.3f p99.5 %.3f p99.9 %.3f "
                "max %.3f",
                1e3 * Percentile(all, 0.95), 1e3 * Percentile(all, 0.99),
                1e3 * Percentile(all, 0.995), 1e3 * Percentile(all, 0.999),
                1e3 * Percentile(all, 1.0));
  report->Note(line);
  report->Add("setup_s", Median(setup_seconds), "s", setup_seconds.size());
  report->Add("qps", Median(qps), "1/s", n);
  report->Add("latency_p50_ms", Median(p50), "ms", n);
  report->Add("latency_p90_ms", Median(p90), "ms", n);
  report->Add("latency_p99_ms", 1e3 * Percentile(all, 0.99), "ms", n);
  report->Add("cpu_ms_per_query", Median(cpu), "ms", n);
  report->Add("peak_rss_mb", PeakRssMb(), "MB", 1);
}

BenchSpan::BenchSpan(obs::Tracer* tracer, const char* label)
    : tracer_(tracer) {
  if (tracer_ == nullptr) return;
  ctx_ = tracer_->StartTrace();
  ctx_.span_id = tracer_->NextSpanId();
  record_.trace_id = ctx_.trace_id;
  record_.span_id = ctx_.span_id;
  record_.parent_id = 0;
  record_.stage = obs::Stage::kQuery;
  std::snprintf(record_.label, sizeof(record_.label), "bench.%s", label);
  record_.start_seconds = tracer_->NowSeconds();
}

BenchSpan::~BenchSpan() {
  if (tracer_ == nullptr) return;
  record_.duration_seconds = tracer_->NowSeconds() - record_.start_seconds;
  tracer_->Record(record_);
}

namespace {

bool IsBenchRoot(const obs::SpanRecord& span) {
  return span.parent_id == 0 && std::strncmp(span.label, "bench.", 6) == 0;
}

/// Length of the union of [start, end) intervals, clipped to [lo, hi).
double CoveredLength(std::vector<std::pair<double, double>> intervals,
                     double lo, double hi) {
  std::sort(intervals.begin(), intervals.end());
  double covered = 0.0;
  double cur_start = 0.0, cur_end = -1.0;
  for (auto [s, e] : intervals) {
    s = std::max(s, lo);
    e = std::min(e, hi);
    if (e <= s) continue;
    if (s > cur_end) {
      if (cur_end > cur_start) covered += cur_end - cur_start;
      cur_start = s;
      cur_end = e;
    } else {
      cur_end = std::max(cur_end, e);
    }
  }
  if (cur_end > cur_start) covered += cur_end - cur_start;
  return covered;
}

}  // namespace

SpanTotals SummarizeSpans(const std::vector<obs::SpanRecord>& spans) {
  SpanTotals out;
  // Children per (trace, parent span).
  std::map<std::pair<uint64_t, uint64_t>, std::vector<size_t>> children;
  std::map<uint64_t, std::vector<size_t>> by_trace;
  for (size_t i = 0; i < spans.size(); ++i) {
    children[{spans[i].trace_id, spans[i].parent_id}].push_back(i);
    by_trace[spans[i].trace_id].push_back(i);
  }
  for (size_t i = 0; i < spans.size(); ++i) {
    const obs::SpanRecord& span = spans[i];
    double start = span.start_seconds;
    double end = start + span.duration_seconds;
    std::vector<std::pair<double, double>> kids;
    auto it = children.find({span.trace_id, span.span_id});
    if (it != children.end()) {
      for (size_t c : it->second) {
        kids.emplace_back(spans[c].start_seconds,
                          spans[c].start_seconds + spans[c].duration_seconds);
      }
    }
    if (IsBenchRoot(span)) {
      out.bench_root_seconds += span.duration_seconds;
      std::vector<std::pair<double, double>> layer;
      for (size_t j : by_trace[span.trace_id]) {
        if (j == i) continue;
        layer.emplace_back(spans[j].start_seconds,
                           spans[j].start_seconds + spans[j].duration_seconds);
      }
      out.covered_seconds += CoveredLength(std::move(layer), start, end);
      continue;
    }
    if (span.parent_id == 0 && span.stage == obs::Stage::kRequest) {
      out.covered_seconds += span.duration_seconds;
    }
    int stage = static_cast<int>(span.stage);
    out.self_seconds[stage] +=
        span.duration_seconds - CoveredLength(std::move(kids), start, end);
    out.durations[stage].push_back(span.duration_seconds);
  }
  return out;
}

std::string StampLine(const Args& args) {
  char line[256];
  std::snprintf(line, sizeof(line),
                "stamp workload=%s seed=%llu seconds=%d trace=%d mini=%d "
                "nproc=%ld build_type=%s",
                args.workload.c_str(),
                static_cast<unsigned long long>(args.seed), args.seconds,
                args.trace ? 1 : 0, args.mini ? 1 : 0,
                sysconf(_SC_NPROCESSORS_ONLN), QBISM_PERFBENCH_BUILD_TYPE);
  return line;
}

}  // namespace perfbench
