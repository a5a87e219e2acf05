// E18 — stage-level response-time breakdown via the tracing layer: the
// paper reports end-to-end response times (Q1 entire study 69 s vs
// 15-28 s for REGION- and intensity-filtered queries) but not where the
// time goes. This bench runs the three query classes through the traced
// query service with the 1993 I/O cost model realized as wall waits,
// and reports a measured per-stage table (slot wait / translate / info /
// data, with plan / io / decode beneath it) per class, checking that the
// direct stages
// sum to the end-to-end latency within 10% — the tracer's coverage
// guarantee. A final arm measures the cost of a *disabled* tracer
// against no tracer at all (the near-zero-overhead claim) in alternating
// rounds, judged on the median per-round ratio, and the full
// span buffer of the last class is exported in chrome://tracing format.
//
// `--smoke` shrinks repetitions and the realize scale for the
// perf-labeled ctest.

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/macros.h"
#include "common/timer.h"
#include "med/loader.h"
#include "med/schema.h"
#include "obs/trace.h"
#include "service/query_service.h"

using qbism::QuerySpec;
using qbism::SpatialConfig;
using qbism::SpatialExtension;
using qbism::bench::BenchJson;
using qbism::obs::Stage;
using qbism::obs::StageName;
using qbism::obs::StageSummary;
using qbism::obs::Tracer;
using qbism::service::MetricsSnapshot;
using qbism::service::QueryService;
using qbism::service::ServiceOptions;
using qbism::service::ServiceRequest;

namespace {

/// The stages that partition a served request's wall time end to end
/// (deeper stages — extract, shard, plan, io, decode — nest inside kData
/// and would double-count). The service serves the database half only,
/// so no ship / import / render stage appears.
constexpr Stage kDirectStages[] = {
    Stage::kQueueWait, Stage::kCacheProbe, Stage::kTranslate, Stage::kInfo,
    Stage::kData,      Stage::kRetry,      Stage::kIoWait,
};

struct ClassResult {
  std::string name;
  int requests = 0;
  std::vector<StageSummary> stages;
  double root_seconds = 0.0;      // summed kQuery span durations
  double direct_seconds = 0.0;    // summed direct-stage durations
  double metrics_seconds = 0.0;   // end-to-end from MetricsSnapshot
  double coverage = 0.0;          // direct / metrics
  double modeled_total = 0.0;     // 1993 cost-model seconds (last reply)
  uint64_t lfm_pages = 0;
};

double StageTotal(const std::vector<StageSummary>& stages, Stage stage) {
  for (const StageSummary& s : stages) {
    if (s.stage == stage) return s.total_seconds;
  }
  return 0.0;
}

/// Replays `spec` through a fresh single-worker traced service with the
/// shared cache off, so every request walks the full query path.
ClassResult RunClass(SpatialExtension* ext, Tracer* tracer,
                     const std::string& name, const QuerySpec& spec,
                     int requests) {
  tracer->Reset();
  ServiceOptions options;
  options.num_workers = 1;
  options.cache_entries = 0;
  options.tracer = tracer;
  QueryService service(ext, options);

  ClassResult out;
  out.name = name;
  out.requests = requests;
  for (int i = 0; i < requests; ++i) {
    ServiceRequest request;
    request.spec = spec;
    auto reply = service.Execute(request);
    QBISM_CHECK(reply.ok());
    out.modeled_total = reply->result.timing.total_seconds;
    out.lfm_pages = reply->result.timing.lfm_pages;
  }
  MetricsSnapshot metrics = service.metrics();
  service.Shutdown();  // quiesce before reading aggregates

  out.stages = tracer->StageSummaries();
  out.root_seconds = StageTotal(out.stages, Stage::kQuery);
  for (Stage stage : kDirectStages) {
    out.direct_seconds += StageTotal(out.stages, stage);
  }
  out.metrics_seconds = metrics.latency.total_seconds;
  out.coverage = out.metrics_seconds > 0.0
                     ? out.direct_seconds / out.metrics_seconds
                     : 0.0;
  return out;
}

void PrintClass(const ClassResult& r, const Tracer& tracer) {
  std::printf("\n--- %s: %d requests ---\n", r.name.c_str(), r.requests);
  std::printf("%s", tracer.DumpStatsTable().c_str());
  std::printf(
      "end-to-end %.4f s (metrics), root spans %.4f s, direct stages "
      "%.4f s -> coverage %.1f%% %s\n",
      r.metrics_seconds, r.root_seconds, r.direct_seconds,
      100.0 * r.coverage,
      r.coverage >= 0.9 && r.coverage <= 1.1 ? "[within 10%]"
                                             : "[OUTSIDE 10%]");
  std::printf("modeled 1993 response time: %.1f s (%llu LFM page I/Os)\n",
              r.modeled_total, static_cast<unsigned long long>(r.lfm_pages));
}

/// A single-worker, cache-off service for the disabled-path overhead
/// arm: `tracer` is null (untraced) or attached but disabled.
ServiceOptions OverheadOptions(Tracer* tracer) {
  ServiceOptions options;
  options.num_workers = 1;
  options.cache_entries = 0;
  options.tracer = tracer;
  return options;
}

/// Wall seconds for `requests` runs of `spec` through `service`.
double TimeQueries(QueryService* service, const QuerySpec& spec,
                   int requests) {
  qbism::WallTimer wall;
  for (int i = 0; i < requests; ++i) {
    ServiceRequest request;
    request.spec = spec;
    QBISM_CHECK(service->Execute(request).ok());
  }
  return wall.Seconds();
}

/// Nearest-rank quantile of an ascending-sorted, non-empty sample.
double SortedQuantile(const std::vector<double>& sorted, double q) {
  size_t rank = static_cast<size_t>(q * static_cast<double>(sorted.size()));
  return sorted[std::min(rank, sorted.size() - 1)];
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }

  std::printf(
      "QBISM reproduction E18: per-stage response-time breakdown "
      "(tracing layer).\n");
  BenchJson json("trace");
  json.AddString("mode", smoke ? "smoke" : "full");

  std::printf("Loading database (1 PET study, atlas, bands)...\n");
  qbism::sql::Database db;
  auto ext = SpatialExtension::Install(&db, SpatialConfig{}).MoveValue();
  QBISM_CHECK_OK(qbism::med::BootstrapSchema(&db));
  qbism::med::LoadOptions load;
  load.num_pet_studies = 1;
  load.num_mri_studies = 0;
  load.build_meshes = false;
  load.store_raw_volumes = false;
  auto dataset = qbism::med::PopulateDatabase(ext.get(), load);
  QBISM_CHECK(dataset.ok());
  int study_id = dataset->pet_study_ids[0];

  // Realize the modeled LFM service time as wall waits so the io spans
  // carry the cost the 1993 disk actually charged.
  const double kRealizeScale = smoke ? 1.0 / 1000.0 : 1.0 / 200.0;
  const int kRequests = smoke ? 2 : 6;
  db.long_field_device()->set_realize_scale(kRealizeScale);
  std::printf("realize scale 1/%.0f, %d requests per class\n",
              1.0 / kRealizeScale, kRequests);

  Tracer tracer;

  QuerySpec full;
  full.study_id = study_id;
  QuerySpec region = full;
  region.box = qbism::geometry::Box3i{{30, 30, 30}, {100, 100, 100}};
  QuerySpec intensity = full;
  intensity.intensity_range = {224, 255};  // a stored band: index answers

  std::vector<ClassResult> results;
  bool all_within = true;
  struct ClassCase {
    const char* name;
    const QuerySpec* spec;
  };
  const ClassCase cases[] = {{"full-study", &full},
                             {"region-filtered", &region},
                             {"intensity-filtered", &intensity}};
  std::string chrome_trace;
  std::string jsonl_trace;
  for (const ClassCase& c : cases) {
    results.push_back(RunClass(ext.get(), &tracer, c.name, *c.spec,
                               kRequests));
    PrintClass(results.back(), tracer);
    all_within = all_within && results.back().coverage >= 0.9 &&
                 results.back().coverage <= 1.1;
    // Keep the full-study spans for the export files (the richest tree:
    // sharded extraction, deepest nesting).
    if (results.size() == 1) {
      chrome_trace = tracer.DumpTraceChrome();
      jsonl_trace = tracer.DumpTraceJsonl();
    }
  }

  std::printf(
      "\nPaper reference (total response seconds): entire study 69, "
      "REGION-filtered 15-28, intensity-filtered 16-17.\n"
      "Modeled totals above reproduce the shape; the stage tables show "
      "where the wall time goes at 1/%.0f scale.\n",
      1.0 / kRealizeScale);

  // --- Disabled-tracer overhead arm (no realized waits: pure CPU). ----
  // One timed block per side is at the mercy of whatever else the host
  // runs at that moment, so the two sides alternate in short blocks
  // (the leading side swaps every round to cancel drift) and the bound
  // is judged on the median per-round ratio, with its p10-p90 spread.
  db.long_field_device()->set_realize_scale(0.0);
  const int kOverheadRounds = smoke ? 3 : 31;
  const int kOverheadBlock = smoke ? 4 : 64;
  const double kOverheadBoundPct = 2.0;
  Tracer disabled_tracer;
  disabled_tracer.set_enabled(false);
  QueryService untraced_service(ext.get(), OverheadOptions(nullptr));
  QueryService disabled_service(ext.get(), OverheadOptions(&disabled_tracer));
  QuerySpec overhead_spec;
  overhead_spec.study_id = study_id;
  overhead_spec.box = qbism::geometry::Box3i{{30, 30, 30}, {100, 100, 100}};
  TimeQueries(&untraced_service, overhead_spec, kOverheadBlock);  // warm-up
  TimeQueries(&disabled_service, overhead_spec, kOverheadBlock);
  double untraced = 0.0;
  double disabled = 0.0;
  std::vector<double> ratios;
  for (int round = 0; round < kOverheadRounds; ++round) {
    double u = 0.0;
    double d = 0.0;
    if (round % 2 == 0) {
      u = TimeQueries(&untraced_service, overhead_spec, kOverheadBlock);
      d = TimeQueries(&disabled_service, overhead_spec, kOverheadBlock);
    } else {
      d = TimeQueries(&disabled_service, overhead_spec, kOverheadBlock);
      u = TimeQueries(&untraced_service, overhead_spec, kOverheadBlock);
    }
    untraced += u;
    disabled += d;
    ratios.push_back(d / u);
  }
  untraced_service.Shutdown();
  disabled_service.Shutdown();
  std::sort(ratios.begin(), ratios.end());
  const double overhead_pct = (SortedQuantile(ratios, 0.5) - 1.0) * 100.0;
  const double overhead_p10_pct = (SortedQuantile(ratios, 0.1) - 1.0) * 100.0;
  const double overhead_p90_pct = (SortedQuantile(ratios, 0.9) - 1.0) * 100.0;
  const bool overhead_within = overhead_pct < kOverheadBoundPct;
  std::printf(
      "\nDisabled-tracer overhead: %d alternating rounds x %d requests "
      "per side (untraced %.4f s, disabled tracer %.4f s in total)\n"
      "  median per-round overhead %+.2f%% (p10 %+.2f%%, p90 %+.2f%%) "
      "%s\n",
      kOverheadRounds, kOverheadBlock, untraced, disabled, overhead_pct,
      overhead_p10_pct, overhead_p90_pct,
      overhead_within ? "[within the 2% bound]" : "[ABOVE the 2% bound]");
  QBISM_CHECK(disabled_tracer.recorded() == 0);

  // --- Structured outputs. --------------------------------------------
  json.Add("requests_per_class", static_cast<uint64_t>(kRequests));
  json.Add("realize_scale", kRealizeScale);
  for (const ClassResult& r : results) {
    std::string prefix = r.name;
    for (char& ch : prefix) {
      if (ch == '-') ch = '_';
    }
    json.Add(prefix + "_end_to_end_seconds", r.metrics_seconds);
    json.Add(prefix + "_direct_stage_seconds", r.direct_seconds);
    json.Add(prefix + "_coverage", r.coverage);
    json.Add(prefix + "_modeled_total_seconds", r.modeled_total);
    json.Add(prefix + "_lfm_pages", r.lfm_pages);
    for (const StageSummary& s : r.stages) {
      json.Add(prefix + "_stage_" + StageName(s.stage) + "_seconds",
               s.total_seconds);
    }
  }
  json.Add("overhead_untraced_seconds", untraced);
  json.Add("overhead_disabled_seconds", disabled);
  json.Add("overhead_rounds", static_cast<uint64_t>(kOverheadRounds));
  json.Add("overhead_requests_per_block",
           static_cast<uint64_t>(kOverheadBlock));
  json.Add("overhead_disabled_pct", overhead_pct);
  json.Add("overhead_disabled_pct_p10", overhead_p10_pct);
  json.Add("overhead_disabled_pct_p90", overhead_p90_pct);
  json.AddString("overhead_within_2pct", overhead_within ? "true" : "false");
  json.AddString("coverage_within_10pct", all_within ? "true" : "false");

  const char* out = "BENCH_trace.json";
  if (json.WriteFile(out)) {
    std::printf("Wrote %s\n", out);
  } else {
    std::printf("WARNING: could not write %s\n", out);
  }
  if (tracer.WriteFile("BENCH_trace_chrome.json", chrome_trace).ok() &&
      tracer.WriteFile("BENCH_trace_spans.jsonl", jsonl_trace).ok()) {
    std::printf(
        "Wrote BENCH_trace_chrome.json (load in chrome://tracing or "
        "ui.perfetto.dev) and BENCH_trace_spans.jsonl\n");
  }
  if (!all_within) {
    std::printf("FAIL: a query class's stage sum missed the 10%% band\n");
    return 1;
  }
  return 0;
}
