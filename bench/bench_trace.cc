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
// against no tracer at all (the near-zero-overhead claim), and the full
// span buffer of the last class is exported in chrome://tracing format.
//
// `--smoke` shrinks repetitions and the realize scale for the
// perf-labeled ctest.

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

/// Wall seconds for `requests` box queries against an untraced or
/// traced-but-disabled service — the disabled-path overhead arm.
double TimeQueries(SpatialExtension* ext, Tracer* tracer, int study_id,
                   int requests) {
  ServiceOptions options;
  options.num_workers = 1;
  options.cache_entries = 0;
  options.tracer = tracer;
  QueryService service(ext, options);
  QuerySpec spec;
  spec.study_id = study_id;
  spec.box = qbism::geometry::Box3i{{30, 30, 30}, {100, 100, 100}};
  qbism::WallTimer wall;
  for (int i = 0; i < requests; ++i) {
    ServiceRequest request;
    request.spec = spec;
    QBISM_CHECK(service.Execute(request).ok());
  }
  double seconds = wall.Seconds();
  service.Shutdown();
  return seconds;
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
  db.long_field_device()->set_realize_scale(0.0);
  const int kOverheadRequests = smoke ? 8 : 48;
  double untraced = TimeQueries(ext.get(), nullptr, study_id,
                                kOverheadRequests);
  Tracer disabled_tracer;
  disabled_tracer.set_enabled(false);
  double disabled = TimeQueries(ext.get(), &disabled_tracer, study_id,
                                kOverheadRequests);
  double overhead_pct = (disabled / untraced - 1.0) * 100.0;
  std::printf(
      "\nDisabled-tracer overhead: %d requests untraced %.4f s, "
      "disabled tracer %.4f s -> %+.2f%%\n",
      kOverheadRequests, untraced, disabled, overhead_pct);
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
  json.Add("overhead_disabled_pct", overhead_pct);
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
