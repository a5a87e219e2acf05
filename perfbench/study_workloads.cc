// study_full / study_filtered: Table-3 queries over the wire.
//
// The paper corpus (5 PET + 3 MRI studies, 128^3 atlas, no meshes) is
// served by a QbismServer on localhost with the result cache off; three
// closed-loop NetClient connections, each on its own thread, split one
// seeded request list between them. The distinct requests are fixed:
// one entire-study display per study, or a restricted mix drawn once
// from the service's WorkloadGenerator with a constant seed; --seed only
// orders them. Every answer is hashed and compared
// with the answer an in-process MedicalServer gave for the same spec at
// set-up.

#include <algorithm>
#include <cstdio>
#include <memory>
#include <numeric>
#include <string>
#include <vector>

#include "bench.h"
#include "common/macros.h"
#include "layers.h"
#include "med/loader.h"
#include "med/schema.h"
#include "qbism/medical_server.h"
#include "qbism/parallel_extractor.h"
#include "server/client.h"
#include "server/server.h"
#include "service/workload.h"
#include "sql/database.h"
#include "workloads.h"

namespace perfbench {

namespace obs = qbism::obs;
using qbism::QuerySpec;
using qbism::server::NetClient;
using qbism::server::QbismServer;
using qbism::server::ServerOptions;
using qbism::server::ServerStats;
using qbism::volume::DataRegion;

namespace {

constexpr int kClients = 3;
constexpr size_t kSegments = 5;
// Requests per second of --seconds in the measured list: about what a
// 4-vCPU VM on a quiet host completes, so one run measures about
// --seconds there (longer on a busy or smaller host). The
// list is executed in full however long it takes.
constexpr double kFullPerSecond = 140.0;
constexpr double kFilteredPerSecond = 1400.0;
// The restricted mix: Table-3 Q2-Q6 shapes in the service generator's
// proportions with entire-study displays taken out (box 23.5%,
// structure 41%, band 35%), drawn once with a constant seed.
constexpr qbism::service::WorkloadMix kFilteredMix{0.0, 0.20, 0.35, 0.30};
constexpr uint64_t kPoolSeed = 20260501;
constexpr size_t kFilteredPool = 192;
constexpr size_t kFilteredPoolMini = 24;

struct World {
  qbism::sql::Database db;
  std::unique_ptr<qbism::SpatialExtension> ext;
  qbism::med::LoadedDataset dataset;
  std::vector<QuerySpec> pool;        // the distinct requests
  std::vector<uint64_t> ref_hash;     // per pool entry
  std::vector<DataRegion> ref_data;   // per pool entry (traced runs only)
  std::vector<std::string> ref_sql;   // info + data SQL (traced runs only)
  std::unique_ptr<QbismServer> server;
  std::vector<NetClient> clients;
};

uint64_t HashAnswer(const DataRegion& data) {
  const auto& runs = data.region().runs();
  uint64_t h = HashBytes(runs.data(), runs.size() * sizeof(runs[0]), 0);
  return HashBytes(data.values().data(), data.values().size(), h);
}

std::vector<int> AllStudies(const World& w) {
  std::vector<int> studies = w.dataset.pet_study_ids;
  studies.insert(studies.end(), w.dataset.mri_study_ids.begin(),
                 w.dataset.mri_study_ids.end());
  return studies;
}

/// The distinct requests, the same for every seed: one entire-study
/// display per study, or the restricted mix's first specs.
std::vector<QuerySpec> MakePool(World* w, bool full_study, bool mini) {
  std::vector<QuerySpec> pool;
  if (full_study) {
    for (int study : AllStudies(*w)) {
      QuerySpec spec;
      spec.study_id = study;
      pool.push_back(spec);
    }
    return pool;
  }
  auto generator = qbism::service::WorkloadGenerator::Create(
      w->ext.get(), AllStudies(*w), w->dataset.structure_names, kFilteredMix,
      kPoolSeed);
  QBISM_CHECK(generator.ok());
  size_t size = mini ? kFilteredPoolMini : kFilteredPool;
  while (pool.size() < size) pool.push_back(generator->Next());
  return pool;
}

void StartServer(World* w, obs::Tracer* tracer) {
  ServerOptions options;
  qbism::server::TenantConfig tenant;
  tenant.name = "bench";
  tenant.secret = "bench-secret";
  tenant.max_waiting = 64;
  tenant.max_sessions = 64;
  options.tenants = {tenant};
  options.service.num_workers = kClients;
  options.service.queue_capacity = 64;
  options.service.cache_entries = 0;  // every request does the real work
  options.service.io_wait_scale = 0.0;
  options.service.cost_model.sql_compile_seconds = 0.0;
  options.service.tracer = tracer;
  w->server = std::make_unique<QbismServer>(w->ext.get(), options);
  QBISM_CHECK_OK(w->server->Start());
  for (int c = 0; c < kClients; ++c) {
    auto client = NetClient::Connect("127.0.0.1", w->server->port());
    QBISM_CHECK(client.ok());
    QBISM_CHECK_OK(client->Login("bench", "bench-secret"));
    w->clients.push_back(client.MoveValue());
  }
}

void StopServer(World* w) {
  for (NetClient& client : w->clients) client.Bye();
  w->clients.clear();
  if (w->server) w->server->Shutdown();
  w->server.reset();
}

/// Runs `list` in full: client c takes entries c, c+3, c+6, ...
ReadPass RunPass(World* w, const std::vector<size_t>& list,
                 obs::Tracer* tracer, bool corrupt) {
  return RunClosedLoop(kClients, list.size(), [&](int c, size_t j) {
    size_t ref = list[j];
    auto outcome = [&] {
      BenchSpan span(tracer, "runquery");
      return w->clients[static_cast<size_t>(c)].RunQuery(w->pool[ref]);
    }();
    if (!outcome.ok()) return false;
    uint64_t hash = HashAnswer(outcome->data);
    if (corrupt && j == 0) {
      std::vector<uint8_t> values = outcome->data.values();
      if (!values.empty()) values[values.size() / 2] ^= 0x5a;
      hash = HashAnswer(DataRegion(outcome->data.region(), values));
    }
    return hash == w->ref_hash[ref] &&
           outcome->shipped_bytes == outcome->header.payload_bytes;
  });
}

/// Load, reference answers, server start, and one unmeasured pass over
/// every distinct request.
std::unique_ptr<World> SetUp(const Args& args, bool full_study,
                             bool keep_answers, uint64_t* warmup_failed) {
  auto w = std::make_unique<World>();
  qbism::SpatialConfig config;
  config.region_encoding = qbism::region::RegionEncoding::kEliasDeltas;
  w->ext = qbism::SpatialExtension::Install(&w->db, config).MoveValue();
  QBISM_CHECK_OK(qbism::med::BootstrapSchema(&w->db));
  qbism::med::LoadOptions load;
  load.num_pet_studies = args.mini ? 2 : 5;
  load.num_mri_studies = args.mini ? 0 : 3;
  load.build_meshes = false;
  auto dataset = qbism::med::PopulateDatabase(w->ext.get(), load);
  QBISM_CHECK(dataset.ok());
  w->dataset = dataset.MoveValue();
  w->pool = MakePool(w.get(), full_study, args.mini);

  qbism::ServerCostModel cost;
  cost.sql_compile_seconds = 0.0;
  qbism::MedicalServer reference(w->ext.get(), qbism::net::NetworkCostModel{},
                                 cost);
  for (const QuerySpec& spec : w->pool) {
    auto result = reference.RunStudyQuery(spec, /*render=*/false);
    QBISM_CHECK(result.ok());
    w->ref_hash.push_back(HashAnswer(result->data));
    if (keep_answers) {
      w->ref_data.push_back(std::move(result->data));
      w->ref_sql.push_back(result->info_sql);
      w->ref_sql.push_back(result->data_sql);
    }
  }

  StartServer(w.get(), nullptr);
  std::vector<size_t> warmup(w->pool.size());
  std::iota(warmup.begin(), warmup.end(), size_t{0});
  *warmup_failed += RunPass(w.get(), warmup, nullptr, false).failed;
  return w;
}

void AddLayerMetrics(World* w, const ReadPass& plain,
                     const ReadPass& traced,
                     const std::vector<obs::SpanRecord>& spans,
                     const ServerStats& stats0, const ServerStats& stats1,
                     const qbism::ExtractorStatsSnapshot& extract,
                     uint64_t lfm_pages, uint64_t plan_hits,
                     uint64_t plan_misses, Report* report) {
  const double queries = static_cast<double>(traced.latencies.size());
  const uint64_t n = traced.latencies.size();
  SpanTotals totals = SummarizeSpans(spans);
  auto stage = [&](obs::Stage s) -> const std::vector<double>& {
    return totals.durations[static_cast<int>(s)];
  };
  auto self_ms = [&](obs::Stage s) {
    return 1e3 * totals.self_seconds[static_cast<int>(s)];
  };
  auto sum = [](const std::vector<double>& v) {
    return std::accumulate(v.begin(), v.end(), 0.0);
  };
  double ship_mb = static_cast<double>(stats1.ship_bytes - stats0.ship_bytes) /
                   1e6;

  // Operands for the replays: every distinct answer, once each (the
  // list runs every pool entry equally often).
  std::vector<const DataRegion*> answers;
  std::vector<const qbism::region::Region*> regions;
  std::vector<std::vector<const qbism::region::Region*>> pairs;
  for (const DataRegion& answer : w->ref_data) {
    answers.push_back(&answer);
    regions.push_back(&answer.region());
  }
  for (size_t i = 0; i + 1 < regions.size(); i += 2) {
    pairs.push_back({regions[i], regions[i + 1]});
  }
  CodecReplay codec = ReplayAnswerCodec(answers);

  report->Add("server.encode_ms_per_mb", codec.encode_ms_per_mb, "ms/MB",
              answers.size());
  report->Add("server.crc_ms_per_mb", codec.crc_ms_per_mb, "ms/MB",
              answers.size());
  report->Add("server.decode_ms_per_mb", codec.decode_ms_per_mb, "ms/MB",
              answers.size());
  report->Add("server.ship_mb_per_query", ship_mb / queries, "MB", n);
  report->Add("server.frames_per_query",
              static_cast<double>(stats1.frames_written -
                                  stats0.frames_written) /
                  queries,
              "count", n);
  report->Add("service.queue_wait_ms_p50",
              1e3 * Median(stage(obs::Stage::kQueueWait)), "ms",
              stage(obs::Stage::kQueueWait).size());
  report->Add("service.admit_wait_ms_p50",
              1e3 * Median(stage(obs::Stage::kAdmit)), "ms",
              stage(obs::Stage::kAdmit).size());
  report->Add("qbism.extract_ms_per_query",
              1e3 * sum(stage(obs::Stage::kExtract)) / queries, "ms", n);
  report->Add("qbism.extract_shards_per_query",
              static_cast<double>(extract.shard_tasks) / queries, "count", n);
  report->Add("storage.lfm_pages_per_query",
              static_cast<double>(lfm_pages) / queries, "count", n);
  report->Add("storage.pages_per_result_mb",
              ship_mb > 0 ? static_cast<double>(lfm_pages) / ship_mb : 0.0,
              "count/MB", n);
  report->Add("sql.optimize_ms", 1e3 * Mean(stage(obs::Stage::kOptimize)),
              "ms", stage(obs::Stage::kOptimize).size());
  report->Add("sql.compile_ms", 1e3 * Mean(stage(obs::Stage::kCompile)),
              "ms", stage(obs::Stage::kCompile).size());
  double lookups = static_cast<double>(plan_hits + plan_misses);
  report->Add("sql.plan_cache_hit_rate",
              lookups > 0 ? static_cast<double>(plan_hits) / lookups : 0.0,
              "ratio", plan_hits + plan_misses);
  // Two statements per request (the §3.4 info and data queries); their
  // self time excludes the extraction, scan and I/O spans beneath them.
  report->Add("sql.exec_ms_per_stmt",
              (self_ms(obs::Stage::kInfo) + self_ms(obs::Stage::kData)) /
                  (2.0 * queries),
              "ms", 2 * n);
  // Every pool entry runs equally often (whole passes), so the distinct
  // statements weigh equally.
  report->Add("sql.rows_examined_per_row",
              RowsExaminedPerRow(&w->db, w->ref_sql), "ratio",
              w->ref_sql.size());
  report->Add("region.encoded_op_ms", ReplayEncodedIntersect(pairs), "ms",
              pairs.size());
  report->Add("compress.gamma_msym_per_s", ReplayGammaDecode(regions),
              "Msym/s", regions.size());
  report->Add("curve.span_decode_ns_per_voxel", ReplayHilbertSpan(regions),
              "ns", regions.size());
  std::vector<int> warp_studies = {AllStudies(*w).front()};
  report->Add("warp.ms_per_study", ReplayWarp(w->ext.get(), warp_studies),
              "ms", warp_studies.size());
  double plain_cpu = plain.cpu_seconds / plain.latencies.size();
  double traced_cpu = traced.cpu_seconds / queries;
  report->Add("obs.trace_overhead_pct",
              100.0 * (traced_cpu - plain_cpu) / plain_cpu, "%", n);
  report->Add("obs.stage_coverage_pct",
              totals.bench_root_seconds > 0
                  ? 100.0 * totals.covered_seconds / totals.bench_root_seconds
                  : 0.0,
              "%", n);
}

}  // namespace

int RunStudyWorkload(const Args& args, bool full_study) {
  const int setups = args.mini ? 2 : 3;
  std::unique_ptr<World> world;
  uint64_t warmup_failed = 0;
  std::vector<double> setup_seconds = TimeSetups(setups, [&] {
    if (world) StopServer(world.get());
    world.reset();
    world = SetUp(args, full_study, args.trace, &warmup_failed);
  });
  World* w = world.get();

  double per_second = full_study ? kFullPerSecond : kFilteredPerSecond;
  size_t target = args.mini ? w->pool.size() * 2
                            : static_cast<size_t>(per_second * args.seconds);
  std::vector<size_t> list = MakePassList(w->pool.size(), target, args.seed);

  Report report;
  report.Note(StampLine(args));
  char line[256];
  std::snprintf(line, sizeof(line),
                "stamp requests=%zu distinct=%zu clients=%d setups=%d",
                list.size(), w->pool.size(), kClients, setups);
  report.Note(line);

  TimedRun timed = RunTimed(
      list.size(), w->pool.size(), kSegments,
      [&](size_t k, size_t begin, size_t end) {
        std::vector<size_t> slice(list.begin() + begin, list.begin() + end);
        return RunPass(w, slice, nullptr, args.corrupt && k == 0);
      },
      &report);
  uint64_t attempted = timed.total.attempted + warmup_failed;
  uint64_t failed = timed.total.failed + warmup_failed + timed.disturbed;
  if (args.trace) {
    // Same list again with tracing on, on a fresh server wired to the
    // tracer; counters are diffed around this pass only.
    StopServer(w);
    obs::TracerOptions topts;
    topts.span_capacity = list.size() * 48 + 4096;  // ~24 spans a request
    obs::Tracer tracer(topts);
    StartServer(w, &tracer);
    ServerStats stats0 = w->server->stats();
    qbism::ExtractorStatsSnapshot extract0 = w->ext->extractor()->stats();
    uint64_t lfm0 = w->db.long_field_device()->stats().pages_read;
    uint64_t hits0 = w->db.plan_cache()->hits();
    uint64_t misses0 = w->db.plan_cache()->misses();
    ReadPass traced = RunPass(w, list, &tracer, args.corrupt);
    ServerStats stats1 = w->server->stats();
    qbism::ExtractorStatsSnapshot extract =
        w->ext->extractor()->stats() - extract0;
    uint64_t lfm_pages = w->db.long_field_device()->stats().pages_read - lfm0;
    uint64_t hits = w->db.plan_cache()->hits() - hits0;
    uint64_t misses = w->db.plan_cache()->misses() - misses0;
    StopServer(w);
    std::snprintf(line, sizeof(line), "trace spans=%llu dropped=%llu",
                  static_cast<unsigned long long>(tracer.recorded()),
                  static_cast<unsigned long long>(tracer.dropped()));
    report.Note(line);
    AddLayerMetrics(w, timed.total, traced, tracer.Spans(), stats0, stats1,
                    extract, lfm_pages, hits, misses, &report);
    attempted += traced.attempted;
    failed += traced.failed;
  } else {
    StopServer(w);
    AddEndToEnd(setup_seconds, timed, &report);
  }
  return report.Finish(args.trace, attempted, failed);
}

}  // namespace perfbench
