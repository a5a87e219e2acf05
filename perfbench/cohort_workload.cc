// ingest_cohort: a cohort SQL reader beside an open-loop writer, in
// process (SQL has no wire message).
//
// Set-up bulk-loads a population of small studies (32^3 atlas grid)
// through IngestManager with the WAL on and the cross-study spatial
// index attached (set_index_manager + the planner's candidate hook).
// Each study is a raw 32^3 volume of low-intensity noise with one bright
// blob at a study-specific spot, so its high bands are small and the
// index can prune. Then, at the same time:
//   - one closed-loop reader thread runs a seeded ordering of a fixed
//     set of cohort SQL (the same for every seed): selective `intersects(region, boxregion(...)) <> 0`
//     queries with intensity bounds (index probe), and Table-4
//     consistent-band `intersection_n` queries;
//   - one writer thread replaces studies of a fixed churn set with
//     byte-identical records, on a fixed schedule of a fixed count,
//     through QueryService::RunIngest (WAL commit, index upsert,
//     planner-statistics refresh), vacuuming every few writes.
// Catalog rows of a study being replaced are not isolated from
// concurrent scans, so reads cover only the studies the writer never
// touches (`studyId <= <last stable id>`); their answers must equal the
// full-scan answers computed at set-up with the index hook off.

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <numeric>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "bench.h"
#include "common/macros.h"
#include "common/rng.h"
#include "index/manager.h"
#include "layers.h"
#include "med/loader.h"
#include "med/schema.h"
#include "qbism/ingest.h"
#include "qbism/spatial_extension.h"
#include "service/query_service.h"
#include "sql/database.h"
#include "storage/epoch.h"
#include "workloads.h"

namespace perfbench {

namespace obs = qbism::obs;
using qbism::sql::Value;

namespace {

// One reader: readers contend on shared latches, which turns a host
// slowdown into a larger one. In interleaved runs on a 4-vCPU VM, read
// p90 ranged 0.34-0.55 ms with three readers and 0.32-0.53 ms with two,
// against 0.30-0.36 ms with one.
constexpr int kReaders = 1;
// Cohort reads are light (~0.4 ms), so their throughput swings between
// segments more than the study workloads' do; more segments steady the
// median.
constexpr size_t kSegments = 9;
constexpr int kSide = 32;  // atlas grid side (GridSpec{3, 5})
constexpr int kBandWidth = 64;
// Reads per second of --seconds in the measured list (about what the
// reader completes on a 4-vCPU VM on a quiet host), and the writer's
// fixed rate.
constexpr double kReadsPerSecond = 6500.0;
constexpr double kWritesPerSecond = 10.0;
constexpr int kVacuumEvery = 8;
// The traced pass traces every write but only every 8th read: a cohort
// read is ~0.4 ms and leaves ~45 stage spans, so tracing them all would
// hold ~400 MB of spans and double the read's cost.
constexpr size_t kTraceEveryRead = 8;
// A write that starts more than one interval late missed its slot; a
// run in which more than this share of writes did so fell behind.
constexpr double kBehindShare = 0.05;
// The distinct statements' probe boxes and study triples come from this
// seed, not --seed, so every run carries the same work.
constexpr uint64_t kPoolSeed = 20260502;

struct Sizes {
  int population;  // studies 1..population
  int churn;       // the last `churn` ids are the writer's
};

Sizes SizesFor(const Args& args) {
  return args.mini ? Sizes{48, 4} : Sizes{160, 8};
}

qbism::sql::DatabaseOptions Options() {
  qbism::sql::DatabaseOptions dbo;
  dbo.relational_pages = 1 << 13;
  dbo.long_field_pages = 1 << 13;
  dbo.buffer_pool_pages = 256;
  dbo.enable_wal = true;
  dbo.wal_pages = 1 << 12;
  return dbo;
}

/// One distinct cohort statement and the operands it was built from.
struct Statement {
  std::string sql;
  bool selective = false;        // index probe, else consistent band
  qbism::geometry::Box3i box;    // selective: the probe box
  std::array<int, 3> studies{};  // consistent band: the three studies
};

struct World {
  qbism::sql::Database db{Options()};
  std::unique_ptr<qbism::SpatialExtension> ext;
  std::unique_ptr<qbism::IngestManager> ingest;
  std::unique_ptr<qbism::index::SpatialIndexManager> index;
  std::unique_ptr<qbism::service::QueryService> service;
  std::vector<Statement> pool;         // distinct cohort statements
  std::vector<std::string> reference;  // full-scan rows, rendered
  // The writer's replacement records, one per churn study.
  std::vector<qbism::med::StudyRecord> records;
};

/// The same record every time for a given study id: the writer's
/// replacements are byte-identical to what set-up loaded. The loader's
/// study warp maps the 32^3 atlas onto the raw corner [0, 8)^3 at 4x
/// magnification, so the blob sits there: a core of 230 (band 192-255)
/// inside a shell of 160 (band 128-191), about 8 atlas voxels across.
qbism::med::StudyRecord MakeRecord(int study_id) {
  qbism::Rng rng(0xc0ffee ^ static_cast<uint64_t>(study_id) * 7919);
  const int n = kSide;
  double cx = 1.5 + 5.0 * rng.NextDouble();
  double cy = 1.5 + 5.0 * rng.NextDouble();
  double cz = 1.5 + 5.0 * rng.NextDouble();
  std::vector<uint8_t> data(static_cast<size_t>(n) * n * n);
  size_t at = 0;
  for (int z = 0; z < n; ++z) {
    for (int y = 0; y < n; ++y) {
      for (int x = 0; x < n; ++x) {
        double d2 = (x - cx) * (x - cx) + (y - cy) * (y - cy) +
                    (z - cz) * (z - cz);
        uint8_t noise = static_cast<uint8_t>(rng.NextBounded(40));
        data[at++] = d2 <= 0.64 ? 230 : d2 <= 1.7 ? 160 : noise;
      }
    }
  }
  qbism::med::StudyRecord record;
  record.study_id = study_id;
  record.patient_id = 1000 + study_id;
  record.date = "1993-07-01";
  record.modality = "PET";
  record.raw = qbism::warp::RawVolume::Create(n, n, n, std::move(data)).value();
  record.warp_seed = static_cast<uint64_t>(study_id);
  record.band_width = kBandWidth;
  return record;
}

std::string Render(const qbism::sql::ResultSet& rs) {
  std::string out;
  for (const auto& row : rs.rows) {
    for (const Value& v : row) {
      out += v.ToString();
      out += '|';
    }
    out += '\n';
  }
  return out;
}

/// Distinct statements: 48 selective index-probe queries (a 4^3..7^3
/// atlas box at a fixed pseudo-random spot, high bands only) and 16
/// Table-4 consistent-band queries over three stable studies.
void MakePool(World* w, const Sizes& sizes, bool mini) {
  qbism::Rng rng(kPoolSeed);
  const int stable = sizes.population - sizes.churn;
  const int selective = mini ? 12 : 48;
  const int consistent = mini ? 4 : 16;
  for (int i = 0; i < selective; ++i) {
    int side = 4 + i % 4;
    auto corner = [&] {
      return static_cast<int>(rng.NextBounded(kSide - side + 1));
    };
    Statement st;
    st.selective = true;
    st.box.min = {corner(), corner(), corner()};
    st.box.max = {st.box.min.x + side - 1, st.box.min.y + side - 1,
                  st.box.min.z + side - 1};
    st.sql =
        "select studyId, lo, hi, voxelcount(region) from intensityBand "
        "where intersects(region, boxregion(" +
        std::to_string(st.box.min.x) + ", " + std::to_string(st.box.min.y) +
        ", " + std::to_string(st.box.min.z) + ", " +
        std::to_string(st.box.max.x) + ", " + std::to_string(st.box.max.y) +
        ", " + std::to_string(st.box.max.z) +
        ")) <> 0 and lo >= 128 and studyId <= " + std::to_string(stable);
    w->pool.push_back(st);
  }
  for (int i = 0; i < consistent; ++i) {
    Statement st;
    for (int& study : st.studies) {
      study = 1 + static_cast<int>(rng.NextBounded(stable));
    }
    st.sql =
        "select voxelcount(intersection_n(a.region, b.region, c.region)) "
        "from intensityBand a, intensityBand b, intensityBand c "
        "where a.studyId = " +
        std::to_string(st.studies[0]) +
        " and b.studyId = " + std::to_string(st.studies[1]) +
        " and c.studyId = " + std::to_string(st.studies[2]) +
        " and a.lo = 0 and b.lo = 0 and c.lo = 0";
    w->pool.push_back(st);
  }
}

std::unique_ptr<World> SetUp(const Args& args, uint64_t* failed) {
  const Sizes sizes = SizesFor(args);
  const int stable = sizes.population - sizes.churn;
  auto w = std::make_unique<World>();
  qbism::SpatialConfig config;
  config.grid = qbism::region::GridSpec{3, 5};
  config.region_encoding = qbism::region::RegionEncoding::kEliasDeltas;
  w->ext = qbism::SpatialExtension::Install(&w->db, config).MoveValue();
  QBISM_CHECK_OK(qbism::med::BootstrapSchema(&w->db));
  QBISM_CHECK_OK(w->db.Insert(
      "atlas", {Value::Int(1), Value::String("Talairach"), Value::Int(kSide),
                Value::Double(0), Value::Double(0), Value::Double(0),
                Value::Double(200.0 / kSide), Value::Double(150.0 / kSide),
                Value::Double(300.0 / kSide)}));

  w->ingest = std::make_unique<qbism::IngestManager>(w->ext.get());
  w->index = std::make_unique<qbism::index::SpatialIndexManager>(w->ext.get());
  QBISM_CHECK_OK(w->index->BuildFromCatalog());  // empty, authoritative
  w->ingest->set_index_manager(w->index.get());
  for (int id = 1; id <= sizes.population; ++id) {
    QBISM_CHECK_OK(w->db.Insert("patient", {Value::Int(1000 + id),
                                            Value::String("patient"),
                                            Value::Int(40),
                                            Value::String("F")}));
    QBISM_CHECK_OK(w->ingest->IngestStudy(MakeRecord(id)));
  }
  QBISM_CHECK_OK(w->index->RebuildPacked());
  QBISM_CHECK_OK(w->ext->RefreshPlannerStats());

  MakePool(w.get(), sizes, args.mini);
  // Reference rows: full scans with the index hook off.
  for (const Statement& st : w->pool) {
    auto rows = w->db.Execute(st.sql);
    QBISM_CHECK(rows.ok());
    w->reference.push_back(Render(*rows));
  }
  w->db.set_candidate_index_hook(w->index->MakeHook());

  qbism::service::ServiceOptions options;
  options.num_workers = 1;
  options.cache_entries = 0;
  options.cost_model.sql_compile_seconds = 0.0;
  options.ingest = w->ingest.get();
  options.refresh_planner_stats_on_commit = true;
  w->service = std::make_unique<qbism::service::QueryService>(w->ext.get(),
                                                              options);
  for (int id = stable + 1; id <= sizes.population; ++id) {
    w->records.push_back(MakeRecord(id));
  }
  // Warm-up: every distinct statement once through the index path.
  for (size_t i = 0; i < w->pool.size(); ++i) {
    qbism::storage::ReadSnapshot snapshot(w->db.epochs());
    auto rows = w->db.Execute(w->pool[i].sql);
    if (!rows.ok() || Render(*rows) != w->reference[i]) ++*failed;
  }
  return w;
}

/// The writer's side of one pass.
struct Writes {
  std::vector<double> latencies;  // from when each write was due
  std::vector<double> lags;       // start minus due
  std::vector<double> ingest_seconds;  // RunIngest call only
  uint64_t failed = 0;
  uint64_t late = 0;  // started more than one interval late
  uint64_t vacuum_pages_freed = 0;
  uint64_t vacuums = 0;

  void Absorb(const Writes& o) {
    auto append = [](auto* to, const auto& from) {
      to->insert(to->end(), from.begin(), from.end());
    };
    append(&latencies, o.latencies);
    append(&lags, o.lags);
    append(&ingest_seconds, o.ingest_seconds);
    failed += o.failed;
    late += o.late;
    vacuum_pages_freed += o.vacuum_pages_freed;
    vacuums += o.vacuums;
  }
};

/// Runs `list` in full on the reader beside `writes` scheduled writes.
/// Traced passes trace every write and every kTraceEveryRead-th read.
ReadPass RunPass(World* w, const std::vector<size_t>& list, int writes,
                 obs::Tracer* tracer, bool corrupt, Writes* out) {
  auto read = [&](int, size_t j) {
    size_t ref = list[j];
    obs::Tracer* sampled = j % kTraceEveryRead == 0 ? tracer : nullptr;
    auto rows = [&] {
      BenchSpan span(sampled, "execute");
      obs::ScopedTraceContext scope(span.context());
      qbism::storage::ReadSnapshot snapshot(w->db.epochs());
      return w->db.Execute(w->pool[ref].sql);
    }();
    if (!rows.ok()) return false;
    std::string got = Render(*rows);
    if (corrupt && j == 0) got += "corrupted";
    return got == w->reference[ref];
  };
  auto write = [&] {
    const double interval = 1.0 / kWritesPerSecond;
    const double t0 = NowSeconds();
    for (int i = 0; i < writes; ++i) {
      double due = t0 + interval * i;
      double now = NowSeconds();
      if (now < due) {
        std::this_thread::sleep_for(std::chrono::duration<double>(due - now));
      }
      double start = NowSeconds();
      qbism::Status status = [&] {
        BenchSpan span(tracer, "runingest");
        obs::ScopedTraceContext scope(span.context());
        return w->service->RunIngest(
            w->records[static_cast<size_t>(i) % w->records.size()],
            /*replace=*/true);
      }();
      double done = NowSeconds();
      if (!status.ok()) {
        ++out->failed;
        continue;
      }
      out->lags.push_back(start - due);
      if (start - due > interval) ++out->late;
      out->latencies.push_back(done - due);
      out->ingest_seconds.push_back(done - start);
      if ((i + 1) % kVacuumEvery == 0) {
        auto freed = w->ingest->Vacuum();
        out->vacuum_pages_freed += freed.pages_freed;
        ++out->vacuums;
      }
    }
  };
  // The reader's span is the read throughput's denominator; the writer
  // keeps its own schedule and may finish earlier or later.
  return RunClosedLoop(kReaders, list.size(), read, write);
}

/// Candidate studies per selective statement, from replaying the
/// planner's probe on each statement's box. Every pool statement runs
/// equally often (whole passes), so each weighs the same.
double ReplayCandidateFrac(World* w, const Sizes& sizes) {
  double frac_sum = 0.0;
  int probes = 0;
  for (const Statement& st : w->pool) {
    if (!st.selective) continue;
    auto probe = qbism::region::Region::FromBox(
        w->ext->config().grid, w->ext->config().curve, st.box);
    auto candidates = w->index->ProbeIntersect(probe, 128, 255);
    QBISM_CHECK(candidates.ok());
    frac_sum += static_cast<double>(candidates->size()) / sizes.population;
    ++probes;
  }
  return probes ? frac_sum / probes : 0.0;
}

/// Names the stage whose self time dominates the traced reads at or
/// above their p99 (the tail), from the spans of those reads' traces.
std::string TailLine(const std::vector<obs::SpanRecord>& spans) {
  std::vector<double> reads;
  for (const auto& s : spans) {
    if (s.parent_id == 0 && std::strcmp(s.label, "bench.execute") == 0) {
      reads.push_back(s.duration_seconds);
    }
  }
  double p99 = Percentile(reads, 0.99);
  std::set<uint64_t> tail;
  for (const auto& s : spans) {
    if (s.parent_id == 0 && std::strcmp(s.label, "bench.execute") == 0 &&
        s.duration_seconds >= p99) {
      tail.insert(s.trace_id);
    }
  }
  std::vector<obs::SpanRecord> tail_spans;
  for (const auto& s : spans) {
    if (tail.count(s.trace_id)) tail_spans.push_back(s);
  }
  SpanTotals totals = SummarizeSpans(tail_spans);
  int top = 0;
  for (int s = 1; s < obs::kNumStages; ++s) {
    if (totals.self_seconds[s] > totals.self_seconds[top]) top = s;
  }
  double attributed = 0.0;
  for (double v : totals.self_seconds) attributed += v;
  char line[256];
  std::snprintf(line, sizeof(line),
                "tail reads>=p99 (%.2f ms): %zu reads, %.1f%% of their time "
                "under stage spans, top stage %s (%.2f ms total)",
                1e3 * p99, tail.size(),
                totals.bench_root_seconds > 0
                    ? 100.0 * attributed / totals.bench_root_seconds
                    : 0.0,
                obs::StageName(static_cast<obs::Stage>(top)),
                1e3 * totals.self_seconds[top]);
  return line;
}

/// Counter differences around the traced pass.
struct Counters {
  qbism::storage::WriteAheadLog::Stats wal;
  uint64_t lfm_pages = 0;
  uint64_t plan_hits = 0;
  uint64_t plan_misses = 0;
  uint64_t probe_pages = 0;
  uint64_t probes = 0;

  static Counters Read(World* w) {
    Counters c;
    c.wal = w->db.wal()->stats();
    c.lfm_pages = w->db.long_field_device()->stats().pages_read;
    c.plan_hits = w->db.plan_cache()->hits();
    c.plan_misses = w->db.plan_cache()->misses();
    c.probe_pages = w->index->probe_counters().pages_visited;
    c.probes = w->index->stats().probes;
    return c;
  }
  Counters Since(const Counters& before) const {
    Counters d;
    d.wal.durable_bytes = wal.durable_bytes - before.wal.durable_bytes;
    d.wal.syncs = wal.syncs - before.wal.syncs;
    d.lfm_pages = lfm_pages - before.lfm_pages;
    d.plan_hits = plan_hits - before.plan_hits;
    d.plan_misses = plan_misses - before.plan_misses;
    d.probe_pages = probe_pages - before.probe_pages;
    d.probes = probes - before.probes;
    return d;
  }
};

void AddLayerMetrics(World* w, const std::vector<size_t>& list,
                     const ReadPass& plain, const Writes& plain_writes,
                     const ReadPass& traced, const Writes& writes,
                     const std::vector<obs::SpanRecord>& spans,
                     const Counters& counters, const Sizes& sizes,
                     Report* report) {
  const uint64_t n = traced.latencies.size();
  const double reads = static_cast<double>(n);
  const uint64_t nw = writes.latencies.size();
  const double per_write = static_cast<double>(std::max<uint64_t>(nw, 1));
  SpanTotals totals = SummarizeSpans(spans);
  auto stage = [&](obs::Stage s) -> const std::vector<double>& {
    return totals.durations[static_cast<int>(s)];
  };
  report->Note(TailLine(spans));

  // Operands for the encoded-op / codec / curve replays: the band-0
  // regions each consistent-band statement intersects.
  std::vector<qbism::region::Region> band_regions;
  std::vector<std::vector<size_t>> set_index;
  for (const Statement& st : w->pool) {
    if (st.selective) continue;
    std::vector<size_t> members;
    for (int study : st.studies) {
      auto rows = w->db.Execute(
          "select region from intensityBand where lo = 0 and studyId = " +
          std::to_string(study));
      QBISM_CHECK(rows.ok() && rows->rows.size() == 1);
      auto region = w->ext->RegionArg(rows->rows[0][0]);
      QBISM_CHECK(region.ok());
      band_regions.push_back(**region);
      members.push_back(band_regions.size() - 1);
    }
    set_index.push_back(members);
  }
  std::vector<std::vector<const qbism::region::Region*>> sets;
  for (const auto& members : set_index) {
    std::vector<const qbism::region::Region*> set;
    for (size_t m : members) set.push_back(&band_regions[m]);
    sets.push_back(set);
  }
  std::vector<const qbism::region::Region*> regions;
  for (const auto& r : band_regions) regions.push_back(&r);
  std::vector<int> churn;
  for (int i = 0; i < sizes.churn; ++i) {
    churn.push_back(sizes.population - sizes.churn + 1 + i);
  }
  // Every read's rows equal its reference, so the result bytes of the
  // traced pass are the references' sizes over the list.
  double result_mb = 0.0;
  for (size_t ref : list) result_mb += w->reference[ref].size() / 1e6;
  std::vector<std::string> statements;
  for (const Statement& st : w->pool) statements.push_back(st.sql);

  // Span sums are over the sampled reads only.
  const size_t sampled_reads = (list.size() + kTraceEveryRead - 1) /
                               kTraceEveryRead;
  const double sampled = static_cast<double>(std::max<size_t>(sampled_reads, 1));
  const auto& extracts = stage(obs::Stage::kExtract);
  report->Add("qbism.extract_ms_per_query",
              1e3 * std::accumulate(extracts.begin(), extracts.end(), 0.0) /
                  sampled,
              "ms", sampled_reads);
  report->Add("qbism.extract_shards_per_query",
              static_cast<double>(stage(obs::Stage::kShard).size()) / sampled,
              "count", sampled_reads);
  report->Add("qbism.ingest_ms_per_study", 1e3 * Mean(writes.ingest_seconds),
              "ms", nw);
  report->Add("storage.lfm_pages_per_query",
              static_cast<double>(counters.lfm_pages) / reads, "count", n);
  report->Add("storage.pages_per_result_mb",
              result_mb > 0 ? counters.lfm_pages / result_mb : 0.0,
              "count/MB", n);
  report->Add("storage.wal_bytes_per_study",
              static_cast<double>(counters.wal.durable_bytes) / per_write, "B",
              nw);
  report->Add("storage.wal_syncs_per_study",
              static_cast<double>(counters.wal.syncs) / per_write, "count", nw);
  report->Add("storage.wal_sync_ms", 1e3 * Mean(stage(obs::Stage::kWalSync)),
              "ms", stage(obs::Stage::kWalSync).size());
  report->Add("storage.vacuum_pages_freed",
              static_cast<double>(writes.vacuum_pages_freed), "count",
              writes.vacuums);
  report->Add("sql.optimize_ms", 1e3 * Mean(stage(obs::Stage::kOptimize)),
              "ms", stage(obs::Stage::kOptimize).size());
  report->Add("sql.compile_ms", 1e3 * Mean(stage(obs::Stage::kCompile)),
              "ms", stage(obs::Stage::kCompile).size());
  double lookups = static_cast<double>(counters.plan_hits + counters.plan_misses);
  report->Add("sql.plan_cache_hit_rate",
              lookups > 0 ? static_cast<double>(counters.plan_hits) / lookups
                          : 0.0,
              "ratio", counters.plan_hits + counters.plan_misses);
  report->Add("sql.exec_ms_per_stmt", 1e3 * Mean(traced.latencies), "ms", n);
  // After the counter diffs: this executes every statement once more.
  report->Add("sql.rows_examined_per_row",
              RowsExaminedPerRow(&w->db, statements), "ratio",
              statements.size());
  report->Add("index.probe_ms", 1e3 * Mean(stage(obs::Stage::kIndexProbe)),
              "ms", stage(obs::Stage::kIndexProbe).size());
  report->Add("index.candidate_frac", ReplayCandidateFrac(w, sizes), "ratio",
              counters.probes);
  report->Add("index.pages_per_probe",
              counters.probes ? static_cast<double>(counters.probe_pages) /
                                    static_cast<double>(counters.probes)
                              : 0.0,
              "count", counters.probes);
  report->Add("index.upsert_ms", ReplayIndexUpsert(w->ext.get(), churn), "ms",
              churn.size());
  report->Add("region.encoded_op_ms", ReplayEncodedIntersect(sets), "ms",
              sets.size());
  report->Add("compress.gamma_msym_per_s", ReplayGammaDecode(regions),
              "Msym/s", regions.size());
  report->Add("curve.span_decode_ns_per_voxel", ReplayHilbertSpan(regions),
              "ns", regions.size());
  report->Add("warp.ms_per_study", ReplayWarp(w->ext.get(), churn), "ms",
              churn.size());
  double plain_cpu = plain.cpu_seconds /
                     static_cast<double>(plain.latencies.size() +
                                         plain_writes.latencies.size());
  double traced_cpu = traced.cpu_seconds / (reads + static_cast<double>(nw));
  report->Add("obs.trace_overhead_pct",
              100.0 * (traced_cpu - plain_cpu) / plain_cpu, "%", n);
  report->Add("obs.stage_coverage_pct",
              totals.bench_root_seconds > 0
                  ? 100.0 * totals.covered_seconds / totals.bench_root_seconds
                  : 0.0,
              "%", sampled_reads + nw);
}

/// Notes the writer's schedule; returns the writes to count as failed:
/// the late ones of a pass that fell behind, so such a run is never
/// scored as a normal one.
uint64_t NoteWriter(const Writes& p, const char* which, Report* report) {
  double late_share =
      p.lags.empty() ? 0.0 : static_cast<double>(p.late) / p.lags.size();
  bool fell_behind = late_share > kBehindShare;
  char line[320];
  std::snprintf(line, sizeof(line),
                "writer %s: %zu writes at %.0f/s, lag p50 %.3f ms p99 "
                "%.3f ms max %.3f ms, %llu started over one interval late "
                "-> %s",
                which, p.latencies.size(), kWritesPerSecond,
                1e3 * Percentile(p.lags, 0.5), 1e3 * Percentile(p.lags, 0.99),
                1e3 * Percentile(p.lags, 1.0),
                static_cast<unsigned long long>(p.late),
                fell_behind ? "FELL BEHIND (not a normal run)" : "on schedule");
  report->Note(line);
  return fell_behind ? p.late : 0;
}

}  // namespace

int RunCohortWorkload(const Args& args) {
  const Sizes sizes = SizesFor(args);
  // Set-up is sub-second here, so take the median of more of them.
  const int setups = args.mini ? 2 : 5;
  std::unique_ptr<World> world;
  uint64_t warmup_failed = 0;
  std::vector<double> setup_seconds = TimeSetups(setups, [&] {
    if (world) world->service->Shutdown();
    world.reset();
    world = SetUp(args, &warmup_failed);
  });
  World* w = world.get();

  size_t reads = args.mini
                     ? w->pool.size() * 4
                     : static_cast<size_t>(kReadsPerSecond * args.seconds);
  int writes =
      args.mini ? 8 : static_cast<int>(kWritesPerSecond * args.seconds);
  std::vector<size_t> list = MakePassList(w->pool.size(), reads, args.seed);

  Report report;
  report.Note(StampLine(args));
  char line[320];
  std::snprintf(line, sizeof(line),
                "stamp requests=%zu writes=%d distinct=%zu readers=%d "
                "population=%d churn=%d setups=%d",
                list.size(), writes, w->pool.size(), kReaders,
                sizes.population, sizes.churn, setups);
  report.Note(line);

  // The timed run: the writes split between the slices in proportion;
  // a re-run slice replaces its writes too.
  const size_t passes = list.size() / w->pool.size();
  std::vector<Writes> slice_writes(std::min(passes, kSegments));
  TimedRun timed = RunTimed(
      list.size(), w->pool.size(), kSegments,
      [&](size_t k, size_t begin, size_t end) {
        const size_t parts = slice_writes.size();
        int part_writes = static_cast<int>((k + 1) * writes / parts -
                                           k * writes / parts);
        std::vector<size_t> slice(list.begin() + begin, list.begin() + end);
        slice_writes[k] = Writes{};
        return RunPass(w, slice, part_writes, nullptr, args.corrupt && k == 0,
                       &slice_writes[k]);
      },
      &report);
  Writes plain_writes;
  for (const Writes& s : slice_writes) plain_writes.Absorb(s);
  uint64_t attempted = timed.total.attempted + warmup_failed +
                       static_cast<uint64_t>(writes);
  uint64_t failed = timed.total.failed + warmup_failed + timed.disturbed +
                    plain_writes.failed +
                    NoteWriter(plain_writes, "timed", &report);

  if (args.trace) {
    obs::TracerOptions topts;
    topts.span_capacity =
        (list.size() / kTraceEveryRead + 1) * 96 + writes * 64 + 4096;
    obs::Tracer tracer(topts);
    // The service records nothing on the ingest path itself; the stage
    // spans come from the thread's trace context, which the writer and
    // reader install under their own spans.
    Counters before = Counters::Read(w);
    Writes traced_writes;
    ReadPass traced =
        RunPass(w, list, writes, &tracer, args.corrupt, &traced_writes);
    Counters counters = Counters::Read(w).Since(before);
    std::snprintf(line, sizeof(line), "trace spans=%llu dropped=%llu",
                  static_cast<unsigned long long>(tracer.recorded()),
                  static_cast<unsigned long long>(tracer.dropped()));
    report.Note(line);
    AddLayerMetrics(w, list, timed.total, plain_writes, traced, traced_writes,
                    tracer.Spans(), counters, sizes, &report);
    attempted += traced.attempted + static_cast<uint64_t>(writes);
    failed += traced.failed + traced_writes.failed +
              NoteWriter(traced_writes, "traced", &report);
  } else {
    AddEndToEnd(setup_seconds, timed, &report);
    const uint64_t nw = plain_writes.latencies.size();
    std::snprintf(line, sizeof(line),
                  "metric write_p50_ms %.6g ms samples=%llu\n"
                  "metric write_p90_ms %.6g ms samples=%llu",
                  1e3 * Percentile(plain_writes.latencies, 0.50),
                  static_cast<unsigned long long>(nw),
                  1e3 * Percentile(plain_writes.latencies, 0.90),
                  static_cast<unsigned long long>(nw));
    report.Note(line);
  }
  w->service->Shutdown();
  return report.Finish(args.trace, attempted, failed);
}

}  // namespace perfbench
