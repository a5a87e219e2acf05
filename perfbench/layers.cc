#include "layers.h"

#include <algorithm>
#include <map>
#include <string>

#include "bench.h"
#include "common/bitstream.h"
#include "common/crc32.h"
#include "common/macros.h"
#include "compress/codes.h"
#include "curve/engine.h"
#include "index/summary.h"
#include "med/loader.h"
#include "region/encoded_ops.h"
#include "server/codec.h"
#include "sql/database.h"
#include "sql/planner/planner.h"
#include "warp/warp.h"

namespace perfbench {

using qbism::region::EncodedRegion;
using qbism::region::Region;

namespace {

// Each replay repeats its operand set until at least this much wall time
// has passed, so short operand sets still give a steady rate.
constexpr double kMinReplaySeconds = 0.05;

template <typename Fn>
double TimeRepeated(Fn&& body, int* rounds) {
  double start = NowSeconds();
  *rounds = 0;
  double elapsed = 0.0;
  do {
    body();
    ++*rounds;
    elapsed = NowSeconds() - start;
  } while (elapsed < kMinReplaySeconds);
  return elapsed;
}

}  // namespace

CodecReplay ReplayAnswerCodec(
    const std::vector<const qbism::volume::DataRegion*>& answers) {
  CodecReplay out;
  if (answers.empty()) return out;
  std::vector<std::vector<uint8_t>> payloads;
  double mb = 0.0;
  for (const auto* answer : answers) {
    auto payload = qbism::server::EncodeAnswerPayload(
        *answer, qbism::region::RegionEncoding::kEliasDeltas);
    QBISM_CHECK(payload.ok());
    mb += static_cast<double>(payload->size()) / 1e6;
    payloads.push_back(payload.MoveValue());
  }
  int rounds = 0;
  double seconds = TimeRepeated(
      [&] {
        for (const auto* answer : answers) {
          auto payload = qbism::server::EncodeAnswerPayload(
              *answer, qbism::region::RegionEncoding::kEliasDeltas);
          QBISM_CHECK(payload.ok());
        }
      },
      &rounds);
  out.encode_ms_per_mb = 1e3 * seconds / (mb * rounds);
  uint32_t sink = 0;
  seconds = TimeRepeated(
      [&] {
        for (const auto& payload : payloads) sink ^= qbism::Crc32(payload);
      },
      &rounds);
  asm volatile("" : : "r"(sink));  // keep the checksums live
  out.crc_ms_per_mb = 1e3 * seconds / (mb * rounds);
  seconds = TimeRepeated(
      [&] {
        for (const auto& payload : payloads) {
          QBISM_CHECK(qbism::server::DecodeAnswerPayload(payload).ok());
        }
      },
      &rounds);
  out.decode_ms_per_mb = 1e3 * seconds / (mb * rounds);
  return out;
}

double ReplayEncodedIntersect(
    const std::vector<std::vector<const Region*>>& sets) {
  std::vector<std::vector<EncodedRegion>> encoded;
  for (const auto& set : sets) {
    if (set.size() < 2) continue;
    std::vector<EncodedRegion> operands;
    for (const Region* r : set) {
      operands.push_back(EncodedRegion::FromRegion(*r).MoveValue());
    }
    encoded.push_back(std::move(operands));
  }
  if (encoded.empty()) return 0.0;
  int rounds = 0;
  double seconds = TimeRepeated(
      [&] {
        for (const auto& operands : encoded) {
          if (operands.size() == 2) {
            QBISM_CHECK(operands[0].IntersectWith(operands[1]).ok());
          } else {
            std::vector<const EncodedRegion*> ptrs;
            for (const auto& op : operands) ptrs.push_back(&op);
            QBISM_CHECK(EncodedRegion::IntersectAll(ptrs).ok());
          }
        }
      },
      &rounds);
  return 1e3 * seconds / (static_cast<double>(encoded.size()) * rounds);
}

double ReplayGammaDecode(const std::vector<const Region*>& regions) {
  // The symbols a stored elias-deltas REGION carries: for each run, the
  // gap from the previous run's end and the run length (both >= 1).
  qbism::BitWriter writer;
  size_t symbols = 0;
  for (const Region* r : regions) {
    uint64_t prev_end = 0;
    bool first = true;
    for (const auto& run : r->runs()) {
      uint64_t gap = first ? run.start + 1 : run.start - prev_end;
      qbism::compress::EliasGammaEncode(gap, &writer);
      qbism::compress::EliasGammaEncode(run.Length(), &writer);
      symbols += 2;
      prev_end = run.end;
      first = false;
    }
  }
  if (symbols == 0) return 0.0;
  std::vector<uint8_t> bytes = writer.Finish();
  std::vector<uint64_t> out(symbols);
  int rounds = 0;
  double seconds = TimeRepeated(
      [&] {
        qbism::BitReader reader(bytes);
        QBISM_CHECK(qbism::compress::EliasGammaDecodeBatch(&reader, out.data(),
                                                           symbols)
                        .ok());
      },
      &rounds);
  return static_cast<double>(symbols) * rounds / seconds / 1e6;
}

double ReplayHilbertSpan(const std::vector<const Region*>& regions) {
  constexpr size_t kChunk = 4096;
  std::vector<uint32_t> axes(3 * kChunk);
  uint64_t voxels = 0;
  for (const Region* r : regions) voxels += r->VoxelCount();
  if (voxels == 0) return 0.0;
  int rounds = 0;
  double seconds = TimeRepeated(
      [&] {
        for (const Region* r : regions) {
          int bits = r->grid().bits;
          for (const auto& run : r->runs()) {
            for (uint64_t id = run.start; id <= run.end; id += kChunk) {
              size_t n = static_cast<size_t>(
                  std::min<uint64_t>(kChunk, run.end - id + 1));
              qbism::curve::HilbertAxesSpan(id, n, 3, bits, axes.data());
            }
          }
        }
      },
      &rounds);
  return 1e9 * seconds / (static_cast<double>(voxels) * rounds);
}

double ReplayWarp(qbism::SpatialExtension* ext,
                  const std::vector<int>& study_ids) {
  struct Input {
    qbism::warp::RawVolume raw;
    qbism::geometry::Affine3 affine;
  };
  std::vector<Input> inputs;
  for (int study : study_ids) {
    auto raw = qbism::med::LoadRawVolume(ext, study);
    QBISM_CHECK(raw.ok());
    auto rows = ext->db()->Execute(
        "select m00, m01, m02, m10, m11, m12, m20, m21, m22, tx, ty, tz "
        "from warpedVolume where studyId = " +
        std::to_string(study));
    QBISM_CHECK(rows.ok() && rows->rows.size() == 1);
    std::array<double, 9> linear{};
    const auto& row = rows->rows.front();
    for (int i = 0; i < 9; ++i) linear[i] = row[i].AsDouble().value();
    qbism::geometry::Vec3d t{row[9].AsDouble().value(),
                             row[10].AsDouble().value(),
                             row[11].AsDouble().value()};
    inputs.push_back({raw.MoveValue(), qbism::geometry::Affine3(linear, t)});
  }
  if (inputs.empty()) return 0.0;
  int rounds = 0;
  double seconds = TimeRepeated(
      [&] {
        for (const Input& in : inputs) {
          qbism::volume::Volume v = qbism::warp::WarpToAtlas(
              in.raw, in.affine, ext->config().grid, ext->config().curve);
          QBISM_CHECK(v.data().size() == ext->config().grid.NumCells());
        }
      },
      &rounds);
  return 1e3 * seconds / (static_cast<double>(inputs.size()) * rounds);
}

double RowsExaminedPerRow(qbism::sql::Database* db,
                          const std::vector<std::string>& statements) {
  // Rows per key value of (table, column), and rows per table.
  std::map<std::pair<std::string, std::string>, std::map<int64_t, double>>
      key_rows;
  std::map<std::string, double> table_rows;
  auto keys_of = [&](const std::string& table,
                     const std::string& column) -> const auto& {
    auto [it, fresh] = key_rows.try_emplace({table, column});
    if (fresh) {
      auto rows = db->Execute("select " + column + " from " + table);
      QBISM_CHECK(rows.ok());
      for (const auto& row : rows->rows) {
        if (row[0].kind() == qbism::sql::Value::Kind::kInt) {
          it->second[row[0].AsInt().value()] += 1.0;
        }
      }
    }
    return it->second;
  };
  auto rows_of = [&](const std::string& table) {
    auto [it, fresh] = table_rows.try_emplace(table, 0.0);
    if (fresh) {
      auto rows = db->Execute("select count(*) from " + table);
      QBISM_CHECK(rows.ok() && rows->rows.size() == 1);
      it->second = static_cast<double>(rows->rows[0][0].AsInt().value());
    }
    return it->second;
  };
  double examined = 0.0, returned = 0.0;
  for (const std::string& sql : statements) {
    auto result = db->Execute(sql);
    QBISM_CHECK(result.ok());
    returned += static_cast<double>(result->rows.size());
    auto cached = db->plan_cache()->Get(sql, db->catalog()->version(),
                                        db->planner_stats()->version(),
                                        db->index_version());
    QBISM_CHECK(cached != nullptr);
    for (const qbism::sql::planner::TablePlan& tp :
         cached->compiled.plan.tables) {
      auto info = db->catalog()->GetTable(tp.table);
      QBISM_CHECK(info.ok());
      if (tp.use_probe) {
        const auto& keys = keys_of(tp.table, tp.probe_column);
        auto it = keys.find(tp.probe_key);
        examined += it == keys.end() ? 0.0 : it->second;
      } else if (tp.use_range) {
        const auto& keys = keys_of(tp.table, tp.range_column);
        auto it = tp.range_has_lo ? keys.lower_bound(tp.range_lo)
                                  : keys.begin();
        for (; it != keys.end() && (!tp.range_has_hi || it->first <= tp.range_hi);
             ++it) {
          examined += it->second;
        }
      } else if (tp.use_candidates &&
                 (*info)->indexes.count(tp.candidate_column) != 0) {
        const auto& keys = keys_of(tp.table, tp.candidate_column);
        for (int64_t key : tp.candidate_keys) {
          auto it = keys.find(key);
          if (it != keys.end()) examined += it->second;
        }
      } else {
        examined += rows_of(tp.table);
      }
    }
  }
  return returned > 0 ? examined / returned : 0.0;
}

double ReplayIndexUpsert(qbism::SpatialExtension* ext,
                         const std::vector<int>& study_ids) {
  qbism::index::SpatialIndexManager shadow(ext);
  QBISM_CHECK_OK(shadow.BuildFromCatalog());
  std::vector<qbism::index::StudySummary> summaries;
  for (int study : study_ids) {
    auto rows = ext->db()->Execute(
        "select lo, hi, region from intensityBand where studyId = " +
        std::to_string(study) + " order by lo");
    QBISM_CHECK(rows.ok());
    qbism::index::StudySummary summary;
    summary.study_id = study;
    summary.atlas_id = 1;
    for (const auto& row : rows->rows) {
      auto region = ext->RegionArg(row[2]);
      QBISM_CHECK(region.ok());
      auto band = qbism::index::SummarizeBandRegion(
          static_cast<uint8_t>(row[0].AsInt().value()),
          static_cast<uint8_t>(row[1].AsInt().value()), **region);
      if (band.voxels > 0) summary.bitmap.SetRange(band.lo, band.hi);
      summary.bands.push_back(band);
    }
    summaries.push_back(std::move(summary));
  }
  if (summaries.empty()) return 0.0;
  double start = NowSeconds();
  for (const auto& summary : summaries) {
    QBISM_CHECK_OK(shadow.StageUpsert(summary));
    shadow.PublishStaged();
  }
  return 1e3 * (NowSeconds() - start) / static_cast<double>(summaries.size());
}

}  // namespace perfbench
