#include "qbism/medical_server.h"

#include <sstream>

#include "common/macros.h"
#include "common/timer.h"
#include "obs/trace.h"

namespace qbism {

using region::Region;
using sql::ResultSet;
using sql::Value;
using storage::IoStats;
using storage::LongFieldId;
using volume::DataRegion;

std::string QuerySpec::Describe() const {
  // Canonical cache key: every field that can change the result bytes
  // must appear (study, atlas, structure, box, band interval, and the
  // band-index flag, which selects stored-band vs scan semantics).
  // `allow_cached` is deliberately absent — it changes how a result is
  // obtained, never what the result is.
  std::ostringstream out;
  out << "study " << study_id << " atlas " << atlas_name;
  if (structure_name) out << " in " << *structure_name;
  if (box) {
    out << " in box (" << box->min.x << "," << box->min.y << "," << box->min.z
        << ")-(" << box->max.x << "," << box->max.y << "," << box->max.z
        << ")";
  }
  if (intensity_range) {
    out << " intensity " << intensity_range->first << "-"
        << intensity_range->second
        << (use_band_index ? " via band index" : " via scan");
  }
  if (IsFullStudy()) out << " (entire study)";
  return out.str();
}

MedicalServer::MedicalServer(SpatialExtension* ext,
                             net::NetworkCostModel net_model,
                             ServerCostModel cost_model)
    : ext_(ext), net_model_(net_model), cost_model_(cost_model) {}

std::string MedicalServer::BuildInfoSql(const QuerySpec& spec) const {
  std::ostringstream sql;
  sql << "select a.n, a.x0, a.y0, a.z0, a.dx, a.dy, a.dz, a.atlasId,"
      << " p.name, p.patientId, rv.date"
      << " from atlas a, rawVolume rv, warpedVolume wv, patient p"
      << " where a.atlasId = wv.atlasId and wv.studyId = rv.studyId"
      << " and rv.patientId = p.patientId and rv.studyId = " << spec.study_id
      << " and a.atlasName = '" << spec.atlas_name << "'";
  return sql.str();
}

Result<std::string> MedicalServer::BuildDataSql(const QuerySpec& spec) const {
  std::vector<std::string> pieces;
  std::ostringstream from;
  std::ostringstream where;
  from << "warpedVolume wv";
  where << "wv.studyId = " << spec.study_id;

  if (spec.structure_name) {
    from << ", atlasStructure ast, neuralStructure ns";
    where << " and ast.structureId = ns.structureId"
          << " and ns.structureName = '" << *spec.structure_name << "'"
          << " and ast.atlasId = wv.atlasId";
    pieces.push_back("ast.region");
  }
  if (spec.box) {
    std::ostringstream box;
    box << "boxregion(" << spec.box->min.x << ", " << spec.box->min.y << ", "
        << spec.box->min.z << ", " << spec.box->max.x << ", "
        << spec.box->max.y << ", " << spec.box->max.z << ")";
    pieces.push_back(box.str());
  }
  if (spec.intensity_range) {
    std::vector<std::pair<int, int>> covering;
    if (spec.use_band_index) {
      auto bands = StoredBandsCovering(spec.study_id,
                                       spec.intensity_range->first,
                                       spec.intensity_range->second);
      if (!bands.ok()) return bands.status();
      covering = bands.MoveValue();
    }
    if (!covering.empty()) {
      // One alias per stored band; wider aligned intervals union the
      // consecutive band REGIONs inside the database.
      std::string union_expr;
      for (size_t i = covering.size(); i-- > 0;) {
        std::string alias = "ib" + std::to_string(i);
        from << ", intensityBand " << alias;
        where << " and " << alias << ".studyId = wv.studyId and " << alias
              << ".atlasId = wv.atlasId and " << alias
              << ".lo = " << covering[i].first << " and " << alias
              << ".hi = " << covering[i].second;
        if (union_expr.empty()) {
          union_expr = alias + ".region";
        } else {
          union_expr = "regionunion(" + alias + ".region, " + union_expr + ")";
        }
      }
      pieces.push_back(union_expr);
    } else if (spec.use_band_index) {
      return Status::NotFound(
          "intensity range " + std::to_string(spec.intensity_range->first) +
          "-" + std::to_string(spec.intensity_range->second) +
          " does not align with the stored intensity bands; set "
          "use_band_index = false to scan the study");
    } else {
      std::ostringstream band;
      band << "bandregion(wv.data, " << spec.intensity_range->first << ", "
           << spec.intensity_range->second << ")";
      pieces.push_back(band.str());
    }
  }

  std::string region_expr;
  if (pieces.empty()) {
    region_expr = "fullregion()";
  } else {
    region_expr = pieces.back();
    for (size_t i = pieces.size() - 1; i-- > 0;) {
      region_expr = "intersection(" + pieces[i] + ", " + region_expr + ")";
    }
  }

  std::ostringstream sql;
  sql << "select extractvoxels(wv.data, " << region_expr << ") as answer"
      << " from " << from.str() << " where " << where.str();
  return sql.str();
}

Result<std::vector<std::pair<int, int>>> MedicalServer::StoredBandsCovering(
    int study_id, int lo, int hi) const {
  QBISM_ASSIGN_OR_RETURN(
      ResultSet bands,
      ext_->db()->Execute("select ib.lo, ib.hi from intensityBand ib"
                          " where ib.studyId = " +
                          std::to_string(study_id) + " order by lo"));
  std::vector<std::pair<int, int>> covering;
  int cursor = lo;
  for (const sql::Row& row : bands.rows) {
    int band_lo = static_cast<int>(row[0].AsInt().value());
    int band_hi = static_cast<int>(row[1].AsInt().value());
    if (band_lo != cursor) continue;
    covering.emplace_back(band_lo, band_hi);
    if (band_hi >= hi) {
      // Exact alignment requires the last band to end on hi.
      if (band_hi == hi) return covering;
      return std::vector<std::pair<int, int>>{};
    }
    cursor = band_hi + 1;
  }
  return std::vector<std::pair<int, int>>{};  // no exact covering chain
}

namespace {

/// Pulls the first DATA_REGION object out of a result set.
Result<std::shared_ptr<const DataRegion>> FirstDataRegion(
    const ResultSet& result) {
  if (result.rows.empty()) {
    return Status::NotFound(
        "query returned no rows (no matching study, structure, or stored "
        "intensity band)");
  }
  for (const Value& value : result.rows.front()) {
    if (value.kind() == Value::Kind::kObject) {
      auto dr = value.AsObject<DataRegion>(sql::kDataRegionTypeName);
      if (dr.ok()) return dr;
    }
  }
  return Status::Internal("data query produced no DATA_REGION column");
}

}  // namespace

Result<StudyQueryResult> MedicalServer::AnswerQuery(const QuerySpec& spec) {
  sql::Database* db = ext_->db();
  // Pin the epoch for the whole query (no-op without a WAL): every
  // long-field read resolves against one consistent pre-ingest view,
  // however long the extraction takes and however many ingests commit
  // meanwhile.
  storage::ReadSnapshot snapshot(db->epochs());
  StudyQueryResult out;

  QBISM_RETURN_NOT_OK(Checkpoint());
  // Extraction runs at UDF depth, below the per-stage checkpoints; the
  // thread-local hook lets it poll the same deadline/cancel state
  // between shard batches and scan chunks.
  ParallelExtractor::ScopedThreadInterrupt extract_interrupt(interrupt_);
  {
    obs::Span translate(obs::Stage::kTranslate);
    out.info_sql = BuildInfoSql(spec);
    QBISM_ASSIGN_OR_RETURN(out.data_sql, BuildDataSql(spec));
  }

  // --- "Other": the atlas/info query plus modeled SQL compilation. ----
  WallTimer other_timer;
  {
    obs::Span info_span(obs::Stage::kInfo);
    QBISM_ASSIGN_OR_RETURN(ResultSet info, db->Execute(out.info_sql));
    if (info.rows.empty()) {
      info_span.SetFailed();
      return Status::NotFound("no warped study " +
                              std::to_string(spec.study_id) + " in atlas '" +
                              spec.atlas_name + "'");
    }
  }
  out.timing.other_seconds =
      other_timer.Seconds() + cost_model_.sql_compile_seconds;

  // --- Database phase: the data query. The span also covers copying
  // the answer out of the result set and freeing the set — for a full
  // study both move megabytes. -------------------------------------------
  QBISM_RETURN_NOT_OK(Checkpoint());
  IoStats lfm_before = db->long_field_device()->thread_stats();
  IoStats rel_before = db->relational_device()->thread_stats();
  ThreadCpuTimer db_cpu;
  WallTimer db_wall;
  obs::Span data_span(obs::Stage::kData);
  Status answered = [&]() -> Status {
    // Extraction (kExtract/kShard/kIo) and decode spans opened at UDF
    // depth nest under this kData span.
    obs::ScopedTraceContext data_ctx(data_span.context());
    QBISM_ASSIGN_OR_RETURN(ResultSet data_result, db->Execute(out.data_sql));
    QBISM_ASSIGN_OR_RETURN(auto data_region, FirstDataRegion(data_result));
    out.data = *data_region;
    return Status::OK();
  }();
  if (!answered.ok()) {
    data_span.SetFailed();
    return answered;
  }
  out.result_runs = out.data.region().RunCount();
  out.result_voxels = out.data.VoxelCount();
  out.timing.db_cpu_seconds = db_cpu.Seconds();
  IoStats lfm_delta = db->long_field_device()->thread_stats() - lfm_before;
  IoStats rel_delta = db->relational_device()->thread_stats() - rel_before;
  data_span.AddPages(lfm_delta.pages_read + lfm_delta.pages_written);
  data_span.End();
  out.timing.db_real_seconds = db_wall.Seconds() +
                               lfm_delta.simulated_seconds +
                               rel_delta.simulated_seconds;
  out.timing.lfm_pages = lfm_delta.pages_read + lfm_delta.pages_written;

  // --- Network: the query text and the answer over the modeled link. --
  net::ModeledTransfer shipped = net::ModelTransfer(
      net_model_, out.data_sql.size(), out.data.ApproxSizeBytes());
  out.timing.network_messages = shipped.messages;
  out.timing.network_seconds = shipped.seconds;
  out.timing.total_seconds = out.timing.other_seconds +
                             out.timing.db_real_seconds +
                             out.timing.network_seconds;
  return out;
}

Result<StudyQueryResult> MedicalServer::RunStudyQuery(
    const QuerySpec& spec, bool render, const viz::Camera& camera) {
  // DX cache fast path (§5.2): reviewing a recent result needs no
  // database reaccess and no network traffic.
  if (spec.allow_cached) {
    if (auto cached = dx_.CacheGet(spec.Describe())) {
      StudyQueryResult out;
      out.data = *cached;
      out.result_runs = out.data.region().RunCount();
      out.result_voxels = out.data.VoxelCount();
      out.data_sql = "(served from the DX cache)";
      ImportAndRender("", render, camera, &out);
      return out;
    }
  }
  QBISM_ASSIGN_OR_RETURN(StudyQueryResult out, AnswerQuery(spec));
  ImportAndRender(spec.Describe(), render, camera, &out);
  return out;
}

void MedicalServer::ImportAndRender(const std::string& cache_key, bool render,
                                    const viz::Camera& camera,
                                    StudyQueryResult* out) {
  obs::Span import(obs::Stage::kImport);
  viz::DxExecutive::ImportResult imported = dx_.ImportVolume(out->data);
  out->timing.import_cpu_seconds = imported.cpu_seconds;
  // The DX-cache insert deep-copies the answer; charge it to import.
  if (!cache_key.empty()) {
    dx_.CachePut(cache_key, std::make_shared<DataRegion>(out->data));
  }
  import.End();
  if (render) {
    obs::Span render_span(obs::Stage::kRender);
    viz::DxExecutive::RenderResult rendered =
        dx_.Render(imported.dense, camera);
    out->timing.render_seconds = rendered.cpu_seconds;
    out->image = std::move(rendered.image);
  }
  out->timing.total_seconds += out->timing.import_cpu_seconds;
  out->timing.total_seconds += out->timing.render_seconds;
}

Result<MultiStudyResult> MedicalServer::ConsistentBandRegion(
    const std::vector<int>& study_ids, int lo, int hi) {
  if (study_ids.empty()) {
    return Status::InvalidArgument("ConsistentBandRegion: no studies");
  }
  sql::Database* db = ext_->db();
  storage::ReadSnapshot snapshot(db->epochs());

  // Nested n-way INTERSECTION over the per-study band REGIONs.
  std::string region_expr = "ib" + std::to_string(study_ids.size() - 1) +
                            ".region";
  for (size_t i = study_ids.size() - 1; i-- > 0;) {
    region_expr = "intersection(ib" + std::to_string(i) + ".region, " +
                  region_expr + ")";
  }
  std::ostringstream sql;
  sql << "select " << region_expr << " as consistent from ";
  for (size_t i = 0; i < study_ids.size(); ++i) {
    sql << (i ? ", " : "") << "intensityBand ib" << i;
  }
  sql << " where ";
  for (size_t i = 0; i < study_ids.size(); ++i) {
    if (i) sql << " and ";
    sql << "ib" << i << ".studyId = " << study_ids[i] << " and ib" << i
        << ".lo = " << lo << " and ib" << i << ".hi = " << hi;
  }

  MultiStudyResult out;
  out.sql = sql.str();
  IoStats lfm_before = db->long_field_device()->thread_stats();
  IoStats rel_before = db->relational_device()->thread_stats();
  ThreadCpuTimer cpu;
  WallTimer wall;
  QBISM_ASSIGN_OR_RETURN(ResultSet result, db->Execute(out.sql));
  out.db_cpu_seconds = cpu.Seconds();
  IoStats lfm_delta = db->long_field_device()->thread_stats() - lfm_before;
  IoStats rel_delta = db->relational_device()->thread_stats() - rel_before;
  out.db_real_seconds = wall.Seconds() + lfm_delta.simulated_seconds +
                        rel_delta.simulated_seconds;
  out.lfm_pages = lfm_delta.pages_read + lfm_delta.pages_written;

  if (result.rows.empty()) {
    return Status::NotFound("no stored band " + std::to_string(lo) + "-" +
                            std::to_string(hi) + " for the given studies");
  }
  // The intersection chain may return a materialized REGION or (when
  // the bands are stored elias-deltas) a still-encoded one; RegionArg
  // coerces both.
  QBISM_ASSIGN_OR_RETURN(auto region,
                         ext_->RegionArg(result.rows.front().front()));
  out.region = *region;
  return out;
}

Result<StudyQueryResult> MedicalServer::AverageInStructure(
    const std::vector<int>& study_ids, const std::string& structure_name,
    bool render, const viz::Camera& camera) {
  if (study_ids.empty()) {
    return Status::InvalidArgument("AverageInStructure: no studies");
  }
  storage::ReadSnapshot snapshot(ext_->db()->epochs());
  sql::Database* db = ext_->db();
  StudyQueryResult out;

  WallTimer other_timer;
  // Fetch the structure REGION handle.
  out.info_sql =
      "select ast.region from atlasStructure ast, neuralStructure ns "
      "where ast.structureId = ns.structureId and ns.structureName = '" +
      structure_name + "'";
  out.timing.other_seconds = cost_model_.sql_compile_seconds;

  IoStats lfm_before = db->long_field_device()->thread_stats();
  IoStats rel_before = db->relational_device()->thread_stats();
  ThreadCpuTimer db_cpu;
  WallTimer db_wall;

  QBISM_ASSIGN_OR_RETURN(ResultSet region_result, db->Execute(out.info_sql));
  if (region_result.rows.empty()) {
    return Status::NotFound("no structure named '" + structure_name + "'");
  }
  QBISM_ASSIGN_OR_RETURN(LongFieldId region_field,
                         region_result.rows.front().front().AsLongField());
  QBISM_ASSIGN_OR_RETURN(Region structure, ext_->LoadRegion(region_field));

  // Per-study extraction: the database touches only the pages of each
  // study the structure covers, accumulates sums, and the network ships
  // just one averaged DATA_REGION — the §6.4 linear traffic reduction.
  ParallelExtractor::ScopedThreadInterrupt extract_interrupt(interrupt_);
  std::vector<uint32_t> sums(static_cast<size_t>(structure.VoxelCount()), 0);
  for (int study_id : study_ids) {
    std::string handle_sql =
        "select wv.data from warpedVolume wv where wv.studyId = " +
        std::to_string(study_id);
    QBISM_ASSIGN_OR_RETURN(ResultSet handle_result, db->Execute(handle_sql));
    if (handle_result.rows.empty()) {
      return Status::NotFound("no warped study " + std::to_string(study_id));
    }
    QBISM_ASSIGN_OR_RETURN(LongFieldId volume_field,
                           handle_result.rows.front().front().AsLongField());
    QBISM_ASSIGN_OR_RETURN(DataRegion extracted,
                           ext_->ExtractFromLongField(volume_field, structure));
    const auto& values = extracted.values();
    for (size_t i = 0; i < values.size(); ++i) sums[i] += values[i];
  }
  std::vector<uint8_t> averaged(sums.size());
  for (size_t i = 0; i < sums.size(); ++i) {
    averaged[i] = static_cast<uint8_t>(sums[i] / study_ids.size());
  }
  out.data = DataRegion(structure, std::move(averaged));
  out.result_runs = structure.RunCount();
  out.result_voxels = structure.VoxelCount();
  out.data_sql = "(server-side n-way EXTRACT_DATA + voxel-wise average)";

  out.timing.db_cpu_seconds = db_cpu.Seconds();
  IoStats lfm_delta = db->long_field_device()->thread_stats() - lfm_before;
  IoStats rel_delta = db->relational_device()->thread_stats() - rel_before;
  out.timing.db_real_seconds = db_wall.Seconds() +
                               lfm_delta.simulated_seconds +
                               rel_delta.simulated_seconds;
  out.timing.lfm_pages = lfm_delta.pages_read + lfm_delta.pages_written;

  net::ModeledTransfer shipped =
      net::ModelTransfer(net_model_, 0, out.data.ApproxSizeBytes());
  out.timing.network_messages = shipped.messages;
  out.timing.network_seconds = shipped.seconds;

  out.timing.other_seconds += other_timer.Seconds() - db_wall.Seconds();
  if (out.timing.other_seconds < cost_model_.sql_compile_seconds) {
    out.timing.other_seconds = cost_model_.sql_compile_seconds;
  }
  out.timing.total_seconds = out.timing.other_seconds +
                             out.timing.db_real_seconds +
                             out.timing.network_seconds;
  ImportAndRender("", render, camera, &out);
  return out;
}

Result<std::vector<double>> MedicalServer::StudyFeatureVector(int study_id) {
  sql::Database* db = ext_->db();
  storage::ReadSnapshot snapshot(db->epochs());
  QBISM_ASSIGN_OR_RETURN(
      ResultSet volume_rows,
      db->Execute("select wv.data from warpedVolume wv where wv.studyId = " +
                  std::to_string(study_id)));
  if (volume_rows.rows.empty()) {
    return Status::NotFound("no warped study " + std::to_string(study_id));
  }
  QBISM_ASSIGN_OR_RETURN(LongFieldId volume_field,
                         volume_rows.rows.front().front().AsLongField());

  // Structure regions in a deterministic (name) order.
  QBISM_ASSIGN_OR_RETURN(
      ResultSet structures,
      db->Execute("select ns.structureName, ast.region"
                  " from atlasStructure ast, neuralStructure ns"
                  " where ast.structureId = ns.structureId"
                  " order by structureName"));
  if (structures.rows.empty()) {
    return Status::NotFound("no atlas structures loaded");
  }
  std::vector<double> features;
  features.reserve(structures.rows.size());
  for (const sql::Row& row : structures.rows) {
    QBISM_ASSIGN_OR_RETURN(LongFieldId region_field, row[1].AsLongField());
    QBISM_ASSIGN_OR_RETURN(Region structure, ext_->LoadRegion(region_field));
    QBISM_ASSIGN_OR_RETURN(DataRegion extracted,
                           ext_->ExtractFromLongField(volume_field, structure));
    features.push_back(extracted.MeanIntensity());
  }
  return features;
}

Result<std::vector<mining::Neighbor>> MedicalServer::FindSimilarStudies(
    int query_study, const std::vector<int>& candidates, size_t k) {
  QBISM_ASSIGN_OR_RETURN(std::vector<double> query,
                         StudyFeatureVector(query_study));
  std::vector<mining::FeatureVector> vectors;
  vectors.reserve(candidates.size());
  for (int study : candidates) {
    if (study == query_study) continue;
    QBISM_ASSIGN_OR_RETURN(std::vector<double> features,
                           StudyFeatureVector(study));
    vectors.push_back({study, std::move(features)});
  }
  if (vectors.empty()) return std::vector<mining::Neighbor>{};
  QBISM_ASSIGN_OR_RETURN(mining::KdTree tree,
                         mining::KdTree::Build(std::move(vectors)));
  return tree.Knn(query, k);
}

}  // namespace qbism
