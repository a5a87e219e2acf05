#ifndef QBISM_QBISM_MEDICAL_SERVER_H_
#define QBISM_QBISM_MEDICAL_SERVER_H_

#include <functional>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/result.h"
#include "geometry/vec3.h"
#include "mining/knn.h"
#include "net/channel.h"
#include "qbism/spatial_extension.h"
#include "region/encoding.h"
#include "viz/dx.h"

namespace qbism {

/// High-level query specification as it arrives from the DX front end
/// (§5.2): a study plus optional spatial and attribute conditions. The
/// MedicalServer translates it into the two SQL statements of §3.4.
struct QuerySpec {
  int study_id = 0;
  std::string atlas_name = "Talairach";

  /// Spatial conditions (both may be set; they intersect).
  // NOTE: every field added here that affects the result must also be
  // folded into Describe(), which doubles as the shared cache key.
  std::optional<std::string> structure_name;
  std::optional<geometry::Box3i> box;

  /// Attribute condition: intensity interval [lo, hi]. When
  /// `use_band_index` is true and the interval aligns with stored
  /// intensity-band boundaries, the redundant Intensity Band entity
  /// answers it without reading the VOLUME — a single band as in the
  /// paper's setup, or a UNION of consecutive bands for wider aligned
  /// intervals. Otherwise the bandregion() UDF scans the study.
  std::optional<std::pair<int, int>> intensity_range;
  bool use_band_index = true;

  /// When true, a result cached in the DX executive under this spec's
  /// Describe() key short-circuits the database and network entirely
  /// (the paper flushed this cache before each measured run; it exists
  /// for the interactive review loop of §5.2). Honored by RunStudyQuery
  /// only: the query service and the wire protocol ignore it.
  bool allow_cached = false;

  bool IsFullStudy() const {
    return !structure_name && !box && !intensity_range;
  }

  /// Cache key / display label.
  std::string Describe() const;
};

/// Table-3-style timing breakdown. CPU columns are measured process CPU
/// time; "real" columns add the deterministic I/O and network model
/// time, standing in for the paper's wall-clock on 1993 hardware.
struct TimingBreakdown {
  double db_cpu_seconds = 0.0;
  double db_real_seconds = 0.0;  // cpu + simulated LFM/relational I/O wait
  uint64_t lfm_pages = 0;        // LFM disk I/Os (4 KB pages)
  uint64_t network_messages = 0;
  double network_seconds = 0.0;
  double import_cpu_seconds = 0.0;
  double render_seconds = 0.0;
  double other_seconds = 0.0;  // atlas/info query + modeled SQL compile
  double total_seconds = 0.0;
};

/// Result of a single-study query.
struct StudyQueryResult {
  volume::DataRegion data;
  uint64_t result_runs = 0;
  uint64_t result_voxels = 0;
  TimingBreakdown timing;
  std::string info_sql;  // the §3.4 "first query"
  std::string data_sql;  // the §3.4 "second query"
  viz::Image image;      // rendered result (empty when render=false)
};

/// Result of a Table-4-style multi-study intersection.
struct MultiStudyResult {
  region::Region region;
  uint64_t lfm_pages = 0;
  double db_cpu_seconds = 0.0;
  double db_real_seconds = 0.0;
  std::string sql;
};

/// Cost knobs that are modeled rather than measured.
struct ServerCostModel {
  /// Starburst compiled each SQL statement at query time; the paper's
  /// "other" column (~3-4 s) is mostly compilation. Charged per query.
  double sql_compile_seconds = 3.0;
};

/// The MedicalServer process (§5.2): translates high-level query specs
/// into SQL, runs them against the extended DBMS, and prices shipping
/// the answer to the DX executive over the modeled 1993 RPC link. Owns
/// a DX executive instance so the Table-3 end-to-end timing can be
/// assembled in process.
class MedicalServer {
 public:
  MedicalServer(SpatialExtension* ext,
                net::NetworkCostModel net_model = net::NetworkCostModel{},
                ServerCostModel cost_model = ServerCostModel{});

  /// The database half of a single-study query — all the MedicalServer
  /// itself does: translate the spec, run the info and data queries,
  /// copy the answer out of the result set, and fill the modeled
  /// network columns. No DX work: import and render stay 0. This is
  /// what the query service serves.
  Result<StudyQueryResult> AnswerQuery(const QuerySpec& spec);

  /// Table 3 end to end: AnswerQuery (or, with allow_cached, a DX-cache
  /// hit) followed by the DX half — ImportVolume, the DX-cache insert,
  /// and (optionally) rendering.
  Result<StudyQueryResult> RunStudyQuery(const QuerySpec& spec,
                                         bool render = true,
                                         const viz::Camera& camera = {});

  /// Table 4: the REGION where every listed study has intensities in
  /// [lo, hi], computed as an n-way INTERSECTION inside the database.
  /// Band regions must have been stored with `encoding` (the loader's
  /// SpatialConfig.region_encoding).
  Result<MultiStudyResult> ConsistentBandRegion(
      const std::vector<int>& study_ids, int lo, int hi);

  /// §6.4: voxel-wise average intensity inside a structure across many
  /// studies — the database reads only the relevant pages per study and
  /// ships a single averaged result.
  Result<StudyQueryResult> AverageInStructure(
      const std::vector<int>& study_ids, const std::string& structure_name,
      bool render = false, const viz::Camera& camera = {});

  /// §7 future work, implemented: the study's image feature vector —
  /// the mean intensity inside every atlas structure, in structure-name
  /// order. Reads only the pages each structure covers.
  Result<std::vector<double>> StudyFeatureVector(int study_id);

  /// "find all the PET studies ... with intensities inside the
  /// cerebellum similar to Ms. Smith's latest PET study" (§7): the k
  /// studies among `candidates` most similar to `query_study`, by
  /// Euclidean distance over feature vectors, via an exact kd-tree kNN.
  /// The query study itself is excluded from the result.
  Result<std::vector<mining::Neighbor>> FindSimilarStudies(
      int query_study, const std::vector<int>& candidates, size_t k);

  viz::DxExecutive* dx() { return &dx_; }
  SpatialExtension* extension() { return ext_; }

  /// Cooperative interruption for the query service: AnswerQuery polls
  /// this checkpoint between its stages (before the info query and
  /// before the data query), and extraction polls it between shard
  /// batches. A non-OK return aborts the query with that status, so an
  /// expired deadline cannot hold a slot for longer than one stage.
  /// Pass nullptr to clear. Read only by the thread driving this
  /// server; a MedicalServer is not itself shared across threads.
  void set_interrupt(std::function<Status()> interrupt) {
    interrupt_ = std::move(interrupt);
  }

 private:
  /// Builds the §3.4 info query.
  std::string BuildInfoSql(const QuerySpec& spec) const;
  /// Builds the data query for the spec; fails for band ranges that do
  /// not align with stored bands when use_band_index is set.
  Result<std::string> BuildDataSql(const QuerySpec& spec) const;

  /// The consecutive stored bands exactly covering [lo, hi] for the
  /// study, or an empty list when the interval does not align.
  Result<std::vector<std::pair<int, int>>> StoredBandsCovering(
      int study_id, int lo, int hi) const;

  /// The DX half: ImportVolume (plus the DX-cache insert under
  /// `cache_key` when non-empty) and the optional render, adding their
  /// columns to out->timing.
  void ImportAndRender(const std::string& cache_key, bool render,
                       const viz::Camera& camera, StudyQueryResult* out);

  /// OK when no interrupt hook is installed or it reports OK.
  Status Checkpoint() const {
    return interrupt_ ? interrupt_() : Status::OK();
  }

  SpatialExtension* ext_;
  net::NetworkCostModel net_model_;
  ServerCostModel cost_model_;
  viz::DxExecutive dx_;
  std::function<Status()> interrupt_;
};

}  // namespace qbism

#endif  // QBISM_QBISM_MEDICAL_SERVER_H_
