// Per-layer replays: each times one public function of a layer on the
// operands a workload actually used, outside the request path, so the
// traced run can give that layer a cost without instrumenting src/.

#ifndef QBISM_PERFBENCH_LAYERS_H_
#define QBISM_PERFBENCH_LAYERS_H_

#include <string>
#include <vector>

#include "index/manager.h"
#include "qbism/spatial_extension.h"
#include "region/region.h"
#include "volume/volume.h"

namespace perfbench {

struct CodecReplay {
  double encode_ms_per_mb = 0.0;  // EncodeAnswerPayload
  double crc_ms_per_mb = 0.0;     // Crc32 over the encoded payload
  double decode_ms_per_mb = 0.0;  // DecodeAnswerPayload
};
CodecReplay ReplayAnswerCodec(
    const std::vector<const qbism::volume::DataRegion*>& answers);

/// ms per encoded-domain intersection: two-operand sets use
/// EncodedRegion::IntersectWith, larger ones EncodedRegion::IntersectAll.
double ReplayEncodedIntersect(
    const std::vector<std::vector<const qbism::region::Region*>>& sets);

/// Millions of symbols per second through EliasGammaDecodeBatch, over
/// the gap/length run deltas of `regions`.
double ReplayGammaDecode(
    const std::vector<const qbism::region::Region*>& regions);

/// ns per voxel through HilbertAxesSpan over the runs of `regions`.
double ReplayHilbertSpan(
    const std::vector<const qbism::region::Region*>& regions);

/// ms per study through WarpToAtlas, re-warping each stored raw study
/// with the affine its warpedVolume row recorded.
double ReplayWarp(qbism::SpatialExtension* ext,
                  const std::vector<int>& study_ids);

/// ms per study to stage and publish an index summary (StageUpsert +
/// PublishStaged) on a second index built over `ext`'s catalog; the
/// kIndexUpsert record goes to the database's WAL, auto-committed.
double ReplayIndexUpsert(qbism::SpatialExtension* ext,
                         const std::vector<int>& study_ids);

/// Rows the batch VM decodes per row returned, over `statements` run
/// once each. Each statement is executed and its plan read back from
/// the plan cache; per table, the access path the planner chose gives
/// the rows decoded: every row for a scan (or for a candidate set on an
/// unindexed column), the rows carrying the probed key(s) for an index,
/// range or candidate probe, counted on the table itself.
double RowsExaminedPerRow(qbism::sql::Database* db,
                          const std::vector<std::string>& statements);

}  // namespace perfbench

#endif  // QBISM_PERFBENCH_LAYERS_H_
