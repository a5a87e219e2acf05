#ifndef QBISM_NET_CHANNEL_H_
#define QBISM_NET_CHANNEL_H_

#include <cstdint>

namespace qbism::net {

/// Deterministic cost model for the RPC link between the MedicalServer
/// and the DX executive (§5.2/§6.1): machine 1 on a 16 Mb/s Token Ring
/// routed to machine 2 on 10 Mb/s Ethernet, ping RTT 4 ms. Large
/// results are shipped in ~1 KB RPC chunks, which is why the paper's
/// full-study query sends 2103 messages for 2 MB of voxels; per-message
/// software overhead (RPC marshalling on 1993 CPUs) dominates the wire
/// time.
struct NetworkCostModel {
  uint64_t chunk_bytes = 1024;          // RPC payload per data message
  double per_message_seconds = 0.0105;  // software (RPC) overhead
  double bandwidth_bytes_per_second = 10.0e6 / 8.0;  // slower hop wins
  double rtt_seconds = 0.004;           // per round trip (query/answer)
};

/// Modeled cost of one request/answer exchange over the 1993 link.
struct ModeledTransfer {
  uint64_t messages = 0;
  double seconds = 0.0;
};

/// Prices one round trip that carries `control_bytes` in a single
/// control message (none when 0; the query text, say) and `bulk_bytes`
/// in ceil(bulk_bytes / chunk_bytes) data messages (the answer). Pure:
/// nothing is sent and no state is kept; the Table-3 reproduction
/// fills its modeled network columns from this.
ModeledTransfer ModelTransfer(const NetworkCostModel& model,
                              uint64_t control_bytes, uint64_t bulk_bytes);

}  // namespace qbism::net

#endif  // QBISM_NET_CHANNEL_H_
