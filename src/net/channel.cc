#include "net/channel.h"

namespace qbism::net {

ModeledTransfer ModelTransfer(const NetworkCostModel& model,
                              uint64_t control_bytes, uint64_t bulk_bytes) {
  ModeledTransfer out;
  out.seconds = model.rtt_seconds;
  if (control_bytes > 0) {
    out.messages = 1;
    out.seconds += model.per_message_seconds +
                   static_cast<double>(control_bytes) /
                       model.bandwidth_bytes_per_second;
  }
  uint64_t chunks = (bulk_bytes + model.chunk_bytes - 1) / model.chunk_bytes;
  out.messages += chunks;
  out.seconds += static_cast<double>(chunks) * model.per_message_seconds +
                 static_cast<double>(bulk_bytes) /
                     model.bandwidth_bytes_per_second;
  return out;
}

}  // namespace qbism::net
