#ifndef QBISM_COMMON_CRC32_H_
#define QBISM_COMMON_CRC32_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace qbism {

/// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320) over a byte
/// buffer. Shared by the wire protocol's frame trailer and the
/// write-ahead log's record framing, so both layers detect the same
/// corruption classes with the same code. The kernel is portable
/// slicing-by-8 (eight bytes per step through 8 x 256 tables); its
/// values are those of the classic bytewise table loop.
uint32_t Crc32(const uint8_t* data, size_t size);
uint32_t Crc32(const std::vector<uint8_t>& data);

/// CRC-32 of the concatenation a‖b from crc_a = Crc32(a),
/// crc_b = Crc32(b) and len_b = |b|, without touching the bytes: an
/// O(log len_b) multiply by x^(8·len_b) mod P, as zlib's crc32_combine.
/// Lets a sender that already hashed each slice of a buffer seal the
/// whole buffer without a second pass.
uint32_t Crc32Combine(uint32_t crc_a, uint32_t crc_b, size_t len_b);

}  // namespace qbism

#endif  // QBISM_COMMON_CRC32_H_
