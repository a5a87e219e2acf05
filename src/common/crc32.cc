#include "common/crc32.h"

#include <array>
#include <bit>
#include <cstring>

namespace qbism {

namespace {

constexpr uint32_t kPoly = 0xEDB88320u;

using CrcTables = std::array<std::array<uint32_t, 256>, 8>;

/// Table 0 is the classic bytewise table; table s advances a byte's
/// contribution by s further zero bytes, so one step folds 8 bytes.
constexpr CrcTables BuildCrcTables() {
  CrcTables t{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1) ? (kPoly ^ (c >> 1)) : (c >> 1);
    }
    t[0][i] = c;
  }
  for (int s = 1; s < 8; ++s) {
    for (uint32_t i = 0; i < 256; ++i) {
      t[s][i] = (t[s - 1][i] >> 8) ^ t[0][t[s - 1][i] & 0xFFu];
    }
  }
  return t;
}

constexpr CrcTables kTables = BuildCrcTables();

inline uint32_t LoadLe32(const uint8_t* p) {
  uint32_t v;
  std::memcpy(&v, p, sizeof(v));
  if constexpr (std::endian::native == std::endian::big) {
    v = (v >> 24) | ((v >> 8) & 0xFF00u) | ((v << 8) & 0xFF0000u) | (v << 24);
  }
  return v;
}

/// a(x) · b(x) mod P in the reflected representation (bit 31 is x^0).
constexpr uint32_t MultModP(uint32_t a, uint32_t b) {
  uint32_t p = 0;
  for (uint32_t m = 1u << 31; m != 0; m >>= 1) {
    if (a & m) p ^= b;
    b = (b & 1) ? (b >> 1) ^ kPoly : (b >> 1);
  }
  return p;
}

/// kX2n[k] = x^(2^k) mod P; k runs to 66 so any 64-bit byte count
/// (bit j stands for x^(2^(j+3))) has its factor.
constexpr std::array<uint32_t, 67> BuildX2nTable() {
  std::array<uint32_t, 67> t{};
  t[0] = 1u << 30;  // x^1
  for (size_t k = 1; k < t.size(); ++k) t[k] = MultModP(t[k - 1], t[k - 1]);
  return t;
}

constexpr std::array<uint32_t, 67> kX2n = BuildX2nTable();

}  // namespace

uint32_t Crc32(const uint8_t* data, size_t size) {
  const CrcTables& t = kTables;
  uint32_t c = 0xFFFFFFFFu;
  for (; size >= 8; data += 8, size -= 8) {
    const uint32_t lo = LoadLe32(data) ^ c;
    const uint32_t hi = LoadLe32(data + 4);
    c = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^
        t[5][(lo >> 16) & 0xFFu] ^ t[4][lo >> 24] ^ t[3][hi & 0xFFu] ^
        t[2][(hi >> 8) & 0xFFu] ^ t[1][(hi >> 16) & 0xFFu] ^ t[0][hi >> 24];
  }
  for (; size > 0; ++data, --size) {
    c = t[0][(c ^ *data) & 0xFFu] ^ (c >> 8);
  }
  return c ^ 0xFFFFFFFFu;
}

uint32_t Crc32(const std::vector<uint8_t>& data) {
  return Crc32(data.data(), data.size());
}

uint32_t Crc32Combine(uint32_t crc_a, uint32_t crc_b, size_t len_b) {
  uint32_t shift = 1u << 31;  // x^0, times x^(8·len_b) bit by bit
  for (size_t k = 3; len_b != 0; len_b >>= 1, ++k) {
    if (len_b & 1) shift = MultModP(kX2n[k], shift);
  }
  return MultModP(shift, crc_a) ^ crc_b;
}

}  // namespace qbism
