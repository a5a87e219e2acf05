#include "common/crc32.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/rng.h"

namespace qbism {
namespace {

/// The bytewise reflected-table loop the slicing-by-8 kernel must equal.
uint32_t ReferenceCrc32(const uint8_t* data, size_t size) {
  uint32_t table[256];
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1) ? (0xEDB88320u ^ (c >> 1)) : (c >> 1);
    }
    table[i] = c;
  }
  uint32_t c = 0xFFFFFFFFu;
  for (size_t i = 0; i < size; ++i) {
    c = table[(c ^ data[i]) & 0xFFu] ^ (c >> 8);
  }
  return c ^ 0xFFFFFFFFu;
}

std::vector<uint8_t> RandomBytes(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<uint8_t> out(n);
  for (uint8_t& b : out) b = static_cast<uint8_t>(rng.Next());
  return out;
}

TEST(Crc32Test, MatchesIeeeCheckVector) {
  // The canonical CRC-32 check value: crc32("123456789") = 0xCBF43926.
  const char* check = "123456789";
  EXPECT_EQ(Crc32(reinterpret_cast<const uint8_t*>(check), 9), 0xCBF43926u);
  EXPECT_EQ(Crc32(nullptr, 0), 0u);
}

TEST(Crc32Test, SensitiveToEveryByte) {
  std::vector<uint8_t> data(64);
  for (size_t i = 0; i < data.size(); ++i) data[i] = static_cast<uint8_t>(i);
  uint32_t base = Crc32(data);
  for (size_t i = 0; i < data.size(); ++i) {
    data[i] ^= 0x01;
    EXPECT_NE(Crc32(data), base) << "flip at byte " << i;
    data[i] ^= 0x01;
  }
}

TEST(Crc32Test, MatchesBytewiseAtEveryLengthAndAlignment) {
  // Offsets 0-7 start the 8-byte word loads at every alignment; lengths
  // 0-300 cover the empty input, tail-only inputs and every tail length.
  const std::vector<uint8_t> bytes = RandomBytes(300 + 8, 11);
  for (size_t offset = 0; offset < 8; ++offset) {
    for (size_t len = 0; len <= 300; ++len) {
      const uint8_t* p = bytes.data() + offset;
      ASSERT_EQ(Crc32(p, len), ReferenceCrc32(p, len))
          << "offset " << offset << " length " << len;
    }
  }
}

TEST(Crc32Test, MatchesBytewiseOnOneMebibyte) {
  const std::vector<uint8_t> bytes = RandomBytes(1u << 20, 12);
  EXPECT_EQ(Crc32(bytes), ReferenceCrc32(bytes.data(), bytes.size()));
}

TEST(Crc32CombineTest, EqualsCrcOfConcatenationAtRandomSplits) {
  const std::vector<uint8_t> bytes = RandomBytes(70000, 13);
  const uint32_t whole = Crc32(bytes);
  Rng rng(14);
  std::vector<size_t> splits = {0, bytes.size()};  // empty a, empty b
  for (int i = 0; i < 64; ++i) splits.push_back(rng.NextBounded(bytes.size()));
  for (size_t split : splits) {
    const uint32_t crc_a = Crc32(bytes.data(), split);
    const uint32_t crc_b = Crc32(bytes.data() + split, bytes.size() - split);
    EXPECT_EQ(Crc32Combine(crc_a, crc_b, bytes.size() - split), whole)
        << "split at " << split;
  }
}

TEST(Crc32CombineTest, BothEmptyAndEmptyTail) {
  EXPECT_EQ(Crc32Combine(0, 0, 0), 0u);
  const uint32_t crc = 0x12345678u;
  EXPECT_EQ(Crc32Combine(crc, Crc32(nullptr, 0), 0), crc);
  EXPECT_EQ(Crc32Combine(Crc32(nullptr, 0), crc, 17), crc);
}

TEST(Crc32CombineTest, ChainedOverChunksLikeTheResultStream) {
  // The server folds 35 chunk CRCs (the last one short) into the
  // result_end trailer; the fold must equal one pass over the payload.
  const size_t chunk = 4096;
  const std::vector<uint8_t> bytes = RandomBytes(34 * chunk + 1234, 15);
  uint32_t folded = 0;
  size_t chunks = 0;
  for (size_t off = 0; off < bytes.size(); off += chunk, ++chunks) {
    const size_t n = std::min(chunk, bytes.size() - off);
    folded = Crc32Combine(folded, Crc32(bytes.data() + off, n), n);
  }
  EXPECT_EQ(chunks, 35u);
  EXPECT_EQ(folded, Crc32(bytes));
}

}  // namespace
}  // namespace qbism
