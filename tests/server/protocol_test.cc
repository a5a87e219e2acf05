#include "server/protocol.h"

#include <gtest/gtest.h>

#include <sys/socket.h>
#include <unistd.h>

#include <cstring>
#include <thread>
#include <vector>

#include "server/socket_io.h"

namespace qbism::server {
namespace {

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

TEST(FrameTest, EncodeDecodeRoundTrip) {
  std::vector<uint8_t> payload = {1, 2, 3, 4, 5};
  std::vector<uint8_t> wire =
      EncodeFrame(MessageType::kQuery, 0xAABBCCDDEEFF0011ull, 42, payload);
  ASSERT_EQ(wire.size(), kHeaderBytes + payload.size());

  auto header = DecodeFrameHeader(wire.data(), wire.size());
  ASSERT_TRUE(header.ok()) << header.status().ToString();
  EXPECT_EQ(header->type, MessageType::kQuery);
  EXPECT_EQ(header->version, kProtocolVersion);
  EXPECT_EQ(header->session, 0xAABBCCDDEEFF0011ull);
  EXPECT_EQ(header->request_id, 42u);
  EXPECT_EQ(header->payload_bytes, payload.size());
  EXPECT_TRUE(VerifyPayload(*header, payload).ok());
}

TEST(FrameTest, EmptyPayloadRoundTrip) {
  std::vector<uint8_t> wire = EncodeFrame(MessageType::kPing, 7, 1, {});
  ASSERT_EQ(wire.size(), kHeaderBytes);
  auto header = DecodeFrameHeader(wire.data(), wire.size());
  ASSERT_TRUE(header.ok());
  EXPECT_EQ(header->payload_bytes, 0u);
  EXPECT_TRUE(VerifyPayload(*header, {}).ok());
}

TEST(FrameTest, RejectsShortBuffer) {
  std::vector<uint8_t> wire = EncodeFrame(MessageType::kPing, 0, 0, {});
  for (size_t n = 0; n < kHeaderBytes; ++n) {
    auto header = DecodeFrameHeader(wire.data(), n);
    EXPECT_FALSE(header.ok()) << "accepted " << n << "-byte header";
    EXPECT_TRUE(header.status().IsCorruption());
  }
}

TEST(FrameTest, RejectsBadMagic) {
  std::vector<uint8_t> wire = EncodeFrame(MessageType::kHello, 0, 0, {});
  wire[0] ^= 0xFF;
  auto header = DecodeFrameHeader(wire.data(), wire.size());
  ASSERT_FALSE(header.ok());
  EXPECT_TRUE(header.status().IsCorruption());
}

TEST(FrameTest, RejectsUnsupportedVersion) {
  std::vector<uint8_t> wire = EncodeFrame(MessageType::kHello, 0, 0, {});
  wire[4] = 0x7F;  // version low byte
  auto header = DecodeFrameHeader(wire.data(), wire.size());
  ASSERT_FALSE(header.ok());
  EXPECT_TRUE(header.status().IsCorruption());
}

TEST(FrameTest, RejectsUnknownMessageType) {
  for (uint16_t type : {uint16_t{0}, uint16_t{11}, uint16_t{0xFFFF}}) {
    std::vector<uint8_t> wire = EncodeFrame(MessageType::kHello, 0, 0, {});
    std::memcpy(wire.data() + 6, &type, sizeof(type));
    auto header = DecodeFrameHeader(wire.data(), wire.size());
    ASSERT_FALSE(header.ok()) << "type " << type;
    EXPECT_TRUE(header.status().IsCorruption());
  }
}

TEST(FrameTest, RejectsReservedFlags) {
  std::vector<uint8_t> wire = EncodeFrame(MessageType::kHello, 0, 0, {});
  wire[8] = 0x01;
  auto header = DecodeFrameHeader(wire.data(), wire.size());
  ASSERT_FALSE(header.ok());
  EXPECT_TRUE(header.status().IsCorruption());
}

TEST(FrameTest, RejectsOversizedLengthPrefix) {
  // An adversarial length prefix must bounce at the configured ceiling
  // before any allocation happens.
  std::vector<uint8_t> wire = EncodeFrame(MessageType::kQuery, 0, 0, {});
  uint32_t huge = 0xFFFFFFFFu;
  std::memcpy(wire.data() + 28, &huge, sizeof(huge));
  auto header = DecodeFrameHeader(wire.data(), wire.size());
  ASSERT_FALSE(header.ok());
  EXPECT_TRUE(header.status().IsCorruption());

  uint32_t just_over = 1024 + 1;
  std::memcpy(wire.data() + 28, &just_over, sizeof(just_over));
  EXPECT_FALSE(DecodeFrameHeader(wire.data(), wire.size(), 1024).ok());
  uint32_t at_limit = 1024;
  std::memcpy(wire.data() + 28, &at_limit, sizeof(at_limit));
  EXPECT_TRUE(DecodeFrameHeader(wire.data(), wire.size(), 1024).ok());
}

TEST(FrameTest, DetectsPayloadCorruption) {
  std::vector<uint8_t> payload(100, 0x5A);
  std::vector<uint8_t> wire =
      EncodeFrame(MessageType::kResultChunk, 1, 2, payload);
  auto header = DecodeFrameHeader(wire.data(), wire.size());
  ASSERT_TRUE(header.ok());

  std::vector<uint8_t> flipped = payload;
  flipped[50] ^= 0x80;
  Status status = VerifyPayload(*header, flipped);
  ASSERT_FALSE(status.ok());
  EXPECT_TRUE(status.IsCorruption());

  std::vector<uint8_t> truncated(payload.begin(), payload.end() - 1);
  EXPECT_TRUE(VerifyPayload(*header, truncated).IsCorruption());
}

TEST(FrameSocketTest, GatheredSendIsByteIdenticalToEncodeFrame) {
  // SendFrame writes the header and the caller's payload as two iovecs;
  // for a 1 MB payload (far beyond the socket buffer) the bytes that
  // arrive must be exactly EncodeFrame's, and ReadFrame must accept
  // them.
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  FrameSocket writer(fds[0]);
  std::vector<uint8_t> payload(1 << 20);
  for (size_t i = 0; i < payload.size(); ++i) {
    payload[i] = static_cast<uint8_t>(i * 131 + 7);
  }
  std::vector<uint8_t> expected =
      EncodeFrame(MessageType::kResultChunk, 42, 7, payload);
  std::thread send([&] {
    EXPECT_TRUE(
        writer.SendFrame(MessageType::kResultChunk, 42, 7, payload).ok());
    writer.ShutdownBoth();
  });
  std::vector<uint8_t> got;
  uint8_t buf[8192];
  for (;;) {
    ssize_t n = ::recv(fds[1], buf, sizeof(buf), 0);
    if (n <= 0) break;
    got.insert(got.end(), buf, buf + n);
  }
  send.join();
  ::close(fds[1]);
  EXPECT_EQ(got, expected);

  // The same frame, read back through FrameSocket.
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  FrameSocket a(fds[0]);
  FrameSocket b(fds[1]);
  std::thread resend([&] {
    EXPECT_TRUE(a.SendFrame(MessageType::kResultChunk, 42, 7, payload).ok());
  });
  Result<Frame> frame = b.ReadFrame();
  resend.join();
  ASSERT_TRUE(frame.ok()) << frame.status().ToString();
  EXPECT_EQ(frame->header.session, 42u);
  EXPECT_EQ(frame->header.request_id, 7u);
  EXPECT_EQ(frame->payload, payload);
}

TEST(WireTest, WriterReaderRoundTrip) {
  WireWriter w;
  w.PutU8(0xAB);
  w.PutU16(0x1234);
  w.PutU32(0xDEADBEEF);
  w.PutU64(0x0123456789ABCDEFull);
  w.PutI32(-77);
  w.PutF64(3.25);
  w.PutString("qbism");
  std::vector<uint8_t> buf = w.Take();

  WireReader r(buf);
  EXPECT_EQ(r.GetU8().value(), 0xAB);
  EXPECT_EQ(r.GetU16().value(), 0x1234);
  EXPECT_EQ(r.GetU32().value(), 0xDEADBEEFu);
  EXPECT_EQ(r.GetU64().value(), 0x0123456789ABCDEFull);
  EXPECT_EQ(r.GetI32().value(), -77);
  EXPECT_EQ(r.GetF64().value(), 3.25);
  EXPECT_EQ(r.GetString().value(), "qbism");
  EXPECT_TRUE(r.AtEnd());
}

TEST(WireTest, ReaderFailsCleanlyOnUnderrun) {
  WireWriter w;
  w.PutU16(7);
  std::vector<uint8_t> buf = w.Take();
  WireReader r(buf);
  EXPECT_FALSE(r.GetU32().ok());  // only 2 bytes available
  EXPECT_TRUE(r.GetU16().ok());
  EXPECT_FALSE(r.GetU8().ok());  // exhausted
}

TEST(WireTest, StringLengthCapEnforcedBeforeAllocation) {
  WireWriter w;
  w.PutU32(0x40000000u);  // length prefix claiming 1 GiB
  std::vector<uint8_t> buf = w.Take();
  WireReader r(buf);
  auto s = r.GetString(/*max_bytes=*/4096);
  ASSERT_FALSE(s.ok());
  EXPECT_TRUE(s.status().IsCorruption());
}

TEST(WireTest, NamesAreStable) {
  EXPECT_STREQ(MessageTypeName(MessageType::kHello), "hello");
  EXPECT_STREQ(MessageTypeName(MessageType::kResultChunk), "result_chunk");
  EXPECT_STREQ(ErrorReasonName(ErrorReason::kQuotaRejected), "quota_rejected");
}

}  // namespace
}  // namespace qbism::server
