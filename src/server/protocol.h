#ifndef QBISM_SERVER_PROTOCOL_H_
#define QBISM_SERVER_PROTOCOL_H_

#include <array>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/crc32.h"
#include "common/result.h"

namespace qbism::server {

/// The QBISM wire protocol: length-prefixed binary frames over TCP.
/// Every frame is a fixed 36-byte header followed by `payload_bytes` of
/// payload, all little-endian:
///
///   offset size field
///   0      4    magic 0x4D534251 ("QBSM")
///   4      2    protocol version (kProtocolVersion)
///   6      2    message type (MessageType)
///   8      4    flags (reserved, must be 0)
///   12     8    session token (0 before HELLO/WELCOME)
///   20     8    request id (client-chosen, echoed on every reply frame)
///   28     4    payload length in bytes
///   32     4    CRC-32 (IEEE 802.3) of the payload bytes
///   36     ..   payload
///
/// The header is self-delimiting, so a reader can frame the stream
/// without knowing any message type, and a corrupt length or checksum
/// is detected before the payload is interpreted. docs/NETWORK.md is
/// the protocol reference.
inline constexpr uint32_t kMagic = 0x4D534251u;  // "QBSM"
inline constexpr uint16_t kProtocolVersion = 2;
inline constexpr size_t kHeaderBytes = 36;

/// Hard ceiling a reader enforces on `payload_bytes` before allocating
/// anything: an adversarial length prefix cannot make the peer reserve
/// gigabytes. Servers and clients may configure a lower limit.
inline constexpr uint32_t kMaxFramePayload = 64u << 20;

enum class MessageType : uint16_t {
  kHello = 1,         // client -> server: tenant credentials
  kWelcome = 2,       // server -> client: session token + transfer params
  kQuery = 3,         // client -> server: one QuerySpec request
  kResultHeader = 4,  // server -> client: answer summary + payload size
  kResultChunk = 5,   // server -> client: one slice of the answer payload
  kResultEnd = 6,     // server -> client: totals + whole-payload CRC
  kError = 7,         // server -> client: status code + reason + message
  kPing = 8,          // client -> server: keepalive / session refresh
  kPong = 9,          // server -> client: keepalive ack
  kBye = 10,          // client -> server: orderly close
};

/// Stable name for logs and tests ("hello", "query", ...).
const char* MessageTypeName(MessageType type);

/// Machine-readable reason carried by a kError frame, so clients (and
/// the metrics layer) can distinguish the rejection classes without
/// parsing the message text.
enum class ErrorReason : uint16_t {
  kNone = 0,
  kUnauthorized = 1,    // bad credentials or unknown session token
  kSessionExpired = 2,  // session past its idle TTL; re-HELLO
  kQuotaRejected = 3,   // per-tenant quota / fair-share bound hit
  kProtocol = 4,        // malformed frame or payload
  kServerBusy = 5,      // connection cap or admission queue full
  kShutdown = 6,        // server is stopping
  kQueryFailed = 7,     // the query itself failed (status code says why)
};

const char* ErrorReasonName(ErrorReason reason);

/// Decoded frame header (magic validated and dropped).
struct FrameHeader {
  uint16_t version = kProtocolVersion;
  MessageType type = MessageType::kError;
  uint32_t flags = 0;
  uint64_t session = 0;
  uint64_t request_id = 0;
  uint32_t payload_bytes = 0;
  uint32_t payload_crc = 0;
};

struct Frame {
  FrameHeader header;
  std::vector<uint8_t> payload;
};

/// CRC-32 (IEEE reflected polynomial 0xEDB88320); shared with the
/// write-ahead log's record framing (common/crc32.h).
using qbism::Crc32;

/// The 36-byte header of the frame carrying `payload`: magic, version,
/// type, ids, payload length and payload CRC. A sender can write it
/// and the payload as two pieces without joining them first.
std::array<uint8_t, kHeaderBytes> EncodeFrameHeader(
    MessageType type, uint64_t session, uint64_t request_id,
    std::span<const uint8_t> payload);

/// Serializes header + payload into one contiguous buffer (the
/// reference encoding the protocol tests frame and parse).
std::vector<uint8_t> EncodeFrame(MessageType type, uint64_t session,
                                 uint64_t request_id,
                                 const std::vector<uint8_t>& payload);

/// Parses and validates a 36-byte header. Rejects short buffers, bad
/// magic, unsupported versions, non-zero reserved flags, and payload
/// lengths over `max_payload`. Does NOT check the payload CRC (the
/// payload has not been read yet) — use VerifyPayload once it has.
Result<FrameHeader> DecodeFrameHeader(const uint8_t* bytes, size_t size,
                                      uint32_t max_payload = kMaxFramePayload);

/// CRC check of a fully-read payload against its header.
Status VerifyPayload(const FrameHeader& header,
                     const std::vector<uint8_t>& payload);

/// --- Wire primitives --------------------------------------------------

/// Append-only little-endian writer used by the message codec.
class WireWriter {
 public:
  void PutU8(uint8_t v) { buf_.push_back(v); }
  void PutU16(uint16_t v);
  void PutU32(uint32_t v);
  void PutU64(uint64_t v);
  void PutI32(int32_t v) { PutU32(static_cast<uint32_t>(v)); }
  void PutF64(double v);
  /// u32 length followed by the bytes.
  void PutString(const std::string& s);
  void PutBytes(const uint8_t* data, size_t size);

  const std::vector<uint8_t>& bytes() const { return buf_; }
  std::vector<uint8_t> Take() { return std::move(buf_); }

 private:
  std::vector<uint8_t> buf_;
};

/// Bounds-checked little-endian reader over a payload. Every getter
/// fails with Corruption on underrun instead of reading past the end,
/// so truncated or lying payloads surface as clean errors.
class WireReader {
 public:
  WireReader(const uint8_t* data, size_t size) : data_(data), size_(size) {}
  explicit WireReader(const std::vector<uint8_t>& buf)
      : data_(buf.data()), size_(buf.size()) {}

  Result<uint8_t> GetU8();
  Result<uint16_t> GetU16();
  Result<uint32_t> GetU32();
  Result<uint64_t> GetU64();
  Result<int32_t> GetI32();
  Result<double> GetF64();
  /// Reads a u32 length + bytes; enforces `max_bytes` before copying.
  Result<std::string> GetString(uint32_t max_bytes = 1u << 20);
  Result<std::vector<uint8_t>> GetBytes(uint32_t max_bytes);
  /// Reads exactly `n` raw bytes (no length prefix).
  Result<std::vector<uint8_t>> GetRaw(size_t n);

  size_t remaining() const { return size_ - pos_; }
  bool AtEnd() const { return pos_ == size_; }

 private:
  Status Need(size_t n);

  const uint8_t* data_;
  size_t size_;
  size_t pos_ = 0;
};

}  // namespace qbism::server

#endif  // QBISM_SERVER_PROTOCOL_H_
