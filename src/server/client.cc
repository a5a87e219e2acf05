#include "server/client.h"

#include <algorithm>

#include "common/macros.h"
#include "common/timer.h"

namespace qbism::server {

Result<NetClient> NetClient::Connect(const std::string& host, uint16_t port) {
  QBISM_ASSIGN_OR_RETURN(FrameSocket socket, DialTcp(host, port));
  return NetClient(std::move(socket));
}

Result<FrameHeader> NetClient::ReadExpectedHeader(MessageType want,
                                                  uint64_t request_id) {
  QBISM_ASSIGN_OR_RETURN(FrameHeader header, socket_.ReadHeader());
  if (header.type == want && header.request_id == request_id) return header;
  std::vector<uint8_t> payload(header.payload_bytes);
  QBISM_RETURN_NOT_OK(socket_.ReadPayload(header, payload.data()));
  if (header.type == MessageType::kError) {
    QBISM_ASSIGN_OR_RETURN(ErrorReply error, DecodeError(payload));
    last_error_reason_ = error.reason;
    return Status(error.code, std::string(ErrorReasonName(error.reason)) +
                                  ": " + error.message);
  }
  if (header.type != want) {
    return Status::Corruption(std::string("expected ") + MessageTypeName(want) +
                              ", got " + MessageTypeName(header.type));
  }
  return Status::Corruption(
      "response for request " + std::to_string(header.request_id) +
      ", expected " + std::to_string(request_id));
}

Result<Frame> NetClient::ReadExpected(MessageType want, uint64_t request_id) {
  Frame frame;
  QBISM_ASSIGN_OR_RETURN(frame.header, ReadExpectedHeader(want, request_id));
  frame.payload.resize(frame.header.payload_bytes);
  QBISM_RETURN_NOT_OK(socket_.ReadPayload(frame.header, frame.payload.data()));
  return frame;
}

Status NetClient::Login(const std::string& tenant, const std::string& secret) {
  if (!socket_.valid()) return Status::IOError("client is not connected");
  uint64_t id = next_request_id_++;
  HelloRequest hello;
  hello.tenant = tenant;
  hello.secret = secret;
  QBISM_RETURN_NOT_OK(socket_.SendFrame(MessageType::kHello, 0, id,
                                        EncodeHello(hello)));
  QBISM_ASSIGN_OR_RETURN(Frame frame,
                         ReadExpected(MessageType::kWelcome, id));
  QBISM_ASSIGN_OR_RETURN(WelcomeReply welcome, DecodeWelcome(frame.payload));
  session_token_ = welcome.session_token;
  session_ttl_seconds_ = welcome.session_ttl_seconds;
  server_chunk_bytes_ = welcome.chunk_bytes;
  return Status::OK();
}

Status NetClient::Ping() {
  if (!socket_.valid()) return Status::IOError("client is not connected");
  uint64_t id = next_request_id_++;
  QBISM_RETURN_NOT_OK(
      socket_.SendFrame(MessageType::kPing, session_token_, id, {}));
  return ReadExpected(MessageType::kPong, id).status();
}

Result<QueryOutcome> NetClient::RunQuery(const qbism::QuerySpec& spec,
                                         double deadline_seconds) {
  if (!socket_.valid()) return Status::IOError("client is not connected");
  uint64_t id = next_request_id_++;
  WallTimer timer;
  QueryRequest query;
  query.spec = spec;
  query.deadline_seconds = deadline_seconds;
  QBISM_RETURN_NOT_OK(socket_.SendFrame(MessageType::kQuery, session_token_,
                                        id, EncodeQuery(query)));

  QueryOutcome out;
  {
    QBISM_ASSIGN_OR_RETURN(Frame frame,
                           ReadExpected(MessageType::kResultHeader, id));
    QBISM_ASSIGN_OR_RETURN(out.header, DecodeResultHeader(frame.payload));
  }
  // Each chunk is received straight into the reassembly buffer and its
  // frame CRC verified there, so every answer byte is hashed once and
  // the verified chunk CRCs fold into the CRC of the whole answer for
  // the trailer check. The buffer grows only by chunks that passed the overrun
  // check; the announced size is the peer's claim, so at most one
  // frame's worth of it is reserved up front.
  std::vector<uint8_t> payload;
  payload.reserve(std::min<uint64_t>(out.header.payload_bytes,
                                     kMaxFramePayload));
  uint32_t payload_crc = 0;  // Crc32 of the chunks received so far
  while (payload.size() < out.header.payload_bytes) {
    QBISM_ASSIGN_OR_RETURN(FrameHeader chunk,
                           ReadExpectedHeader(MessageType::kResultChunk, id));
    if (payload.size() + chunk.payload_bytes > out.header.payload_bytes) {
      return Status::Corruption("result chunks overrun the announced " +
                                std::to_string(out.header.payload_bytes) +
                                " payload bytes");
    }
    const size_t off = payload.size();
    payload.resize(off + chunk.payload_bytes);
    QBISM_RETURN_NOT_OK(socket_.ReadPayload(chunk, payload.data() + off));
    payload_crc =
        Crc32Combine(payload_crc, chunk.payload_crc, chunk.payload_bytes);
    ++out.chunks;
  }
  ResultEnd end;
  {
    QBISM_ASSIGN_OR_RETURN(Frame frame,
                           ReadExpected(MessageType::kResultEnd, id));
    QBISM_ASSIGN_OR_RETURN(end, DecodeResultEnd(frame.payload));
  }
  out.wire_seconds = timer.Seconds();
  out.shipped_bytes = payload.size();
  if (end.payload_bytes != payload.size() || end.chunk_count != out.chunks) {
    return Status::Corruption(
        "result trailer accounting mismatch: trailer says " +
        std::to_string(end.payload_bytes) + " bytes / " +
        std::to_string(end.chunk_count) + " chunks, received " +
        std::to_string(payload.size()) + " / " + std::to_string(out.chunks));
  }
  if (end.payload_crc != payload_crc) {
    return Status::Corruption("reassembled answer payload fails its CRC");
  }
  QBISM_ASSIGN_OR_RETURN(out.data, DecodeAnswerPayload(payload));
  return out;
}

void NetClient::Bye() {
  if (socket_.valid()) {
    (void)socket_.SendFrame(MessageType::kBye, session_token_,
                            next_request_id_++, {});
  }
  socket_.Close();
}

}  // namespace qbism::server
