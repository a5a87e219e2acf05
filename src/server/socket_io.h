#ifndef QBISM_SERVER_SOCKET_IO_H_
#define QBISM_SERVER_SOCKET_IO_H_

#include <sys/uio.h>

#include <cstdint>
#include <span>
#include <string>

#include "common/result.h"
#include "server/protocol.h"

namespace qbism::server {

/// Blocking, whole-frame I/O over a connected TCP socket. Handles
/// partial reads/writes and EINTR; never raises SIGPIPE. A FrameSocket
/// owns its fd and closes it on destruction.
///
/// Read-side status contract (what connection loops dispatch on):
///   Cancelled    orderly EOF at a frame boundary (peer closed cleanly)
///   Corruption   bad magic/version/length/CRC, or EOF mid-frame
///   IOError      errno-level socket failure
class FrameSocket {
 public:
  FrameSocket() = default;
  explicit FrameSocket(int fd) : fd_(fd) {}
  ~FrameSocket() { Close(); }

  FrameSocket(FrameSocket&& other) noexcept : fd_(other.fd_) {
    other.fd_ = -1;
  }
  FrameSocket& operator=(FrameSocket&& other) noexcept;
  FrameSocket(const FrameSocket&) = delete;
  FrameSocket& operator=(const FrameSocket&) = delete;

  bool valid() const { return fd_ >= 0; }
  int fd() const { return fd_; }

  /// Sends one whole frame: the header from a stack buffer and the
  /// payload straight from the caller's bytes, in one gathered write.
  Status SendFrame(MessageType type, uint64_t session, uint64_t request_id,
                   std::span<const uint8_t> payload);

  /// Reads one whole frame: header, validation, payload, CRC check.
  Result<Frame> ReadFrame(uint32_t max_payload = kMaxFramePayload);

  /// Half-closes both directions (wakes a peer blocked in recv) without
  /// releasing the fd; Close() still must run.
  void ShutdownBoth();
  void Close();

 private:
  /// Writes every byte of `iov[0..count)`, resuming after partial
  /// writes. Consumes (advances) the iovecs.
  Status WriteAll(iovec* iov, int count);
  /// Reads exactly `size` bytes. `eof_ok` permits a clean EOF before
  /// the first byte (mapped to Cancelled); EOF after it is Corruption.
  Status ReadAll(uint8_t* data, size_t size, bool eof_ok);

  int fd_ = -1;
};

/// Connects to host:port (numeric IPv4 host, e.g. "127.0.0.1").
Result<FrameSocket> DialTcp(const std::string& host, uint16_t port);

}  // namespace qbism::server

#endif  // QBISM_SERVER_SOCKET_IO_H_
