#include "server/socket_io.h"

#include <arpa/inet.h>
#include <cerrno>
#include <cstring>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include "common/macros.h"

namespace qbism::server {

FrameSocket& FrameSocket::operator=(FrameSocket&& other) noexcept {
  if (this != &other) {
    Close();
    fd_ = other.fd_;
    other.fd_ = -1;
  }
  return *this;
}

Status FrameSocket::WriteAll(iovec* iov, int count) {
  while (count > 0) {
    msghdr msg{};
    msg.msg_iov = iov;
    msg.msg_iovlen = static_cast<size_t>(count);
    ssize_t n = ::sendmsg(fd_, &msg, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::IOError(std::string("send: ") + std::strerror(errno));
    }
    size_t sent = static_cast<size_t>(n);
    while (count > 0 && sent >= iov->iov_len) {
      sent -= iov->iov_len;
      ++iov;
      --count;
    }
    if (count > 0) {
      iov->iov_base = static_cast<uint8_t*>(iov->iov_base) + sent;
      iov->iov_len -= sent;
    }
  }
  return Status::OK();
}

Status FrameSocket::ReadAll(uint8_t* data, size_t size, bool eof_ok) {
  size_t got = 0;
  while (got < size) {
    ssize_t n = ::recv(fd_, data + got, size - got, 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::IOError(std::string("recv: ") + std::strerror(errno));
    }
    if (n == 0) {
      if (got == 0 && eof_ok) {
        return Status::Cancelled("connection closed by peer");
      }
      return Status::Corruption("connection closed mid-frame (" +
                                std::to_string(got) + " of " +
                                std::to_string(size) + " bytes)");
    }
    got += static_cast<size_t>(n);
  }
  return Status::OK();
}

Status FrameSocket::SendFrame(MessageType type, uint64_t session,
                              uint64_t request_id,
                              std::span<const uint8_t> payload) {
  if (!valid()) return Status::IOError("socket is closed");
  std::array<uint8_t, kHeaderBytes> header =
      EncodeFrameHeader(type, session, request_id, payload);
  iovec iov[2] = {
      {header.data(), header.size()},
      {const_cast<uint8_t*>(payload.data()), payload.size()}};
  return WriteAll(iov, 2);
}

Result<Frame> FrameSocket::ReadFrame(uint32_t max_payload) {
  if (!valid()) return Status::IOError("socket is closed");
  uint8_t header_bytes[kHeaderBytes];
  QBISM_RETURN_NOT_OK(ReadAll(header_bytes, kHeaderBytes, /*eof_ok=*/true));
  QBISM_ASSIGN_OR_RETURN(
      FrameHeader header,
      DecodeFrameHeader(header_bytes, kHeaderBytes, max_payload));
  Frame frame;
  frame.header = header;
  frame.payload.resize(header.payload_bytes);
  if (header.payload_bytes > 0) {
    QBISM_RETURN_NOT_OK(
        ReadAll(frame.payload.data(), frame.payload.size(), /*eof_ok=*/false));
  }
  QBISM_RETURN_NOT_OK(VerifyPayload(frame.header, frame.payload));
  return frame;
}

void FrameSocket::ShutdownBoth() {
  if (valid()) ::shutdown(fd_, SHUT_RDWR);
}

void FrameSocket::Close() {
  if (valid()) {
    ::close(fd_);
    fd_ = -1;
  }
}

Result<FrameSocket> DialTcp(const std::string& host, uint16_t port) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return Status::IOError(std::string("socket: ") + std::strerror(errno));
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    return Status::InvalidArgument("bad IPv4 address: " + host);
  }
  int rc;
  do {
    rc = ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr));
  } while (rc < 0 && errno == EINTR);
  if (rc < 0) {
    Status status(StatusCode::kIOError,
                  std::string("connect: ") + std::strerror(errno));
    ::close(fd);
    return status;
  }
  // Query frames are small and latency matters; answers are streamed in
  // large chunks where Nagle costs nothing either way.
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return FrameSocket(fd);
}

}  // namespace qbism::server
