#include "server/server.h"

#include <arpa/inet.h>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include "common/macros.h"
#include "common/timer.h"

namespace qbism::server {

QbismServer::QbismServer(qbism::SpatialExtension* ext, ServerOptions options)
    : ext_(ext), options_(std::move(options)) {}

QbismServer::~QbismServer() { Shutdown(); }

Status QbismServer::Start() {
  if (running_.load()) return Status::AlreadyExists("server already started");
  if (options_.tenants.empty()) {
    return Status::InvalidArgument("server needs at least one tenant");
  }

  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return Status::IOError(std::string("socket: ") + std::strerror(errno));
  }
  int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(options_.port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    Status status(StatusCode::kIOError,
                  std::string("bind: ") + std::strerror(errno));
    ::close(fd);
    return status;
  }
  if (::listen(fd, options_.listen_backlog) < 0) {
    Status status(StatusCode::kIOError,
                  std::string("listen: ") + std::strerror(errno));
    ::close(fd);
    return status;
  }
  socklen_t len = sizeof(addr);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) < 0) {
    Status status(StatusCode::kIOError,
                  std::string("getsockname: ") + std::strerror(errno));
    ::close(fd);
    return status;
  }
  port_ = ntohs(addr.sin_port);
  listener_ = FrameSocket(fd);

  auth_ = std::make_unique<AuthManager>(
      options_.tenants, options_.session_ttl_seconds, options_.auth_seed);
  service_ = std::make_unique<service::QueryService>(
      ext_, options_.service,
      std::vector<service::TenantShare>(options_.tenants.begin(),
                                        options_.tenants.end()));
  per_tenant_.clear();
  for (size_t i = 0; i < options_.tenants.size(); ++i) {
    per_tenant_.push_back(std::make_unique<PerTenant>());
  }

  stopping_.store(false);
  running_.store(true);
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  return Status::OK();
}

void QbismServer::AcceptLoop() {
  while (!stopping_.load(std::memory_order_relaxed)) {
    int fd = ::accept(listener_.fd(), nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      // The listener was closed (shutdown) or broke; either way, stop.
      return;
    }
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    if (stopping_.load(std::memory_order_relaxed)) {
      ::close(fd);
      return;
    }
    uint64_t open = connections_open_.load(std::memory_order_relaxed);
    if (open >= static_cast<uint64_t>(options_.max_connections)) {
      // Over the cap: one busy frame, then an immediate close, so the
      // client backs off instead of hanging in recv.
      connections_rejected_.fetch_add(1, std::memory_order_relaxed);
      FrameSocket reject(fd);
      ErrorReply busy;
      busy.code = StatusCode::kResourceExhausted;
      busy.reason = ErrorReason::kServerBusy;
      busy.message = "connection cap reached";
      (void)reject.SendFrame(MessageType::kError, 0, 0, EncodeError(busy));
      continue;  // reject's destructor closes the fd
    }
    connections_accepted_.fetch_add(1, std::memory_order_relaxed);
    uint64_t now_open =
        connections_open_.fetch_add(1, std::memory_order_relaxed) + 1;
    uint64_t peak = peak_connections_.load(std::memory_order_relaxed);
    while (now_open > peak && !peak_connections_.compare_exchange_weak(
                                  peak, now_open, std::memory_order_relaxed)) {
    }
    auto conn = std::make_unique<Connection>();
    conn->socket = FrameSocket(fd);
    Connection* raw = conn.get();
    {
      std::lock_guard<std::mutex> lock(conns_mu_);
      conns_.push_back(std::move(conn));
    }
    raw->thread = std::thread([this, raw] { HandleConnection(raw); });
    ReapFinished();
  }
}

void QbismServer::ReapFinished() {
  std::lock_guard<std::mutex> lock(conns_mu_);
  for (auto it = conns_.begin(); it != conns_.end();) {
    if ((*it)->done.load(std::memory_order_acquire)) {
      if ((*it)->thread.joinable()) (*it)->thread.join();
      it = conns_.erase(it);
    } else {
      ++it;
    }
  }
}

Status QbismServer::SendCounted(Connection* conn, MessageType type,
                                uint64_t session, uint64_t request_id,
                                std::span<const uint8_t> payload) {
  Status status = conn->socket.SendFrame(type, session, request_id, payload);
  if (status.ok()) {
    frames_written_.fetch_add(1, std::memory_order_relaxed);
    bytes_written_.fetch_add(kHeaderBytes + payload.size(),
                             std::memory_order_relaxed);
  }
  return status;
}

void QbismServer::PenalizeQuota() {
  const double penalty = options_.quota_penalty_seconds;
  if (penalty <= 0.0 || stopping_.load(std::memory_order_relaxed)) return;
  std::this_thread::sleep_for(std::chrono::duration<double>(penalty));
  quota_penalties_.fetch_add(1, std::memory_order_relaxed);
  double cur = quota_penalty_seconds_.load(std::memory_order_relaxed);
  while (!quota_penalty_seconds_.compare_exchange_weak(
      cur, cur + penalty, std::memory_order_relaxed)) {
  }
}

bool QbismServer::SendError(Connection* conn, uint64_t request_id,
                            ErrorReason reason, const Status& status) {
  ErrorReply error;
  error.code = status.code();
  error.reason = reason;
  error.message = status.message();
  return SendCounted(conn, MessageType::kError, 0, request_id,
                     EncodeError(error))
      .ok();
}

void QbismServer::HandleConnection(Connection* conn) {
  while (!stopping_.load(std::memory_order_relaxed)) {
    WallTimer read_timer;
    Result<Frame> frame = conn->socket.ReadFrame(options_.max_frame_payload);
    double read_seconds = read_timer.Seconds();
    if (!frame.ok()) {
      if (frame.status().IsCorruption()) {
        // A corrupt length-prefixed stream cannot be re-synchronized;
        // report and drop the connection.
        protocol_errors_.fetch_add(1, std::memory_order_relaxed);
        (void)SendError(conn, 0, ErrorReason::kProtocol, frame.status());
      }
      break;  // clean EOF, socket error, or corruption: close
    }
    frames_read_.fetch_add(1, std::memory_order_relaxed);
    bytes_read_.fetch_add(kHeaderBytes + frame->payload.size(),
                          std::memory_order_relaxed);

    const FrameHeader& header = frame->header;
    bool keep = true;
    switch (header.type) {
      case MessageType::kHello: {
        Result<HelloRequest> hello = DecodeHello(frame->payload);
        if (!hello.ok()) {
          protocol_errors_.fetch_add(1, std::memory_order_relaxed);
          keep = SendError(conn, header.request_id, ErrorReason::kProtocol,
                           hello.status());
          break;
        }
        Result<SessionInfo> session =
            auth_->Login(hello->tenant, hello->secret);
        if (!session.ok()) {
          ErrorReason reason = session.status().IsResourceExhausted()
                                   ? ErrorReason::kQuotaRejected
                                   : ErrorReason::kUnauthorized;
          if (reason == ErrorReason::kUnauthorized) {
            service_->NoteUnauthorized();
          } else {
            service_->NoteQuotaRejected();
            PenalizeQuota();
          }
          keep = SendError(conn, header.request_id, reason, session.status());
          break;
        }
        WelcomeReply welcome;
        welcome.session_token = session->token;
        welcome.session_ttl_seconds = auth_->session_ttl_seconds();
        welcome.chunk_bytes = options_.chunk_bytes;
        keep = SendCounted(conn, MessageType::kWelcome, session->token,
                           header.request_id, EncodeWelcome(welcome))
                   .ok();
        break;
      }
      case MessageType::kPing: {
        Result<int> tenant = auth_->Validate(header.session);
        if (!tenant.ok()) {
          bool expired = tenant.status().IsDeadlineExceeded();
          if (expired) {
            service_->NoteSessionExpired();
          } else {
            service_->NoteUnauthorized();
          }
          keep = SendError(conn, header.request_id,
                           expired ? ErrorReason::kSessionExpired
                                   : ErrorReason::kUnauthorized,
                           tenant.status());
          break;
        }
        keep = SendCounted(conn, MessageType::kPong, header.session,
                           header.request_id, {})
                   .ok();
        break;
      }
      case MessageType::kQuery:
        keep = HandleQuery(conn, *frame, read_seconds);
        break;
      case MessageType::kBye:
        keep = false;
        break;
      default:
        // Server-to-client frame types arriving at the server are a
        // protocol violation.
        protocol_errors_.fetch_add(1, std::memory_order_relaxed);
        keep = SendError(
            conn, header.request_id, ErrorReason::kProtocol,
            Status::InvalidArgument(std::string("unexpected frame type ") +
                                    MessageTypeName(header.type)));
        keep = false;
        break;
    }
    if (!keep) break;
  }
  // Tell the peer we are done; the fd itself is closed after this
  // thread is joined (ReapFinished / Shutdown).
  conn->socket.ShutdownBoth();
  connections_open_.fetch_sub(1, std::memory_order_relaxed);
  conn->done.store(true, std::memory_order_release);
}

bool QbismServer::HandleQuery(Connection* conn, const Frame& frame,
                              double read_seconds) {
  const FrameHeader& header = frame.header;
  WallTimer request_timer;

  // Session first: an unauthenticated peer gets no work done for it.
  Result<int> tenant_result = auth_->Validate(header.session);
  if (!tenant_result.ok()) {
    bool expired = tenant_result.status().IsDeadlineExceeded();
    if (expired) {
      service_->NoteSessionExpired();
    } else {
      service_->NoteUnauthorized();
    }
    return SendError(conn, header.request_id,
                     expired ? ErrorReason::kSessionExpired
                             : ErrorReason::kUnauthorized,
                     tenant_result.status());
  }
  int tenant = *tenant_result;
  PerTenant* tstats = per_tenant_[static_cast<size_t>(tenant)].get();

  // One trace per wire request: kRequest root, tenant-labeled, with the
  // frame receive recorded retroactively as its kAccept child.
  obs::Tracer* tracer = options_.service.tracer;
  obs::TraceContext root_parent{};
  if (tracer != nullptr && tracer->enabled()) {
    root_parent = tracer->StartTrace();
  }
  obs::Span request_span(root_parent, obs::Stage::kRequest);
  request_span.SetLabel(options_.tenants[static_cast<size_t>(tenant)]
                            .name.c_str());
  if (request_span.active()) {
    obs::SpanRecord accept;
    accept.trace_id = root_parent.trace_id;
    accept.span_id = tracer->NextSpanId();
    accept.parent_id = request_span.context().span_id;
    accept.stage = obs::Stage::kAccept;
    accept.start_seconds = tracer->NowSeconds() - read_seconds;
    accept.duration_seconds = read_seconds;
    accept.bytes = kHeaderBytes + frame.payload.size();
    tracer->Record(accept);
  }

  obs::Span decode(request_span.context(), obs::Stage::kDecode);
  decode.SetLabel("frame");
  Result<QueryRequest> query = DecodeQuery(frame.payload);
  decode.End();
  if (!query.ok()) {
    protocol_errors_.fetch_add(1, std::memory_order_relaxed);
    request_span.SetFailed();
    return SendError(conn, header.request_id, ErrorReason::kProtocol,
                     query.status());
  }

  // One call: the service's admission point applies the tenant's
  // fair-share cap and waiting quota, then the query runs on this
  // thread.
  service::ServiceRequest request;
  request.spec = query->spec;
  request.tenant = tenant;
  request.deadline_seconds = query->deadline_seconds;
  request.trace_parent = request_span.context();
  Result<service::ServiceReply> reply = service_->Execute(request);
  if (!reply.ok()) {
    tstats->queries_failed.fetch_add(1, std::memory_order_relaxed);
    request_span.SetFailed();
    if (service::SlotAdmission::IsQuotaRejection(reply.status())) {
      PenalizeQuota();
      return SendError(conn, header.request_id, ErrorReason::kQuotaRejected,
                       reply.status());
    }
    ErrorReason reason = reply.status().IsResourceExhausted()
                             ? ErrorReason::kServerBusy
                         : reply.status().IsCancelled()
                             ? ErrorReason::kShutdown
                             : ErrorReason::kQueryFailed;
    return SendError(conn, header.request_id, reason, reply.status());
  }

  // Ship the region in the extension's configured encoding (the codec
  // tags the payload so the client decodes whatever was configured).
  Result<std::vector<uint8_t>> payload =
      EncodeAnswerPayload(reply->result.data, ext_->config().region_encoding);
  if (!payload.ok()) {
    tstats->queries_failed.fetch_add(1, std::memory_order_relaxed);
    request_span.SetFailed();
    return SendError(conn, header.request_id, ErrorReason::kQueryFailed,
                     payload.status());
  }

  const uint32_t chunk_bytes =
      options_.chunk_bytes > 0 ? options_.chunk_bytes : 1;
  const uint64_t total = payload->size();
  const uint32_t chunks = static_cast<uint32_t>(
      (total + chunk_bytes - 1) / chunk_bytes);

  ResultHeader rh;
  rh.result_runs = reply->result.result_runs;
  rh.result_voxels = reply->result.result_voxels;
  rh.payload_bytes = total;
  rh.chunk_count = chunks;
  rh.chunk_bytes = chunk_bytes;
  rh.cache_hit = reply->cache_hit;
  rh.worker_id = reply->worker_id;
  rh.timing = reply->result.timing;
  rh.info_sql = reply->result.info_sql;
  rh.data_sql = reply->result.data_sql;

  obs::Span ship(request_span.context(), obs::Stage::kShip);
  ship.SetLabel("socket");
  bool sent = SendCounted(conn, MessageType::kResultHeader, header.session,
                          header.request_id, EncodeResultHeader(rh))
                  .ok();
  const std::span<const uint8_t> answer(*payload);
  for (uint64_t off = 0; sent && off < total; off += chunk_bytes) {
    uint64_t n = std::min<uint64_t>(chunk_bytes, total - off);
    sent = SendCounted(conn, MessageType::kResultChunk, header.session,
                       header.request_id, answer.subspan(off, n))
               .ok();
  }
  ship.AddBytes(total);
  if (!sent) {
    ship.SetFailed();
    request_span.SetFailed();
    tstats->queries_failed.fetch_add(1, std::memory_order_relaxed);
    return false;
  }

  // Every chunk is on the wire: record the success before the trailer
  // goes out, so any observer the client wakes after seeing result_end
  // is guaranteed to see these counters too. A trailer-only send
  // failure below still severs the connection, but the answer was
  // fully shipped — it is not a query failure.
  tstats->ship_bytes.fetch_add(total, std::memory_order_relaxed);
  tstats->queries_ok.fetch_add(1, std::memory_order_relaxed);
  tstats->latency.RecordSeconds(read_seconds + request_timer.Seconds());

  ResultEnd re;
  re.payload_bytes = total;
  re.chunk_count = chunks;
  re.payload_crc = Crc32(*payload);
  sent = SendCounted(conn, MessageType::kResultEnd, header.session,
                     header.request_id, EncodeResultEnd(re))
             .ok();
  if (!sent) {
    ship.SetFailed();
    request_span.SetFailed();
    return false;
  }
  ship.End();
  return true;
}

void QbismServer::Shutdown() {
  if (!running_.exchange(false)) return;
  stopping_.store(true);
  // Requests waiting for a slot leave with Cancelled (their connection
  // threads then reply kShutdown); running ones finish first.
  if (service_ != nullptr) service_->Shutdown();
  // Only shutdown(2) crosses threads: an fd is closed by its owner after
  // the thread using it is joined, so no thread ever touches a closed
  // (and possibly reused) fd number.
  listener_.ShutdownBoth();
  if (accept_thread_.joinable()) accept_thread_.join();
  listener_.Close();
  {
    std::lock_guard<std::mutex> lock(conns_mu_);
    for (auto& conn : conns_) conn->socket.ShutdownBoth();
  }
  for (;;) {
    std::unique_ptr<Connection> conn;
    {
      std::lock_guard<std::mutex> lock(conns_mu_);
      if (conns_.empty()) break;
      conn = std::move(conns_.front());
      conns_.pop_front();
    }
    if (conn->thread.joinable()) conn->thread.join();
  }
}

ServerStats QbismServer::stats() const {
  ServerStats out;
  out.connections_accepted =
      connections_accepted_.load(std::memory_order_relaxed);
  out.connections_rejected =
      connections_rejected_.load(std::memory_order_relaxed);
  out.connections_open = connections_open_.load(std::memory_order_relaxed);
  out.peak_connections = peak_connections_.load(std::memory_order_relaxed);
  out.frames_read = frames_read_.load(std::memory_order_relaxed);
  out.frames_written = frames_written_.load(std::memory_order_relaxed);
  out.bytes_read = bytes_read_.load(std::memory_order_relaxed);
  out.bytes_written = bytes_written_.load(std::memory_order_relaxed);
  out.protocol_errors = protocol_errors_.load(std::memory_order_relaxed);
  for (const auto& t : per_tenant_) {
    out.queries_ok += t->queries_ok.load(std::memory_order_relaxed);
    out.queries_failed += t->queries_failed.load(std::memory_order_relaxed);
    out.ship_bytes += t->ship_bytes.load(std::memory_order_relaxed);
  }
  out.quota_penalties = quota_penalties_.load(std::memory_order_relaxed);
  out.quota_penalty_seconds =
      quota_penalty_seconds_.load(std::memory_order_relaxed);
  return out;
}

TenantWireStats QbismServer::tenant_stats(int tenant) const {
  TenantWireStats out;
  out.name = options_.tenants[static_cast<size_t>(tenant)].name;
  const PerTenant& t = *per_tenant_[static_cast<size_t>(tenant)];
  out.queries_ok = t.queries_ok.load(std::memory_order_relaxed);
  out.queries_failed = t.queries_failed.load(std::memory_order_relaxed);
  out.ship_bytes = t.ship_bytes.load(std::memory_order_relaxed);
  out.latency = t.latency.Summarize(obs::Stage::kRequest);
  if (service_ != nullptr) {
    out.admission = service_->admission()->tenant_stats(tenant);
  }
  return out;
}

service::MetricsSnapshot QbismServer::metrics() const {
  return service_->metrics();
}

}  // namespace qbism::server
