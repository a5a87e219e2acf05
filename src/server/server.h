#ifndef QBISM_SERVER_SERVER_H_
#define QBISM_SERVER_SERVER_H_

#include <atomic>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "server/auth.h"
#include "server/codec.h"
#include "server/socket_io.h"
#include "service/query_service.h"

namespace qbism::server {

/// Socket front-end sizing and policy. The query service behind it
/// (slots, waiting bound, cache, retries, tracer) is configured through
/// `service`; `tenants` feeds both authentication and its admission.
struct ServerOptions {
  /// 0 binds a kernel-assigned localhost port; port() reports it.
  uint16_t port = 0;
  int listen_backlog = 512;
  /// Hard cap on concurrent connections; an accept beyond it gets one
  /// kError(server_busy) frame and an immediate close.
  int max_connections = 2048;
  /// Result streaming: the answer payload is sliced into kResultChunk
  /// frames of at most this many bytes — the real-protocol analogue of
  /// the paper's ~1 KB RPC data messages (§5.2/§6.1).
  uint32_t chunk_bytes = 64u << 10;
  /// Reader-side payload ceiling (adversarial length prefixes).
  uint32_t max_frame_payload = 16u << 20;
  double session_ttl_seconds = 300.0;
  uint64_t auth_seed = 0;  // extra entropy for session tokens
  /// Throttle on rejected work: a connection that just drew a quota
  /// rejection (admission bounce or session cap) has its error reply
  /// delayed by this much. Rejections are cheap for the server but a
  /// zero-think-time retry loop turns them into a CPU attack — tens of
  /// thousands of reject round-trips per second starve other tenants'
  /// queries of cycles even though the slot caps hold. Pacing the reply
  /// bounds each connection to ~1/penalty bounces per second no matter
  /// how aggressively the client retries (frames queued back-to-back
  /// still pay it serially, one read per connection thread). 0 disables.
  double quota_penalty_seconds = 0.010;
  std::vector<TenantConfig> tenants;
  service::ServiceOptions service;
};

/// Aggregate server counters (one consistent-enough snapshot).
struct ServerStats {
  uint64_t connections_accepted = 0;
  uint64_t connections_rejected = 0;  // over the connection cap
  uint64_t connections_open = 0;
  uint64_t peak_connections = 0;
  uint64_t frames_read = 0;
  uint64_t frames_written = 0;
  uint64_t bytes_read = 0;     // wire bytes in (headers + payloads)
  uint64_t bytes_written = 0;  // wire bytes out (headers + payloads)
  /// Answer-payload bytes shipped in kResultChunk frames — the codec's
  /// ship-bytes accounting (sum of EncodeAnswerPayload sizes actually
  /// sent). E19 cross-checks this against client-side receipts.
  uint64_t ship_bytes = 0;
  uint64_t protocol_errors = 0;  // bad frames / payloads / CRC
  /// Authenticated query requests answered in full / not answered
  /// (quota bounces, service failures, encode or send failures). These
  /// and ship_bytes are the sums of the per-tenant counters.
  uint64_t queries_ok = 0;
  uint64_t queries_failed = 0;
  /// Quota rejections that were penalty-delayed, and the total delay
  /// charged (connection-thread sleep, not service time).
  uint64_t quota_penalties = 0;
  double quota_penalty_seconds = 0.0;
};

/// Per-tenant wire accounting plus the service's admission view.
struct TenantWireStats {
  std::string name;
  uint64_t queries_ok = 0;
  uint64_t queries_failed = 0;
  uint64_t ship_bytes = 0;
  obs::StageSummary latency;  // request read -> last chunk shipped (kRequest)
  service::TenantAdmissionStats admission;
};

/// The real network front end: a TCP listener on localhost speaking the
/// framed binary protocol of server/protocol.h, thread-per-connection
/// with a connection cap, token-based sessions (AuthManager), and
/// chunked streaming of query answers. Each connection thread runs its
/// queries itself through QueryService::Execute, whose one admission
/// point applies the tenants' fair-share caps and quotas. When the
/// service is traced, every wire request becomes one trace: kRequest
/// root -> kAccept (frame receive) / kDecode / kQuery (the service's
/// tree, slot wait first) / kShip (socket writes).
///
///   clients ==TCP== accept loop -> connection threads
///                      |  HELLO -> AuthManager (sessions, tokens)
///                      |  QUERY -> QueryService::Execute (slot wait,
///                      |           answer) -> chunked ship
///
/// The extension must be fully loaded before Start(); the server treats
/// it as read-only, exactly like QueryService.
class QbismServer {
 public:
  QbismServer(qbism::SpatialExtension* ext, ServerOptions options);
  ~QbismServer();

  QbismServer(const QbismServer&) = delete;
  QbismServer& operator=(const QbismServer&) = delete;

  /// Binds, listens, and starts the accept loop and the service.
  Status Start();

  /// Stops accepting, severs every connection, drains the service.
  /// Idempotent; the destructor calls it.
  void Shutdown();

  /// The bound port (valid after Start).
  uint16_t port() const { return port_; }

  ServerStats stats() const;
  TenantWireStats tenant_stats(int tenant) const;
  /// Inner service metrics (includes unauthorized / quota_rejected /
  /// session_expired counted at this server's edge).
  service::MetricsSnapshot metrics() const;

  service::QueryService* service() { return service_.get(); }
  AuthManager* auth() { return auth_.get(); }

 private:
  /// The connection thread only ever shuts its socket down; the fd is
  /// closed by whoever joins the thread, so no other thread can be
  /// left holding a closed (and possibly reused) fd number.
  struct Connection {
    FrameSocket socket;
    std::thread thread;
    std::atomic<bool> done{false};
  };

  struct PerTenant {
    std::atomic<uint64_t> queries_ok{0};
    std::atomic<uint64_t> queries_failed{0};
    std::atomic<uint64_t> ship_bytes{0};
    obs::StageHistogram latency;
  };

  void AcceptLoop();
  void HandleConnection(Connection* conn);
  /// One kQuery request end to end; returns false when the connection
  /// should be dropped (send failure).
  bool HandleQuery(Connection* conn, const Frame& frame,
                   double read_seconds);
  bool SendError(Connection* conn, uint64_t request_id, ErrorReason reason,
                 const Status& status);
  /// Sleeps the connection thread for the configured quota penalty
  /// before its rejection reply goes out (no-op when disabled/stopping).
  void PenalizeQuota();
  Status SendCounted(Connection* conn, MessageType type, uint64_t session,
                     uint64_t request_id, std::span<const uint8_t> payload);
  void ReapFinished();

  qbism::SpatialExtension* ext_;
  ServerOptions options_;
  std::unique_ptr<service::QueryService> service_;
  std::unique_ptr<AuthManager> auth_;
  std::vector<std::unique_ptr<PerTenant>> per_tenant_;

  FrameSocket listener_;
  uint16_t port_ = 0;
  std::thread accept_thread_;
  std::atomic<bool> running_{false};
  std::atomic<bool> stopping_{false};

  std::mutex conns_mu_;
  std::list<std::unique_ptr<Connection>> conns_;  // guarded by conns_mu_

  // stats (relaxed atomics; stats() snapshots)
  std::atomic<uint64_t> connections_accepted_{0};
  std::atomic<uint64_t> connections_rejected_{0};
  std::atomic<uint64_t> connections_open_{0};
  std::atomic<uint64_t> peak_connections_{0};
  std::atomic<uint64_t> frames_read_{0};
  std::atomic<uint64_t> frames_written_{0};
  std::atomic<uint64_t> bytes_read_{0};
  std::atomic<uint64_t> bytes_written_{0};
  std::atomic<uint64_t> protocol_errors_{0};
  std::atomic<uint64_t> quota_penalties_{0};
  std::atomic<double> quota_penalty_seconds_{0.0};
};

}  // namespace qbism::server

#endif  // QBISM_SERVER_SERVER_H_
