#include "server/server.h"

#include <gtest/gtest.h>

#include <sys/socket.h>

#include <atomic>
#include <chrono>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "med/loader.h"
#include "med/schema.h"
#include "obs/trace.h"
#include "server/client.h"

namespace qbism::server {
namespace {

/// One shared loaded database for the socket tests (read-only to the
/// server, exactly like the service tests).
class ServerTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    db_ = new sql::Database();
    auto ext = SpatialExtension::Install(db_, SpatialConfig{});
    ASSERT_TRUE(ext.ok());
    ext_ = ext.MoveValue().release();
    ASSERT_TRUE(med::BootstrapSchema(db_).ok());
    med::LoadOptions options;
    options.num_pet_studies = 2;
    options.num_mri_studies = 0;
    options.build_meshes = false;
    auto dataset = med::PopulateDatabase(ext_, options);
    ASSERT_TRUE(dataset.ok()) << dataset.status().ToString();
    study_ids_ = new std::vector<int>(dataset->pet_study_ids);
    structures_ = new std::vector<std::string>(dataset->structure_names);
  }

  static void TearDownTestSuite() {
    delete structures_;
    delete study_ids_;
    delete ext_;
    delete db_;
  }

  static ServerOptions BaseOptions() {
    ServerOptions options;
    TenantConfig tenant;
    tenant.name = "clinic";
    tenant.secret = "clinic-secret";
    options.tenants = {tenant};
    options.service.num_workers = 2;
    options.service.cost_model.sql_compile_seconds = 0.0;
    return options;
  }

  static QuerySpec StructureSpec() {
    QuerySpec spec;
    spec.study_id = study_ids_->front();
    spec.structure_name = structures_->front();
    return spec;
  }

  static sql::Database* db_;
  static SpatialExtension* ext_;
  static std::vector<int>* study_ids_;
  static std::vector<std::string>* structures_;
};

sql::Database* ServerTest::db_ = nullptr;
SpatialExtension* ServerTest::ext_ = nullptr;
std::vector<int>* ServerTest::study_ids_ = nullptr;
std::vector<std::string>* ServerTest::structures_ = nullptr;

void WaitUntil(const std::function<bool()>& pred) {
  for (int i = 0; i < 5000 && !pred(); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_TRUE(pred());
}

TEST_F(ServerTest, LoginQueryMatchesDirectExecution) {
  QbismServer server(ext_, BaseOptions());
  ASSERT_TRUE(server.Start().ok());

  auto client = NetClient::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  ASSERT_TRUE(client->Login("clinic", "clinic-secret").ok());
  EXPECT_NE(client->session_token(), 0u);
  EXPECT_GT(client->server_chunk_bytes(), 0u);

  QuerySpec spec = StructureSpec();
  auto outcome = client->RunQuery(spec);
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();

  // The wire answer must be bit-identical to a direct in-process run.
  MedicalServer direct(ext_, net::NetworkCostModel{}, ServerCostModel{});
  auto truth = direct.RunStudyQuery(spec, /*render=*/false);
  ASSERT_TRUE(truth.ok());
  EXPECT_EQ(outcome->data.values(), truth->data.values());
  EXPECT_EQ(outcome->data.region().runs(), truth->data.region().runs());
  EXPECT_EQ(outcome->header.result_voxels, truth->result_voxels);
  EXPECT_EQ(outcome->header.result_runs, truth->result_runs);

  // Codec accounting: what the client received is what the header
  // promised and what the server says it shipped.
  EXPECT_EQ(outcome->shipped_bytes, outcome->header.payload_bytes);
  EXPECT_EQ(outcome->chunks, outcome->header.chunk_count);
  EXPECT_EQ(server.stats().ship_bytes, outcome->header.payload_bytes);
  EXPECT_EQ(server.stats().queries_ok, 1u);

  client->Bye();
  server.Shutdown();
}

TEST_F(ServerTest, SmallChunksReassembleIdentically) {
  ServerOptions options = BaseOptions();
  options.chunk_bytes = 512;  // force many chunks
  QbismServer server(ext_, options);
  ASSERT_TRUE(server.Start().ok());

  auto client = NetClient::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(client.ok());
  ASSERT_TRUE(client->Login("clinic", "clinic-secret").ok());
  auto outcome = client->RunQuery(StructureSpec());
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  EXPECT_GT(outcome->chunks, 1u);
  EXPECT_EQ(outcome->shipped_bytes, outcome->header.payload_bytes);

  MedicalServer direct(ext_, net::NetworkCostModel{}, ServerCostModel{});
  auto truth = direct.RunStudyQuery(StructureSpec(), false);
  ASSERT_TRUE(truth.ok());
  EXPECT_EQ(outcome->data.values(), truth->data.values());
  server.Shutdown();
}

TEST_F(ServerTest, BadSecretCountsUnauthorized) {
  QbismServer server(ext_, BaseOptions());
  ASSERT_TRUE(server.Start().ok());
  auto client = NetClient::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(client.ok());
  Status status = client->Login("clinic", "wrong");
  ASSERT_FALSE(status.ok());
  EXPECT_TRUE(status.IsInvalidArgument());
  EXPECT_EQ(client->last_error_reason(), ErrorReason::kUnauthorized);
  EXPECT_EQ(server.metrics().unauthorized, 1u);
  server.Shutdown();
}

TEST_F(ServerTest, QueryWithoutLoginIsUnauthorized) {
  QbismServer server(ext_, BaseOptions());
  ASSERT_TRUE(server.Start().ok());
  auto client = NetClient::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(client.ok());
  auto outcome = client->RunQuery(StructureSpec());
  ASSERT_FALSE(outcome.ok());
  EXPECT_EQ(client->last_error_reason(), ErrorReason::kUnauthorized);
  EXPECT_GE(server.metrics().unauthorized, 1u);
  EXPECT_EQ(server.stats().queries_ok, 0u);
  server.Shutdown();
}

TEST_F(ServerTest, ExpiredSessionCountsSessionExpired) {
  ServerOptions options = BaseOptions();
  options.session_ttl_seconds = 0.0;  // everything expires immediately
  QbismServer server(ext_, options);
  ASSERT_TRUE(server.Start().ok());
  auto client = NetClient::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(client.ok());
  ASSERT_TRUE(client->Login("clinic", "clinic-secret").ok());
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  auto outcome = client->RunQuery(StructureSpec());
  ASSERT_FALSE(outcome.ok());
  EXPECT_TRUE(outcome.status().IsDeadlineExceeded());
  EXPECT_EQ(client->last_error_reason(), ErrorReason::kSessionExpired);
  EXPECT_EQ(server.metrics().session_expired, 1u);
  server.Shutdown();
}

TEST_F(ServerTest, SessionQuotaCountsQuotaRejected) {
  ServerOptions options = BaseOptions();
  options.tenants[0].max_sessions = 1;
  QbismServer server(ext_, options);
  ASSERT_TRUE(server.Start().ok());
  auto first = NetClient::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(first->Login("clinic", "clinic-secret").ok());
  auto second = NetClient::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(second.ok());
  Status status = second->Login("clinic", "clinic-secret");
  ASSERT_FALSE(status.ok());
  EXPECT_TRUE(status.IsResourceExhausted());
  EXPECT_EQ(second->last_error_reason(), ErrorReason::kQuotaRejected);
  EXPECT_EQ(server.metrics().quota_rejected, 1u);
  server.Shutdown();
}

TEST_F(ServerTest, QuotaBouncesArePenaltyPaced) {
  ServerOptions options = BaseOptions();
  options.tenants[0].max_inflight = 1;
  options.tenants[0].max_waiting = 1;
  options.quota_penalty_seconds = 0.05;
  QbismServer server(ext_, options);
  ASSERT_TRUE(server.Start().ok());

  // Hold the tenant's only slot, then park one query so the waiting
  // line is full: every further query must bounce as quota_rejected.
  auto held = server.service()->admission()->Acquire(0);
  ASSERT_TRUE(held.ok());
  auto waiter = NetClient::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(waiter.ok());
  ASSERT_TRUE(waiter->Login("clinic", "clinic-secret").ok());
  std::thread parked([&] { (void)waiter->RunQuery(StructureSpec()); });
  WaitUntil([&] {
    return server.service()->admission()->tenant_stats(0).waiting == 1;
  });

  // A zero-think-time retry loop is paced to ~1/penalty per second:
  // each bounce's reply is delayed by the full penalty.
  auto bouncer = NetClient::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(bouncer.ok());
  ASSERT_TRUE(bouncer->Login("clinic", "clinic-secret").ok());
  const int kBounces = 4;
  auto start = std::chrono::steady_clock::now();
  for (int i = 0; i < kBounces; ++i) {
    auto outcome = bouncer->RunQuery(StructureSpec());
    ASSERT_FALSE(outcome.ok());
    EXPECT_EQ(bouncer->last_error_reason(), ErrorReason::kQuotaRejected);
  }
  double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  EXPECT_GE(elapsed, kBounces * options.quota_penalty_seconds);
  EXPECT_GE(server.stats().quota_penalties, static_cast<uint64_t>(kBounces));
  EXPECT_GE(server.stats().quota_penalty_seconds,
            kBounces * options.quota_penalty_seconds);

  // Freeing the slot lets the parked query run to completion.
  held->Release();
  parked.join();
  EXPECT_EQ(server.stats().queries_ok, 1u);
  server.Shutdown();
}

TEST_F(ServerTest, ServerCountersAreTheSumOfTenantCounters) {
  ServerOptions options = BaseOptions();
  options.quota_penalty_seconds = 0.0;
  options.tenants[0].max_inflight = 1;
  options.tenants[0].max_waiting = 1;
  TenantConfig lab;
  lab.name = "lab";
  lab.secret = "lab-secret";
  options.tenants.push_back(lab);
  QbismServer server(ext_, options);
  ASSERT_TRUE(server.Start().ok());
  auto clinic = NetClient::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(clinic.ok());
  ASSERT_TRUE(clinic->Login("clinic", "clinic-secret").ok());
  auto lab_client = NetClient::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(lab_client.ok());
  ASSERT_TRUE(lab_client->Login("lab", "lab-secret").ok());

  // A quota bounce: the clinic's only slot is held and its one waiting
  // place is taken.
  {
    service::SlotAdmission* admission = server.service()->admission();
    auto held = admission->Acquire(0);
    ASSERT_TRUE(held.ok());
    std::thread parked([admission] { (void)admission->Acquire(0); });
    WaitUntil([&] { return admission->tenant_stats(0).waiting == 1; });
    EXPECT_FALSE(clinic->RunQuery(StructureSpec()).ok());
    EXPECT_EQ(clinic->last_error_reason(), ErrorReason::kQuotaRejected);
    held->Release();
    parked.join();
  }
  ASSERT_TRUE(clinic->RunQuery(StructureSpec()).ok());
  ASSERT_TRUE(lab_client->RunQuery(StructureSpec()).ok());
  ASSERT_TRUE(lab_client->RunQuery(StructureSpec()).ok());
  // A failed query: the study does not exist.
  QuerySpec missing = StructureSpec();
  missing.study_id = 1 << 30;
  ASSERT_FALSE(lab_client->RunQuery(missing).ok());
  EXPECT_EQ(lab_client->last_error_reason(), ErrorReason::kQueryFailed);

  TenantWireStats a = server.tenant_stats(0);
  TenantWireStats b = server.tenant_stats(1);
  EXPECT_EQ(a.queries_ok, 1u);
  EXPECT_EQ(a.queries_failed, 1u);  // the quota bounce counts as failed
  EXPECT_EQ(b.queries_ok, 2u);
  EXPECT_EQ(b.queries_failed, 1u);
  EXPECT_EQ(a.latency.count, a.queries_ok);
  EXPECT_EQ(b.latency.count, b.queries_ok);
  ServerStats stats = server.stats();
  EXPECT_EQ(stats.queries_ok, a.queries_ok + b.queries_ok);
  EXPECT_EQ(stats.queries_failed, a.queries_failed + b.queries_failed);
  EXPECT_EQ(stats.ship_bytes, a.ship_bytes + b.ship_bytes);
  EXPECT_GT(stats.ship_bytes, 0u);
  server.Shutdown();
}

TEST_F(ServerTest, PingRefreshesAndPongs) {
  QbismServer server(ext_, BaseOptions());
  ASSERT_TRUE(server.Start().ok());
  auto client = NetClient::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(client.ok());
  ASSERT_TRUE(client->Login("clinic", "clinic-secret").ok());
  EXPECT_TRUE(client->Ping().ok());
  // A ping with a bogus token is unauthorized.
  auto rogue = NetClient::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(rogue.ok());
  EXPECT_FALSE(rogue->Ping().ok());
  EXPECT_EQ(rogue->last_error_reason(), ErrorReason::kUnauthorized);
  server.Shutdown();
}

TEST_F(ServerTest, GarbageBytesCountProtocolErrorAndDropConnection) {
  QbismServer server(ext_, BaseOptions());
  ASSERT_TRUE(server.Start().ok());
  auto client = NetClient::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(client.ok());
  // 36 bytes of garbage: a full "header" with a bad magic.
  std::vector<uint8_t> junk(kHeaderBytes, 0xA5);
  ASSERT_EQ(::send(client->socket()->fd(), junk.data(), junk.size(),
                   MSG_NOSIGNAL),
            static_cast<ssize_t>(junk.size()));
  // The server answers with a protocol error frame, then hangs up.
  auto frame = client->socket()->ReadFrame();
  ASSERT_TRUE(frame.ok()) << frame.status().ToString();
  EXPECT_EQ(frame->header.type, MessageType::kError);
  auto error = DecodeError(frame->payload);
  ASSERT_TRUE(error.ok());
  EXPECT_EQ(error->reason, ErrorReason::kProtocol);
  EXPECT_TRUE(client->socket()->ReadFrame().status().IsCancelled());  // EOF
  EXPECT_GE(server.stats().protocol_errors, 1u);
  server.Shutdown();
}

TEST_F(ServerTest, MidFrameDisconnectIsSurvived) {
  QbismServer server(ext_, BaseOptions());
  ASSERT_TRUE(server.Start().ok());
  {
    auto client = NetClient::Connect("127.0.0.1", server.port());
    ASSERT_TRUE(client.ok());
    // A valid header promising 100 payload bytes... then hang up after 3.
    std::vector<uint8_t> wire =
        EncodeFrame(MessageType::kQuery, 1, 1, std::vector<uint8_t>(100, 7));
    ASSERT_EQ(::send(client->socket()->fd(), wire.data(), kHeaderBytes + 3,
                     MSG_NOSIGNAL),
              static_cast<ssize_t>(kHeaderBytes + 3));
    client->Close();
  }
  // The connection thread must notice, count the corruption, and exit;
  // the server keeps serving afterwards. (Wait on the error counter:
  // the connection may not even be accepted yet when we get here.)
  WaitUntil([&] {
    return server.stats().protocol_errors >= 1 &&
           server.stats().connections_open == 0;
  });
  auto client = NetClient::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(client.ok());
  EXPECT_TRUE(client->Login("clinic", "clinic-secret").ok());
  EXPECT_TRUE(client->RunQuery(StructureSpec()).ok());
  server.Shutdown();
}

TEST_F(ServerTest, ConnectionCapRejectsWithServerBusy) {
  ServerOptions options = BaseOptions();
  options.max_connections = 1;
  QbismServer server(ext_, options);
  ASSERT_TRUE(server.Start().ok());
  auto first = NetClient::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(first.ok());
  // Login forces the server to have fully accepted the first socket.
  ASSERT_TRUE(first->Login("clinic", "clinic-secret").ok());
  auto second = NetClient::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(second.ok());
  auto frame = second->socket()->ReadFrame();
  ASSERT_TRUE(frame.ok()) << frame.status().ToString();
  EXPECT_EQ(frame->header.type, MessageType::kError);
  auto error = DecodeError(frame->payload);
  ASSERT_TRUE(error.ok());
  EXPECT_EQ(error->reason, ErrorReason::kServerBusy);
  EXPECT_EQ(server.stats().connections_rejected, 1u);
  // The slot frees when the first client leaves.
  first->Bye();
  WaitUntil([&] { return server.stats().connections_open == 0; });
  auto third = NetClient::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(third.ok());
  EXPECT_TRUE(third->Login("clinic", "clinic-secret").ok());
  server.Shutdown();
}

TEST_F(ServerTest, TraceStitchesAcceptToShip) {
  obs::Tracer tracer;
  ServerOptions options = BaseOptions();
  options.service.tracer = &tracer;
  QbismServer server(ext_, options);
  ASSERT_TRUE(server.Start().ok());
  auto client = NetClient::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(client.ok());
  ASSERT_TRUE(client->Login("clinic", "clinic-secret").ok());
  auto outcome = client->RunQuery(StructureSpec());
  ASSERT_TRUE(outcome.ok());
  server.Shutdown();

  // One trace per wire request: the kRequest root with accept, decode,
  // the service's kQuery subtree (slot wait first), and ship under it.
  std::vector<obs::SpanRecord> spans = tracer.Spans();
  uint64_t trace_id = 0, request_span = 0;
  for (const auto& span : spans) {
    if (span.stage == obs::Stage::kRequest) {
      trace_id = span.trace_id;
      request_span = span.span_id;
    }
  }
  ASSERT_NE(request_span, 0u);
  bool saw_accept = false, saw_decode = false, saw_query = false,
       saw_ship = false;
  uint64_t query_span = 0;
  uint64_t ship_bytes = 0;
  int ship_spans = 0;
  for (const auto& span : spans) {
    if (span.trace_id != trace_id) continue;
    if (span.stage == obs::Stage::kShip) ++ship_spans;
    if (span.parent_id == request_span) {
      if (span.stage == obs::Stage::kAccept) saw_accept = true;
      if (span.stage == obs::Stage::kDecode) saw_decode = true;
      if (span.stage == obs::Stage::kQuery) {
        saw_query = true;
        query_span = span.span_id;
      }
      if (span.stage == obs::Stage::kShip) {
        saw_ship = true;
        ship_bytes = span.bytes;
      }
    }
  }
  bool saw_slot_wait = false;
  for (const auto& span : spans) {
    if (span.trace_id == trace_id && span.parent_id == query_span &&
        span.stage == obs::Stage::kQueueWait) {
      saw_slot_wait = true;
    }
  }
  EXPECT_TRUE(saw_accept);
  EXPECT_TRUE(saw_decode);
  EXPECT_TRUE(saw_query);
  EXPECT_TRUE(saw_slot_wait);
  EXPECT_TRUE(saw_ship);
  // kShip is the socket write only, and carries exactly the codec's
  // accounting.
  EXPECT_EQ(ship_spans, 1);
  EXPECT_EQ(ship_bytes, outcome->header.payload_bytes);
}

// Caps derived with max(1, ...) sum past the slot count here (four
// tenants, one cap each, two slots): admitted queries wait for a slot
// and all complete — none bounces as server_busy.
TEST_F(ServerTest, CapsAboveWorkerCountNeverBounceAdmittedQueries) {
  ServerOptions options = BaseOptions();
  options.tenants.clear();
  for (int t = 0; t < 4; ++t) {
    TenantConfig tenant;
    tenant.name = "t" + std::to_string(t);
    tenant.secret = tenant.name + "-secret";
    options.tenants.push_back(tenant);
  }
  options.service.num_workers = 2;
  QbismServer server(ext_, options);
  ASSERT_TRUE(server.Start().ok());
  int cap_sum = 0;
  for (int t = 0; t < 4; ++t) {
    cap_sum += server.service()->admission()->slot_cap(t);
  }
  ASSERT_GT(cap_sum, server.service()->num_workers());

  std::atomic<int> failures{0};
  std::atomic<int> busy{0};
  std::vector<std::thread> clients;
  for (int t = 0; t < 4; ++t) {
    clients.emplace_back([&, t] {
      std::string name = "t" + std::to_string(t);
      auto client = NetClient::Connect("127.0.0.1", server.port());
      if (!client.ok() || !client->Login(name, name + "-secret").ok()) {
        failures.fetch_add(1);
        return;
      }
      for (int q = 0; q < 4; ++q) {
        if (!client->RunQuery(StructureSpec()).ok()) {
          failures.fetch_add(1);
          if (client->last_error_reason() == ErrorReason::kServerBusy) {
            busy.fetch_add(1);
          }
        }
      }
      client->Bye();
    });
  }
  for (auto& t : clients) t.join();
  EXPECT_EQ(busy.load(), 0);
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(server.stats().queries_ok, 16u);
  EXPECT_EQ(server.metrics().rejected_queue_full, 0u);
  server.Shutdown();
}

TEST_F(ServerTest, ConcurrentClientsAllSucceed) {
  ServerOptions options = BaseOptions();
  options.service.num_workers = 4;
  QbismServer server(ext_, options);
  ASSERT_TRUE(server.Start().ok());
  std::atomic<int> failures{0};
  std::vector<std::thread> clients;
  for (int i = 0; i < 8; ++i) {
    clients.emplace_back([&, i] {
      auto client = NetClient::Connect("127.0.0.1", server.port());
      if (!client.ok()) { failures.fetch_add(1); return; }
      if (!client->Login("clinic", "clinic-secret").ok()) {
        failures.fetch_add(1);
        return;
      }
      QuerySpec spec = StructureSpec();
      spec.study_id = (*study_ids_)[static_cast<size_t>(i) %
                                    study_ids_->size()];
      for (int q = 0; q < 5; ++q) {
        if (!client->RunQuery(spec).ok()) failures.fetch_add(1);
      }
      client->Bye();
    });
  }
  for (auto& t : clients) t.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(server.stats().queries_ok, 40u);
  EXPECT_GE(server.stats().peak_connections, 2u);
  server.Shutdown();
}

TEST_F(ServerTest, ShutdownSeversIdleConnections) {
  QbismServer server(ext_, BaseOptions());
  ASSERT_TRUE(server.Start().ok());
  auto client = NetClient::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(client.ok());
  ASSERT_TRUE(client->Login("clinic", "clinic-secret").ok());
  server.Shutdown();  // must not hang on the idle connection
  EXPECT_FALSE(client->Ping().ok());
  // Idempotent.
  server.Shutdown();
}

}  // namespace
}  // namespace qbism::server
