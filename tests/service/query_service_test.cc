#include "service/query_service.h"

#include <gtest/gtest.h>

#include <chrono>
#include <functional>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "med/loader.h"
#include "med/schema.h"
#include "service/workload.h"

namespace qbism::service {
namespace {

void WaitUntil(const std::function<bool()>& pred) {
  for (int i = 0; i < 5000 && !pred(); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_TRUE(pred());
}

/// One shared loaded database for all service tests; the service treats
/// it as read-only, so suites can share it the way the MedicalServer
/// tests do.
class QueryServiceTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    db_ = new sql::Database();
    auto ext = SpatialExtension::Install(db_, SpatialConfig{});
    ASSERT_TRUE(ext.ok());
    ext_ = ext.MoveValue().release();
    ASSERT_TRUE(med::BootstrapSchema(db_).ok());
    med::LoadOptions options;
    options.num_pet_studies = 3;
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

  static ServiceOptions FastOptions(int workers) {
    ServiceOptions options;
    options.num_workers = workers;
    options.cost_model.sql_compile_seconds = 0.0;  // modeled, not waited
    return options;
  }

  static sql::Database* db_;
  static SpatialExtension* ext_;
  static std::vector<int>* study_ids_;
  static std::vector<std::string>* structures_;
};

sql::Database* QueryServiceTest::db_ = nullptr;
SpatialExtension* QueryServiceTest::ext_ = nullptr;
std::vector<int>* QueryServiceTest::study_ids_ = nullptr;
std::vector<std::string>* QueryServiceTest::structures_ = nullptr;

TEST_F(QueryServiceTest, ConcurrentMixedWorkloadMatchesSerialExecution) {
  auto gen = WorkloadGenerator::Create(ext_, *study_ids_, *structures_,
                                       WorkloadMix{}, /*seed=*/2026);
  ASSERT_TRUE(gen.ok()) << gen.status().ToString();
  std::vector<QuerySpec> specs;
  for (int i = 0; i < 24; ++i) specs.push_back(gen->Next());

  // Serial ground truth from a plain single-threaded MedicalServer.
  MedicalServer serial(ext_, net::NetworkCostModel{}, ServerCostModel{});
  std::map<std::string, StudyQueryResult> expected;
  for (const QuerySpec& spec : specs) {
    auto result = serial.RunStudyQuery(spec, /*render=*/false);
    ASSERT_TRUE(result.ok()) << spec.Describe() << ": "
                             << result.status().ToString();
    expected.emplace(spec.Describe(), result.MoveValue());
  }

  // Four caller threads share four slots; each request runs on the
  // thread that issued it.
  QueryService service(ext_, FastOptions(4));
  std::vector<Result<ServiceReply>> replies(specs.size(),
                                            Status::Internal("not run"));
  std::vector<std::thread> callers;
  for (size_t c = 0; c < 4; ++c) {
    callers.emplace_back([&, c] {
      for (size_t i = c; i < specs.size(); i += 4) {
        ServiceRequest request;
        request.spec = specs[i];
        replies[i] = service.Execute(request);
      }
    });
  }
  for (std::thread& caller : callers) caller.join();
  for (size_t i = 0; i < replies.size(); ++i) {
    const Result<ServiceReply>& reply = replies[i];
    ASSERT_TRUE(reply.ok()) << specs[i].Describe() << ": "
                            << reply.status().ToString();
    const StudyQueryResult& truth = expected.at(specs[i].Describe());
    // Bit-identical payload regardless of slot, ordering, or whether
    // the shared cache served it.
    EXPECT_EQ(reply->result.data.values(), truth.data.values());
    EXPECT_EQ(reply->result.result_voxels, truth.result_voxels);
    EXPECT_EQ(reply->result.result_runs, truth.result_runs);
    EXPECT_GE(reply->worker_id, 0);
    EXPECT_LT(reply->worker_id, 4);
    if (!reply->cache_hit) {
      // A fresh execution must also reproduce the serial I/O footprint.
      EXPECT_EQ(reply->result.timing.lfm_pages, truth.timing.lfm_pages);
      EXPECT_EQ(reply->result.timing.network_messages,
                truth.timing.network_messages);
    }
    // The served path is the database half only: no DX import.
    EXPECT_EQ(reply->result.timing.import_cpu_seconds, 0.0);
  }
  MetricsSnapshot metrics = service.metrics();
  EXPECT_EQ(metrics.submitted, specs.size());
  EXPECT_EQ(metrics.completed, specs.size());
  EXPECT_EQ(metrics.rejected_queue_full, 0u);
  EXPECT_EQ(metrics.cache_hits + metrics.cache_misses, specs.size());
  // The snapshot's cache counters are the cache's own, counted once.
  ResultCacheStats cache = service.cache_stats();
  EXPECT_EQ(metrics.cache_hits, cache.hits);
  EXPECT_EQ(metrics.cache_misses, cache.misses);
  EXPECT_EQ(metrics.latency.count, specs.size());
  service.Shutdown();
}

TEST_F(QueryServiceTest, CacheHitPathReturnsIdenticalData) {
  QueryService service(ext_, FastOptions(1));
  ServiceRequest request;
  request.spec.study_id = (*study_ids_)[0];
  request.spec.structure_name = (*structures_)[0];

  auto first = service.Execute(request);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_FALSE(first->cache_hit);
  EXPECT_GT(first->result.timing.lfm_pages, 0u);

  auto second = service.Execute(request);
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  EXPECT_TRUE(second->cache_hit);
  // Same voxels, but no database or network work the second time.
  EXPECT_EQ(second->result.data.values(), first->result.data.values());
  EXPECT_EQ(second->result.result_voxels, first->result.result_voxels);
  EXPECT_EQ(second->result.timing.lfm_pages, 0u);
  EXPECT_EQ(second->result.timing.network_messages, 0u);
  EXPECT_NE(second->result.data_sql.find("cache"), std::string::npos);

  ResultCacheStats cache = service.cache_stats();
  EXPECT_EQ(cache.hits, 1u);
  EXPECT_EQ(cache.misses, 1u);
  MetricsSnapshot metrics = service.metrics();
  EXPECT_EQ(metrics.cache_hits, 1u);
  EXPECT_EQ(metrics.completed, 2u);
}

TEST_F(QueryServiceTest, CacheOffAlwaysExecutes) {
  ServiceOptions options = FastOptions(1);
  options.cache_entries = 0;
  QueryService service(ext_, options);
  ServiceRequest request;
  request.spec.study_id = (*study_ids_)[0];
  request.spec.structure_name = (*structures_)[0];
  for (int i = 0; i < 2; ++i) {
    auto reply = service.Execute(request);
    ASSERT_TRUE(reply.ok());
    EXPECT_FALSE(reply->cache_hit);
    EXPECT_GT(reply->result.timing.lfm_pages, 0u);
  }
  EXPECT_EQ(service.cache_stats().hits, 0u);
  EXPECT_EQ(service.metrics().cache_misses, 0u);  // cache-off: not counted
}

TEST_F(QueryServiceTest, FullQueueRejectsWithResourceExhausted) {
  // Zero slots: nothing is ever granted, so admission control is
  // deterministic.
  ServiceOptions options = FastOptions(0);
  options.queue_capacity = 2;
  QueryService service(ext_, options);
  ServiceRequest request;
  request.spec.study_id = (*study_ids_)[0];

  std::vector<Result<ServiceReply>> parked(2, Status::Internal("not run"));
  std::vector<std::thread> callers;
  for (size_t i = 0; i < parked.size(); ++i) {
    callers.emplace_back([&, i] { parked[i] = service.Execute(request); });
  }
  WaitUntil([&] { return service.queue_depth() == 2u; });

  auto third = service.Execute(request);
  ASSERT_FALSE(third.ok());
  EXPECT_TRUE(third.status().IsResourceExhausted())
      << third.status().ToString();
  EXPECT_FALSE(SlotAdmission::IsQuotaRejection(third.status()));
  EXPECT_EQ(service.metrics().rejected_queue_full, 1u);
  EXPECT_EQ(service.metrics().quota_rejected, 0u);

  // Shutdown fails the waiting work fast rather than abandoning callers.
  service.Shutdown();
  for (std::thread& caller : callers) caller.join();
  for (const Result<ServiceReply>& reply : parked) {
    EXPECT_TRUE(reply.status().IsCancelled()) << reply.status().ToString();
  }
  EXPECT_EQ(service.metrics().cancelled, 2u);

  // And post-shutdown requests are turned away immediately.
  EXPECT_TRUE(service.Execute(request).status().IsCancelled());
}

TEST_F(QueryServiceTest, DeadlineExpiresWhileWaitingForASlot) {
  QueryService service(ext_, FastOptions(1));
  // Hold the only slot so the request has to wait for it.
  auto held = service.admission()->Acquire(0);
  ASSERT_TRUE(held.ok());
  ServiceRequest request;
  request.spec.study_id = (*study_ids_)[0];
  request.deadline_seconds = 0.02;
  auto reply = service.Execute(request);
  ASSERT_FALSE(reply.ok());
  EXPECT_TRUE(reply.status().IsDeadlineExceeded())
      << reply.status().ToString();
  held->Release();
  MetricsSnapshot metrics = service.metrics();
  EXPECT_EQ(metrics.deadline_expired, 1u);
  EXPECT_EQ(metrics.completed, 0u);
  EXPECT_EQ(metrics.cache_misses, 0u);  // never reached the cache probe
  EXPECT_GE(metrics.queue_wait.max_seconds, 0.02);
  // The slot is free again and serves the next request normally.
  request.deadline_seconds = 0.0;
  EXPECT_TRUE(service.Execute(request).ok());
}

TEST_F(QueryServiceTest, TenantQuotaRejectsBeyondItsWaitingLine) {
  TenantShare tenant;
  tenant.max_inflight = 1;
  tenant.max_waiting = 1;
  QueryService service(ext_, FastOptions(2), {tenant, TenantShare{}});
  auto held = service.admission()->Acquire(0);
  ASSERT_TRUE(held.ok());
  ServiceRequest request;
  request.spec.study_id = (*study_ids_)[0];
  request.spec.intensity_range = {224, 255};
  Result<ServiceReply> parked = Status::Internal("not run");
  std::thread waiter([&] { parked = service.Execute(request); });
  WaitUntil([&] { return service.queue_depth() == 1u; });

  auto bounced = service.Execute(request);
  EXPECT_TRUE(SlotAdmission::IsQuotaRejection(bounced.status()))
      << bounced.status().ToString();
  EXPECT_EQ(service.metrics().quota_rejected, 1u);
  // The other tenant's slot is untouched by tenant 0's surplus.
  ServiceRequest other = request;
  other.tenant = 1;
  EXPECT_TRUE(service.Execute(other).ok());

  held->Release();
  waiter.join();
  EXPECT_TRUE(parked.ok()) << parked.status().ToString();
  EXPECT_EQ(service.metrics().rejected_queue_full, 0u);
}

TEST_F(QueryServiceTest, ExpiredDeadlineSkipsExecution) {
  QueryService service(ext_, FastOptions(1));
  ServiceRequest request;
  request.spec.study_id = (*study_ids_)[0];
  // A deadline below the clock tick has expired by the time the slot is
  // granted, so the request is refused without touching the database.
  request.deadline_seconds = 1e-12;
  auto reply = service.Execute(request);
  ASSERT_FALSE(reply.ok());
  EXPECT_TRUE(reply.status().IsDeadlineExceeded())
      << reply.status().ToString();
  MetricsSnapshot metrics = service.metrics();
  EXPECT_EQ(metrics.deadline_expired, 1u);
  EXPECT_EQ(metrics.completed, 0u);
  EXPECT_EQ(metrics.cache_misses, 0u);  // never reached the cache probe
}

TEST_F(QueryServiceTest, ShutdownIsIdempotentAndLaterRequestsAreCancelled) {
  QueryService service(ext_, FastOptions(2));
  ServiceRequest request;
  request.spec.study_id = (*study_ids_)[0];
  request.spec.intensity_range = {224, 255};
  auto reply = service.Execute(request);
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  service.Shutdown();
  service.Shutdown();  // second call is a no-op
  EXPECT_EQ(service.metrics().completed, 1u);
  EXPECT_TRUE(service.Execute(request).status().IsCancelled());
}

TEST_F(QueryServiceTest, WorkloadGeneratorIsDeterministicAndWellFormed) {
  auto a = WorkloadGenerator::Create(ext_, *study_ids_, *structures_,
                                     WorkloadMix{}, 7);
  auto b = WorkloadGenerator::Create(ext_, *study_ids_, *structures_,
                                     WorkloadMix{}, 7);
  ASSERT_TRUE(a.ok()) << a.status().ToString();
  ASSERT_TRUE(b.ok());
  EXPECT_GT(a->DistinctSpecs(), 0u);
  MedicalServer probe(ext_, net::NetworkCostModel{}, ServerCostModel{});
  for (int i = 0; i < 40; ++i) {
    QuerySpec sa = a->Next();
    QuerySpec sb = b->Next();
    EXPECT_EQ(sa.Describe(), sb.Describe());  // same seed, same stream
    auto result = probe.RunStudyQuery(sa, /*render=*/false);
    EXPECT_TRUE(result.ok()) << sa.Describe() << ": "
                             << result.status().ToString();
  }
  auto c = WorkloadGenerator::Create(ext_, {}, *structures_, WorkloadMix{}, 7);
  EXPECT_TRUE(c.status().IsInvalidArgument());
}

}  // namespace
}  // namespace qbism::service
