// ServiceMetrics snapshots: latency and queue-wait histograms, edge
// rejection counters, and the snapshot JSON with the per-stage tracing
// summaries.

#include "service/metrics.h"

#include <gtest/gtest.h>

#include <string>

namespace qbism::service {
namespace {

TEST(ServiceMetricsTest, LatencyHistogramsFlowIntoSnapshotAndJson) {
  ServiceMetrics metrics;
  metrics.RecordLatency(0.010);
  metrics.RecordLatency(0.030);
  metrics.RecordQueueWait(0.002);
  metrics.RecordQueueWait(0.004);
  MetricsSnapshot snapshot = metrics.Snapshot();
  // Count / total / max are exact; percentiles are the histogram's.
  EXPECT_EQ(snapshot.latency.count, 2u);
  EXPECT_NEAR(snapshot.latency.total_seconds, 0.040, 1e-8);
  EXPECT_NEAR(snapshot.latency.max_seconds, 0.030, 1e-8);
  EXPECT_LE(snapshot.latency.p99, snapshot.latency.max_seconds);
  EXPECT_EQ(snapshot.queue_wait.count, 2u);
  EXPECT_NEAR(snapshot.queue_wait.total_seconds, 0.006, 1e-8);
  // The JSON keys predate the histogram: mean is total / count and
  // queue_wait_seconds is the queue-wait total.
  std::string json = snapshot.ToJson();
  EXPECT_NE(json.find("\"queue_wait_seconds\":0.006000"), std::string::npos);
  EXPECT_NE(json.find("\"latency\":{\"count\":2,\"mean\":0.020000"),
            std::string::npos)
      << json;
  EXPECT_NE(json.find("\"max\":0.030000}"), std::string::npos) << json;
}

TEST(ServiceMetricsTest, EdgeRejectionCountersFlowIntoSnapshotAndJson) {
  ServiceMetrics metrics;
  metrics.AddUnauthorized();
  metrics.AddUnauthorized();
  metrics.AddQuotaRejected();
  metrics.AddSessionExpired();
  MetricsSnapshot snapshot = metrics.Snapshot();
  EXPECT_EQ(snapshot.unauthorized, 2u);
  EXPECT_EQ(snapshot.quota_rejected, 1u);
  EXPECT_EQ(snapshot.session_expired, 1u);
  std::string json = snapshot.ToJson();
  EXPECT_NE(json.find("\"unauthorized\":2"), std::string::npos);
  EXPECT_NE(json.find("\"quota_rejected\":1"), std::string::npos);
  EXPECT_NE(json.find("\"session_expired\":1"), std::string::npos);
}

TEST(MetricsSnapshotTest, ToJsonOmitsStagesWhenUntraced) {
  MetricsSnapshot snapshot;
  std::string json = snapshot.ToJson();
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
  EXPECT_EQ(json.find("\"stages\""), std::string::npos);
}

TEST(MetricsSnapshotTest, ToJsonEmbedsStageSummaries) {
  MetricsSnapshot snapshot;
  obs::StageSummary io;
  io.stage = obs::Stage::kIo;
  io.count = 42;
  io.total_seconds = 1.5;
  io.pages = 640;
  snapshot.stages.push_back(io);
  std::string json = snapshot.ToJson();
  EXPECT_EQ(json.back(), '}');
  EXPECT_NE(json.find("\"stages\":[{"), std::string::npos);
  EXPECT_NE(json.find("\"stage\":\"io\""), std::string::npos);
  EXPECT_NE(json.find("\"count\":42"), std::string::npos);
  EXPECT_NE(json.find("\"pages\":640"), std::string::npos);
}

}  // namespace
}  // namespace qbism::service
