#include "net/channel.h"

#include <gtest/gtest.h>

namespace qbism::net {
namespace {

TEST(ChannelTest, ControlMessageCosts) {
  NetworkCostModel model;
  model.per_message_seconds = 0.01;
  model.bandwidth_bytes_per_second = 1000.0;
  model.rtt_seconds = 0.0;
  ModeledTransfer t = ModelTransfer(model, 500, 0);
  EXPECT_EQ(t.messages, 1u);
  EXPECT_NEAR(t.seconds, 0.01 + 0.5, 1e-12);
}

TEST(ChannelTest, BulkChunking) {
  NetworkCostModel model;
  model.chunk_bytes = 1024;
  // 2048 data messages for the paper's 2 MB study, mirroring its ~2103
  // for Q1.
  EXPECT_EQ(ModelTransfer(model, 0, 2 * 1024 * 1024).messages, 2048u);
  EXPECT_EQ(ModelTransfer(model, 0, 1).messages, 1u);
  EXPECT_EQ(ModelTransfer(model, 0, 1025).messages, 2u);
  ModeledTransfer empty = ModelTransfer(model, 0, 0);
  EXPECT_EQ(empty.messages, 0u);
  EXPECT_EQ(empty.seconds, model.rtt_seconds);
  // A query text plus a 1025-byte answer: one control + two data.
  EXPECT_EQ(ModelTransfer(model, 40, 1025).messages, 3u);
}

TEST(ChannelTest, CostScalesWithSize) {
  NetworkCostModel model;
  double small = ModelTransfer(model, 0, 100000).seconds;
  double large = ModelTransfer(model, 0, 2000000).seconds;
  EXPECT_GT(large, 10 * small);
}

TEST(ChannelTest, RoundTripAddsRtt) {
  NetworkCostModel model;
  model.rtt_seconds = 0.004;
  ModeledTransfer t = ModelTransfer(model, 0, 0);
  EXPECT_NEAR(t.seconds, 0.004, 1e-12);
  EXPECT_EQ(t.messages, 0u);
  NetworkCostModel no_rtt = model;
  no_rtt.rtt_seconds = 0.0;
  EXPECT_NEAR(ModelTransfer(model, 0, 1000).seconds,
              ModelTransfer(no_rtt, 0, 1000).seconds + 0.004, 1e-12);
}

TEST(ChannelTest, DeterministicAcrossInstances) {
  NetworkCostModel a, b;
  ModeledTransfer ta = ModelTransfer(a, 77, 123456);
  ModeledTransfer tb = ModelTransfer(b, 77, 123456);
  EXPECT_EQ(ta.seconds, tb.seconds);
  EXPECT_EQ(ta.messages, tb.messages);
}

}  // namespace
}  // namespace qbism::net
