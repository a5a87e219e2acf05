// Unit tests for the span-based tracing layer: histogram bucketing,
// precision and concurrent recording, span lifecycle and nesting, the
// disabled fast path, drop-at-capacity, and the structured export
// formats.

#include "obs/trace.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <random>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

namespace qbism::obs {
namespace {

TEST(StageHistogramTest, LogLinearBucketBoundaries) {
  // Below 8 ns every value has its own bucket.
  for (uint64_t v = 0; v < 8; ++v) {
    EXPECT_EQ(StageHistogram::BucketOf(v), static_cast<int>(v));
  }
  // Indices never decrease with the value, and every bucket's lower
  // bound maps back to that bucket.
  int prev = 0;
  for (uint64_t v = 1; v < (uint64_t{1} << 40); v += v / 7 + 1) {
    int b = StageHistogram::BucketOf(v);
    EXPECT_GE(b, prev) << v;
    prev = b;
  }
  for (int b = 0; b < StageHistogram::kBuckets; ++b) {
    uint64_t lo = StageHistogram::BucketLowerBound(b);
    uint64_t hi = StageHistogram::BucketLowerBound(b + 1);
    ASSERT_LT(lo, hi) << b;
    EXPECT_EQ(StageHistogram::BucketOf(lo), b);
    EXPECT_EQ(StageHistogram::BucketOf(hi - 1), b);
    // Above 8 ns a bucket is at most 1/8 of its lower bound wide.
    if (lo >= 8) {
      EXPECT_LE(8 * (hi - lo), lo) << b;
    }
  }
  // Far beyond the top bucket clamps instead of indexing out of range.
  EXPECT_EQ(StageHistogram::BucketOf(~0ull), StageHistogram::kBuckets - 1);
  EXPECT_EQ(StageHistogram::BucketOf(uint64_t{1} << 60),
            StageHistogram::kBuckets - 1);
}

TEST(StageHistogramTest, PercentilesWithinOneSixteenth) {
  // Log-uniform durations from 1 us to 10 s: every octave is populated,
  // so a coarse bucket scheme shows its error in the tail.
  std::mt19937_64 rng(7);
  std::uniform_real_distribution<double> exponent(std::log(1e3),
                                                  std::log(1e10));
  std::vector<uint64_t> samples(20000);
  StageHistogram hist;
  for (uint64_t& v : samples) {
    v = static_cast<uint64_t>(std::exp(exponent(rng)));
    hist.Record(v);
  }
  std::sort(samples.begin(), samples.end());
  StageSummary s = hist.Summarize(Stage::kQuery);
  auto exact = [&](double p) {
    size_t rank =
        static_cast<size_t>(p * static_cast<double>(samples.size() - 1));
    return static_cast<double>(samples[rank]) * 1e-9;
  };
  for (auto [estimate, p] : {std::pair{s.p50, 0.50}, std::pair{s.p95, 0.95},
                             std::pair{s.p99, 0.99}}) {
    double truth = exact(p);
    EXPECT_LE(std::abs(estimate - truth), truth / 16) << "p" << 100 * p;
  }
}

TEST(StageHistogramTest, ConcurrentRecordKeepsAggregatesExact) {
  StageHistogram hist;
  constexpr int kThreads = 4;
  constexpr uint64_t kPerThread = 50000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&hist, t] {
      for (uint64_t i = 1; i <= kPerThread; ++i) {
        hist.Record(i * kThreads + static_cast<uint64_t>(t));
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  constexpr uint64_t kCount = kThreads * kPerThread;
  // The recorded values are exactly kThreads..kThreads*(kPerThread+1)-1.
  constexpr uint64_t kMin = kThreads;
  constexpr uint64_t kMax = kThreads * (kPerThread + 1) - 1;
  StageSummary s = hist.Summarize(Stage::kShard);
  EXPECT_EQ(s.count, kCount);
  EXPECT_EQ(hist.count(), kCount);
  EXPECT_DOUBLE_EQ(s.total_seconds,
                   static_cast<double>((kMin + kMax) * kCount / 2) * 1e-9);
  EXPECT_DOUBLE_EQ(s.max_seconds, static_cast<double>(kMax) * 1e-9);
}

TEST(StageHistogramTest, ExactCountTotalMaxApproxPercentiles) {
  StageHistogram hist;
  // 100 samples of 1 ms, 10 of 100 ms.
  for (int i = 0; i < 100; ++i) hist.Record(1'000'000);
  for (int i = 0; i < 10; ++i) hist.Record(100'000'000);
  StageSummary s = hist.Summarize(Stage::kIo);
  EXPECT_EQ(s.count, 110u);
  EXPECT_DOUBLE_EQ(s.total_seconds, 100 * 1e-3 + 10 * 100e-3);
  EXPECT_DOUBLE_EQ(s.max_seconds, 0.1);
  // Log-linear buckets put the estimate within 1/16 of the truth.
  EXPECT_NEAR(s.p50, 1e-3, 1e-3 / 16);
  EXPECT_NEAR(s.p99, 0.1, 0.1 / 16);
  EXPECT_LE(s.p99, s.max_seconds);
}

TEST(TracerTest, SpanTreeParentage) {
  Tracer tracer;
  TraceContext root_ctx = tracer.StartTrace();
  {
    Span parent(root_ctx, Stage::kQuery);
    ASSERT_TRUE(parent.active());
    Span child(parent.context(), Stage::kIo);
    ASSERT_TRUE(child.active());
    child.AddPages(3);
    child.AddBytes(4096);
  }
  std::vector<SpanRecord> spans = tracer.Spans();
  ASSERT_EQ(spans.size(), 2u);  // child ends first (reverse scope order)
  const SpanRecord& child = spans[0];
  const SpanRecord& parent = spans[1];
  EXPECT_EQ(child.stage, Stage::kIo);
  EXPECT_EQ(parent.stage, Stage::kQuery);
  EXPECT_EQ(child.trace_id, parent.trace_id);
  EXPECT_EQ(child.parent_id, parent.span_id);
  EXPECT_EQ(parent.parent_id, 0u);
  EXPECT_EQ(child.pages, 3u);
  EXPECT_EQ(child.bytes, 4096u);
  EXPECT_TRUE(child.ok);
}

TEST(TracerTest, ThreadLocalContextPropagation) {
  Tracer tracer;
  TraceContext root = tracer.StartTrace();
  {
    ScopedTraceContext install(root);
    Span span(Stage::kPlan);  // picks up the installed context
    EXPECT_TRUE(span.active());
  }
  // Restored: a span opened now is inert.
  Span after(Stage::kPlan);
  EXPECT_FALSE(after.active());
  EXPECT_EQ(tracer.Spans().size(), 1u);
}

TEST(TracerTest, InertWithoutTracerAndWhenDisabled) {
  {
    Span span(TraceContext{}, Stage::kIo);
    EXPECT_FALSE(span.active());
    // context() falls through so nesting still works.
    EXPECT_EQ(span.context().tracer, nullptr);
  }
  TracerOptions options;
  options.enabled = false;
  Tracer tracer(options);
  Span span(tracer.StartTrace(), Stage::kIo);
  EXPECT_FALSE(span.active());
  span.End();
  EXPECT_EQ(tracer.recorded(), 0u);
}

TEST(TracerTest, DropsSpansAtCapacityButKeepsHistograms) {
  TracerOptions options;
  options.span_capacity = 4;
  Tracer tracer(options);
  TraceContext ctx = tracer.StartTrace();
  for (int i = 0; i < 10; ++i) {
    Span span(ctx, Stage::kIo);
  }
  EXPECT_EQ(tracer.Spans().size(), 4u);
  EXPECT_EQ(tracer.recorded(), 10u);
  EXPECT_EQ(tracer.dropped(), 6u);
  std::vector<StageSummary> stages = tracer.StageSummaries();
  ASSERT_EQ(stages.size(), 1u);
  EXPECT_EQ(stages[0].count, 10u);  // the histogram saw every span
  EXPECT_NE(tracer.DumpStatsTable().find("dropped"), std::string::npos);
}

TEST(TracerTest, ResetClearsEverything) {
  Tracer tracer;
  TraceContext ctx = tracer.StartTrace();
  { Span span(ctx, Stage::kDecode); }
  ASSERT_EQ(tracer.Spans().size(), 1u);
  tracer.Reset();
  EXPECT_EQ(tracer.Spans().size(), 0u);
  EXPECT_EQ(tracer.recorded(), 0u);
  EXPECT_TRUE(tracer.StageSummaries().empty());
}

TEST(TracerTest, SetLabelTruncatesSafely) {
  Tracer tracer;
  Span span(tracer.StartTrace(), Stage::kQuery);
  span.SetLabel("a-very-long-label-that-overflows");
  span.End();
  std::vector<SpanRecord> spans = tracer.Spans();
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_EQ(std::string(spans[0].label), "a-very-long-lab");
}

TEST(TracerTest, SetFailedMarksSpanNotOk) {
  Tracer tracer;
  {
    Span span(tracer.StartTrace(), Stage::kData);
    span.SetFailed();
  }
  ASSERT_EQ(tracer.Spans().size(), 1u);
  EXPECT_FALSE(tracer.Spans()[0].ok);
}

TEST(TracerTest, RetroactiveRecordFeedsHistogramAndBuffer) {
  Tracer tracer;
  SpanRecord record;
  record.trace_id = 7;
  record.span_id = tracer.NextSpanId();
  record.stage = Stage::kQueueWait;
  record.start_seconds = 0.25;
  record.duration_seconds = 0.5;
  tracer.Record(record);
  std::vector<StageSummary> stages = tracer.StageSummaries();
  ASSERT_EQ(stages.size(), 1u);
  EXPECT_EQ(stages[0].stage, Stage::kQueueWait);
  EXPECT_DOUBLE_EQ(stages[0].total_seconds, 0.5);
}

TEST(TracerExportTest, JsonlOneLinePerSpan) {
  Tracer tracer;
  TraceContext ctx = tracer.StartTrace();
  {
    Span a(ctx, Stage::kTranslate);
    Span b(a.context(), Stage::kInfo);
  }
  std::string jsonl = tracer.DumpTraceJsonl();
  int lines = 0;
  std::istringstream in(jsonl);
  for (std::string line; std::getline(in, line);) {
    ++lines;
    EXPECT_EQ(line.front(), '{');
    EXPECT_EQ(line.back(), '}');
  }
  EXPECT_EQ(lines, 2);
  EXPECT_NE(jsonl.find("\"stage\":\"translate\""), std::string::npos);
  EXPECT_NE(jsonl.find("\"stage\":\"info\""), std::string::npos);
}

TEST(TracerExportTest, ChromeTraceEventFormat) {
  Tracer tracer;
  { Span span(tracer.StartTrace(), Stage::kRender); }
  std::string chrome = tracer.DumpTraceChrome();
  EXPECT_EQ(chrome.rfind("{\"traceEvents\":[", 0), 0u);
  EXPECT_NE(chrome.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(chrome.find("\"name\":\"render\""), std::string::npos);
  EXPECT_NE(chrome.find("\"ts\":"), std::string::npos);
  EXPECT_NE(chrome.find("\"dur\":"), std::string::npos);
}

TEST(TracerExportTest, StatsTableAndStagesJson) {
  Tracer tracer;
  TraceContext ctx = tracer.StartTrace();
  {
    Span io(ctx, Stage::kIo);
    io.AddPages(12);
  }
  std::string table = tracer.DumpStatsTable();
  EXPECT_NE(table.find("io"), std::string::npos);
  EXPECT_NE(table.find("p95"), std::string::npos);
  std::string json = Tracer::StagesToJson(tracer.StageSummaries());
  EXPECT_EQ(json.front(), '[');
  EXPECT_EQ(json.back(), ']');
  EXPECT_NE(json.find("\"stage\":\"io\""), std::string::npos);
  EXPECT_NE(json.find("\"pages\":12"), std::string::npos);
}

TEST(TracerTest, StageNamesAreStable) {
  EXPECT_STREQ(StageName(Stage::kQuery), "query");
  EXPECT_STREQ(StageName(Stage::kQueueWait), "queue");
  EXPECT_STREQ(StageName(Stage::kIo), "io");
  EXPECT_STREQ(StageName(Stage::kExtract), "extract");
  EXPECT_STREQ(StageName(Stage::kIoWait), "io_wait");
}

}  // namespace
}  // namespace qbism::obs
