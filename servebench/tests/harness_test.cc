// Tests of the serving benchmark's own helpers (servebench/src/harness.h).
// Build and run them with `python3 servebench/run.py --self-test`.

#include "harness.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <numeric>
#include <thread>
#include <vector>

namespace servebench {
namespace {

TEST(MixTest, EachSeedAndStreamGivesItsOwnValue) {
  EXPECT_EQ(Mix(42, 1), Mix(42, 1));
  EXPECT_NE(Mix(42, 1), Mix(43, 1));
  EXPECT_NE(Mix(42, 1), Mix(42, 2));
}

TEST(SummarizeTest, NearestRankPercentiles) {
  std::vector<double> v(100);
  std::iota(v.begin(), v.end(), 1.0);  // 1..100, fed in reverse.
  std::reverse(v.begin(), v.end());
  const LatencySummary s = Summarize(v);
  EXPECT_EQ(s.count, 100);
  EXPECT_EQ(s.p50, 50.0);  // Observed values, never interpolated.
  EXPECT_EQ(s.p99, 99.0);
  EXPECT_EQ(s.max, 100.0);
  EXPECT_DOUBLE_EQ(s.mean, 50.5);
  EXPECT_EQ(s.beyond_p99, 1);

  std::vector<double> w(1000);
  std::iota(w.begin(), w.end(), 1.0);
  const LatencySummary t = Summarize(w);
  EXPECT_EQ(t.p99, 990.0);
  EXPECT_EQ(t.beyond_p99, 10);  // The "ten beyond p99" sample size.
}

TEST(SummarizeTest, EmptySampleIsAllZero) {
  const LatencySummary s = Summarize({});
  EXPECT_EQ(s.count, 0);
  EXPECT_EQ(s.p50, 0.0);
  EXPECT_EQ(s.beyond_p99, 0);
}

TEST(SummarizeTest, FailedOperationsCountAsLimitMisses) {
  std::vector<OpRecord> ops(10);
  for (int i = 0; i < 10; ++i) ops[static_cast<size_t>(i)].latency_ms = 1.0;
  ops[3].cause = Cause::kShed;
  ops[3].latency_ms = 0.01;  // Shed fast, still a miss.
  const std::vector<double> latencies = LatenciesWithMisses(ops, 50.0);
  EXPECT_EQ(latencies[3], 50.0);
  EXPECT_EQ(Summarize(latencies).max, 50.0);
  const OpCounts counts = CountOps(ops);
  EXPECT_EQ(counts.attempted, 10);
  EXPECT_EQ(counts.succeeded(), 9);
  EXPECT_EQ(counts.failed(), 1);
  EXPECT_EQ(counts.ToString(), "attempted 10 ok 9 shed 1");
}

/// Burns `ms` of this process's CPU time.
void Spin(double ms) {
  const double until = ProcessCpuMs() + ms;
  while (ProcessCpuMs() < until) {
  }
}

TEST(LoopTest, ClosedLoopSendsBackToBackAndTimesEachOperation) {
  std::vector<int64_t> sent;
  std::vector<OpRecord> ops;
  RunClosedLoop(0.05, Clock::now(), [&](int64_t i) {
    sent.push_back(i);
    Spin(2.0);
    return OpRecord{};
  }, &ops);
  ASSERT_FALSE(ops.empty());
  ASSERT_EQ(ops.size(), sent.size());
  for (size_t i = 0; i < ops.size(); ++i) {
    EXPECT_EQ(sent[i], static_cast<int64_t>(i));
    EXPECT_GE(ops[i].cpu_ms, 2.0);
    EXPECT_GE(ops[i].latency_ms, 0.9 * ops[i].cpu_ms);
  }
}

TEST(LoopTest, ClosedLoopStopsAfterMaxOps) {
  std::vector<OpRecord> ops;
  RunClosedLoop(10.0, Clock::now(), [](int64_t) { return OpRecord{}; }, &ops,
                3);
  EXPECT_EQ(ops.size(), 3u);

  // Sleeping costs wall time but no CPU time.
  RunClosedLoop(10.0, Clock::now(), [](int64_t) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    return OpRecord{};
  }, &ops, 1);
  ASSERT_EQ(ops.size(), 1u);
  EXPECT_GE(ops[0].latency_ms, 20.0);
  EXPECT_LT(ops[0].cpu_ms, 10.0);
}

Span At(double start, double end) {
  Span span;
  span.start_ms = start;
  span.end_ms = end;
  return span;
}

TEST(SelfTimeTest, NoChildrenIsTheWholeSpan) {
  EXPECT_DOUBLE_EQ(SelfTimeMs(At(0, 10), {}), 10.0);
}

TEST(SelfTimeTest, OverlappingChildrenAreCountedOnce) {
  // Three parallel shard calls: [1,5], [2,6], [3,4] cover [1,6].
  EXPECT_DOUBLE_EQ(SelfTimeMs(At(0, 10), {At(2, 6), At(1, 5), At(3, 4)}),
                   5.0);
}

TEST(SelfTimeTest, DisjointChildrenAndChildrenOutsideTheParent) {
  EXPECT_DOUBLE_EQ(SelfTimeMs(At(0, 10), {At(1, 2), At(4, 7)}), 6.0);
  // Only the part inside the parent counts.
  EXPECT_DOUBLE_EQ(SelfTimeMs(At(0, 10), {At(-5, 1), At(9, 20)}), 8.0);
  EXPECT_DOUBLE_EQ(SelfTimeMs(At(0, 10), {At(12, 20)}), 10.0);
  EXPECT_DOUBLE_EQ(SelfTimeMs(At(0, 10), {At(-1, 11)}), 0.0);
}

TEST(TracerTest, SpansKeepParentAndRequest) {
  const auto origin = Clock::now();
  Tracer tracer(origin);
  int64_t parent_id = -1;
  {
    ScopedSpan parent(&tracer, "serve.request", 7);
    parent_id = parent.id();
    ScopedSpan child(&tracer, "net.shard_rtt", 7, parent.id());
  }
  ASSERT_EQ(tracer.Spans().size(), 2u);
  const std::vector<Span> children = tracer.Named("net.shard_rtt");
  ASSERT_EQ(children.size(), 1u);
  EXPECT_EQ(children[0].parent, parent_id);
  EXPECT_EQ(children[0].request, 7);
  const Span parent = tracer.Named("serve.request")[0];
  EXPECT_LE(parent.start_ms, children[0].start_ms);
  EXPECT_GE(parent.end_ms, children[0].end_ms);

  ScopedSpan untraced(nullptr, "serve.request");  // A no-op.
  EXPECT_EQ(untraced.id(), -1);
}

TEST(ClassifyTest, EveryCauseMapsFromItsStatus) {
  using adamine::Status;
  EXPECT_EQ(Classify(Status::Ok()), Cause::kOk);
  EXPECT_EQ(Classify(Status::Ok(), /*partial=*/true), Cause::kPartial);
  EXPECT_EQ(Classify(Status::Unavailable("shed")), Cause::kShed);
  EXPECT_EQ(Classify(Status::DeadlineExceeded("late")), Cause::kDeadline);
  EXPECT_EQ(Classify(Status::ResourceExhausted("memtable")),
            Cause::kIngestShed);
  EXPECT_EQ(Classify(Status::ConnectionLost("reset")), Cause::kOther);
  EXPECT_EQ(Classify(Status::Internal("bug")), Cause::kOther);
  EXPECT_STREQ(CauseName(Cause::kIngestShed), "ingest_shed");
}

}  // namespace
}  // namespace servebench
