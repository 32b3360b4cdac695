// Load-generation and measurement helpers of the serving benchmark: the
// seed mixer, the one-client closed loop with per-request CPU time,
// nearest-rank latency summaries, in-memory spans with self time, and
// failure accounting. Everything here is independent of the
// serving stack, so tests/harness_test.cc pins it without building a corpus.

#ifndef SERVEBENCH_HARNESS_H_
#define SERVEBENCH_HARNESS_H_

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <limits>
#include <mutex>
#include <string>
#include <vector>

#include "util/status.h"

namespace servebench {

using Clock = std::chrono::steady_clock;

double MillisBetween(Clock::time_point from, Clock::time_point to);

/// SplitMix64: the benchmark's stateless seed mixer. Every random choice of
/// a run (corpus, held-out queries, ingest rows) is a function of
/// (--seed, stream).
uint64_t Mix(uint64_t seed, uint64_t stream);

/// Nearest-rank summary of a latency sample (util::SortedPercentile).
/// `beyond_p99` counts observations strictly above p99: a p99 is only
/// reported as resolved when at least ten samples lie beyond it.
struct LatencySummary {
  int64_t count = 0;
  double p50 = 0.0;
  double p99 = 0.0;
  double max = 0.0;
  double mean = 0.0;
  int64_t beyond_p99 = 0;
};
LatencySummary Summarize(std::vector<double> samples);

/// Why an operation failed. Shed and deadline misses come from the serving
/// layer's admission control; ingest sheds from the mutable corpus's
/// memtable budgets; partial coverage from a sharded answer that lost a
/// shard. Every failed operation also counts as a miss of the workload's
/// latency limit.
enum class Cause {
  kOk = 0,
  kShed,         // kUnavailable
  kDeadline,     // kDeadlineExceeded
  kIngestShed,   // kResourceExhausted
  kPartial,      // a sharded answer with coverage < 1
  kOther,        // any other error
};
inline constexpr int kNumCauses = 6;
const char* CauseName(Cause cause);
Cause Classify(const adamine::Status& status, bool partial = false);

/// Attempted / succeeded / failed-by-cause counts of one operation stream.
struct OpCounts {
  int64_t attempted = 0;
  std::array<int64_t, kNumCauses> by_cause{};

  void Add(Cause cause);
  void Merge(const OpCounts& other);
  int64_t succeeded() const { return by_cause[0]; }
  int64_t failed() const { return attempted - succeeded(); }
  /// "attempted 1000 ok 998 shed 2" — only the non-zero causes.
  std::string ToString() const;
};

/// One timed operation as the load generator saw it: `latency_ms` from
/// its send to its answer, and `cpu_ms`, the CPU time the whole process
/// used meanwhile. The loop sends one operation at a time, so `cpu_ms` is
/// the operation's cost on every thread it woke; time the host gave to
/// other guests (steal) or to other processes is not in it.
struct OpRecord {
  double latency_ms = 0.0;
  double cpu_ms = 0.0;
  Cause cause = Cause::kOk;
  int64_t rows = 0;  // Query rows (or ingested rows) the operation carried.
};

/// Latencies of `ops` for percentiles: a failed operation enters at
/// max(latency, limit_ms), so it counts as a miss of the latency limit.
std::vector<double> LatenciesWithMisses(const std::vector<OpRecord>& ops,
                                        double limit_ms);
OpCounts CountOps(const std::vector<OpRecord>& ops);

/// CPU time used so far by every thread of this process
/// (CLOCK_PROCESS_CPUTIME_ID), in ms.
double ProcessCpuMs();

/// A closed loop with one client: calls `send(i)` back to back from the
/// calling thread, i = 0, 1, ..., until `duration_s` after `start` or
/// until `max_ops` operations have been sent.
void RunClosedLoop(double duration_s, Clock::time_point start,
                   const std::function<OpRecord(int64_t)>& send,
                   std::vector<OpRecord>* ops,
                   int64_t max_ops = std::numeric_limits<int64_t>::max());

/// One recorded interval. Spans of one request share `request`; `parent`
/// is the id of the span that caused this one (-1 for a root).
struct Span {
  const char* name = "";
  int64_t id = -1;
  int64_t parent = -1;
  int64_t request = -1;
  double start_ms = 0.0;  // Since the tracer's origin.
  double end_ms = 0.0;

  double duration_ms() const { return end_ms - start_ms; }
};

/// A span's self time: its duration minus the part of its interval that
/// the union of `children` covers (children may overlap each other and may
/// stick out of the parent; only the overlap with the parent counts).
double SelfTimeMs(const Span& parent, std::vector<Span> children);

/// In-memory span store. Spans are appended under a mutex and only read
/// after the load has stopped; WriteTsv writes them out at the end of the
/// run, so tracing never does I/O inside the timed window.
class Tracer {
 public:
  explicit Tracer(Clock::time_point origin) : origin_(origin) {}
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  int64_t NewId() { return next_id_.fetch_add(1); }
  void Record(const char* name, int64_t id, int64_t parent, int64_t request,
              Clock::time_point start, Clock::time_point end);
  std::vector<Span> Spans() const;
  std::vector<Span> Named(const char* name) const;
  adamine::Status WriteTsv(const std::string& path) const;

 private:
  const Clock::time_point origin_;
  std::atomic<int64_t> next_id_{0};
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

/// Times its own scope into `tracer` as span `name`; a no-op when `tracer`
/// is null, so the untraced run pays one branch.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name, int64_t request = -1,
             int64_t parent = -1);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  int64_t id() const { return id_; }

 private:
  Tracer* tracer_;
  const char* name_;
  int64_t id_ = -1;
  int64_t parent_;
  int64_t request_;
  Clock::time_point start_;
};

}  // namespace servebench

#endif  // SERVEBENCH_HARNESS_H_
