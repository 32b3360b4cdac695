#include "harness.h"

#include <time.h>

#include <algorithm>
#include <fstream>
#include <thread>

#include "util/percentile.h"

namespace servebench {

double MillisBetween(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}

uint64_t Mix(uint64_t seed, uint64_t stream) {
  uint64_t z = seed + 0x9e3779b97f4a7c15ull * (stream + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

LatencySummary Summarize(std::vector<double> samples) {
  LatencySummary s;
  if (samples.empty()) return s;
  std::sort(samples.begin(), samples.end());
  s.count = static_cast<int64_t>(samples.size());
  s.p50 = adamine::util::SortedPercentile(samples, 50.0);
  s.p99 = adamine::util::SortedPercentile(samples, 99.0);
  s.max = samples.back();
  double total = 0.0;
  for (double v : samples) total += v;
  s.mean = total / static_cast<double>(samples.size());
  s.beyond_p99 = static_cast<int64_t>(
      samples.end() - std::upper_bound(samples.begin(), samples.end(), s.p99));
  return s;
}

const char* CauseName(Cause cause) {
  switch (cause) {
    case Cause::kOk:
      return "ok";
    case Cause::kShed:
      return "shed";
    case Cause::kDeadline:
      return "deadline";
    case Cause::kIngestShed:
      return "ingest_shed";
    case Cause::kPartial:
      return "partial";
    case Cause::kOther:
      return "other";
  }
  return "other";
}

Cause Classify(const adamine::Status& status, bool partial) {
  using adamine::StatusCode;
  switch (status.code()) {
    case StatusCode::kOk:
      return partial ? Cause::kPartial : Cause::kOk;
    case StatusCode::kUnavailable:
      return Cause::kShed;
    case StatusCode::kDeadlineExceeded:
      return Cause::kDeadline;
    case StatusCode::kResourceExhausted:
      return Cause::kIngestShed;
    default:
      return Cause::kOther;
  }
}

void OpCounts::Add(Cause cause) {
  ++attempted;
  ++by_cause[static_cast<size_t>(cause)];
}

void OpCounts::Merge(const OpCounts& other) {
  attempted += other.attempted;
  for (size_t c = 0; c < by_cause.size(); ++c) {
    by_cause[c] += other.by_cause[c];
  }
}

std::string OpCounts::ToString() const {
  std::string out = "attempted " + std::to_string(attempted);
  for (int c = 0; c < kNumCauses; ++c) {
    if (c > 0 && by_cause[static_cast<size_t>(c)] == 0) continue;
    out += std::string(" ") + CauseName(static_cast<Cause>(c)) + " " +
           std::to_string(by_cause[static_cast<size_t>(c)]);
  }
  return out;
}

std::vector<double> LatenciesWithMisses(const std::vector<OpRecord>& ops,
                                        double limit_ms) {
  std::vector<double> out;
  out.reserve(ops.size());
  for (const OpRecord& op : ops) {
    out.push_back(op.cause == Cause::kOk ? op.latency_ms
                                         : std::max(op.latency_ms, limit_ms));
  }
  return out;
}

OpCounts CountOps(const std::vector<OpRecord>& ops) {
  OpCounts counts;
  for (const OpRecord& op : ops) counts.Add(op.cause);
  return counts;
}

double ProcessCpuMs() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) * 1e3 +
         static_cast<double>(ts.tv_nsec) / 1e6;
}

void RunClosedLoop(double duration_s, Clock::time_point start,
                   const std::function<OpRecord(int64_t)>& send,
                   std::vector<OpRecord>* ops, int64_t max_ops) {
  const auto end = start + std::chrono::duration_cast<Clock::duration>(
                               std::chrono::duration<double>(duration_s));
  ops->clear();
  std::this_thread::sleep_until(start);
  while (Clock::now() < end && static_cast<int64_t>(ops->size()) < max_ops) {
    const auto sent = Clock::now();
    const double cpu0 = ProcessCpuMs();
    OpRecord record = send(static_cast<int64_t>(ops->size()));
    record.cpu_ms = ProcessCpuMs() - cpu0;
    record.latency_ms = MillisBetween(sent, Clock::now());
    ops->push_back(record);
  }
}

double SelfTimeMs(const Span& parent, std::vector<Span> children) {
  std::sort(children.begin(), children.end(),
            [](const Span& a, const Span& b) { return a.start_ms < b.start_ms; });
  double covered = 0.0;
  double reach = parent.start_ms;  // Covered up to here so far.
  for (const Span& child : children) {
    const double lo = std::max(child.start_ms, reach);
    const double hi = std::min(child.end_ms, parent.end_ms);
    if (hi > lo) {
      covered += hi - lo;
      reach = hi;
    }
  }
  return parent.duration_ms() - covered;
}

void Tracer::Record(const char* name, int64_t id, int64_t parent,
                    int64_t request, Clock::time_point start,
                    Clock::time_point end) {
  Span span;
  span.name = name;
  span.id = id;
  span.parent = parent;
  span.request = request;
  span.start_ms = MillisBetween(origin_, start);
  span.end_ms = MillisBetween(origin_, end);
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(span);
}

std::vector<Span> Tracer::Spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

std::vector<Span> Tracer::Named(const char* name) const {
  std::vector<Span> out;
  const std::string wanted(name);
  std::lock_guard<std::mutex> lock(mu_);
  for (const Span& span : spans_) {
    if (wanted == span.name) out.push_back(span);
  }
  return out;
}

adamine::Status Tracer::WriteTsv(const std::string& path) const {
  std::ofstream out(path);
  out << "id\tparent\trequest\tname\tstart_ms\tend_ms\n";
  for (const Span& span : Spans()) {
    out << span.id << '\t' << span.parent << '\t' << span.request << '\t'
        << span.name << '\t' << span.start_ms << '\t' << span.end_ms << '\n';
  }
  out.close();
  if (!out) return adamine::Status::Internal("cannot write spans to " + path);
  return adamine::Status::Ok();
}

ScopedSpan::ScopedSpan(Tracer* tracer, const char* name, int64_t request,
                       int64_t parent)
    : tracer_(tracer), name_(name), parent_(parent), request_(request) {
  if (tracer_ == nullptr) return;
  id_ = tracer_->NewId();
  start_ = Clock::now();
}

ScopedSpan::~ScopedSpan() {
  if (tracer_ == nullptr) return;
  tracer_->Record(name_, id_, parent_, request_, start_, Clock::now());
}

}  // namespace servebench
