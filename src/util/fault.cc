#include "util/fault.h"

#include <atomic>
#include <mutex>
#include <unordered_map>

namespace adamine::fault {

namespace {

struct Schedule {
  int64_t skip = 0;
  int64_t fire = 0;
};

struct Registry {
  std::mutex mu;
  std::unordered_map<std::string, Schedule> armed;
  std::unordered_map<std::string, int64_t> hits;
};

Registry& GetRegistry() {
  static Registry* registry = new Registry();
  return *registry;
}

// Fast path: production code must not pay for a mutex + map lookup on every
// serialised write when no test is injecting faults.
std::atomic<int64_t> g_armed_count{0};

}  // namespace

std::string ShardReplicaPoint(const std::string& point, int64_t shard,
                              int64_t replica) {
  return point + "." + std::to_string(shard) + "." + std::to_string(replica);
}

std::string ScopedPoint(const std::string& point, const std::string& scope) {
  if (scope.empty()) return point;
  return point + "." + scope;
}

void Arm(const std::string& point, int64_t skip, int64_t fire) {
  Registry& r = GetRegistry();
  std::lock_guard<std::mutex> lock(r.mu);
  if (r.armed.find(point) == r.armed.end()) {
    g_armed_count.fetch_add(1, std::memory_order_relaxed);
  }
  r.armed[point] = Schedule{skip, fire};
}

void Disarm(const std::string& point) {
  Registry& r = GetRegistry();
  std::lock_guard<std::mutex> lock(r.mu);
  if (r.armed.erase(point) > 0) {
    g_armed_count.fetch_sub(1, std::memory_order_relaxed);
  }
}

void Reset() {
  Registry& r = GetRegistry();
  std::lock_guard<std::mutex> lock(r.mu);
  g_armed_count.fetch_sub(static_cast<int64_t>(r.armed.size()),
                          std::memory_order_relaxed);
  r.armed.clear();
  r.hits.clear();
}

bool IsArmed(std::string_view point) {
  if (!AnyArmed()) return false;
  const std::string key(point);
  Registry& r = GetRegistry();
  std::lock_guard<std::mutex> lock(r.mu);
  return r.armed.find(key) != r.armed.end();
}

int64_t ArmedSkip(std::string_view point) {
  if (!AnyArmed()) return -1;
  const std::string key(point);
  Registry& r = GetRegistry();
  std::lock_guard<std::mutex> lock(r.mu);
  auto it = r.armed.find(key);
  return it == r.armed.end() ? -1 : it->second.skip;
}

bool AnyArmed() {
  return g_armed_count.load(std::memory_order_relaxed) > 0;
}

bool ShouldFail(std::string_view point) {
  if (!AnyArmed()) return false;
  const std::string key(point);
  Registry& r = GetRegistry();
  std::lock_guard<std::mutex> lock(r.mu);
  ++r.hits[key];
  auto it = r.armed.find(key);
  if (it == r.armed.end()) return false;
  Schedule& s = it->second;
  if (s.skip > 0) {
    --s.skip;
    return false;
  }
  if (s.fire > 0) {
    --s.fire;
    if (s.fire == 0) {
      r.armed.erase(it);
      g_armed_count.fetch_sub(1, std::memory_order_relaxed);
    }
    return true;
  }
  return false;
}

int64_t Hits(const std::string& point) {
  Registry& r = GetRegistry();
  std::lock_guard<std::mutex> lock(r.mu);
  auto it = r.hits.find(point);
  return it == r.hits.end() ? 0 : it->second;
}

FaultInjectingStreambuf::FaultInjectingStreambuf(std::streambuf* target,
                                                 int64_t byte_budget)
    : target_(target), budget_(byte_budget) {}

int FaultInjectingStreambuf::overflow(int ch) {
  if (ch == traits_type::eof()) return sync() == 0 ? 0 : traits_type::eof();
  if (budget_ <= 0) return traits_type::eof();
  const char c = static_cast<char>(ch);
  if (target_->sputn(&c, 1) != 1) return traits_type::eof();
  --budget_;
  ++bytes_written_;
  return ch;
}

std::streamsize FaultInjectingStreambuf::xsputn(const char* s,
                                                std::streamsize n) {
  const std::streamsize allowed = static_cast<std::streamsize>(
      std::min<int64_t>(budget_, static_cast<int64_t>(n)));
  const std::streamsize put = allowed > 0 ? target_->sputn(s, allowed) : 0;
  budget_ -= put;
  bytes_written_ += put;
  // Returning less than n makes the owning ostream set badbit — exactly the
  // partial-write-then-crash shape the tests need.
  return put;
}

int FaultInjectingStreambuf::sync() { return target_->pubsync(); }

}  // namespace adamine::fault
