#include "kernel/kernel.h"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <thread>

#if defined(__x86_64__)
#include <sys/syscall.h>
#include <unistd.h>
#endif

#include "kernel/thread_pool.h"
#include "util/check.h"

namespace adamine::kernel {

namespace {

// Upper bound on the pool width; a backstop against absurd configs, not a
// tuning knob.
constexpr int kMaxThreads = 256;

std::mutex pool_mu;
std::unique_ptr<ThreadPool> pool;          // Guarded by pool_mu.
int configured_threads = 0;                // 0 = resolve default on first use.

// ActiveIsa()'s ceiling: the top level unless a ScopedIsa lowers it.
std::atomic<Isa> isa_cap{Isa::kAmx};

// True while the current thread is executing inside a ParallelFor body;
// nested kernels then run inline instead of re-entering the pool.
thread_local bool in_parallel_region = false;

int DefaultNumThreads() {
  if (const char* env = std::getenv("ADAMINE_NUM_THREADS")) {
    const long parsed = std::strtol(env, nullptr, 10);
    if (parsed >= 1 && parsed <= kMaxThreads) return static_cast<int>(parsed);
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw > kMaxThreads ? kMaxThreads : hw);
}

// Returns the pool, creating it on first use. Callers hold no lock; pool
// teardown (SetNumThreads) must not race with running kernels — that is the
// documented lifecycle contract.
ThreadPool& GetPool() {
  std::lock_guard<std::mutex> lock(pool_mu);
  if (!pool) {
    if (configured_threads == 0) configured_threads = DefaultNumThreads();
    pool = std::make_unique<ThreadPool>(configured_threads);
  }
  return *pool;
}

}  // namespace

void Configure(const KernelConfig& config) {
  if (config.num_threads > 0) SetNumThreads(config.num_threads);
}

void SetNumThreads(int num_threads) {
  ADAMINE_CHECK_GE(num_threads, 1);
  ADAMINE_CHECK_LE(num_threads, kMaxThreads);
  std::lock_guard<std::mutex> lock(pool_mu);
  if (num_threads == configured_threads && pool) return;
  configured_threads = num_threads;
  pool.reset();  // Rebuilt lazily at the new width.
}

int NumThreads() {
  return GetPool().num_threads();
}

const char* IsaName(Isa isa) {
  switch (isa) {
    case Isa::kPortable:
      return "portable";
    case Isa::kAvx2:
      return "avx2";
    case Isa::kAvx2Vnni:
      return "avx2_vnni";
    case Isa::kAvx512:
      return "avx512";
    case Isa::kAmx:
      return "amx";
  }
  return "unknown";
}

Isa CpuIsa() {
  static const Isa isa = [] {
#if defined(__x86_64__)
    __builtin_cpu_init();  // CpuIsa may run before libgcc's constructor.
    // Every AVX2 CPU has PCLMULQDQ; requiring it here means Crc32Update's
    // carry-less fold, which runs from kAvx2 up, needs no check of its own.
    if (!__builtin_cpu_supports("avx2") || !__builtin_cpu_supports("pclmul")) {
      return Isa::kPortable;
    }
    if (!__builtin_cpu_supports("avxvnni")) return Isa::kAvx2;
    const bool avx512 = __builtin_cpu_supports("avx512f") &&
                        __builtin_cpu_supports("avx512bw") &&
                        __builtin_cpu_supports("avx512vl") &&
                        __builtin_cpu_supports("avx512vnni");
    if (!avx512) return Isa::kAvx2Vnni;
    if (!__builtin_cpu_supports("amx-tile") ||
        !__builtin_cpu_supports("amx-int8")) {
      return Isa::kAvx512;
    }
    // Linux hands out the 8 KB tile state only on request, once per
    // process; every thread, the pool's included, then may use it.
    constexpr int kArchReqXcompPerm = 0x1023;
    constexpr int kXfeatureXtiledata = 18;
    const bool permitted =
        syscall(SYS_arch_prctl, kArchReqXcompPerm, kXfeatureXtiledata) == 0;
    return permitted ? Isa::kAmx : Isa::kAvx512;
#else
    return Isa::kPortable;
#endif
  }();
  return isa;
}

Isa ActiveIsa() {
  return std::min(CpuIsa(), isa_cap.load(std::memory_order_relaxed));
}

namespace internal {

ScopedIsa::ScopedIsa(Isa cap)
    : saved_(isa_cap.exchange(cap, std::memory_order_relaxed)) {}

ScopedIsa::~ScopedIsa() { isa_cap.store(saved_, std::memory_order_relaxed); }

void RunChunks(int64_t num_chunks, const std::function<void(int64_t)>& body) {
  if (in_parallel_region) {
    // Nested region: run inline. The chunk structure is identical, so any
    // deterministic kernel stays deterministic.
    for (int64_t c = 0; c < num_chunks; ++c) body(c);
    return;
  }
  // Concurrent top-level dispatches from different threads — e.g. the
  // sharded serving layer's per-shard fan-out — overlap on the pool; each
  // caller drains its own job's chunks (see ThreadPool::Run).
  ThreadPool& p = GetPool();
  in_parallel_region = true;
  p.Run(num_chunks, [&body](int64_t c) {
    in_parallel_region = true;  // Also marks the worker threads.
    body(c);
  });
  in_parallel_region = false;
}

}  // namespace internal

void ScatterAddRows(float* dst, int64_t dst_stride, const int64_t* indices,
                    int64_t num_indices, const float* src, int64_t src_stride,
                    int64_t cols) {
  // Column-sliced: every chunk visits all indices in order for its own
  // disjoint column range, so duplicates accumulate exactly as in the
  // sequential loop.
  ParallelFor(cols, /*grain=*/512, [&](int64_t c0, int64_t c1) {
    for (int64_t i = 0; i < num_indices; ++i) {
      const int64_t r = indices[i];
      if (r < 0) continue;
      float* d = dst + r * dst_stride;
      const float* s = src + i * src_stride;
      for (int64_t j = c0; j < c1; ++j) d[j] += s[j];
    }
  });
}

}  // namespace adamine::kernel
