#ifndef ADAMINE_KERNEL_KERNEL_H_
#define ADAMINE_KERNEL_KERNEL_H_

#include <cstdint>
#include <functional>
#include <vector>

namespace adamine::kernel {

/// Execution configuration for the kernel layer. `num_threads == 0` means
/// "leave the current setting alone" (which defaults to the
/// ADAMINE_NUM_THREADS environment variable, then to the hardware
/// concurrency). Any positive value pins the pool width exactly.
///
/// Every kernel is bit-deterministic in the thread count: the chunk
/// decomposition depends only on the problem size, chunks write disjoint
/// outputs, and reductions combine per-chunk partials in ascending chunk
/// order. num_threads therefore only changes wall-clock time, never results.
struct KernelConfig {
  int num_threads = 0;
};

/// Applies `config` to the global kernel state (no-op for num_threads == 0).
void Configure(const KernelConfig& config);

/// Pins the pool to exactly `num_threads` (>= 1) threads, tearing down and
/// rebuilding the worker pool if the width changes. Not safe to call
/// concurrently with running kernels.
void SetNumThreads(int num_threads);

/// The current pool width (resolving the env/hardware default on first use).
int NumThreads();

/// The instruction-set levels the kernels with a vector path dispatch on,
/// each a superset of the one before. The binary targets baseline x86-64;
/// the vector kernels carry target attributes and run only at their level.
enum class Isa {
  kPortable,  // Plain loops (SSE2 auto-vectorised on x86-64).
  kAvx2,      // AVX2, never FMA (see Gemm).
  kAvx2Vnni,  // AVX2 plus AVX-VNNI's 256-bit vpdpbusd (the int8 scan).
};

/// Every level, lowest first.
inline constexpr Isa kAllIsas[] = {Isa::kPortable, Isa::kAvx2,
                                   Isa::kAvx2Vnni};

/// "portable", "avx2" or "avx2_vnni".
const char* IsaName(Isa isa);

/// The CPU's level (kPortable off x86-64), resolved once per process.
Isa CpuIsa();

/// The level every kernel dispatches on, read at each call: CpuIsa(),
/// unless a test caps it (internal::ScopedIsa). Gemm and the quantized
/// backend's selection pass use AVX2 from kAvx2 up, Int8ScanRows has a
/// tile per level, and TopK's cutoff test is SSE2 above kPortable.
Isa ActiveIsa();

/// Number of fixed-size chunks `ParallelFor` splits [0, n) into. Depends
/// only on n and grain — never on the thread count.
inline int64_t NumChunks(int64_t n, int64_t grain) {
  return n <= 0 ? 0 : (n + grain - 1) / grain;
}

namespace internal {

/// Caps ActiveIsa() at `cap` while the guard lives, so tests and benchmarks
/// can run every level the CPU has, the portable loops included. Guards
/// nest. Not for production callers: the cap is process-wide, so make and
/// destroy a guard only while no kernel runs.
class ScopedIsa {
 public:
  explicit ScopedIsa(Isa cap);
  ~ScopedIsa();
  ScopedIsa(const ScopedIsa&) = delete;
  ScopedIsa& operator=(const ScopedIsa&) = delete;

 private:
  Isa saved_;
};

/// Runs body(chunk) for chunk in [0, num_chunks) on the global pool. Nested
/// calls (a parallel body invoking another kernel) run inline so the pool is
/// never re-entered; chunk decomposition is unchanged, so results are too.
/// Concurrent calls from different threads are safe and overlap: the pool
/// runs several jobs at once, each caller draining its own chunk list while
/// idle workers help the oldest job first (see ThreadPool).
void RunChunks(int64_t num_chunks, const std::function<void(int64_t)>& body);

}  // namespace internal

/// Splits [0, n) into chunks of `grain` and runs body(begin, end) for each,
/// possibly concurrently. Chunks must write disjoint outputs; under that
/// contract the result is bit-identical for every thread count.
template <typename Body>
void ParallelFor(int64_t n, int64_t grain, const Body& body) {
  const int64_t chunks = NumChunks(n, grain);
  if (chunks <= 1) {
    if (n > 0) body(int64_t{0}, n);
    return;
  }
  internal::RunChunks(chunks, [&](int64_t c) {
    const int64_t begin = c * grain;
    const int64_t end = begin + grain < n ? begin + grain : n;
    body(begin, end);
  });
}

/// ParallelFor variant that also hands the body its chunk index, for kernels
/// that stage per-chunk partials into a slot array.
template <typename Body>
void ParallelForChunks(int64_t n, int64_t grain, const Body& body) {
  const int64_t chunks = NumChunks(n, grain);
  if (chunks <= 1) {
    if (n > 0) body(int64_t{0}, int64_t{0}, n);
    return;
  }
  internal::RunChunks(chunks, [&](int64_t c) {
    const int64_t begin = c * grain;
    const int64_t end = begin + grain < n ? begin + grain : n;
    body(c, begin, end);
  });
}

/// Ordered parallel reduction: maps each fixed chunk of [0, n) to a partial
/// with map(begin, end), then folds the partials *in ascending chunk order*
/// with combine(acc, partial) on the calling thread. The fold order is a
/// function of (n, grain) only, so results are bit-identical for every
/// thread count.
template <typename T, typename Map, typename Combine>
T ParallelReduceOrdered(int64_t n, int64_t grain, T init, const Map& map,
                        const Combine& combine) {
  const int64_t chunks = NumChunks(n, grain);
  if (chunks <= 1) {
    return n > 0 ? combine(init, map(int64_t{0}, n)) : init;
  }
  std::vector<T> partials(static_cast<size_t>(chunks));
  internal::RunChunks(chunks, [&](int64_t c) {
    const int64_t begin = c * grain;
    const int64_t end = begin + grain < n ? begin + grain : n;
    partials[static_cast<size_t>(c)] = map(begin, end);
  });
  T acc = init;
  for (const T& partial : partials) acc = combine(acc, partial);
  return acc;
}

/// dst.row(indices[i]) += src.row(i) for every i with indices[i] >= 0
/// (negative indices are skipped — the embedding-padding convention).
/// Parallelised over *column* ranges: each chunk walks all indices in order
/// for its disjoint slice of columns, so duplicate indices accumulate in
/// exactly the sequential order and the result is bit-exact for any thread
/// count. Callers must bounds-check indices beforehand.
void ScatterAddRows(float* dst, int64_t dst_stride, const int64_t* indices,
                    int64_t num_indices, const float* src, int64_t src_stride,
                    int64_t cols);

/// Default elementwise grain: small enough to spread batch-sized tensors,
/// large enough that per-chunk dispatch cost stays negligible.
inline constexpr int64_t kElementwiseGrain = 4096;

/// Default row grain for [N, C] kernels that parallelise over rows.
inline constexpr int64_t kRowGrain = 32;

}  // namespace adamine::kernel

#endif  // ADAMINE_KERNEL_KERNEL_H_
