#ifndef ADAMINE_KERNEL_INT8DOT_H_
#define ADAMINE_KERNEL_INT8DOT_H_

#include <cstdint>

namespace adamine::kernel {

/// Integer dot products over int8 codes — the scoring inner loop of the
/// quantized backend (src/quant/). All arithmetic is exact int32, so unlike
/// the float kernels there is no accumulation-order subtlety: every
/// implementation below returns the same bits by construction, and the
/// ref-vs-fast harness (tests/quant_test.cc) pins that across lengths,
/// alignments, adversarial code patterns, query counts and thread counts.
///
/// Overflow contract: |a[i]|, |b[i]| <= 127, so each product is <= 16129 and
/// an int32 accumulator is safe for n <= 2^31 / 16129 ~= 133k elements.
/// Callers (the quantizer) must enforce n <= kInt8DotMaxElems.
inline constexpr int64_t kInt8DotMaxElems = 1 << 17;  // 131072, under the bound

/// The most queries one Int8ScanRows call scores.
inline constexpr int kInt8ScanMaxQueries = 4;

/// Scalar reference: a plain ascending loop, kept free of manual unrolling
/// so it stays the obviously-correct baseline the fast path is diffed
/// against (ggml's test-backend-ops methodology).
int32_t Int8DotRef(const int8_t* a, const int8_t* b, int64_t n);

/// out[q * rows + r] = Int8DotRef(codes + r * dim, queries + q * dim, dim)
/// for q in [0, num_queries) and r in [0, rows), 1 <= num_queries <= 4.
/// One pass over the codes serves every query. On AVX2 the queries are
/// widened to int16 once per call and each register tile holds 2 rows x 4
/// queries (4 x 2 for two queries, 8 x 1 for one): a 16-code chunk of a row
/// is sign-extended once and multiplied against every query with
/// _mm256_madd_epi16. A caller that scans a corpus in steps pays the
/// widening (a heap copy of the queries) once per step: at d = 128,
/// 256-row steps run 1-2% slower than one call on a 4-vCPU AVX2 Xeon,
/// about 25-40 ns a step. Without AVX2 a portable loop runs, chosen once per
/// process (see CpuHasAvx2). Parallelised over fixed row chunks with
/// disjoint writes, so the result is bit-identical at every thread count.
void Int8ScanRows(const int8_t* codes, int64_t rows, int64_t dim,
                  const int8_t* queries, int num_queries, int32_t* out);

/// The one-query scan: out[r] = Int8DotRef(codes + r * dim, query, dim).
void Int8ScanRows(const int8_t* codes, int64_t rows, int64_t dim,
                  const int8_t* query, int32_t* out);

/// Which implementation Int8ScanRows dispatches to: "avx2" or "scalar".
const char* Int8DotIsa();

namespace internal {

/// Int8ScanRows with the portable loop whatever the CPU, so tests can diff
/// it against the reference on an AVX2 host. Not for production callers.
void Int8ScanRowsPortable(const int8_t* codes, int64_t rows, int64_t dim,
                          const int8_t* queries, int num_queries,
                          int32_t* out);

}  // namespace internal

}  // namespace adamine::kernel

#endif  // ADAMINE_KERNEL_INT8DOT_H_
