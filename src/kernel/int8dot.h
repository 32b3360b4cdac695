#ifndef ADAMINE_KERNEL_INT8DOT_H_
#define ADAMINE_KERNEL_INT8DOT_H_

#include <cstdint>

namespace adamine::kernel {

/// Integer dot products over int8 codes — the scoring inner loop of the
/// quantized backend (src/quant/). All arithmetic is exact int32, so unlike
/// the float kernels there is no accumulation-order subtlety: every
/// implementation below returns the same bits by construction, and the
/// ref-vs-fast harness (tests/quant_test.cc) pins that across lengths,
/// alignments, adversarial code patterns, query counts, thread counts and
/// ISA levels.
///
/// Overflow contract: |a[i]|, |b[i]| <= 127, so each product is <= 16129 and
/// an int32 accumulator is safe for n <= 2^31 / 16129 ~= 133k elements.
/// Callers (the quantizer) must enforce n <= kInt8DotMaxElems.
inline constexpr int64_t kInt8DotMaxElems = 1 << 17;  // 131072, under the bound

/// The most queries one Int8ScanRows call scores: one AMX-INT8 pass.
inline constexpr int kInt8ScanMaxQueries = 16;

/// Scalar reference: a plain ascending loop, kept free of manual unrolling
/// so it stays the obviously-correct baseline the fast path is diffed
/// against (ggml's test-backend-ops methodology).
int32_t Int8DotRef(const int8_t* a, const int8_t* b, int64_t n);

/// out[q * rows + r] = Int8DotRef(codes + r * dim, queries + q * dim, dim)
/// for q in [0, num_queries) and r in [0, rows), 1 <= num_queries <= 16.
/// The tile is picked from ActiveIsa() at each call:
///   - kAmx, for two or more queries (one runs the AVX-VNNI tile, which is
///     faster there): one pass over the codes serves every query. TDPBSSD
///     multiplies 16 code rows x 64 codes, loaded in place with stride dim,
///     by the queries packed once per call into VNNI order, and the 16 x Q
///     int32 result is transposed in registers into out (stored as it is
///     for one query). The last multiple of four codes past the 64-code
///     chunks takes a narrower tile, and the last rows, fewer than 16, the
///     AVX-VNNI tile, so no tile reads past the codes. The tile registers
///     are released before each chunk of rows returns;
///   - kAvx2Vnni and kAvx512: 32-code chunks through
///     _mm256_dpbusd_avx_epi32, with the row made unsigned (c + 128) and
///     128 * sum(q) subtracted in wrapping arithmetic, which is exact (see
///     int8dot.cc);
///   - kAvx2: 16-code chunks sign-extended to int16 against queries widened
///     once per call (a heap copy: a caller that scans a corpus in steps
///     pays it per step), through _mm256_madd_epi16;
///   - kPortable: a plain loop.
/// Below kAmx the queries go in groups of up to four, each group one pass
/// over a chunk of rows: a register tile holds 2 rows x 4 queries (4 x 2
/// for two queries, 8 x 1 for one), and a chunk of a row is loaded once
/// and multiplied against every query of the group. The codes past the
/// last full chunk are added on the scalar side. Parallelised over fixed
/// row chunks with disjoint writes, so the result is bit-identical at
/// every thread count and every level.
void Int8ScanRows(const int8_t* codes, int64_t rows, int64_t dim,
                  const int8_t* queries, int num_queries, int32_t* out);

/// The one-query scan: out[r] = Int8DotRef(codes + r * dim, query, dim).
void Int8ScanRows(const int8_t* codes, int64_t rows, int64_t dim,
                  const int8_t* query, int32_t* out);

/// Which tile Int8ScanRows dispatches to now: "amx-int8", "avx2+vnni",
/// "avx2" or "scalar" (the portable loop). At "amx-int8" a one-query call
/// still runs the AVX-VNNI tile.
const char* Int8DotIsa();

}  // namespace adamine::kernel

#endif  // ADAMINE_KERNEL_INT8DOT_H_
