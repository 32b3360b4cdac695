#include "kernel/crc32.h"

#include <array>
#include <bit>
#include <cstring>

#if defined(__x86_64__)
#include <immintrin.h>
#endif

#include "kernel/kernel.h"

namespace adamine::kernel {

namespace {

static_assert(std::endian::native == std::endian::little,
              "the slicing-by-8 CRC and the binary formats assume a "
              "little-endian host");

/// P(x) bit-reflected, its x^32 term implied: bit 31 is x^0, bit 0 x^31.
constexpr uint32_t kPoly = 0xEDB88320u;

/// Slicing-by-8 tables: table[0] is the classic byte-at-a-time table, and
/// table[s] carries each entry of table[s - 1] through one more zero byte,
/// so eight lookups advance the CRC by eight bytes.
using CrcTables = std::array<std::array<uint32_t, 256>, 8>;

constexpr CrcTables BuildCrcTables() {
  CrcTables tables{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = i;
    for (int k = 0; k < 8; ++k) c = (c & 1u) ? kPoly ^ (c >> 1) : c >> 1;
    tables[0][i] = c;
  }
  for (size_t s = 1; s < tables.size(); ++s) {
    for (uint32_t i = 0; i < 256; ++i) {
      const uint32_t prev = tables[s - 1][i];
      tables[s][i] = (prev >> 8) ^ tables[0][prev & 0xFFu];
    }
  }
  return tables;
}

constexpr CrcTables kTables = BuildCrcTables();

uint32_t UpdateSliced(uint32_t c, const unsigned char* bytes, size_t n) {
  const CrcTables& t = kTables;
  for (; n >= 8; bytes += 8, n -= 8) {
    uint32_t lo = 0;
    uint32_t hi = 0;
    std::memcpy(&lo, bytes, sizeof(lo));
    std::memcpy(&hi, bytes + 4, sizeof(hi));
    lo ^= c;
    c = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^
        t[5][(lo >> 16) & 0xFFu] ^ t[4][lo >> 24] ^ t[3][hi & 0xFFu] ^
        t[2][(hi >> 8) & 0xFFu] ^ t[1][(hi >> 16) & 0xFFu] ^ t[0][hi >> 24];
  }
  for (; n > 0; ++bytes, --n) c = t[0][(c ^ *bytes) & 0xFFu] ^ (c >> 8);
  return c;
}

/// a * b mod P in the reflected representation, one bit of a at a time:
/// each step multiplies b by x, a right shift that folds x^32 back in as P.
constexpr uint32_t MulModP(uint32_t a, uint32_t b) {
  uint32_t product = 0;
  for (uint32_t m = 1u << 31; m != 0; m >>= 1) {
    if ((a & m) != 0) product ^= b;
    b = (b & 1u) ? (b >> 1) ^ kPoly : b >> 1;
  }
  return product;
}

/// kZeroBytes[k] = x^(8 * 2^k) mod P: the factor that advances a state
/// over 2^k zero bytes.
constexpr std::array<uint32_t, 64> BuildZeroBytePowers() {
  std::array<uint32_t, 64> powers{};
  powers[0] = 1u << 23;  // x^8.
  for (size_t k = 1; k < powers.size(); ++k) {
    powers[k] = MulModP(powers[k - 1], powers[k - 1]);
  }
  return powers;
}

constexpr std::array<uint32_t, 64> kZeroBytes = BuildZeroBytePowers();

#if defined(__x86_64__)

[[gnu::always_inline]] __attribute__((target("avx2,pclmul"))) inline __m128i
Load16(const unsigned char* p) {
  return _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
}

/// Carries the 128-bit remainder `x` a fold distance forward (its low half
/// times k.lo, its high half times k.hi) and adds the data found there.
[[gnu::always_inline]] __attribute__((target("avx2,pclmul"))) inline __m128i
Fold(__m128i x, __m128i k, __m128i data) {
  return _mm_xor_si128(_mm_xor_si128(_mm_clmulepi64_si128(x, k, 0x00),
                                     _mm_clmulepi64_si128(x, k, 0x11)),
                       data);
}

/// The state after n bytes, n >= 64 and a multiple of 16: four lanes fold
/// 64 bytes per step, then one lane takes the other three and every
/// further 16 bytes, and the 128-bit remainder shrinks to 64 bits and
/// then, by Barrett's method, to the 32-bit CRC.
__attribute__((target("avx2,pclmul"))) uint32_t UpdateFolded(
    uint32_t state, const unsigned char* p, size_t n) {
  using internal::kCrc32Fold;
  const __m128i k12 = _mm_set_epi64x(static_cast<int64_t>(kCrc32Fold.r2),
                                     static_cast<int64_t>(kCrc32Fold.r1));
  const __m128i k34 = _mm_set_epi64x(static_cast<int64_t>(kCrc32Fold.r4),
                                     static_cast<int64_t>(kCrc32Fold.r3));
  const __m128i k5 = _mm_set_epi64x(0, static_cast<int64_t>(kCrc32Fold.r5));
  const __m128i barrett =
      _mm_set_epi64x(static_cast<int64_t>(kCrc32Fold.mu),
                     static_cast<int64_t>(kCrc32Fold.poly));
  const __m128i low32 = _mm_set_epi32(0, -1, 0, -1);  // Each qword's low half.

  __m128i x0 = _mm_xor_si128(Load16(p), _mm_cvtsi32_si128(
                                            static_cast<int32_t>(state)));
  __m128i x1 = Load16(p + 16);
  __m128i x2 = Load16(p + 32);
  __m128i x3 = Load16(p + 48);
  p += 64;
  n -= 64;
  for (; n >= 64; p += 64, n -= 64) {
    x0 = Fold(x0, k12, Load16(p));
    x1 = Fold(x1, k12, Load16(p + 16));
    x2 = Fold(x2, k12, Load16(p + 32));
    x3 = Fold(x3, k12, Load16(p + 48));
  }
  x0 = Fold(x0, k34, x1);
  x0 = Fold(x0, k34, x2);
  x0 = Fold(x0, k34, x3);
  for (; n >= 16; p += 16, n -= 16) x0 = Fold(x0, k34, Load16(p));

  // 128 -> 96 bits (the low qword times x^(128-32)), then 96 -> 64 (the
  // low 32 bits times x^64).
  x0 = _mm_xor_si128(_mm_srli_si128(x0, 8),
                     _mm_clmulepi64_si128(x0, k34, 0x10));
  x0 = _mm_xor_si128(_mm_srli_si128(x0, 4),
                     _mm_clmulepi64_si128(_mm_and_si128(x0, low32), k5, 0x00));
  // Barrett: the quotient's low 32 bits times mu, times P, cancel all but
  // the remainder, which lands in the second dword.
  __m128i t = _mm_clmulepi64_si128(_mm_and_si128(x0, low32), barrett, 0x10);
  t = _mm_clmulepi64_si128(_mm_and_si128(t, low32), barrett, 0x00);
  return static_cast<uint32_t>(_mm_extract_epi32(_mm_xor_si128(x0, t), 1));
}

#endif  // defined(__x86_64__)

}  // namespace

uint32_t Crc32Update(uint32_t state, const void* data, size_t n) {
  const auto* bytes = static_cast<const unsigned char*>(data);
#if defined(__x86_64__)
  if (n >= 64 && ActiveIsa() >= Isa::kAvx2) {
    const size_t folded = n & ~size_t{15};
    state = UpdateFolded(state, bytes, folded);
    bytes += folded;
    n -= folded;
  }
#endif
  return UpdateSliced(state, bytes, n);
}

uint32_t Crc32Shift(uint32_t state, uint64_t n) {
  for (size_t k = 0; n != 0; ++k, n >>= 1) {
    if ((n & 1) != 0) state = MulModP(kZeroBytes[k], state);
  }
  return state;
}

}  // namespace adamine::kernel
