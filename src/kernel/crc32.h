#ifndef ADAMINE_KERNEL_CRC32_H_
#define ADAMINE_KERNEL_CRC32_H_

#include <cstddef>
#include <cstdint>

namespace adamine::kernel {

/// CRC-32 with the reflected IEEE 802.3 polynomial (0xEDB88320, the zlib,
/// PNG and Ethernet checksum) over a raw running state: the 0xFFFFFFFF pre-
/// and post-conditioning belongs to the caller (io::wire::Crc32). Returns
/// the state after the n bytes at `data`.
///
/// Isa::kPortable runs slicing-by-8. From Isa::kAvx2 up (CpuIsa() grants it
/// only with PCLMULQDQ), a span of 64 bytes or more is folded as four
/// 128-bit lanes with carry-less multiplies and reduced to 32 bits with
/// Barrett's method (Gopal et al., "Fast CRC Computation for Generic
/// Polynomials Using PCLMULQDQ Instruction", Intel 2009); its last
/// n mod 16 bytes take the slicing loop. Every level returns the same
/// value: the CRC is a function of the bytes alone.
uint32_t Crc32Update(uint32_t state, const void* data, size_t n);

/// The state after n zero bytes, state * x^(8n) mod P, in O(log n). The CRC
/// is linear, so for any state s and bytes p[0, n)
///
///   Crc32Update(s, p, n) == Crc32Shift(s, n) ^ Crc32Update(0, p, n),
///
/// which joins a span's CRC to the state before it without reading the
/// span again (zlib's crc32_combine).
uint32_t Crc32Shift(uint32_t state, uint64_t n);

namespace internal {

/// The carry-less path's constants, bit-reflected as its lanes hold them.
/// r1 ... r5 are (x^e mod P), reflected and shifted left once, for the fold
/// distances e = 4*128+32, 4*128-32, 128+32, 128-32 and 64; poly is P
/// itself reflected (33 bits) and mu is floor(x^64 / P) reflected, the
/// Barrett reduction's pair. A test derives each from the polynomial.
struct Crc32FoldConstants {
  uint64_t r1, r2, r3, r4, r5, poly, mu;
};
inline constexpr Crc32FoldConstants kCrc32Fold = {
    0x154442bd4, 0x1c6e41596, 0x1751997d0, 0x0ccaa009e,
    0x163cd6124, 0x1db710641, 0x1f7011641};

}  // namespace internal

}  // namespace adamine::kernel

#endif  // ADAMINE_KERNEL_CRC32_H_
