#ifndef ADAMINE_IO_WIRE_H_
#define ADAMINE_IO_WIRE_H_

#include <cstdint>
#include <iosfwd>
#include <string>

#include "kernel/crc32.h"
#include "util/status.h"

namespace adamine::io::wire {

/// Incremental CRC-32 (IEEE 802.3 polynomial, the zlib/PNG variant) over
/// kernel::Crc32Update, which picks its loop by ISA level. Every on-disk
/// record carries one so that corruption and truncation are detected at
/// load time instead of materialising as garbage tensors.
class Crc32 {
 public:
  void Update(const void* data, size_t n) {
    state_ = kernel::Crc32Update(state_, data, n);
  }
  /// Advances over n bytes without reading them, given their own state from
  /// zero, kernel::Crc32Update(0, data, n): the same as Update(data, n), so
  /// one pass over a span can feed two checksums.
  void Combine(uint32_t span_state, uint64_t n) {
    state_ = kernel::Crc32Shift(state_, n) ^ span_state;
  }
  /// The finalised checksum of everything fed so far (Update may continue
  /// afterwards; value() is side-effect free).
  uint32_t value() const { return state_ ^ 0xFFFFFFFFu; }

 private:
  uint32_t state_ = 0xFFFFFFFFu;
};

/// Little-endian binary writer over an ostream. Every checksummed write
/// feeds the running CRC, and every write call is a registered failure
/// boundary (fault::kSerializeWrite), which is how the crash-simulation
/// tests interrupt a save at each point of the format. After any failed
/// write the underlying stream has failbit/badbit set and further writes
/// are no-ops; callers check ok() (or the stream) once at the end.
class Writer {
 public:
  explicit Writer(std::ostream& os) : os_(os) {}

  /// CRC-tracked writes.
  void WriteBytes(const void* p, size_t n);
  /// WriteBytes that also returns the n bytes' own CRC state from zero
  /// (kernel::Crc32Update(0, p, n)), from the same one pass over them.
  uint32_t WriteBytesCrc(const void* p, size_t n);
  void WriteU8(uint8_t v) { WriteBytes(&v, sizeof(v)); }
  void WriteU32(uint32_t v) { WriteBytes(&v, sizeof(v)); }
  void WriteU64(uint64_t v) { WriteBytes(&v, sizeof(v)); }
  void WriteI64(int64_t v) { WriteBytes(&v, sizeof(v)); }
  void WriteF64(double v) { WriteBytes(&v, sizeof(v)); }

  /// Untracked write, for bytes outside the checksummed region (the leading
  /// magic and the trailing CRC itself).
  void WriteRaw(const void* p, size_t n);

  uint32_t crc() const { return crc_.value(); }
  bool ok() const;

 private:
  std::ostream& os_;
  Crc32 crc_;
};

/// Little-endian binary reader mirroring Writer: checksummed reads feed the
/// running CRC so the caller can compare against the stored checksum after
/// the payload. All reads fail cleanly on truncation with a descriptive
/// kDataLoss Status (wanted vs got byte counts) — never a partial-garbage
/// value and never a CHECK abort, because the bytes may come from an
/// untrusted socket peer (see net::ShardServer), where a torn frame must
/// be survivable.
class Reader {
 public:
  explicit Reader(std::istream& is) : is_(is) {}

  /// CRC-tracked reads.
  Status ReadBytes(void* p, size_t n);
  /// ReadBytes that also returns the n bytes' own CRC state from zero
  /// (kernel::Crc32Update(0, p, n)), from the same one pass over them.
  StatusOr<uint32_t> ReadBytesCrc(void* p, size_t n);
  StatusOr<uint8_t> ReadU8();
  StatusOr<uint32_t> ReadU32();
  StatusOr<uint64_t> ReadU64();
  StatusOr<int64_t> ReadI64();
  StatusOr<double> ReadF64();

  /// Untracked read (magic / stored CRC).
  Status ReadRaw(void* p, size_t n);

  /// Bytes left before EOF if the stream is seekable, -1 otherwise. Used to
  /// reject headers that announce more payload than the file holds *before*
  /// allocating for them.
  int64_t RemainingBytes();

  uint32_t crc() const { return crc_.value(); }

 private:
  std::istream& is_;
  Crc32 crc_;
};

/// Reads `is`'s trailing stored CRC and compares it with `reader.crc()`.
/// Truncation and mismatch both surface as kDataLoss.
Status VerifyCrc(Reader& reader, const std::string& what);

}  // namespace adamine::io::wire

#endif  // ADAMINE_IO_WIRE_H_
