#include "io/wire.h"

#include <array>
#include <bit>
#include <cstring>
#include <istream>
#include <ostream>

#include "util/fault.h"

namespace adamine::io::wire {

namespace {

static_assert(std::endian::native == std::endian::little,
              "the slicing-by-8 CRC and the binary formats assume a "
              "little-endian host");

/// Slicing-by-8 tables for the reflected IEEE polynomial: table[0] is the
/// classic byte-at-a-time table, and table[s] carries each entry of
/// table[s - 1] through one more zero byte, so eight lookups advance the
/// CRC by eight bytes.
using CrcTables = std::array<std::array<uint32_t, 256>, 8>;

CrcTables BuildCrcTables() {
  CrcTables tables{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
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

const CrcTables& Tables() {
  static const CrcTables tables = BuildCrcTables();
  return tables;
}

}  // namespace

void Crc32::Update(const void* data, size_t n) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  const CrcTables& t = Tables();
  uint32_t c = state_;
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
  for (; n > 0; ++bytes, --n) {
    c = t[0][(c ^ *bytes) & 0xFFu] ^ (c >> 8);
  }
  state_ = c;
}

void Writer::WriteBytes(const void* p, size_t n) {
  if (fault::ShouldFail(fault::kSerializeWrite)) {
    os_.setstate(std::ios::badbit);
  }
  if (!os_) return;
  os_.write(static_cast<const char*>(p),
            static_cast<std::streamsize>(n));
  if (os_) crc_.Update(p, n);
}

void Writer::WriteRaw(const void* p, size_t n) {
  if (fault::ShouldFail(fault::kSerializeWrite)) {
    os_.setstate(std::ios::badbit);
  }
  if (!os_) return;
  os_.write(static_cast<const char*>(p),
            static_cast<std::streamsize>(n));
}

bool Writer::ok() const { return static_cast<bool>(os_); }

Status Reader::ReadBytes(void* p, size_t n) {
  is_.read(static_cast<char*>(p), static_cast<std::streamsize>(n));
  if (!is_) {
    return Status::DataLoss(
        "truncated stream: wanted " + std::to_string(n) + " bytes, got " +
        std::to_string(is_.gcount()));
  }
  crc_.Update(p, n);
  return Status::Ok();
}

StatusOr<uint8_t> Reader::ReadU8() {
  uint8_t v = 0;
  ADAMINE_RETURN_IF_ERROR(ReadBytes(&v, sizeof(v)));
  return v;
}

StatusOr<uint32_t> Reader::ReadU32() {
  uint32_t v = 0;
  ADAMINE_RETURN_IF_ERROR(ReadBytes(&v, sizeof(v)));
  return v;
}

StatusOr<uint64_t> Reader::ReadU64() {
  uint64_t v = 0;
  ADAMINE_RETURN_IF_ERROR(ReadBytes(&v, sizeof(v)));
  return v;
}

StatusOr<int64_t> Reader::ReadI64() {
  int64_t v = 0;
  ADAMINE_RETURN_IF_ERROR(ReadBytes(&v, sizeof(v)));
  return v;
}

StatusOr<double> Reader::ReadF64() {
  double v = 0.0;
  ADAMINE_RETURN_IF_ERROR(ReadBytes(&v, sizeof(v)));
  return v;
}

Status Reader::ReadRaw(void* p, size_t n) {
  is_.read(static_cast<char*>(p), static_cast<std::streamsize>(n));
  if (!is_) {
    return Status::DataLoss(
        "truncated stream: wanted " + std::to_string(n) + " bytes, got " +
        std::to_string(is_.gcount()));
  }
  return Status::Ok();
}

int64_t Reader::RemainingBytes() {
  const std::istream::pos_type here = is_.tellg();
  if (here == std::istream::pos_type(-1)) return -1;
  is_.seekg(0, std::ios::end);
  const std::istream::pos_type end = is_.tellg();
  is_.seekg(here);
  if (end == std::istream::pos_type(-1) || !is_) {
    is_.clear();
    is_.seekg(here);
    return -1;
  }
  return static_cast<int64_t>(end - here);
}

Status VerifyCrc(Reader& reader, const std::string& what) {
  const uint32_t computed = reader.crc();
  uint32_t stored = 0;
  if (!reader.ReadRaw(&stored, sizeof(stored)).ok()) {
    return Status::DataLoss("truncated " + what + " (missing CRC)");
  }
  if (stored != computed) {
    return Status::DataLoss(what + " CRC mismatch (corrupt or torn bytes)");
  }
  return Status::Ok();
}

}  // namespace adamine::io::wire
