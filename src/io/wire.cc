#include "io/wire.h"

#include <istream>
#include <ostream>

#include "util/fault.h"

namespace adamine::io::wire {

void Writer::WriteBytes(const void* p, size_t n) {
  WriteRaw(p, n);
  if (os_) crc_.Update(p, n);
}

uint32_t Writer::WriteBytesCrc(const void* p, size_t n) {
  WriteRaw(p, n);
  const uint32_t span = kernel::Crc32Update(0, p, n);
  if (os_) crc_.Combine(span, n);
  return span;
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
  ADAMINE_RETURN_IF_ERROR(ReadRaw(p, n));
  crc_.Update(p, n);
  return Status::Ok();
}

StatusOr<uint32_t> Reader::ReadBytesCrc(void* p, size_t n) {
  ADAMINE_RETURN_IF_ERROR(ReadRaw(p, n));
  const uint32_t span = kernel::Crc32Update(0, p, n);
  crc_.Combine(span, n);
  return span;
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
