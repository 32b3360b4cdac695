#include "io/serialize.h"

#include <fcntl.h>
#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <istream>
#include <memory>
#include <ostream>
#include <sstream>

#include "util/fault.h"

namespace adamine::io {

namespace {

constexpr char kTensorMagic[4] = {'A', 'D', 'M', 'T'};
constexpr char kBundleMagic[4] = {'A', 'D', 'M', 'B'};

/// Hard ceiling on elements per tensor, a backstop for non-seekable streams
/// where the header cannot be checked against the file size (2^31 floats =
/// 8 GiB, far beyond anything this library produces).
constexpr int64_t kMaxTensorElems = int64_t{1} << 31;
constexpr int64_t kMaxExtent = int64_t{1} << 32;
constexpr int64_t kMaxBundleEntries = 1'000'000;
constexpr int64_t kMaxNameLen = 4096;

Status ExpectMagic(wire::Reader& reader, const char expected[4],
                   const char* what) {
  char magic[4];
  if (!reader.ReadRaw(magic, 4).ok() ||
      !std::equal(magic, magic + 4, expected)) {
    return Status::InvalidArgument(std::string("bad magic for ") + what);
  }
  return Status::Ok();
}

Status ExpectVersion(wire::Reader& reader, const char* what) {
  auto version = reader.ReadU32();
  if (!version.ok()) return version.status();
  if (*version != kFormatVersion) {
    return Status::InvalidArgument(
        std::string("unsupported ") + what + " format version " +
        std::to_string(*version) + " (expected " +
        std::to_string(kFormatVersion) + ")");
  }
  return Status::Ok();
}

/// The per-record checksum over version, rank, extents and payload. The
/// payload enters as its own CRC state from zero, which the writer and the
/// reader each take from the one pass that also feeds the stream's running
/// CRC.
uint32_t TensorRecordCrc(const Tensor& tensor, uint32_t payload_state) {
  wire::Crc32 crc;
  const uint32_t version = kFormatVersion;
  crc.Update(&version, sizeof(version));
  const int64_t ndim = tensor.ndim();
  crc.Update(&ndim, sizeof(ndim));
  for (int64_t d = 0; d < ndim; ++d) {
    const int64_t extent = tensor.dim(d);
    crc.Update(&extent, sizeof(extent));
  }
  crc.Combine(payload_state,
              static_cast<uint64_t>(tensor.numel()) * sizeof(float));
  return crc.value();
}

/// fsyncs `path` (a file opened read-only, or a directory with
/// O_DIRECTORY), honoring the kIoFsync fault point. Durability, not
/// atomicity: rename alone orders nothing against power loss.
Status SyncPath(const std::string& path, bool directory) {
  const int flags = directory ? (O_RDONLY | O_DIRECTORY) : O_RDONLY;
  const int fd = ::open(path.c_str(), flags | O_CLOEXEC);
  if (fd < 0) {
    return Status::Internal("cannot open " + path + " for fsync");
  }
  if (fault::ShouldFail(fault::kIoFsync) || ::fsync(fd) != 0) {
    ::close(fd);
    return Status::Internal("fsync failed for " + path);
  }
  ::close(fd);
  return Status::Ok();
}

std::string ParentDirOf(const std::string& path) {
  const size_t slash = path.find_last_of('/');
  if (slash == std::string::npos) return ".";
  if (slash == 0) return "/";
  return path.substr(0, slash);
}

}  // namespace

Status WriteTensorRecord(wire::Writer& writer, const Tensor& tensor) {
  if (!tensor.defined()) {
    return Status::InvalidArgument("cannot serialise an undefined tensor");
  }
  writer.WriteBytes(kTensorMagic, 4);
  writer.WriteU32(kFormatVersion);
  writer.WriteI64(tensor.ndim());
  for (int64_t d = 0; d < tensor.ndim(); ++d) writer.WriteI64(tensor.dim(d));
  const uint32_t payload = writer.WriteBytesCrc(
      tensor.data(), static_cast<size_t>(tensor.numel()) * sizeof(float));
  writer.WriteU32(TensorRecordCrc(tensor, payload));
  if (!writer.ok()) return Status::Internal("stream write failed");
  return Status::Ok();
}

StatusOr<Tensor> ReadTensorRecord(wire::Reader& reader) {
  char magic[4];
  ADAMINE_RETURN_IF_ERROR(reader.ReadBytes(magic, 4));
  if (!std::equal(magic, magic + 4, kTensorMagic)) {
    return Status::InvalidArgument("bad magic for tensor");
  }
  auto version = reader.ReadU32();
  if (!version.ok()) return version.status();
  if (*version != kFormatVersion) {
    return Status::InvalidArgument(
        "unsupported tensor format version " + std::to_string(*version) +
        " (expected " + std::to_string(kFormatVersion) + ")");
  }
  auto ndim = reader.ReadI64();
  if (!ndim.ok()) return ndim.status();
  if (*ndim <= 0 || *ndim > 8) {
    return Status::InvalidArgument("implausible tensor rank");
  }
  std::vector<int64_t> shape;
  int64_t numel = 1;
  for (int64_t d = 0; d < *ndim; ++d) {
    auto extent = reader.ReadI64();
    if (!extent.ok()) return extent.status();
    if (*extent <= 0 || *extent > kMaxExtent) {
      return Status::InvalidArgument("implausible tensor extent");
    }
    if (numel > kMaxTensorElems / *extent) {
      return Status::InvalidArgument("implausible tensor element count");
    }
    shape.push_back(*extent);
    numel *= *extent;
  }
  // Check the announced payload against the bytes actually present before
  // allocating; a flipped bit in a dim must not trigger a huge allocation.
  const int64_t remaining = reader.RemainingBytes();
  if (remaining >= 0 &&
      numel > remaining / static_cast<int64_t>(sizeof(float))) {
    return Status::DataLoss(
        "tensor header announces more data than the stream holds");
  }
  Tensor tensor(shape);
  auto payload = reader.ReadBytesCrc(
      tensor.data(), static_cast<size_t>(numel) * sizeof(float));
  if (!payload.ok()) return payload.status();
  auto stored_crc = reader.ReadU32();
  if (!stored_crc.ok()) {
    return Status::DataLoss("truncated tensor record (missing CRC)");
  }
  if (*stored_crc != TensorRecordCrc(tensor, *payload)) {
    return Status::DataLoss("tensor record CRC mismatch (corrupt)");
  }
  return tensor;
}

Status WriteTensor(std::ostream& os, const Tensor& tensor) {
  wire::Writer writer(os);
  return WriteTensorRecord(writer, tensor);
}

StatusOr<Tensor> ReadTensor(std::istream& is) {
  wire::Reader reader(is);
  return ReadTensorRecord(reader);
}

Status WriteTensorBundle(std::ostream& os,
                         const std::vector<NamedTensor>& bundle) {
  wire::Writer writer(os);
  writer.WriteRaw(kBundleMagic, 4);
  writer.WriteU32(kFormatVersion);
  writer.WriteI64(static_cast<int64_t>(bundle.size()));
  for (const auto& entry : bundle) {
    writer.WriteI64(static_cast<int64_t>(entry.name.size()));
    writer.WriteBytes(entry.name.data(), entry.name.size());
    ADAMINE_RETURN_IF_ERROR(WriteTensorRecord(writer, entry.tensor));
  }
  const uint32_t crc = writer.crc();
  writer.WriteRaw(&crc, sizeof(crc));
  if (!writer.ok()) return Status::Internal("stream write failed");
  return Status::Ok();
}

StatusOr<std::vector<NamedTensor>> ReadTensorBundle(std::istream& is) {
  wire::Reader reader(is);
  ADAMINE_RETURN_IF_ERROR(ExpectMagic(reader, kBundleMagic, "bundle"));
  ADAMINE_RETURN_IF_ERROR(ExpectVersion(reader, "bundle"));
  auto count = reader.ReadI64();
  if (!count.ok()) return count.status();
  if (*count < 0 || *count > kMaxBundleEntries) {
    return Status::InvalidArgument("implausible bundle entry count");
  }
  // The smallest possible entry is well over 16 bytes; reject counts the
  // stream cannot possibly hold before reserving for them.
  const int64_t remaining = reader.RemainingBytes();
  if (remaining >= 0 && *count > remaining / 16) {
    return Status::InvalidArgument(
        "bundle header announces more entries than the stream holds");
  }
  std::vector<NamedTensor> bundle;
  bundle.reserve(static_cast<size_t>(std::min<int64_t>(*count, 4096)));
  for (int64_t i = 0; i < *count; ++i) {
    auto name_len = reader.ReadI64();
    if (!name_len.ok()) return name_len.status();
    if (*name_len < 0 || *name_len > kMaxNameLen) {
      return Status::InvalidArgument("implausible name length");
    }
    std::string name(static_cast<size_t>(*name_len), '\0');
    ADAMINE_RETURN_IF_ERROR(
        reader.ReadBytes(name.data(), static_cast<size_t>(*name_len)));
    auto tensor = ReadTensorRecord(reader);
    if (!tensor.ok()) return tensor.status();
    bundle.push_back({std::move(name), std::move(tensor.value())});
  }
  ADAMINE_RETURN_IF_ERROR(wire::VerifyCrc(reader, "bundle"));
  return bundle;
}

Status AtomicWriteFile(const std::string& path,
                       const std::function<Status(std::ostream&)>& write) {
  const std::string tmp = path + ".tmp";
  Status status = Status::Ok();
  {
    std::ofstream file(tmp, std::ios::binary | std::ios::trunc);
    if (!file) {
      return Status::NotFound("cannot open for writing: " + tmp);
    }
    // Under an armed byte-budget fault, interpose a streambuf that fails
    // all writes past the budget — simulating a crash / full disk partway
    // through the file.
    std::unique_ptr<fault::FaultInjectingStreambuf> faulty;
    std::ostream os(file.rdbuf());
    const int64_t budget = fault::ArmedSkip(fault::kAtomicWriteBytes);
    if (budget >= 0) {
      faulty = std::make_unique<fault::FaultInjectingStreambuf>(file.rdbuf(),
                                                                budget);
      os.rdbuf(faulty.get());
    }
    status = write(os);
    os.flush();
    if (status.ok() && !os) {
      status = Status::Internal("write failed for " + tmp);
    }
    file.flush();
    if (status.ok() && !file) {
      status = Status::Internal("flush failed for " + tmp);
    }
  }
  if (!status.ok()) {
    std::remove(tmp.c_str());
    return status;
  }
  // The temp file's bytes must be on stable storage before the rename makes
  // them reachable under `path` — otherwise a power loss can publish a
  // zero-length or partial file through a perfectly durable rename.
  status = SyncPath(tmp, /*directory=*/false);
  if (!status.ok()) {
    std::remove(tmp.c_str());
    return status;
  }
  if (fault::ShouldFail(fault::kAtomicRename)) {
    // A simulated crash between flush and rename: the temp file stays
    // behind (as it would after a real crash) and the target is untouched.
    return Status::Internal("injected crash before rename of " + tmp);
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return Status::Internal("cannot rename " + tmp + " to " + path);
  }
  // The rename itself lives in the directory; without this sync a crash can
  // roll the directory back to the pre-rename state even though the file's
  // data was synced. The renamed file is already in place, so on failure we
  // report the lost durability guarantee but leave the file alone.
  return SyncPath(ParentDirOf(path), /*directory=*/true);
}

Status SaveTensorBundle(const std::string& path,
                        const std::vector<NamedTensor>& bundle) {
  return AtomicWriteFile(path, [&bundle](std::ostream& os) {
    return WriteTensorBundle(os, bundle);
  });
}

StatusOr<std::vector<NamedTensor>> LoadTensorBundle(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  if (!is) return Status::NotFound("cannot open for reading: " + path);
  if (fault::ShouldFail(fault::kServeLoadRead)) {
    // Simulate a torn read (truncated download, partial page-in): parse a
    // half-length copy of the file. The bundle reader's bounds and CRC
    // validation must turn this into a recoverable Status, never a crash
    // or a garbage tensor.
    std::ostringstream buffer;
    buffer << is.rdbuf();
    std::string bytes = buffer.str();
    bytes.resize(bytes.size() / 2);
    std::istringstream torn(bytes);
    auto result = ReadTensorBundle(torn);
    if (result.ok()) {
      return Status::DataLoss("torn read of " + path +
                              " parsed cleanly (should be impossible)");
    }
    return Status::DataLoss("torn read of " + path + ": " +
                            result.status().ToString());
  }
  return ReadTensorBundle(is);
}

Status WriteVocabulary(std::ostream& os, const text::Vocabulary& vocab) {
  for (int64_t id = 0; id < vocab.size(); ++id) {
    os << vocab.WordOf(id) << '\t' << vocab.CountOf(id) << '\n';
  }
  if (!os) return Status::Internal("stream write failed");
  return Status::Ok();
}

StatusOr<text::Vocabulary> ReadVocabulary(std::istream& is) {
  text::Vocabulary vocab;
  std::string line;
  while (std::getline(is, line)) {
    if (line.empty()) continue;
    const size_t tab = line.find('\t');
    if (tab == std::string::npos) {
      return Status::InvalidArgument("vocabulary line missing tab: " + line);
    }
    const std::string word = line.substr(0, tab);
    int64_t count = 0;
    try {
      count = std::stoll(line.substr(tab + 1));
    } catch (...) {
      return Status::InvalidArgument("bad count in line: " + line);
    }
    if (word.empty() || count <= 0) {
      return Status::InvalidArgument("bad vocabulary entry: " + line);
    }
    vocab.AddCount(word, count);
  }
  return vocab;
}

}  // namespace adamine::io
