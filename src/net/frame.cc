#include "net/frame.h"

#include <cmath>
#include <cstring>
#include <sstream>

#include "io/wire.h"
#include "util/check.h"

namespace adamine::net {

namespace {

/// Hard sanity cap on k: a frame announcing a larger top-k than any sane
/// deployment is garbage, not a big request.
constexpr int64_t kMaxK = 1 << 20;

/// One hit of a query response on the wire: i64 index + f32 score.
constexpr size_t kHitBytes = 12;

void PutU32(std::string* out, uint32_t v) {
  out->append(reinterpret_cast<const char*>(&v), sizeof(v));
}

uint32_t GetU32(const char* p) {
  uint32_t v = 0;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

/// Wraps an encoded payload into a complete frame: header, payload, and a
/// CRC-32 over everything after the magic (io::wire's checksum), so torn or
/// bit-flipped frames are rejected before their payload is interpreted.
std::string WrapFrame(MessageType type, const std::string& payload) {
  // The length field is a u32; silently truncating a larger payload would
  // emit a frame whose announced length disagrees with its bytes — garbage
  // the peer rightly cuts the connection over. Encoding such a payload is a
  // caller bug (the assembler would never accept it anyway), so fail loudly
  // at the source.
  ADAMINE_CHECK_MSG(payload.size() <= kMaxFramePayload,
                    "frame payload of " << payload.size()
                                        << " bytes exceeds kMaxFramePayload ("
                                        << kMaxFramePayload << ")");
  std::string out;
  out.reserve(kFrameHeaderBytes + payload.size() + kFrameTrailerBytes);
  out.append(kFrameMagic, sizeof(kFrameMagic));
  out.push_back(static_cast<char>(kProtocolVersion));
  out.push_back(static_cast<char>(type));
  PutU32(&out, static_cast<uint32_t>(payload.size()));
  out += payload;
  io::wire::Crc32 crc;
  crc.Update(out.data() + sizeof(kFrameMagic),
             out.size() - sizeof(kFrameMagic));
  PutU32(&out, crc.value());
  return out;
}

/// Reads a payload in place, front to back. A read past the end fails
/// with io::wire::Reader's kDataLoss message.
class PayloadCursor {
 public:
  explicit PayloadCursor(const std::string& payload)
      : at_(payload.data()), end_(payload.data() + payload.size()) {}

  /// kDataLoss unless at least `n` bytes are left.
  Status Need(size_t n) const {
    const size_t left = static_cast<size_t>(end_ - at_);
    if (n <= left) return Status::Ok();
    return Status::DataLoss("truncated stream: wanted " + std::to_string(n) +
                            " bytes, got " + std::to_string(left));
  }

  /// Copies the next `n` bytes to `p`; the caller has checked Need.
  void Take(void* p, size_t n) {
    std::memcpy(p, at_, n);
    at_ += n;
  }

  Status Read(void* p, size_t n) {
    ADAMINE_RETURN_IF_ERROR(Need(n));
    Take(p, n);
    return Status::Ok();
  }

 private:
  const char* at_;
  const char* end_;
};

bool ValidType(uint8_t type) {
  return type >= static_cast<uint8_t>(MessageType::kQueryRequest) &&
         type <= static_cast<uint8_t>(MessageType::kInfoResponse);
}

}  // namespace

std::string EncodeQueryRequest(const QueryRequest& request) {
  std::ostringstream os;
  io::wire::Writer writer(os);
  writer.WriteU64(request.request_id);
  writer.WriteI64(request.k);
  writer.WriteF64(request.deadline_ms);
  writer.WriteI64(request.queries.rows());
  writer.WriteI64(request.queries.cols());
  // The frame trailer is the only checksum a frame carries, so the bulk of
  // the payload skips the Writer's running CRC (the same bytes either way).
  writer.WriteRaw(request.queries.data(),
                  static_cast<size_t>(request.queries.numel()) *
                      sizeof(float));
  return WrapFrame(MessageType::kQueryRequest, os.str());
}

std::string EncodeQueryResponse(const QueryResponse& response) {
  std::ostringstream os;
  io::wire::Writer writer(os);
  writer.WriteU64(response.request_id);
  writer.WriteU32(static_cast<uint32_t>(response.status.code()));
  const std::string& message = response.status.message();
  writer.WriteU32(static_cast<uint32_t>(message.size()));
  writer.WriteBytes(message.data(), message.size());
  if (response.status.ok()) {
    // The rows go out as one block: per row an i64 hit count, then per hit
    // an i64 index and an f32 score, built in memory and written once.
    size_t bytes = sizeof(int64_t);
    for (const std::vector<serve::ScoredHit>& row : response.results) {
      bytes += sizeof(int64_t) + row.size() * kHitBytes;
    }
    std::string block(bytes, '\0');
    char* out = block.data();
    const auto put = [&out](const void* p, size_t n) {
      std::memcpy(out, p, n);
      out += n;
    };
    const int64_t rows = static_cast<int64_t>(response.results.size());
    put(&rows, sizeof(rows));
    for (const std::vector<serve::ScoredHit>& row : response.results) {
      const int64_t count = static_cast<int64_t>(row.size());
      put(&count, sizeof(count));
      for (const serve::ScoredHit& hit : row) {
        put(&hit.index, sizeof(hit.index));
        put(&hit.score, sizeof(hit.score));
      }
    }
    writer.WriteRaw(block.data(), block.size());
  }
  return WrapFrame(MessageType::kQueryResponse, os.str());
}

std::string EncodeInfoRequest(uint64_t request_id) {
  std::ostringstream os;
  io::wire::Writer writer(os);
  writer.WriteU64(request_id);
  return WrapFrame(MessageType::kInfoRequest, os.str());
}

std::string EncodeInfoResponse(const InfoResponse& response) {
  std::ostringstream os;
  io::wire::Writer writer(os);
  writer.WriteU64(response.request_id);
  writer.WriteI64(response.rows);
  writer.WriteI64(response.dim);
  return WrapFrame(MessageType::kInfoResponse, os.str());
}

StatusOr<QueryRequest> DecodeQueryRequest(const std::string& payload) {
  std::istringstream is(payload);
  io::wire::Reader reader(is);
  QueryRequest request;
  // Fixed header: id, k, deadline, rows, cols = 8 + 8 + 8 + 8 + 8 bytes.
  constexpr size_t kFixed = 40;
  auto id = reader.ReadU64();
  if (!id.ok()) return id.status();
  request.request_id = *id;
  auto k = reader.ReadI64();
  if (!k.ok()) return k.status();
  if (*k <= 0 || *k > kMaxK) {
    return Status::DataLoss("query request: implausible k " +
                            std::to_string(*k));
  }
  request.k = *k;
  auto deadline = reader.ReadF64();
  if (!deadline.ok()) return deadline.status();
  if (!std::isfinite(*deadline) || *deadline < 0.0) {
    return Status::DataLoss("query request: corrupt deadline");
  }
  request.deadline_ms = *deadline;
  auto rows = reader.ReadI64();
  if (!rows.ok()) return rows.status();
  auto cols = reader.ReadI64();
  if (!cols.ok()) return cols.status();
  if (payload.size() < kFixed || (payload.size() - kFixed) % sizeof(float)) {
    return Status::DataLoss("query request: payload not float-aligned");
  }
  // The announced shape must account for the remaining bytes *exactly*
  // (division sidesteps rows*cols overflow on hostile extents), and it is
  // validated before anything is allocated for it.
  const int64_t floats =
      static_cast<int64_t>((payload.size() - kFixed) / sizeof(float));
  if (*rows <= 0 || *cols <= 0 || floats % *cols != 0 ||
      floats / *cols != *rows) {
    return Status::DataLoss(
        "query request: announced batch [" + std::to_string(*rows) + ", " +
        std::to_string(*cols) + "] does not match " +
        std::to_string(floats) + " payload floats");
  }
  request.queries = Tensor({*rows, *cols});
  // FrameAssembler already checked the trailer CRC; skip the running one.
  ADAMINE_RETURN_IF_ERROR(reader.ReadRaw(
      request.queries.data(), static_cast<size_t>(floats) * sizeof(float)));
  return request;
}

StatusOr<QueryResponse> DecodeQueryResponse(const std::string& payload) {
  // Read in place, not through a stream Reader: a 64-row response carries
  // 640 hits, and the frame trailer already covers every byte.
  PayloadCursor in(payload);
  QueryResponse response;
  ADAMINE_RETURN_IF_ERROR(
      in.Read(&response.request_id, sizeof(response.request_id)));
  uint32_t code = 0;
  ADAMINE_RETURN_IF_ERROR(in.Read(&code, sizeof(code)));
  if (code >= static_cast<uint32_t>(kNumStatusCodes)) {
    return Status::DataLoss("query response: unknown status code " +
                            std::to_string(code));
  }
  uint32_t message_len = 0;
  ADAMINE_RETURN_IF_ERROR(in.Read(&message_len, sizeof(message_len)));
  if (message_len > payload.size()) {
    return Status::DataLoss("query response: implausible message length");
  }
  std::string message(message_len, '\0');
  ADAMINE_RETURN_IF_ERROR(in.Read(message.data(), message_len));
  const StatusCode status_code = static_cast<StatusCode>(code);
  if (status_code != StatusCode::kOk) {
    response.status = Status(status_code, std::move(message));
    return response;
  }
  int64_t rows = 0;
  ADAMINE_RETURN_IF_ERROR(in.Read(&rows, sizeof(rows)));
  // Every row costs at least its 8-byte count on the wire; a larger
  // announcement than the payload can hold is garbage, caught before the
  // allocation.
  if (rows < 0 || static_cast<uint64_t>(rows) > payload.size() / 8) {
    return Status::DataLoss("query response: implausible row count " +
                            std::to_string(rows));
  }
  response.results.resize(static_cast<size_t>(rows));
  for (std::vector<serve::ScoredHit>& row : response.results) {
    int64_t count = 0;
    ADAMINE_RETURN_IF_ERROR(in.Read(&count, sizeof(count)));
    if (count < 0 ||
        static_cast<uint64_t>(count) > payload.size() / kHitBytes) {
      return Status::DataLoss("query response: implausible hit count " +
                              std::to_string(count));
    }
    // The hit-count bound: all of the row's hits are in the payload, so
    // the unchecked reads below stay inside it.
    ADAMINE_RETURN_IF_ERROR(in.Need(static_cast<size_t>(count) * kHitBytes));
    row.resize(static_cast<size_t>(count));
    for (serve::ScoredHit& hit : row) {
      in.Take(&hit.index, sizeof(hit.index));
      in.Take(&hit.score, sizeof(hit.score));
    }
  }
  return response;
}

StatusOr<uint64_t> DecodeInfoRequest(const std::string& payload) {
  std::istringstream is(payload);
  io::wire::Reader reader(is);
  auto id = reader.ReadU64();
  if (!id.ok()) return id.status();
  return *id;
}

StatusOr<InfoResponse> DecodeInfoResponse(const std::string& payload) {
  std::istringstream is(payload);
  io::wire::Reader reader(is);
  InfoResponse response;
  auto id = reader.ReadU64();
  if (!id.ok()) return id.status();
  response.request_id = *id;
  auto rows = reader.ReadI64();
  if (!rows.ok()) return rows.status();
  auto dim = reader.ReadI64();
  if (!dim.ok()) return dim.status();
  if (*rows <= 0 || *dim <= 0) {
    return Status::DataLoss("info response: non-positive shape");
  }
  response.rows = *rows;
  response.dim = *dim;
  return response;
}

StatusOr<bool> FrameAssembler::Next(Frame* frame) {
  // Fail on a bad magic as soon as the first bytes arrive: a peer speaking
  // the wrong protocol should be cut off before it streams a "length" we
  // would wait on.
  const size_t have_magic = std::min(buffer_.size(), sizeof(kFrameMagic));
  if (std::memcmp(buffer_.data(), kFrameMagic, have_magic) != 0) {
    return Status::DataLoss("frame: bad magic (not an ADRP peer)");
  }
  if (buffer_.size() < kFrameHeaderBytes) return false;
  const uint8_t version = static_cast<uint8_t>(buffer_[4]);
  if (version != kProtocolVersion) {
    return Status::DataLoss("frame: unsupported protocol version " +
                            std::to_string(version));
  }
  const uint8_t type = static_cast<uint8_t>(buffer_[5]);
  if (!ValidType(type)) {
    return Status::DataLoss("frame: unknown message type " +
                            std::to_string(type));
  }
  const uint32_t payload_len = GetU32(buffer_.data() + 6);
  if (payload_len > max_payload_) {
    return Status::DataLoss("frame: announced payload of " +
                            std::to_string(payload_len) +
                            " bytes exceeds the " +
                            std::to_string(max_payload_) + " byte cap");
  }
  const size_t total =
      kFrameHeaderBytes + payload_len + kFrameTrailerBytes;
  if (buffer_.size() < total) return false;
  io::wire::Crc32 crc;
  crc.Update(buffer_.data() + sizeof(kFrameMagic),
             total - sizeof(kFrameMagic) - kFrameTrailerBytes);
  const uint32_t stored = GetU32(buffer_.data() + total -
                                 kFrameTrailerBytes);
  if (stored != crc.value()) {
    return Status::DataLoss("frame: CRC mismatch (torn or corrupt frame)");
  }
  frame->type = static_cast<MessageType>(type);
  frame->payload.assign(buffer_, kFrameHeaderBytes, payload_len);
  buffer_.erase(0, total);
  return true;
}

}  // namespace adamine::net
