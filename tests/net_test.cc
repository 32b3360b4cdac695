// Wire-protocol unit suite for the RPC boundary (src/net): frame encode/
// decode round trips, the FrameAssembler's tolerance of arbitrary
// fragmentation (a truncation sweep over every byte offset of a frame and a
// byte-at-a-time replay), rejection of hostile bytes (bad magic, bogus
// version/type, oversized length announcements, CRC flips at every offset,
// implausible payload fields), the errno -> Status taxonomy, and endpoint
// parsing. The e2e loopback server/client suites live in rpc_serve_test.cc.

#include "net/frame.h"

#include <gtest/gtest.h>

#include <cerrno>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "net/remote_transport.h"
#include "net/socket.h"
#include "util/fault.h"
#include "util/rng.h"

namespace adamine {
namespace {

using net::DecodeInfoRequest;
using net::DecodeInfoResponse;
using net::DecodeQueryRequest;
using net::DecodeQueryResponse;
using net::EncodeInfoRequest;
using net::EncodeInfoResponse;
using net::EncodeQueryRequest;
using net::EncodeQueryResponse;
using net::Frame;
using net::FrameAssembler;
using net::MessageType;

net::QueryRequest MakeRequest() {
  net::QueryRequest request;
  request.request_id = 42;
  request.k = 5;
  request.deadline_ms = 125.5;
  Rng rng(7);
  request.queries = Tensor::Randn({3, 4}, rng);
  return request;
}

/// Runs one encoded frame through the assembler and hands back its payload.
std::string PayloadOf(const std::string& bytes, MessageType expect) {
  FrameAssembler assembler;
  assembler.Append(bytes.data(), bytes.size());
  Frame frame;
  auto next = assembler.Next(&frame);
  EXPECT_TRUE(next.ok()) << next.status().ToString();
  EXPECT_TRUE(next.ok() && *next);
  EXPECT_EQ(frame.type, expect);
  EXPECT_EQ(assembler.buffered_bytes(), 0u);
  return frame.payload;
}

TEST(NetFrameTest, QueryRequestRoundTrips) {
  const net::QueryRequest request = MakeRequest();
  const std::string bytes = EncodeQueryRequest(request);
  auto back =
      DecodeQueryRequest(PayloadOf(bytes, MessageType::kQueryRequest));
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(back->request_id, 42u);
  EXPECT_EQ(back->k, 5);
  EXPECT_DOUBLE_EQ(back->deadline_ms, 125.5);
  ASSERT_EQ(back->queries.rows(), 3);
  ASSERT_EQ(back->queries.cols(), 4);
  for (int64_t i = 0; i < request.queries.numel(); ++i) {
    EXPECT_EQ(back->queries.data()[i], request.queries.data()[i])
        << "float " << i << " not bit-identical across the wire";
  }
}

TEST(NetFrameTest, QueryResponseRoundTripsResults) {
  net::QueryResponse response;
  response.request_id = 9;
  response.results = {{{7, 0.25f}, {3, 0.125f}}, {}, {{0, -1.0f}}};
  const std::string bytes = EncodeQueryResponse(response);
  auto back =
      DecodeQueryResponse(PayloadOf(bytes, MessageType::kQueryResponse));
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_TRUE(back->status.ok());
  EXPECT_EQ(back->request_id, 9u);
  EXPECT_EQ(back->results, response.results);
}

TEST(NetFrameTest, QueryResponsePayloadIsTheDocumentedLayout) {
  // The payload spelled out field by field: u64 id, u32 code, u32 message
  // length, i64 rows, then per row an i64 hit count and per hit an i64
  // index and an f32 score. The encoder must write exactly these bytes and
  // the decoder must read them back.
  net::QueryResponse response;
  response.request_id = 0x0123456789ABCDEFull;
  response.results = {{{7, 0.25f}, {int64_t{1} << 40, -0.125f}},
                      {},
                      {{0, 1.0f}, {5, 0.5f}, {2, 0.5f}}};
  std::string want;
  const auto put = [&want](const auto& value) {
    want.append(reinterpret_cast<const char*>(&value), sizeof(value));
  };
  put(uint64_t{0x0123456789ABCDEFull});
  put(uint32_t{0});  // StatusCode::kOk.
  put(uint32_t{0});  // An empty message.
  put(int64_t{3});
  for (const std::vector<serve::ScoredHit>& row : response.results) {
    put(static_cast<int64_t>(row.size()));
    for (const serve::ScoredHit& hit : row) {
      put(int64_t{hit.index});
      put(float{hit.score});
    }
  }
  EXPECT_EQ(PayloadOf(EncodeQueryResponse(response),
                      MessageType::kQueryResponse),
            want);
  auto back = DecodeQueryResponse(want);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_TRUE(back->status.ok());
  EXPECT_EQ(back->request_id, response.request_id);
  EXPECT_EQ(back->results, response.results);
  // Every strict prefix stops inside some field, which must surface as
  // kDataLoss, never as a short or garbage answer.
  for (size_t length = 0; length < want.size(); ++length) {
    auto cut = DecodeQueryResponse(want.substr(0, length));
    ASSERT_FALSE(cut.ok()) << "prefix of " << length << " bytes decoded";
    EXPECT_EQ(cut.status().code(), StatusCode::kDataLoss)
        << "prefix of " << length << " bytes: " << cut.status().ToString();
  }
}

TEST(NetFrameTest, QueryResponseRoundTripsErrorStatus) {
  net::QueryResponse response;
  response.request_id = 11;
  response.status = Status::Unavailable("queue full: shed");
  const std::string bytes = EncodeQueryResponse(response);
  auto back =
      DecodeQueryResponse(PayloadOf(bytes, MessageType::kQueryResponse));
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  // The exact code and message survive the wire: the client's retry and
  // breaker machinery classifies a remote failure like a local one.
  EXPECT_EQ(back->status.code(), StatusCode::kUnavailable);
  EXPECT_EQ(back->status.message(), "queue full: shed");
  EXPECT_TRUE(back->results.empty());
}

TEST(NetFrameTest, InfoRoundTrips) {
  const std::string request_bytes = EncodeInfoRequest(17);
  auto id =
      DecodeInfoRequest(PayloadOf(request_bytes, MessageType::kInfoRequest));
  ASSERT_TRUE(id.ok());
  EXPECT_EQ(*id, 17u);

  net::InfoResponse info;
  info.request_id = 17;
  info.rows = 1000;
  info.dim = 64;
  auto back = DecodeInfoResponse(
      PayloadOf(EncodeInfoResponse(info), MessageType::kInfoResponse));
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->rows, 1000);
  EXPECT_EQ(back->dim, 64);
}

// --- FrameAssembler: fragmentation, truncation, garbage ------------------

TEST(NetFrameTest, ReassemblesByteAtATime) {
  const std::string bytes = EncodeQueryRequest(MakeRequest());
  FrameAssembler assembler;
  Frame frame;
  int64_t complete = 0;
  for (size_t i = 0; i < bytes.size(); ++i) {
    assembler.Append(bytes.data() + i, 1);
    auto next = assembler.Next(&frame);
    ASSERT_TRUE(next.ok()) << "byte " << i << ": " << next.status().ToString();
    if (*next) {
      ++complete;
      EXPECT_EQ(i, bytes.size() - 1)
          << "frame completed before its last byte arrived";
    }
  }
  EXPECT_EQ(complete, 1);
  ASSERT_TRUE(DecodeQueryRequest(frame.payload).ok());
}

TEST(NetFrameTest, EveryTruncationJustWaitsForMoreBytes) {
  // A strict prefix of a valid frame is indistinguishable from a slow
  // peer: the assembler must report "need more" at *every* offset, never
  // fail and never fabricate a frame.
  const std::string bytes = EncodeQueryRequest(MakeRequest());
  for (size_t len = 0; len < bytes.size(); ++len) {
    FrameAssembler assembler;
    assembler.Append(bytes.data(), len);
    Frame frame;
    auto next = assembler.Next(&frame);
    ASSERT_TRUE(next.ok())
        << "prefix of " << len << " bytes rejected: "
        << next.status().ToString();
    EXPECT_FALSE(*next) << "prefix of " << len
                        << " bytes yielded a complete frame";
    // The remainder completes the frame: no byte boundary loses data.
    assembler.Append(bytes.data() + len, bytes.size() - len);
    auto rest = assembler.Next(&frame);
    ASSERT_TRUE(rest.ok());
    EXPECT_TRUE(*rest);
  }
}

TEST(NetFrameTest, EveryByteFlipIsRejectedOrStarved) {
  // Flipping any byte must never produce a *different* valid frame: the
  // assembler either fails with kDataLoss (magic/version/type/CRC) or, when
  // the flip enlarged the announced length, keeps waiting for bytes that
  // will never come. It must never return a complete frame.
  const std::string bytes = EncodeInfoResponse({5, 123, 17});
  for (size_t i = 0; i < bytes.size(); ++i) {
    std::string corrupt = bytes;
    corrupt[i] = static_cast<char>(corrupt[i] ^ 0x01);
    FrameAssembler assembler;
    assembler.Append(corrupt.data(), corrupt.size());
    Frame frame;
    auto next = assembler.Next(&frame);
    if (next.ok()) {
      EXPECT_FALSE(*next) << "flipped byte " << i
                          << " still produced a complete frame";
    } else {
      EXPECT_EQ(next.status().code(), StatusCode::kDataLoss)
          << "flipped byte " << i;
    }
  }
}

TEST(NetFrameTest, RejectsBadMagicAsSoonAsItArrives) {
  FrameAssembler assembler;
  // One wrong byte is enough — no waiting for a full header from a peer
  // that does not speak the protocol.
  assembler.Append("GET ", 2);
  Frame frame;
  auto next = assembler.Next(&frame);
  ASSERT_FALSE(next.ok());
  EXPECT_EQ(next.status().code(), StatusCode::kDataLoss);
  EXPECT_NE(next.status().message().find("magic"), std::string::npos);
}

TEST(NetFrameTest, RejectsOversizedLengthWithoutBuffering) {
  std::string header(net::kFrameMagic, 4);
  header.push_back(static_cast<char>(net::kProtocolVersion));
  header.push_back(static_cast<char>(MessageType::kQueryRequest));
  const uint32_t huge = 1u << 30;
  header.append(reinterpret_cast<const char*>(&huge), sizeof(huge));
  FrameAssembler assembler(/*max_payload=*/1 << 20);
  assembler.Append(header.data(), header.size());
  Frame frame;
  auto next = assembler.Next(&frame);
  ASSERT_FALSE(next.ok());
  EXPECT_EQ(next.status().code(), StatusCode::kDataLoss);
  EXPECT_NE(next.status().message().find("cap"), std::string::npos);
}

TEST(NetFrameTest, UnlimitedCapConfigStillRejectsHostileLengthPrefix) {
  // Regression: the configured cap used to be taken at face value, so an
  // assembler built with SIZE_MAX ("no limit") would accept *any* u32
  // length announcement — a hostile peer could send 10 header bytes
  // claiming a 4 GiB - 1 payload and the assembler would dutifully buffer
  // toward it forever. The cap is now clamped to kMaxFramePayload in the
  // constructor, so the announcement must die with kDataLoss before any
  // buffering happens for it.
  std::string header(net::kFrameMagic, 4);
  header.push_back(static_cast<char>(net::kProtocolVersion));
  header.push_back(static_cast<char>(MessageType::kQueryRequest));
  const uint32_t hostile = 0xFFFFFFFFu;
  header.append(reinterpret_cast<const char*>(&hostile), sizeof(hostile));

  FrameAssembler assembler(std::numeric_limits<size_t>::max());
  EXPECT_EQ(assembler.max_payload(), net::kMaxFramePayload);
  assembler.Append(header.data(), header.size());
  Frame frame;
  auto next = assembler.Next(&frame);
  ASSERT_FALSE(next.ok());
  EXPECT_EQ(next.status().code(), StatusCode::kDataLoss);
  // Nothing beyond the 10 header bytes was ever held for the announced
  // payload.
  EXPECT_EQ(assembler.buffered_bytes(), net::kFrameHeaderBytes);
}

TEST(NetFrameTest, DefaultAndSmallCapsAreHonoured) {
  // The default cap stays below the absolute ceiling...
  EXPECT_EQ(FrameAssembler().max_payload(), net::kDefaultMaxPayload);
  EXPECT_LT(net::kDefaultMaxPayload, net::kMaxFramePayload);
  // ...and a deliberately tiny cap still applies unchanged: a frame with a
  // 17-byte payload is garbage to an assembler capped at 16.
  std::string bytes = EncodeInfoRequest(7);  // 8-byte payload.
  FrameAssembler tiny(/*max_payload=*/16);
  EXPECT_EQ(tiny.max_payload(), 16u);
  tiny.Append(bytes.data(), bytes.size());
  Frame frame;
  auto next = tiny.Next(&frame);
  ASSERT_TRUE(next.ok());  // 8 <= 16: passes.
  EXPECT_TRUE(*next);

  FrameAssembler tinier(/*max_payload=*/4);
  tinier.Append(bytes.data(), bytes.size());
  auto rejected = tinier.Next(&frame);
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kDataLoss);
}

TEST(NetFrameTest, RejectsUnknownVersionAndType) {
  std::string bytes = EncodeInfoRequest(1);
  bytes[4] = static_cast<char>(net::kProtocolVersion + 1);
  {
    FrameAssembler assembler;
    assembler.Append(bytes.data(), bytes.size());
    Frame frame;
    auto next = assembler.Next(&frame);
    ASSERT_FALSE(next.ok());
    EXPECT_NE(next.status().message().find("version"), std::string::npos);
  }
  bytes = EncodeInfoRequest(1);
  bytes[5] = 99;  // Not a MessageType.
  {
    FrameAssembler assembler;
    assembler.Append(bytes.data(), bytes.size());
    Frame frame;
    auto next = assembler.Next(&frame);
    ASSERT_FALSE(next.ok());
    EXPECT_NE(next.status().message().find("type"), std::string::npos);
  }
}

// --- Hostile payloads (CRC-valid frames announcing garbage) --------------

TEST(NetFrameTest, RejectsQueryRequestWithImplausibleFields) {
  net::QueryRequest request = MakeRequest();
  request.k = 0;
  auto k0 = DecodeQueryRequest(
      PayloadOf(EncodeQueryRequest(request), MessageType::kQueryRequest));
  ASSERT_FALSE(k0.ok());
  EXPECT_EQ(k0.status().code(), StatusCode::kDataLoss);

  request = MakeRequest();
  request.k = (int64_t{1} << 20) + 1;
  EXPECT_FALSE(DecodeQueryRequest(PayloadOf(EncodeQueryRequest(request),
                                            MessageType::kQueryRequest))
                   .ok());

  request = MakeRequest();
  request.deadline_ms = -1.0;
  EXPECT_FALSE(DecodeQueryRequest(PayloadOf(EncodeQueryRequest(request),
                                            MessageType::kQueryRequest))
                   .ok());
}

TEST(NetFrameTest, RejectsQueryRequestShapeMismatch) {
  // The announced [rows, cols] must account for the payload floats
  // *exactly*; lie about either and the decoder must refuse before
  // allocating. rows lives at payload offset 24, cols at offset 32.
  const std::string bytes = EncodeQueryRequest(MakeRequest());
  const std::string payload =
      PayloadOf(bytes, MessageType::kQueryRequest);
  for (const size_t offset : {size_t{24}, size_t{32}}) {
    std::string lied = payload;
    int64_t huge = int64_t{1} << 40;
    std::memcpy(lied.data() + offset, &huge, sizeof(huge));
    auto back = DecodeQueryRequest(lied);
    ASSERT_FALSE(back.ok());
    EXPECT_EQ(back.status().code(), StatusCode::kDataLoss);
  }
}

TEST(NetFrameTest, RejectsQueryResponseWithHostileCounts) {
  net::QueryResponse response;
  response.request_id = 1;
  response.results = {{{1, 0.5f}}};
  const std::string payload = PayloadOf(EncodeQueryResponse(response),
                                        MessageType::kQueryResponse);
  // Payload layout: u64 id, u32 code, u32 message_len, i64 row count.
  {
    std::string lied = payload;
    int64_t huge = int64_t{1} << 50;
    std::memcpy(lied.data() + 16, &huge, sizeof(huge));
    auto back = DecodeQueryResponse(lied);
    ASSERT_FALSE(back.ok());
    EXPECT_EQ(back.status().code(), StatusCode::kDataLoss);
    EXPECT_NE(back.status().message().find("row count"), std::string::npos);
  }
  {
    std::string lied = payload;
    int64_t huge = int64_t{1} << 50;
    std::memcpy(lied.data() + 24, &huge, sizeof(huge));  // Hit count.
    auto back = DecodeQueryResponse(lied);
    ASSERT_FALSE(back.ok());
    EXPECT_EQ(back.status().code(), StatusCode::kDataLoss);
  }
  {
    // An unknown status code cannot be mapped into the enum.
    std::string lied = payload;
    uint32_t bogus = 250;
    std::memcpy(lied.data() + 8, &bogus, sizeof(bogus));
    auto back = DecodeQueryResponse(lied);
    ASSERT_FALSE(back.ok());
    EXPECT_NE(back.status().message().find("status code"),
              std::string::npos);
  }
}

// --- errno -> Status taxonomy --------------------------------------------

TEST(NetSocketTest, ErrnoMappingPinsEveryRetryClass) {
  // Connection casualties are kConnectionLost and transient: a reconnect
  // or failover may cure them.
  for (const int err : {ECONNRESET, EPIPE, ECONNREFUSED, ECONNABORTED,
                        ENETRESET, ENETUNREACH, EHOSTUNREACH, ENOTCONN,
                        ETIMEDOUT}) {
    const Status status = net::ErrnoStatus(err, "send");
    EXPECT_EQ(status.code(), StatusCode::kConnectionLost)
        << std::strerror(err);
    EXPECT_TRUE(status.IsTransient()) << std::strerror(err);
  }
  // Resource exhaustion is kUnavailable (transient, backoff applies).
  for (const int err : {EMFILE, ENFILE, ENOBUFS, ENOMEM, EAGAIN}) {
    const Status status = net::ErrnoStatus(err, "accept");
    EXPECT_EQ(status.code(), StatusCode::kUnavailable) << std::strerror(err);
    EXPECT_TRUE(status.IsTransient()) << std::strerror(err);
  }
  // Addressing/usage bugs are permanent: retrying the same call cannot
  // help, so they must NOT be transient.
  for (const int err : {EADDRINUSE, EADDRNOTAVAIL, EINVAL, EBADF, EACCES,
                        EAFNOSUPPORT}) {
    const Status status = net::ErrnoStatus(err, "bind");
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument)
        << std::strerror(err);
    EXPECT_FALSE(status.IsTransient()) << std::strerror(err);
  }
  // Storage exhaustion is kResourceExhausted (transient backpressure: the
  // condition clears when space is reclaimed, so ingest may retry).
  for (const int err : {ENOSPC, EDQUOT}) {
    const Status status = net::ErrnoStatus(err, "append");
    EXPECT_EQ(status.code(), StatusCode::kResourceExhausted)
        << std::strerror(err);
    EXPECT_TRUE(status.IsTransient()) << std::strerror(err);
  }
  // Anything unrecognised must not silently become retryable.
  const Status unknown = net::ErrnoStatus(EIO, "read");
  EXPECT_EQ(unknown.code(), StatusCode::kInternal);
  EXPECT_FALSE(unknown.IsTransient());
}

TEST(NetSocketTest, ErrnoMessageCarriesContextAndStrerror) {
  const Status status = net::ErrnoStatus(ECONNRESET, "dial 1.2.3.4:80");
  EXPECT_NE(status.message().find("dial 1.2.3.4:80"), std::string::npos);
  EXPECT_NE(status.message().find(std::strerror(ECONNRESET)),
            std::string::npos);
}

TEST(NetSocketTest, DialRefusedIsConnectionLost) {
  // Bind a listener, learn its port, close it: the port is now (almost
  // certainly) refusing connections.
  auto probe = net::Dial("127.0.0.1", 1, /*connect_timeout_ms=*/200.0);
  ASSERT_FALSE(probe.ok());  // Port 1 is never an adamine server.
  EXPECT_TRUE(probe.status().code() == StatusCode::kConnectionLost ||
              probe.status().code() == StatusCode::kInvalidArgument)
      << probe.status().ToString();
}

TEST(NetSocketTest, DialRejectsNonsense) {
  EXPECT_EQ(net::Dial("127.0.0.1", 0, 10.0).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(net::Dial("not-a-host-name", 80, 10.0).status().code(),
            StatusCode::kInvalidArgument);
}

// --- Fault-point scoping and endpoint parsing ----------------------------

TEST(NetSocketTest, ScopedPointQualifiesAndPassesThrough) {
  EXPECT_EQ(fault::ScopedPoint(fault::kNetConnReset, "a"),
            std::string(fault::kNetConnReset) + ".a");
  EXPECT_EQ(fault::ScopedPoint(fault::kNetConnReset, ""),
            fault::kNetConnReset);
}

TEST(NetSocketTest, ParseEndpoint) {
  auto ok = net::ParseEndpoint("127.0.0.1:9000");
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(ok->host, "127.0.0.1");
  EXPECT_EQ(ok->port, 9000);
  EXPECT_FALSE(net::ParseEndpoint("no-port").ok());
  EXPECT_FALSE(net::ParseEndpoint(":9000").ok());
  EXPECT_FALSE(net::ParseEndpoint("host:").ok());
  EXPECT_FALSE(net::ParseEndpoint("host:abc").ok());
  EXPECT_FALSE(net::ParseEndpoint("host:0").ok());
  EXPECT_FALSE(net::ParseEndpoint("host:70000").ok());
}

}  // namespace
}  // namespace adamine
