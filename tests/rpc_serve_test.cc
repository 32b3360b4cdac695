// End-to-end loopback suites for the RPC boundary: a real net::ShardServer
// (epoll event loop + worker pool) serving a real RetrievalService over TCP
// to a real net::ShardChannel, all in one process. Pins the tentpole
// guarantees — RPC answers bit-identical to the in-process sharded path
// when healthy, honest partial coverage with an open breaker when a server
// dies — plus the wire-fault battery (net.conn.reset, net.read.short,
// net.write.stall, net.frame.corrupt), torn-frame rejection, transparent
// reconnect over stale pooled connections, server-side enforcement of the
// wire deadline, and hedged remote requests. RpcSubprocessTest forks the
// adamine_shard_server binary (tests/shard_server_main.cc) and SIGKILLs it
// mid-query — the real kill -9, not a simulation. These suites run under
// `ctest -L rpc` and, sanitized, under `ctest -L tsan`.

#include "net/remote_transport.h"

#include <gtest/gtest.h>

#include <signal.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "io/serialize.h"
#include "net/frame.h"
#include "net/shard_channel.h"
#include "net/shard_server.h"
#include "net/socket.h"
#include "serve/circuit_breaker.h"
#include "serve/retrieval_service.h"
#include "serve/shard_client.h"
#include "serve/sharded_service.h"
#include "tensor/ops.h"
#include "util/fault.h"
#include "util/rng.h"

namespace adamine {
namespace {

/// Rows clustered around random unit anchors (same generator as the
/// sharded-serving tests): small within-cluster score gaps, so any merge or
/// transport bug that perturbs scores or order shows up immediately.
Tensor ClusteredUnitRows(int64_t clusters, int64_t per_cluster, int64_t dim,
                         uint64_t seed) {
  Rng rng(seed);
  Tensor anchors = L2NormalizeRows(Tensor::Randn({clusters, dim}, rng));
  Tensor points({clusters * per_cluster, dim});
  for (int64_t c = 0; c < clusters; ++c) {
    for (int64_t i = 0; i < per_cluster; ++i) {
      const int64_t row = c * per_cluster + i;
      for (int64_t j = 0; j < dim; ++j) {
        points.At(row, j) =
            anchors.At(c, j) + static_cast<float>(rng.Normal(0, 0.05));
      }
    }
  }
  return L2NormalizeRows(points);
}

Tensor RowSlice(const Tensor& t, int64_t begin, int64_t end) {
  Tensor out({end - begin, t.cols()});
  for (int64_t r = begin; r < end; ++r) {
    for (int64_t c = 0; c < t.cols(); ++c) {
      out.At(r - begin, c) = t.At(r, c);
    }
  }
  return out;
}

std::shared_ptr<serve::RetrievalService> MakeService(Tensor items) {
  serve::ServeConfig config;
  config.backend = serve::Backend::kExhaustive;
  config.cache_capacity = 0;
  auto service = serve::RetrievalService::Create(std::move(items), config);
  EXPECT_TRUE(service.ok()) << service.status().ToString();
  return service.ok()
             ? std::shared_ptr<serve::RetrievalService>(
                   std::move(service).value())
             : nullptr;
}

/// The unsharded exhaustive answer — the bit-identity reference.
std::vector<std::vector<serve::ScoredHit>> UnshardedScored(
    const Tensor& items, const Tensor& queries, int64_t k) {
  auto service = MakeService(items);
  auto got = service->QueryBatchScored(queries, k, serve::QueryOptions{});
  EXPECT_TRUE(got.ok()) << got.status().ToString();
  return std::move(got).value();
}

net::TimePoint After(double ms) {
  return std::chrono::steady_clock::now() +
         std::chrono::duration_cast<std::chrono::steady_clock::duration>(
             std::chrono::duration<double, std::milli>(ms));
}

/// One running server plus the service it fronts (the service must outlive
/// Stop, so they travel together).
struct TestServer {
  std::shared_ptr<serve::RetrievalService> service;
  net::ShardServer server;

  int port() const { return server.port(); }
};

std::unique_ptr<TestServer> StartServer(
    Tensor items, const net::ShardServerConfig& config = {}) {
  auto holder = std::make_unique<TestServer>();
  holder->service = MakeService(std::move(items));
  const Status started = holder->server.Start(holder->service, config);
  EXPECT_TRUE(started.ok()) << started.ToString();
  return holder;
}

std::string Endpoint(const TestServer& server) {
  return "127.0.0.1:" + std::to_string(server.port());
}

/// Sharded config for remote topologies: no retries and a hair-trigger
/// breaker with a long cool-off, so one dead server is charged exactly one
/// failure per query and stays visibly open.
serve::ShardedServeConfig RemoteConfig() {
  serve::ShardedServeConfig config;
  config.retry.retry_max = 0;
  config.breaker.failure_threshold = 1;
  config.breaker.open_ms = 60000.0;
  return config;
}

/// Every armed fault is cleared before and after each test.
class RpcFaultTest : public ::testing::Test {
 protected:
  void SetUp() override { fault::Reset(); }
  void TearDown() override { fault::Reset(); }
};

using RpcServeTest = RpcFaultTest;
using RpcShardKillTest = RpcFaultTest;
using RpcSubprocessTest = RpcFaultTest;

// --- Healthy path: the wire is invisible ---------------------------------

TEST_F(RpcServeTest, InfoAndQueryMatchTheLocalServiceBitForBit) {
  Tensor items = ClusteredUnitRows(4, 10, 8, 11);  // 40 x 8.
  Tensor queries = ClusteredUnitRows(4, 2, 8, 13);
  const int64_t k = 5;
  auto server = StartServer(items);

  net::ShardChannel channel("127.0.0.1", server->port());
  auto info = channel.Info(After(2000));
  ASSERT_TRUE(info.ok()) << info.status().ToString();
  EXPECT_EQ(info->rows, 40);
  EXPECT_EQ(info->dim, 8);

  auto remote = channel.Query(queries, k, After(2000));
  ASSERT_TRUE(remote.ok()) << remote.status().ToString();
  const auto local = UnshardedScored(items, queries, k);
  EXPECT_EQ(*remote, local);

  const net::ShardServerStats stats = server->server.Snapshot();
  EXPECT_GE(stats.connections_accepted, 1);
  EXPECT_EQ(stats.requests_ok, 1);
  EXPECT_EQ(stats.requests_failed, 0);
}

// Remote-topology bit-identity (a net::ShardServer fleet vs the in-process
// sharded path vs the unsharded reference) moved into the registry-driven
// golden suite: tests/backend_golden_test.cc registers a "remote"
// loopback-RPC backend, so the full corpus × k × threads × shards matrix
// runs over real TCP there (ctest label `golden`). This file keeps the
// wire-level batteries the golden harness cannot see: faults, torn frames,
// reconnects, deadlines, hedging and real process death.

TEST_F(RpcServeTest, MaximallyFragmentedReadsStillServeExactAnswers) {
  // net.read.short makes the server consume the byte stream one byte per
  // epoll wakeup — every frame arrives maximally fragmented, driving the
  // read-side reassembly state machine through every partial-read state.
  Tensor items = ClusteredUnitRows(4, 10, 8, 11);
  Tensor queries = ClusteredUnitRows(4, 1, 8, 13);
  const int64_t k = 5;
  auto server = StartServer(items);
  fault::Arm(fault::kNetReadShort, /*skip=*/0);

  net::ShardChannel channel("127.0.0.1", server->port());
  auto remote = channel.Query(queries, k, After(10000));
  ASSERT_TRUE(remote.ok()) << remote.status().ToString();
  EXPECT_EQ(*remote, UnshardedScored(items, queries, k));
}

// --- Torn frames and hostile peers ---------------------------------------

TEST_F(RpcServeTest, ServerCutsOffAPeerSpeakingGarbage) {
  auto server = StartServer(ClusteredUnitRows(4, 10, 8, 11));
  auto fd = net::Dial("127.0.0.1", server->port(), 1000.0);
  ASSERT_TRUE(fd.ok());
  const std::string garbage = "GET / HTTP/1.1\r\n\r\n";
  ASSERT_TRUE(
      net::SendAll(fd->get(), garbage.data(), garbage.size(), After(2000))
          .ok());

  // The server answers an unframeable stream with a close, never bytes.
  char buf[256];
  auto got = net::RecvSome(fd->get(), buf, sizeof(buf), After(5000));
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(*got, 0u);  // Clean EOF.
  EXPECT_GE(server->server.Snapshot().frames_rejected, 1);
}

TEST_F(RpcServeTest, ServerAnswersUndecodablePayloadThenCloses) {
  // A CRC-valid frame whose payload announces garbage (k = 0): the server
  // cannot know the request id, so it answers with a kDataLoss response
  // addressed to id 0, then closes — the torn-frame taxonomy on the wire.
  auto server = StartServer(ClusteredUnitRows(4, 10, 8, 11));
  net::QueryRequest request;
  request.request_id = 99;
  request.k = 0;  // Decoder rejects this.
  Rng rng(7);
  request.queries = Tensor::Randn({2, 8}, rng);
  const std::string bytes = net::EncodeQueryRequest(request);

  auto fd = net::Dial("127.0.0.1", server->port(), 1000.0);
  ASSERT_TRUE(fd.ok());
  ASSERT_TRUE(
      net::SendAll(fd->get(), bytes.data(), bytes.size(), After(2000)).ok());

  net::FrameAssembler assembler;
  net::Frame frame;
  char buf[4096];
  bool complete = false;
  while (!complete) {
    auto got = net::RecvSome(fd->get(), buf, sizeof(buf), After(5000));
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    ASSERT_GT(*got, 0u) << "server closed without answering";
    assembler.Append(buf, *got);
    auto next = assembler.Next(&frame);
    ASSERT_TRUE(next.ok()) << next.status().ToString();
    complete = *next;
  }
  ASSERT_EQ(frame.type, net::MessageType::kQueryResponse);
  auto response = net::DecodeQueryResponse(frame.payload);
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_EQ(response->request_id, 0u);
  EXPECT_EQ(response->status.code(), StatusCode::kDataLoss);

  auto eof = net::RecvSome(fd->get(), buf, sizeof(buf), After(5000));
  ASSERT_TRUE(eof.ok()) << eof.status().ToString();
  EXPECT_EQ(*eof, 0u);  // The connection closes after the error flushes.
  EXPECT_GE(server->server.Snapshot().frames_rejected, 1);
}

TEST_F(RpcServeTest, NonFiniteQueryIsRejectedAndTheConnectionKeepsServing) {
  // A NaN query is a well-framed request with no answer: the server replies
  // kInvalidArgument naming the cell (the shared ScoringBackend check), and
  // the same pooled connection then serves the next request exactly.
  Tensor items = ClusteredUnitRows(4, 10, 8, 11);
  Tensor queries = ClusteredUnitRows(4, 1, 8, 13);
  const int64_t k = 5;
  auto server = StartServer(items);
  net::ShardChannel channel("127.0.0.1", server->port());

  Tensor poisoned = queries.Clone();
  poisoned.At(2, 6) = std::numeric_limits<float>::quiet_NaN();
  auto rejected = channel.Query(poisoned, k, After(2000));
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(rejected.status().message().find("row 2"), std::string::npos)
      << rejected.status().ToString();
  EXPECT_NE(rejected.status().message().find("column 6"), std::string::npos)
      << rejected.status().ToString();

  auto served = channel.Query(queries, k, After(2000));
  ASSERT_TRUE(served.ok()) << served.status().ToString();
  EXPECT_EQ(*served, UnshardedScored(items, queries, k));
  const net::ShardChannelStats channel_stats = channel.Snapshot();
  EXPECT_EQ(channel_stats.dials, 1);
  EXPECT_EQ(channel_stats.pool_hits, 1);
  const net::ShardServerStats server_stats = server->server.Snapshot();
  EXPECT_EQ(server_stats.requests_failed, 1);
  EXPECT_EQ(server_stats.requests_ok, 1);
  EXPECT_EQ(server_stats.frames_rejected, 0);
}

TEST_F(RpcServeTest, CorruptedResponseFrameIsTornNotGarbage) {
  // net.frame.corrupt flips one payload byte of the response: the client's
  // CRC check must reject the frame (kConnectionLost, connection dropped)
  // rather than decode a perturbed score.
  Tensor items = ClusteredUnitRows(4, 10, 8, 11);
  Tensor queries = ClusteredUnitRows(4, 1, 8, 13);
  auto server = StartServer(items);
  net::ShardChannel channel("127.0.0.1", server->port());
  fault::Arm(fault::kNetFrameCorrupt, /*skip=*/0, /*fire=*/1);

  auto torn = channel.Query(queries, 5, After(2000));
  ASSERT_FALSE(torn.ok());
  EXPECT_EQ(torn.status().code(), StatusCode::kConnectionLost);
  EXPECT_TRUE(torn.status().IsTransient());
  EXPECT_EQ(channel.Snapshot().torn_responses, 1);

  // The fault disarmed itself; a fresh connection serves exact answers.
  auto clean = channel.Query(queries, 5, After(2000));
  ASSERT_TRUE(clean.ok()) << clean.status().ToString();
  EXPECT_EQ(*clean, UnshardedScored(items, queries, 5));
}

// --- Resets and reconnection ---------------------------------------------

TEST_F(RpcServeTest, ClientRedialsAfterAnInjectedReset) {
  Tensor items = ClusteredUnitRows(4, 10, 8, 11);
  Tensor queries = ClusteredUnitRows(4, 1, 8, 13);
  auto server = StartServer(items);
  net::ShardChannel channel("127.0.0.1", server->port());

  auto first = channel.Query(queries, 5, After(2000));
  ASSERT_TRUE(first.ok()) << first.status().ToString();

  // net.conn.reset: the server RSTs instead of writing the response — what
  // a kill -9 looks like from the client's side of the socket.
  fault::Arm(fault::kNetConnReset, /*skip=*/0, /*fire=*/1);
  auto reset = channel.Query(queries, 5, After(2000));
  ASSERT_FALSE(reset.ok());
  EXPECT_EQ(reset.status().code(), StatusCode::kConnectionLost);
  EXPECT_TRUE(reset.status().IsTransient());
  EXPECT_EQ(server->server.Snapshot().resets_injected, 1);

  // The channel dropped the dead connection; the next query dials fresh.
  auto again = channel.Query(queries, 5, After(2000));
  ASSERT_TRUE(again.ok()) << again.status().ToString();
  EXPECT_EQ(*again, *first);
  EXPECT_GE(channel.Snapshot().dials, 2);
}

TEST_F(RpcServeTest, StalePooledConnectionIsReplacedTransparently) {
  Tensor items = ClusteredUnitRows(4, 10, 8, 11);
  Tensor queries = ClusteredUnitRows(4, 1, 8, 13);
  auto old_server = StartServer(items);
  const int port = old_server->port();
  net::ShardChannel channel("127.0.0.1", port);
  ASSERT_TRUE(channel.Query(queries, 5, After(2000)).ok());

  // Kill the server (RST on every connection — the pooled one included)
  // and bring a new one up on the same port.
  old_server->server.Terminate();
  net::ShardServerConfig reuse;
  reuse.port = port;
  auto new_server = StartServer(items, reuse);
  std::this_thread::sleep_for(std::chrono::milliseconds(50));

  // The pooled connection is dead; its send fails before the request could
  // have reached anyone, so the channel silently dials the new server and
  // resends. (If the RST races past the first send, the failure surfaces
  // as one transient kConnectionLost and the *next* query dials fresh.)
  auto got = channel.Query(queries, 5, After(2000));
  if (!got.ok()) {
    EXPECT_TRUE(got.status().IsTransient()) << got.status().ToString();
    got = channel.Query(queries, 5, After(2000));
  }
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(*got, UnshardedScored(items, queries, 5));
  EXPECT_GE(channel.Snapshot().dials, 2);
}

// --- The deadline crosses the wire ---------------------------------------

TEST_F(RpcServeTest, WireDeadlineIsEnforcedServerSide) {
  // The client sends a 10 ms budget and then never enforces anything
  // itself (its socket deadline is 5 s): the kDeadlineExceeded that comes
  // back can only have been produced by the server's own deadline stack.
  Tensor items = ClusteredUnitRows(4, 10, 8, 11);
  serve::ServeConfig slow;
  slow.backend = serve::Backend::kExhaustive;
  slow.cache_capacity = 0;
  slow.micro_batch = 2;  // Several micro-batches -> mid-scoring checks.
  auto service = serve::RetrievalService::Create(items, slow);
  ASSERT_TRUE(service.ok());
  auto holder = std::make_unique<TestServer>();
  holder->service = std::move(service).value();
  ASSERT_TRUE(holder->server.Start(holder->service, {}).ok());
  fault::Arm(fault::kServeScoreDelay, /*skip=*/40);  // 40 ms per micro-batch.

  net::QueryRequest request;
  request.request_id = 7;
  request.k = 3;
  request.deadline_ms = 10.0;  // The remaining budget, as a duration.
  request.queries = ClusteredUnitRows(4, 1, 8, 13);  // 4 rows.
  const std::string bytes = net::EncodeQueryRequest(request);

  auto fd = net::Dial("127.0.0.1", holder->port(), 1000.0);
  ASSERT_TRUE(fd.ok());
  ASSERT_TRUE(
      net::SendAll(fd->get(), bytes.data(), bytes.size(), After(2000)).ok());
  net::FrameAssembler assembler;
  net::Frame frame;
  char buf[4096];
  bool complete = false;
  while (!complete) {
    auto got = net::RecvSome(fd->get(), buf, sizeof(buf), After(5000));
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    ASSERT_GT(*got, 0u);
    assembler.Append(buf, *got);
    auto next = assembler.Next(&frame);
    ASSERT_TRUE(next.ok());
    complete = *next;
  }
  auto response = net::DecodeQueryResponse(frame.payload);
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_EQ(response->request_id, 7u);
  EXPECT_EQ(response->status.code(), StatusCode::kDeadlineExceeded)
      << response->status.ToString();
  EXPECT_EQ(holder->server.Snapshot().requests_failed, 1);
}

// --- Hedging across remote replicas --------------------------------------

TEST_F(RpcServeTest, HedgedRemoteRequestWinsWhileTheLoserStalls) {
  Tensor items = ClusteredUnitRows(4, 10, 8, 3);
  Tensor queries = ClusteredUnitRows(4, 1, 8, 5);
  const int64_t k = 5;
  const auto expect = UnshardedScored(items, queries, k);

  // Two replica servers over the same rows; only "slow" has the scoped
  // write stall armed, so the fault tears exactly one server.
  net::ShardServerConfig slow_config;
  slow_config.fault_scope = "slow";
  auto slow = StartServer(items, slow_config);
  auto fast = StartServer(items);
  fault::Arm(fault::ScopedPoint(fault::kNetWriteStall, "slow"),
             /*skip=*/300);

  auto slow_transport =
      net::RemoteShardTransport::Connect("127.0.0.1", slow->port());
  auto fast_transport =
      net::RemoteShardTransport::Connect("127.0.0.1", fast->port());
  ASSERT_TRUE(slow_transport.ok()) << slow_transport.status().ToString();
  ASSERT_TRUE(fast_transport.ok());

  serve::ShardClientConfig config;
  config.hedge_ms = 10.0;
  config.retry.retry_max = 0;
  {
    // Replica 0 (always tried first) is the stalled server: after hedge_ms
    // the client fires a duplicate at replica 1, which answers long before
    // the primary's 300 ms stall elapses.
    serve::ShardClient client(0, 0, {*slow_transport, *fast_transport},
                              config);
    const auto start = std::chrono::steady_clock::now();
    auto got = client.Query(queries, k, After(5000));
    const double elapsed_ms =
        std::chrono::duration<double, std::milli>(
            std::chrono::steady_clock::now() - start)
            .count();
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    EXPECT_EQ(*got, expect);
    EXPECT_LT(elapsed_ms, 250.0);
    const serve::ShardClientStats stats = client.Snapshot();
    EXPECT_GE(stats.hedges_fired, 1);
    EXPECT_GE(stats.hedges_won, 1);
    // ~ShardClient joins the abandoned primary attempt (it is still inside
    // the server's 300 ms stall): the loser must retire cleanly — no leak,
    // no crash, breaker verdict delivered — which tsan verifies.
  }
}

// --- Shard death: honest degradation, never a hang ------------------------

TEST_F(RpcShardKillTest, TerminatedShardDegradesCoverageAndOpensBreaker) {
  Tensor items = ClusteredUnitRows(6, 10, 8, 3);   // 60 x 8; 3 x 20 rows.
  Tensor queries = ClusteredUnitRows(6, 1, 8, 5);  // 6 queries.
  const int64_t k = 5;

  std::vector<std::unique_ptr<TestServer>> servers;
  std::vector<std::string> endpoints;
  for (int64_t s = 0; s < 3; ++s) {
    servers.push_back(StartServer(RowSlice(items, s * 20, (s + 1) * 20)));
    endpoints.push_back(Endpoint(*servers.back()));
  }
  auto service = net::ConnectShardedService(endpoints, RemoteConfig());
  ASSERT_TRUE(service.ok()) << service.status().ToString();

  auto healthy = (*service)->QueryBatch(queries, k);
  ASSERT_TRUE(healthy.ok());
  EXPECT_EQ(healthy->results, UnshardedScored(items, queries, k));

  // Shard 1's server dies abruptly: every connection RST, nothing flushed.
  servers[1]->server.Terminate();

  auto degraded = (*service)->QueryBatch(queries, k);
  ASSERT_TRUE(degraded.ok()) << degraded.status().ToString();
  EXPECT_TRUE(degraded->partial);
  EXPECT_NEAR(degraded->coverage, 2.0 / 3.0, 1e-9);

  // The degraded answer is the exact top-k over the surviving rows: the
  // reference is the unsharded service over shards 0 and 2's rows, with
  // shard 2's ids re-based past the dead shard's range.
  const auto front = UnshardedScored(RowSlice(items, 0, 20), queries, k);
  const auto back = UnshardedScored(RowSlice(items, 40, 60), queries, k);
  for (size_t row = 0; row < front.size(); ++row) {
    std::vector<serve::ScoredHit> pool = front[row];
    for (serve::ScoredHit hit : back[row]) {
      hit.index += 40;
      pool.push_back(hit);
    }
    std::sort(pool.begin(), pool.end(),
              [](const serve::ScoredHit& a, const serve::ScoredHit& b) {
                if (a.score != b.score) return a.score > b.score;
                return a.index < b.index;
              });
    pool.resize(static_cast<size_t>(k));
    EXPECT_EQ(degraded->results[row], pool) << "query " << row;
  }

  // One failure tripped the hair-trigger breaker; with a 60 s cool-off it
  // is still open now.
  const serve::ShardedServeStats stats = (*service)->Snapshot();
  EXPECT_GE(stats.exhausted, 1);
  EXPECT_EQ(stats.shards[1].replicas[0].state, serve::BreakerState::kOpen);
  EXPECT_EQ(stats.partial_results, 1);
}

// --- The real thing: a forked server binary, killed -9 mid-query ----------

/// Kills and reaps the child on every exit path.
struct ChildGuard {
  pid_t pid = -1;

  ~ChildGuard() { KillAndReap(); }

  void KillAndReap() {
    if (pid <= 0) return;
    ::kill(pid, SIGKILL);
    int wstatus = 0;
    ::waitpid(pid, &wstatus, 0);
    pid = -1;
  }
};

std::string ServerBinaryPath() {
  char buf[4096];
  const ssize_t n = ::readlink("/proc/self/exe", buf, sizeof(buf) - 1);
  EXPECT_GT(n, 0);
  buf[n > 0 ? n : 0] = '\0';
  const std::string self(buf);
  return self.substr(0, self.find_last_of('/')) + "/adamine_shard_server";
}

pid_t SpawnServer(const std::string& bundle, const std::string& port_file,
                  int stall_ms) {
  const std::string binary = ServerBinaryPath();
  const std::string stall = std::to_string(stall_ms);
  const pid_t pid = ::fork();
  if (pid != 0) return pid;
  ::execl(binary.c_str(), binary.c_str(), bundle.c_str(), "items",
          port_file.c_str(), stall.c_str(), static_cast<char*>(nullptr));
  ::_exit(127);  // exec failed; the parent times out waiting for the port.
}

int WaitForPort(const std::string& port_file) {
  for (int i = 0; i < 1000; ++i) {  // 10 s.
    std::ifstream in(port_file);
    int port = 0;
    if (in >> port && port > 0) return port;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  return 0;
}

TEST_F(RpcSubprocessTest, Kill9MidQueryDegradesToPartialCoverage) {
  Tensor items = ClusteredUnitRows(4, 10, 8, 17);  // 40 x 8; 2 x 20 rows.
  Tensor queries = ClusteredUnitRows(4, 1, 8, 19);
  const int64_t k = 5;

  // Each shard server is a *real separate process*, loading its rows from
  // a bundle file. Shard 0 stalls 400 ms before every response (its own
  // armed net.write.stall), leaving a wide window to kill it mid-query.
  const std::string dir = ::testing::TempDir();
  std::vector<std::string> endpoints;
  ChildGuard children[2];
  for (int s = 0; s < 2; ++s) {
    const std::string bundle =
        dir + "rpc_kill9_shard" + std::to_string(s) + ".admb";
    const std::string port_file =
        dir + "rpc_kill9_port" + std::to_string(s) + ".txt";
    std::remove(port_file.c_str());
    ASSERT_TRUE(io::SaveTensorBundle(
                    bundle,
                    {{"items", RowSlice(items, s * 20, (s + 1) * 20)}})
                    .ok());
    children[s].pid = SpawnServer(bundle, port_file, s == 0 ? 400 : 0);
    ASSERT_GT(children[s].pid, 0);
    const int port = WaitForPort(port_file);
    ASSERT_GT(port, 0) << "shard server " << s << " never published a port";
    endpoints.push_back("127.0.0.1:" + std::to_string(port));
  }

  auto service = net::ConnectShardedService(endpoints, RemoteConfig());
  ASSERT_TRUE(service.ok()) << service.status().ToString();

  // Healthy cross-process answer (shard 0 just slow): still bit-identical.
  auto healthy = (*service)->QueryBatch(queries, k);
  ASSERT_TRUE(healthy.ok()) << healthy.status().ToString();
  EXPECT_FALSE(healthy->partial);
  EXPECT_EQ(healthy->results, UnshardedScored(items, queries, k));

  // Fire a query, then SIGKILL shard 0 while it is mid-stall serving it.
  // The kernel closes the dead process's sockets; the client sees the
  // stream end mid-response (kConnectionLost), the shard is exhausted, and
  // the answer degrades to the surviving shard — no crash, no hang.
  StatusOr<serve::ShardedQueryResult> during =
      Status::Internal("query thread never ran");
  std::thread query_thread([&] {
    during = (*service)->QueryBatch(queries, k);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  ASSERT_EQ(::kill(children[0].pid, SIGKILL), 0);
  query_thread.join();
  children[0].KillAndReap();

  ASSERT_TRUE(during.ok()) << during.status().ToString();
  EXPECT_TRUE(during->partial);
  EXPECT_NEAR(during->coverage, 0.5, 1e-9);
  auto survivor = UnshardedScored(RowSlice(items, 20, 40), queries, k);
  for (auto& row : survivor) {
    for (serve::ScoredHit& hit : row) hit.index += 20;  // Global ids.
  }
  EXPECT_EQ(during->results, survivor);

  // The dead shard's breaker opened and stays open (60 s cool-off), so
  // follow-up queries skip it instead of re-dialling a corpse.
  const serve::ShardedServeStats stats = (*service)->Snapshot();
  EXPECT_EQ(stats.shards[0].replicas[0].state, serve::BreakerState::kOpen);
  auto after = (*service)->QueryBatch(queries, k);
  ASSERT_TRUE(after.ok());
  EXPECT_TRUE(after->partial);
  EXPECT_EQ(after->results, survivor);
}

}  // namespace
}  // namespace adamine
