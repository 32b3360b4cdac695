// The single golden-diff correctness harness for scoring backends (ctest
// label `golden`; see DESIGN.md, "Backend registry"). Every backend in the
// registry — the built-ins plus anything registered before the suite
// instantiates, like this file's loopback-RPC "remote" topology — is
// auto-compared against the "scalar" reference across corpus shapes
// (clustered, duplicated-row ties, all-identical rows, single row) × k
// (1, mid, k > corpus) × kernel thread counts × shard counts × probe
// settings. Exact backends must match the reference bit for bit; probed
// approximate settings must stay deterministic, well-ordered and carry
// reference-bitwise scores. Failures report the first divergent
// (query, rank, id, score) tuple, in the spirit of ggml's
// test-backend-ops. Registering a backend is all it takes to be covered:
// no per-backend test code exists here.

#include "serve/backend.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <set>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "kernel/kernel.h"
#include "net/remote_transport.h"
#include "net/shard_server.h"
#include "serve/retrieval_service.h"
#include "serve/sharded_service.h"
#include "tensor/ops.h"
#include "util/check.h"
#include "util/rng.h"

namespace adamine {
namespace {

namespace serve = adamine::serve;

class ThreadGuard {
 public:
  explicit ThreadGuard(int num_threads) { kernel::SetNumThreads(num_threads); }
  ~ThreadGuard() { kernel::SetNumThreads(1); }
};

/// Rows clustered around random unit anchors: small within-cluster score
/// gaps, so an ordering or merge bug shows up immediately.
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

/// Quantization-hostile geometry: still unit rows (the service-level
/// contract every backend shares), but each row mixes one dominant
/// coordinate with a tail spanning seven orders of magnitude. Per-row int8
/// quantization sets its scale from the dominant value, so the tail is
/// crushed to zero codes and the measured reconstruction error is huge
/// relative to the score gaps — the quantized backend's interval selection
/// gets almost no discrimination and must stay bit-identical purely through
/// its verified-cutoff rerank.
Tensor MixedMagnitudeUnitRows(int64_t rows, int64_t dim, uint64_t seed) {
  Rng rng(seed);
  Tensor out({rows, dim});
  for (int64_t r = 0; r < rows; ++r) {
    for (int64_t j = 0; j < dim; ++j) {
      const double mag = std::pow(10.0, -static_cast<double>((j + r) % 7));
      out.At(r, j) = static_cast<float>(rng.Normal(0.0, 1.0) * mag);
    }
    out.At(r, rng.UniformInt(dim)) += 1.0f;
  }
  return L2NormalizeRows(out);
}

/// Every row the same unit vector: all (query, item) scores are exactly
/// equal, so only the (score desc, global id asc) tie rule orders anything.
Tensor IdenticalUnitRows(int64_t rows, int64_t dim, uint64_t seed) {
  Rng rng(seed);
  Tensor one = L2NormalizeRows(Tensor::Randn({1, dim}, rng));
  Tensor out({rows, dim});
  for (int64_t r = 0; r < rows; ++r) {
    std::copy(one.data(), one.data() + dim, out.data() + r * dim);
  }
  return out;
}

// --- The "remote" backend: a loopback-RPC sharded topology ---------------
//
// Registered below, before the suite instantiates, purely to prove the
// harness's claim: a backend that lives entirely outside src/ — real
// net::ShardServer processes-in-miniature behind real TCP sockets —
// inherits the full golden matrix by registering, with zero new test code.

/// One running server plus the replica service it fronts (the service must
/// outlive Stop, so they travel together).
struct GoldenTestServer {
  std::shared_ptr<serve::RetrievalService> service;
  net::ShardServer server;
};

class RemoteBackend final : public serve::ScoringBackend {
 public:
  RemoteBackend(std::vector<std::unique_ptr<GoldenTestServer>> servers,
                std::unique_ptr<serve::ShardedRetrievalService> service)
      : servers_(std::move(servers)), service_(std::move(service)) {}

  const char* name() const override { return "remote"; }
  int64_t size() const override { return service_->size(); }
  int64_t dim() const override { return service_->dim(); }

 protected:
  StatusOr<serve::TopKResult> ScoreTopKImpl(
      const serve::QueryBatch& batch, const serve::Filter* /*filter*/,
      int64_t k, const serve::QueryOptions& options) override {
    auto merged = service_->QueryBatchWithOptions(batch.queries, k, options);
    if (!merged.ok()) return merged.status();
    serve::TopKResult out;
    out.hits = std::move(merged->results);
    return out;
  }

 private:
  std::vector<std::unique_ptr<GoldenTestServer>> servers_;
  std::unique_ptr<serve::ShardedRetrievalService> service_;
};

StatusOr<std::unique_ptr<serve::ScoringBackend>> MakeRemoteBackend(
    const serve::BackendConfig& config) {
  const int64_t rows = config.items.rows();
  const int64_t shards = std::min(config.num_shards, rows);
  std::vector<std::unique_ptr<GoldenTestServer>> servers;
  std::vector<std::string> endpoints;
  for (int64_t s = 0; s < shards; ++s) {
    // The same balanced contiguous partition ShardedRetrievalService::
    // Create builds in-process.
    const int64_t r0 = s * rows / shards;
    const int64_t r1 = (s + 1) * rows / shards;
    serve::ServeConfig shard_config;
    shard_config.backend = serve::Backend::kExhaustive;
    shard_config.cache_capacity = 0;
    auto replica = serve::RetrievalService::Create(
        RowSlice(config.items, r0, r1), shard_config);
    if (!replica.ok()) return replica.status();
    auto holder = std::make_unique<GoldenTestServer>();
    holder->service = std::move(replica).value();
    ADAMINE_RETURN_IF_ERROR(
        holder->server.Start(holder->service, net::ShardServerConfig()));
    endpoints.push_back("127.0.0.1:" +
                        std::to_string(holder->server.port()));
    servers.push_back(std::move(holder));
  }
  auto service =
      net::ConnectShardedService(endpoints, serve::ShardedServeConfig());
  if (!service.ok()) return service.status();
  return std::unique_ptr<serve::ScoringBackend>(new RemoteBackend(
      std::move(servers), std::move(service).value()));
}

/// Registered before INSTANTIATE_TEST_SUITE_P below (same-TU static
/// initialisers run top to bottom), so RegisteredBackendNames() already
/// contains "remote" when the suite enumerates its parameters.
const bool kRemoteRegistered = [] {
  const Status registered = serve::RegisterBackend(
      "remote", MakeRemoteBackend,
      serve::BackendTraits{/*has_probes=*/false, /*sharded=*/true});
  ADAMINE_CHECK_MSG(registered.ok(), registered.ToString());
  return true;
}();

// --- Harness plumbing ----------------------------------------------------

struct Corpus {
  std::string name;
  Tensor items;
  Tensor queries;
};

/// The corpus matrix: realistic clustered geometry, a corpus where every
/// row is duplicated (exact score ties split across shard boundaries), two
/// corpora where *all* scores tie (pure tie-rule ordering), and the
/// single-row corpus.
const std::vector<Corpus>& GoldenCorpora() {
  static const std::vector<Corpus>& corpora = *new std::vector<Corpus>{
      {"clustered", ClusteredUnitRows(5, 8, 8, 21),
       ClusteredUnitRows(3, 2, 8, 22)},
      {"ties", ConcatRows(ClusteredUnitRows(5, 6, 8, 23),
                          ClusteredUnitRows(5, 6, 8, 23)),
       ClusteredUnitRows(3, 2, 8, 24)},
      {"identical", IdenticalUnitRows(12, 8, 25),
       ClusteredUnitRows(2, 2, 8, 26)},
      // 37 tied rows: two full 16-score groups of kernel::TopK's cutoff
      // test plus a 5-row tail, where the 12-row corpus above never leaves
      // the tail.
      {"identical_37", IdenticalUnitRows(37, 8, 31),
       ClusteredUnitRows(2, 2, 8, 32)},
      {"single", ClusteredUnitRows(1, 1, 8, 27),
       ClusteredUnitRows(2, 1, 8, 28)},
      {"mixed_magnitude", MixedMagnitudeUnitRows(24, 8, 29),
       MixedMagnitudeUnitRows(4, 8, 30)},
  };
  return corpora;
}

serve::BackendConfig ConfigFor(const Corpus& corpus, int64_t shards) {
  serve::BackendConfig config;
  config.items = corpus.items;
  config.ivf.num_lists = std::min<int64_t>(4, corpus.items.rows());
  config.ivf.num_probes = config.ivf.num_lists;
  config.ivf.seed = 9;
  config.num_shards = shards;
  return config;
}

std::unique_ptr<serve::ScoringBackend> MustCreate(const std::string& name,
                                                  const Corpus& corpus,
                                                  int64_t shards = 1) {
  auto backend = serve::CreateBackend(name, ConfigFor(corpus, shards));
  ADAMINE_CHECK_MSG(backend.ok(), backend.status().ToString());
  return std::move(backend).value();
}

std::vector<std::vector<serve::ScoredHit>> MustScore(
    serve::ScoringBackend& backend, const Tensor& queries, int64_t k) {
  auto result = backend.ScoreTopK(serve::QueryBatch{queries},
                                  /*filter=*/nullptr, k,
                                  serve::QueryOptions());
  ADAMINE_CHECK_MSG(result.ok(), result.status().ToString());
  return std::move(result->hits);
}

/// The bitwise score oracle. Test TUs are NOT compiled with
/// -ffp-contract=off, so this file must never compute a dot product itself
/// — a locally fused FMA chain would diverge from every backend. The
/// registered "scalar" backend (whose TU carries the flag) is the oracle:
/// with k = corpus it yields the full ranking, i.e. every (id, score).
std::vector<std::vector<serve::ScoredHit>> ScalarReference(
    const Corpus& corpus, int64_t k) {
  auto scalar = MustCreate("scalar", corpus);
  return MustScore(*scalar, corpus.queries, k);
}

/// First-divergence reporting: (query, rank, id, score) of the earliest
/// mismatch, with the score bits spelled out — a one-ulp score drift and a
/// tie-order swap look the same in decimal.
::testing::AssertionResult SameTopK(
    const std::vector<std::vector<serve::ScoredHit>>& ref,
    const std::vector<std::vector<serve::ScoredHit>>& got) {
  if (ref.size() != got.size()) {
    return ::testing::AssertionFailure()
           << "query-row count diverges: reference " << ref.size()
           << ", backend " << got.size();
  }
  for (size_t q = 0; q < ref.size(); ++q) {
    const size_t rows = std::min(ref[q].size(), got[q].size());
    for (size_t rank = 0; rank < rows; ++rank) {
      const serve::ScoredHit& want = ref[q][rank];
      const serve::ScoredHit& have = got[q][rank];
      if (want == have) continue;
      return ::testing::AssertionFailure()
             << "first divergence at (query " << q << ", rank " << rank
             << "): reference (id " << want.index << ", score "
             << std::hexfloat << want.score << std::defaultfloat
             << "), backend (id " << have.index << ", score "
             << std::hexfloat << have.score << std::defaultfloat << ")";
    }
    if (ref[q].size() != got[q].size()) {
      return ::testing::AssertionFailure()
             << "first divergence at (query " << q << ", rank " << rows
             << "): reference has " << ref[q].size()
             << " hits, backend has " << got[q].size();
    }
  }
  return ::testing::AssertionSuccess();
}

/// The contract for approximate settings: deterministic well-formed
/// answers whose every (id, score) pair is reference-bitwise — ordered by
/// (score desc, global id asc), no duplicate ids, ids in range, at most
/// min(k, corpus) hits, each score exactly the scalar oracle's score for
/// that (query, id).
::testing::AssertionResult WellFormedTopK(
    const std::vector<std::vector<serve::ScoredHit>>& full_ranking,
    const std::vector<std::vector<serve::ScoredHit>>& got, int64_t k,
    int64_t corpus_rows) {
  if (full_ranking.size() != got.size()) {
    return ::testing::AssertionFailure()
           << "query-row count diverges: reference " << full_ranking.size()
           << ", backend " << got.size();
  }
  for (size_t q = 0; q < got.size(); ++q) {
    std::unordered_map<int64_t, float> oracle;
    for (const serve::ScoredHit& hit : full_ranking[q]) {
      oracle[hit.index] = hit.score;
    }
    const auto& hits = got[q];
    if (static_cast<int64_t>(hits.size()) >
        std::min<int64_t>(k, corpus_rows)) {
      return ::testing::AssertionFailure()
             << "query " << q << " returned " << hits.size()
             << " hits, more than min(k, corpus) = "
             << std::min<int64_t>(k, corpus_rows);
    }
    std::set<int64_t> seen;
    for (size_t rank = 0; rank < hits.size(); ++rank) {
      const serve::ScoredHit& hit = hits[rank];
      if (hit.index < 0 || hit.index >= corpus_rows) {
        return ::testing::AssertionFailure()
               << "(query " << q << ", rank " << rank << "): id "
               << hit.index << " out of range [0, " << corpus_rows << ")";
      }
      if (!seen.insert(hit.index).second) {
        return ::testing::AssertionFailure()
               << "(query " << q << ", rank " << rank << "): duplicate id "
               << hit.index;
      }
      if (oracle.at(hit.index) != hit.score) {
        return ::testing::AssertionFailure()
               << "(query " << q << ", rank " << rank << ", id "
               << hit.index << "): score " << std::hexfloat << hit.score
               << " is not the reference score "
               << oracle.at(hit.index) << std::defaultfloat;
      }
      if (rank > 0) {
        const serve::ScoredHit& prev = hits[rank - 1];
        const bool ordered =
            prev.score > hit.score ||
            (prev.score == hit.score && prev.index < hit.index);
        if (!ordered) {
          return ::testing::AssertionFailure()
                 << "(query " << q << ", rank " << rank
                 << "): order violates (score desc, id asc): prev (id "
                 << prev.index << ", score " << std::hexfloat << prev.score
                 << "), this (id " << hit.index << ", score " << hit.score
                 << ")" << std::defaultfloat;
        }
      }
    }
  }
  return ::testing::AssertionSuccess();
}

class BackendGoldenTest : public ::testing::TestWithParam<std::string> {};

// --- The golden matrix ---------------------------------------------------

TEST_P(BackendGoldenTest, MatchesScalarReferenceAcrossTheMatrix) {
  const std::string name = GetParam();
  auto traits = serve::TraitsOfBackend(name);
  ASSERT_TRUE(traits.ok()) << traits.status().ToString();

  for (const Corpus& corpus : GoldenCorpora()) {
    const int64_t rows = corpus.items.rows();
    const auto full_ranking = ScalarReference(corpus, rows);
    std::vector<int64_t> shard_counts =
        traits->sharded ? std::vector<int64_t>{1, 2, 3, 7}
                        : std::vector<int64_t>{1};
    if (traits->sharded && rows <= 16 &&
        std::find(shard_counts.begin(), shard_counts.end(), rows) ==
            shard_counts.end()) {
      // One row per shard — the balanced-partition edge a ceil-based
      // chunking used to get wrong.
      shard_counts.push_back(rows);
    }
    for (const int64_t shards : shard_counts) {
      if (shards > rows) continue;  // Create rejects empty shards.
      auto backend = MustCreate(name, corpus, shards);
      ASSERT_EQ(backend->size(), rows);
      ASSERT_EQ(backend->dim(), corpus.items.cols());
      const std::vector<int64_t> probe_settings =
          traits->has_probes
              ? std::vector<int64_t>{1, backend->max_probes()}
              : std::vector<int64_t>{0};
      for (const int64_t probes : probe_settings) {
        if (probes > 0) {
          ASSERT_TRUE(backend->SetProbes(probes).ok());
        }
        for (const int64_t k : {int64_t{1}, int64_t{3}, rows + 7}) {
          const auto reference = ScalarReference(corpus, k);
          std::vector<std::vector<serve::ScoredHit>> at_one_thread;
          for (const int threads : {1, 2, 4}) {
            ThreadGuard guard(threads);
            const auto got = MustScore(*backend, corpus.queries, k);
            const std::string where =
                "backend=" + name + " corpus=" + corpus.name +
                " shards=" + std::to_string(shards) +
                " probes=" + std::to_string(probes) +
                " k=" + std::to_string(k) +
                " threads=" + std::to_string(threads);
            if (backend->exact()) {
              EXPECT_TRUE(SameTopK(reference, got)) << where;
            } else {
              EXPECT_TRUE(WellFormedTopK(full_ranking, got, k, rows))
                  << where;
            }
            // Exact or not, the answer must not depend on the kernel
            // thread count.
            if (threads == 1) {
              at_one_thread = got;
            } else {
              EXPECT_TRUE(SameTopK(at_one_thread, got))
                  << where << " (diverges from the 1-thread answer)";
            }
          }
        }
      }
    }
  }
}

// --- Degenerate shapes and contract pins ---------------------------------

TEST_P(BackendGoldenTest, EmptyBatchAnswersZeroRows) {
  auto backend = MustCreate(GetParam(), GoldenCorpora()[0]);
  auto result = backend->ScoreTopK(serve::QueryBatch{}, /*filter=*/nullptr,
                                   5, serve::QueryOptions());
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(result->hits.empty());
}

TEST_P(BackendGoldenTest, InvalidRequestsAreDescriptiveStatuses) {
  auto backend = MustCreate(GetParam(), GoldenCorpora()[0]);
  const Tensor& queries = GoldenCorpora()[0].queries;
  // k must be positive.
  auto bad_k = backend->ScoreTopK(serve::QueryBatch{queries}, nullptr, 0,
                                  serve::QueryOptions());
  ASSERT_FALSE(bad_k.ok());
  EXPECT_EQ(bad_k.status().code(), StatusCode::kInvalidArgument);
  // Query width must match the corpus dim.
  Tensor narrow = ClusteredUnitRows(1, 2, 4, 31);
  auto bad_dim = backend->ScoreTopK(serve::QueryBatch{narrow}, nullptr, 5,
                                    serve::QueryOptions());
  ASSERT_FALSE(bad_dim.ok());
  EXPECT_EQ(bad_dim.status().code(), StatusCode::kInvalidArgument);
  // Query values must be finite: NaN breaks the ranking's ordering and an
  // infinity turns scores into inf or NaN. The status names the cell.
  ASSERT_GE(queries.rows(), 2);
  for (float bad : {std::numeric_limits<float>::quiet_NaN(),
                    std::numeric_limits<float>::infinity(),
                    -std::numeric_limits<float>::infinity()}) {
    Tensor poisoned = queries.Clone();
    poisoned.At(1, 3) = bad;
    auto rejected = backend->ScoreTopK(serve::QueryBatch{poisoned}, nullptr,
                                       5, serve::QueryOptions());
    ASSERT_FALSE(rejected.ok()) << "value " << bad;
    EXPECT_EQ(rejected.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(rejected.status().message().find("row 1"), std::string::npos)
        << rejected.status().ToString();
    EXPECT_NE(rejected.status().message().find("column 3"), std::string::npos)
        << rejected.status().ToString();
  }
}

TEST_P(BackendGoldenTest, FilterIsRejectedAsUnimplemented) {
  // The predicate-pushdown seam: until a backend implements filtered
  // retrieval, a non-null filter must be an honest kUnimplemented naming
  // the backend — never a silently unfiltered answer.
  const std::string name = GetParam();
  auto backend = MustCreate(name, GoldenCorpora()[0]);
  serve::Filter filter;
  filter.allowed_ids = {0, 1};
  auto result =
      backend->ScoreTopK(serve::QueryBatch{GoldenCorpora()[0].queries},
                         &filter, 5, serve::QueryOptions());
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kUnimplemented);
  EXPECT_NE(result.status().message().find(name), std::string::npos)
      << result.status().ToString();
}

TEST_P(BackendGoldenTest, ProbeDialStatusMatchesTraits) {
  const std::string name = GetParam();
  auto traits = serve::TraitsOfBackend(name);
  ASSERT_TRUE(traits.ok());
  auto backend = MustCreate(name, GoldenCorpora()[0]);
  EXPECT_EQ(backend->has_probes(), traits->has_probes);
  if (!traits->has_probes) {
    // Satellite pin: dial-less backends answer SetProbes with a
    // descriptive kFailedPrecondition naming the backend, not silence.
    const Status rejected = backend->SetProbes(2);
    ASSERT_FALSE(rejected.ok());
    EXPECT_EQ(rejected.code(), StatusCode::kFailedPrecondition);
    EXPECT_NE(rejected.message().find(name), std::string::npos)
        << rejected.ToString();
    EXPECT_EQ(backend->probes(), 0);
    EXPECT_EQ(backend->max_probes(), 0);
    EXPECT_TRUE(backend->exact());
  } else {
    EXPECT_FALSE(backend->SetProbes(0).ok());
    EXPECT_FALSE(backend->SetProbes(backend->max_probes() + 1).ok());
    ASSERT_TRUE(backend->SetProbes(backend->max_probes()).ok());
    EXPECT_EQ(backend->probes(), backend->max_probes());
    EXPECT_TRUE(backend->exact());  // Every list probed == exact.
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllRegistered, BackendGoldenTest,
    ::testing::ValuesIn(serve::RegisteredBackendNames()),
    [](const ::testing::TestParamInfo<std::string>& info) {
      return info.param;
    });

// --- The registry itself -------------------------------------------------

TEST(BackendRegistryTest, UnknownNameListsEveryRegisteredBackend) {
  auto backend = serve::CreateBackend("no-such-backend",
                                      ConfigFor(GoldenCorpora()[0], 1));
  ASSERT_FALSE(backend.ok());
  EXPECT_EQ(backend.status().code(), StatusCode::kInvalidArgument);
  for (const std::string& name : serve::RegisteredBackendNames()) {
    EXPECT_NE(backend.status().message().find(name), std::string::npos)
        << "miss message does not list '" << name
        << "': " << backend.status().ToString();
  }
  auto canonical = serve::CanonicalBackendName("no-such-backend");
  EXPECT_FALSE(canonical.ok());
}

TEST(BackendRegistryTest, DuplicateRegistrationIsRejected) {
  const Status duplicate = serve::RegisterBackend(
      "scalar",
      [](const serve::BackendConfig&)
          -> StatusOr<std::unique_ptr<serve::ScoringBackend>> {
        return Status::Internal("never called");
      });
  ASSERT_FALSE(duplicate.ok());
  EXPECT_EQ(duplicate.code(), StatusCode::kInvalidArgument);
}

TEST(BackendRegistryTest, EnumRoundTripsThroughTheRegistry) {
  // The Backend enum is a thin alias over registry names: every enum value
  // maps to a registered name and back.
  for (const serve::Backend backend :
       {serve::Backend::kScalar, serve::Backend::kExhaustive,
        serve::Backend::kIvf, serve::Backend::kQuantized,
        serve::Backend::kMutable}) {
    const std::string name = serve::BackendName(backend);
    ASSERT_TRUE(serve::CanonicalBackendName(name).ok()) << name;
    auto round = serve::BackendFromName(name);
    ASSERT_TRUE(round.ok()) << round.status().ToString();
    EXPECT_EQ(*round, backend);
  }
  // Registered names that are topologies of services, not embeddable
  // backends, are a descriptive rejection.
  auto sharded = serve::BackendFromName("sharded");
  ASSERT_FALSE(sharded.ok());
  EXPECT_EQ(sharded.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(sharded.status().message().find("sharded"), std::string::npos);
}

}  // namespace
}  // namespace adamine
