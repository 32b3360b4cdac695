// Live-mutation suite: the crash-safety contract of src/mutate/ (see
// DESIGN.md, "Live mutation and crash recovery").
//
//  1. A mutation acknowledged by Add / Delete survives kill -9 at ANY
//     boundary — torn WAL tail, crashed seal, crashed merge, torn manifest
//     — proven with the mutate.* fault points in-process and with a real
//     forked-and-SIGKILLed child (MutateKill9Test).
//  2. Recovery never resurrects a tombstoned row, never loses an
//     acknowledged one, never reuses an id, and deletes every crash
//     artefact (orphaned segments, rotated-but-uncommitted WALs, torn
//     manifests, temp files).
//  3. Corrupt or truncated WAL / segment / manifest files are rejected
//     with a clean Status at every byte (flip + truncation sweeps).
//  4. The "mutable" scoring backend is bit-identical to a freshly built
//     exhaustive backend over the surviving rows — including after
//     concurrent mutation, once quiesced and flushed.
//  5. The serving layer's result cache is epoch-keyed: a query cached
//     before an Add can never serve the stale row set again.

#include <gtest/gtest.h>
#include <signal.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "io/serialize.h"
#include "kernel/kernel.h"
#include "mutate/manifest.h"
#include "mutate/mutable_backend.h"
#include "mutate/mutable_corpus.h"
#include "mutate/segment.h"
#include "mutate/wal.h"
#include "mutate_testlib.h"
#include "serve/backend.h"
#include "serve/retrieval_service.h"
#include "tensor/tensor.h"
#include "util/fault.h"
#include "util/status.h"

namespace adamine {
namespace {

namespace fs = std::filesystem;
using mutate::CorpusSnapshot;
using mutate::Manifest;
using mutate::MutableCorpus;
using mutate::MutableCorpusConfig;
using mutate::WalRecord;
using mutate_testlib::OpSim;
using mutate_testlib::RowForId;

constexpr int64_t kDim = 8;

Tensor RowTensor(int64_t id) {
  return Tensor::FromVector({kDim}, RowForId(id, kDim));
}

/// [n, kDim] tensor whose row i is the deterministic row for ids[i].
Tensor ItemsForIds(const std::vector<int64_t>& ids) {
  Tensor items({static_cast<int64_t>(ids.size()), kDim});
  for (size_t i = 0; i < ids.size(); ++i) {
    const auto row = RowForId(ids[i], kDim);
    std::memcpy(items.data() + static_cast<int64_t>(i) * kDim, row.data(),
                sizeof(float) * kDim);
  }
  return items;
}

/// Ascending live ids visible in `snap` (sealed segments + memtable, minus
/// tombstones). Sealed and memtable ids are disjoint by construction.
std::vector<int64_t> LiveIdsOf(const CorpusSnapshot& snap) {
  std::vector<int64_t> ids;
  for (const auto& segment : snap.sealed) {
    for (const int64_t id : segment->ids) {
      if (!snap.deleted(id)) ids.push_back(id);
    }
  }
  for (int64_t r = 0; r < snap.mem_rows; ++r) {
    const auto& chunk = *snap.mem[static_cast<size_t>(
        r / mutate::MemChunk::kRows)];
    const int64_t id =
        chunk.ids[static_cast<size_t>(r % mutate::MemChunk::kRows)];
    if (!snap.deleted(id)) ids.push_back(id);
  }
  std::sort(ids.begin(), ids.end());
  return ids;
}

std::string ReadFileBytes(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  std::ostringstream buffer;
  buffer << is.rdbuf();
  return buffer.str();
}

void WriteFileBytes(const std::string& path, const std::string& bytes) {
  std::ofstream os(path, std::ios::binary | std::ios::trunc);
  os.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

std::vector<std::string> DirEntries(const std::string& dir) {
  std::vector<std::string> names;
  for (const auto& entry : fs::directory_iterator(dir)) {
    names.push_back(entry.path().filename().string());
  }
  std::sort(names.begin(), names.end());
  return names;
}

class MutateTest : public ::testing::Test {
 protected:
  void SetUp() override {
    fault::Reset();
    const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
    // The pid keeps the dir unique per PROCESS: the labelled ctest
    // batteries re-run these suites concurrently with the discovered
    // per-test entries, and two processes in the same test must not
    // remove_all each other's corpus.
    dir_ = (fs::temp_directory_path() /
            (std::string("adamine_mutate_") + info->name() + "_" +
             std::to_string(::getpid())))
               .string();
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }

  void TearDown() override {
    fault::Reset();
    fs::remove_all(dir_);
  }

  std::string Path(const std::string& name) const { return dir_ + "/" + name; }

  /// Opens the corpus at dir_ with deterministic (foreground-only)
  /// maintenance.
  StatusOr<std::unique_ptr<MutableCorpus>> OpenCorpus(
      int64_t seal_threshold = 4096) {
    MutableCorpusConfig config;
    config.dim = kDim;
    config.seal_threshold = seal_threshold;
    config.background = false;
    return MutableCorpus::Open(dir_, config);
  }

  std::string dir_;
};

// --- WAL: round trip, torn tails, corruption ------------------------------

using WalTest = MutateTest;

TEST_F(WalTest, RoundTripsAddsAndDeletes) {
  const std::string path = Path("wal");
  auto writer = mutate::WalWriter::Create(path);
  ASSERT_TRUE(writer.ok()) << writer.status().ToString();
  for (int64_t id = 0; id < 3; ++id) {
    WalRecord record;
    record.kind = WalRecord::Kind::kAdd;
    record.id = id;
    record.row = RowForId(id, kDim);
    ASSERT_TRUE((*writer)->Append(record).ok());
  }
  WalRecord del;
  del.kind = WalRecord::Kind::kDelete;
  del.id = 1;
  ASSERT_TRUE((*writer)->Append(del).ok());

  auto replay = mutate::ReplayWal(path, kDim);
  ASSERT_TRUE(replay.ok()) << replay.status().ToString();
  EXPECT_FALSE(replay->torn);
  ASSERT_EQ(replay->records.size(), 4u);
  for (int64_t id = 0; id < 3; ++id) {
    const WalRecord& record = replay->records[static_cast<size_t>(id)];
    EXPECT_EQ(record.kind, WalRecord::Kind::kAdd);
    EXPECT_EQ(record.id, id);
    EXPECT_EQ(record.row, RowForId(id, kDim));
  }
  EXPECT_EQ(replay->records[3].kind, WalRecord::Kind::kDelete);
  EXPECT_EQ(replay->records[3].id, 1);
  EXPECT_EQ(replay->valid_bytes,
            static_cast<int64_t>(ReadFileBytes(path).size()));
}

TEST_F(WalTest, EveryTruncationKeepsTheIntactPrefix) {
  const std::string path = Path("wal");
  auto writer = mutate::WalWriter::Create(path);
  ASSERT_TRUE(writer.ok());
  // Record boundaries, learned as the file grows — no format arithmetic
  // duplicated here.
  std::vector<int64_t> boundaries = {8};  // Just past the header.
  for (int64_t id = 0; id < 3; ++id) {
    WalRecord record;
    record.kind = WalRecord::Kind::kAdd;
    record.id = id;
    record.row = RowForId(id, kDim);
    ASSERT_TRUE((*writer)->Append(record).ok());
    boundaries.push_back(static_cast<int64_t>(ReadFileBytes(path).size()));
  }
  const std::string full = ReadFileBytes(path);

  for (size_t cut = 0; cut < full.size(); ++cut) {
    const std::string torn_path = Path("wal_torn");
    WriteFileBytes(torn_path, full.substr(0, cut));
    auto replay = mutate::ReplayWal(torn_path, kDim);
    if (cut < 8) {
      // Not even a header: corruption, not a crash artefact.
      ASSERT_FALSE(replay.ok()) << "cut=" << cut;
      EXPECT_EQ(replay.status().code(), StatusCode::kDataLoss);
      continue;
    }
    ASSERT_TRUE(replay.ok()) << "cut=" << cut;
    // The intact prefix: every record wholly before the cut.
    size_t expected = 0;
    int64_t expected_valid = 8;
    while (expected + 1 < boundaries.size() &&
           boundaries[expected + 1] <= static_cast<int64_t>(cut)) {
      ++expected;
      expected_valid = boundaries[expected];
    }
    EXPECT_EQ(replay->records.size(), expected) << "cut=" << cut;
    EXPECT_EQ(replay->valid_bytes, expected_valid) << "cut=" << cut;
    EXPECT_EQ(replay->torn, expected_valid < static_cast<int64_t>(cut))
        << "cut=" << cut;
    for (size_t i = 0; i < replay->records.size(); ++i) {
      EXPECT_EQ(replay->records[i].id, static_cast<int64_t>(i));
      EXPECT_EQ(replay->records[i].row, RowForId(static_cast<int64_t>(i), kDim));
    }
  }
}

TEST_F(WalTest, EveryByteFlipKeepsOnlyIntactRecords) {
  const std::string path = Path("wal");
  auto writer = mutate::WalWriter::Create(path);
  ASSERT_TRUE(writer.ok());
  for (int64_t id = 0; id < 3; ++id) {
    WalRecord record;
    record.kind = WalRecord::Kind::kAdd;
    record.id = id;
    record.row = RowForId(id, kDim);
    ASSERT_TRUE((*writer)->Append(record).ok());
  }
  const std::string full = ReadFileBytes(path);

  for (size_t flip = 0; flip < full.size(); ++flip) {
    std::string corrupt = full;
    corrupt[flip] = static_cast<char>(corrupt[flip] ^ 0x5A);
    const std::string flip_path = Path("wal_flip");
    WriteFileBytes(flip_path, corrupt);
    auto replay = mutate::ReplayWal(flip_path, kDim);
    if (flip < 8) {
      ASSERT_FALSE(replay.ok()) << "flip=" << flip;
      EXPECT_EQ(replay.status().code(), StatusCode::kDataLoss);
      continue;
    }
    // A flipped record byte can never be parsed as valid: the CRC rejects
    // the record, and everything from the flip on is discarded as a torn
    // tail. Records before the flip stay intact and bit-exact.
    ASSERT_TRUE(replay.ok()) << "flip=" << flip;
    EXPECT_LT(replay->records.size(), 3u) << "flip=" << flip;
    for (size_t i = 0; i < replay->records.size(); ++i) {
      EXPECT_EQ(replay->records[i].id, static_cast<int64_t>(i));
      EXPECT_EQ(replay->records[i].row, RowForId(static_cast<int64_t>(i), kDim));
    }
  }
}

TEST_F(WalTest, IntactRecordWithWrongDimIsDataLoss) {
  const std::string path = Path("wal");
  auto writer = mutate::WalWriter::Create(path);
  ASSERT_TRUE(writer.ok());
  WalRecord record;
  record.kind = WalRecord::Kind::kAdd;
  record.id = 0;
  record.row = RowForId(0, kDim);
  ASSERT_TRUE((*writer)->Append(record).ok());
  auto replay = mutate::ReplayWal(path, kDim + 1);
  ASSERT_FALSE(replay.ok());
  EXPECT_EQ(replay.status().code(), StatusCode::kDataLoss);
}

TEST_F(WalTest, OpenForAppendTruncatesTheTornTailFirst) {
  const std::string path = Path("wal");
  auto writer = mutate::WalWriter::Create(path);
  ASSERT_TRUE(writer.ok());
  for (int64_t id = 0; id < 2; ++id) {
    WalRecord record;
    record.kind = WalRecord::Kind::kAdd;
    record.id = id;
    record.row = RowForId(id, kDim);
    ASSERT_TRUE((*writer)->Append(record).ok());
  }
  writer->reset();
  // Tear mid-way into the second record.
  std::string bytes = ReadFileBytes(path);
  WriteFileBytes(path, bytes.substr(0, bytes.size() - 7));

  auto replay = mutate::ReplayWal(path, kDim);
  ASSERT_TRUE(replay.ok());
  EXPECT_TRUE(replay->torn);
  ASSERT_EQ(replay->records.size(), 1u);

  auto reopened = mutate::WalWriter::OpenForAppend(path, replay->valid_bytes);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  WalRecord next;
  next.kind = WalRecord::Kind::kAdd;
  next.id = 7;
  next.row = RowForId(7, kDim);
  ASSERT_TRUE((*reopened)->Append(next).ok());

  auto again = mutate::ReplayWal(path, kDim);
  ASSERT_TRUE(again.ok());
  EXPECT_FALSE(again->torn);
  ASSERT_EQ(again->records.size(), 2u);
  EXPECT_EQ(again->records[0].id, 0);
  EXPECT_EQ(again->records[1].id, 7);
}

// --- Sealed segments: round trip, corruption ------------------------------

using SegmentFileTest = MutateTest;

TEST_F(SegmentFileTest, RoundTripsIdsAndRowsBitwise) {
  const std::vector<int64_t> ids = {3, 5, 9};
  const Tensor rows = ItemsForIds(ids);
  const std::string path = Path("seg-00000000.adms");
  ASSERT_TRUE(mutate::WriteSegmentFile(path, ids, rows).ok());
  auto loaded = mutate::LoadSegmentFile(path, kDim);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->file, "seg-00000000.adms");
  EXPECT_EQ(loaded->ids, ids);
  ASSERT_EQ(loaded->rows.rows(), 3);
  EXPECT_EQ(std::memcmp(loaded->rows.data(), rows.data(),
                        sizeof(float) * 3 * kDim),
            0);
}

TEST_F(SegmentFileTest, FileNamesRoundTrip) {
  EXPECT_EQ(mutate::SegmentFileName(7), "seg-00000007.adms");
  EXPECT_EQ(mutate::ParseSegmentSeq("seg-00000007.adms"), 7);
  EXPECT_EQ(mutate::ParseSegmentSeq("seg-7.adms"), -1);
  EXPECT_EQ(mutate::ParseSegmentSeq("MANIFEST-00000007"), -1);
  EXPECT_EQ(mutate::ParseSegmentSeq("seg-00000007.adms.tmp"), -1);
}

TEST_F(SegmentFileTest, EveryTruncationAndByteFlipIsRejected) {
  const std::vector<int64_t> ids = {0, 1, 2};
  const std::string path = Path("seg-00000000.adms");
  ASSERT_TRUE(mutate::WriteSegmentFile(path, ids, ItemsForIds(ids)).ok());
  const std::string full = ReadFileBytes(path);
  const std::string hostile = Path("hostile.adms");
  for (size_t cut = 0; cut < full.size(); ++cut) {
    WriteFileBytes(hostile, full.substr(0, cut));
    EXPECT_FALSE(mutate::LoadSegmentFile(hostile, kDim).ok())
        << "cut=" << cut;
  }
  for (size_t flip = 0; flip < full.size(); ++flip) {
    std::string corrupt = full;
    corrupt[flip] = static_cast<char>(corrupt[flip] ^ 0x5A);
    WriteFileBytes(hostile, corrupt);
    EXPECT_FALSE(mutate::LoadSegmentFile(hostile, kDim).ok())
        << "flip=" << flip;
  }
}

TEST_F(SegmentFileTest, WrongDimAndUnsortedIdsAreRejected) {
  const std::vector<int64_t> ids = {0, 1};
  const std::string path = Path("seg-00000000.adms");
  ASSERT_TRUE(mutate::WriteSegmentFile(path, ids, ItemsForIds(ids)).ok());
  EXPECT_FALSE(mutate::LoadSegmentFile(path, kDim + 3).ok());

  const std::vector<int64_t> unsorted = {5, 3};
  ASSERT_TRUE(
      mutate::WriteSegmentFile(path, unsorted, ItemsForIds(unsorted)).ok());
  EXPECT_FALSE(mutate::LoadSegmentFile(path, kDim).ok());
}

// --- Manifests: round trip, corruption, the torn-commit fault -------------

using ManifestFileTest = MutateTest;

Manifest SampleManifest() {
  Manifest manifest;
  manifest.generation = 3;
  manifest.dim = kDim;
  manifest.next_id = 42;
  manifest.wal_file = "wal-00000003.admw";
  manifest.segments = {"seg-00000000.adms", "seg-00000002.adms"};
  manifest.tombstones = {7, 11};
  return manifest;
}

TEST_F(ManifestFileTest, RoundTripsEveryField) {
  const Manifest manifest = SampleManifest();
  ASSERT_TRUE(mutate::WriteManifestFile(dir_, manifest).ok());
  auto loaded =
      mutate::LoadManifestFile(Path(mutate::ManifestFileName(3)));
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->generation, 3);
  EXPECT_EQ(loaded->dim, kDim);
  EXPECT_EQ(loaded->next_id, 42);
  EXPECT_EQ(loaded->wal_file, "wal-00000003.admw");
  EXPECT_EQ(loaded->segments, manifest.segments);
  EXPECT_EQ(loaded->tombstones, manifest.tombstones);
}

TEST_F(ManifestFileTest, FileNamesRoundTrip) {
  EXPECT_EQ(mutate::ManifestFileName(12), "MANIFEST-00000012");
  EXPECT_EQ(mutate::ParseManifestGeneration("MANIFEST-00000012"), 12);
  EXPECT_EQ(mutate::ParseManifestGeneration("MANIFEST-12"), -1);
  EXPECT_EQ(mutate::ParseManifestGeneration("seg-00000012.adms"), -1);
}

TEST_F(ManifestFileTest, EveryTruncationAndByteFlipIsRejected) {
  ASSERT_TRUE(mutate::WriteManifestFile(dir_, SampleManifest()).ok());
  const std::string path = Path(mutate::ManifestFileName(3));
  const std::string full = ReadFileBytes(path);
  const std::string hostile = Path("MANIFEST-hostile");
  for (size_t cut = 0; cut < full.size(); ++cut) {
    WriteFileBytes(hostile, full.substr(0, cut));
    EXPECT_FALSE(mutate::LoadManifestFile(hostile).ok()) << "cut=" << cut;
  }
  for (size_t flip = 0; flip < full.size(); ++flip) {
    std::string corrupt = full;
    corrupt[flip] = static_cast<char>(corrupt[flip] ^ 0x5A);
    WriteFileBytes(hostile, corrupt);
    EXPECT_FALSE(mutate::LoadManifestFile(hostile).ok()) << "flip=" << flip;
  }
}

TEST_F(ManifestFileTest, TornCommitFaultLeavesARejectableFile) {
  fault::Arm(fault::kMutateManifestTorn);
  const Status torn = mutate::WriteManifestFile(dir_, SampleManifest());
  ASSERT_FALSE(torn.ok());
  fault::Reset();
  const std::string path = Path(mutate::ManifestFileName(3));
  ASSERT_TRUE(fs::exists(path));  // Written directly, no atomic rename.
  EXPECT_FALSE(mutate::LoadManifestFile(path).ok());
}

// --- MutableCorpus: mutation semantics, seal, merge, recovery -------------

using MutableCorpusTest = MutateTest;

TEST_F(MutableCorpusTest, FreshOpenCreatesGenerationZero) {
  auto corpus = OpenCorpus();
  ASSERT_TRUE(corpus.ok()) << corpus.status().ToString();
  EXPECT_EQ((*corpus)->live_rows(), 0);
  EXPECT_EQ((*corpus)->epoch(), 0);
  EXPECT_EQ(DirEntries(dir_),
            (std::vector<std::string>{"MANIFEST-00000000",
                                      "wal-00000000.admw"}));
}

TEST_F(MutableCorpusTest, AddAssignsSequentialIdsAndBumpsTheEpoch) {
  auto corpus = OpenCorpus();
  ASSERT_TRUE(corpus.ok());
  for (int64_t id = 0; id < 4; ++id) {
    auto added = (*corpus)->Add(RowTensor(id));
    ASSERT_TRUE(added.ok()) << added.status().ToString();
    EXPECT_EQ(*added, id);
    EXPECT_EQ((*corpus)->epoch(), id + 1);
  }
  EXPECT_EQ((*corpus)->live_rows(), 4);

  auto bad = (*corpus)->Add(Tensor({kDim + 1}));
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(MutableCorpusTest, DeleteRequiresALiveRow) {
  auto corpus = OpenCorpus();
  ASSERT_TRUE(corpus.ok());
  ASSERT_TRUE((*corpus)->Add(RowTensor(0)).ok());
  EXPECT_EQ((*corpus)->Delete(99).code(), StatusCode::kNotFound);
  ASSERT_TRUE((*corpus)->Delete(0).ok());
  EXPECT_EQ((*corpus)->Delete(0).code(), StatusCode::kNotFound);
  EXPECT_EQ((*corpus)->live_rows(), 0);
}

TEST_F(MutableCorpusTest, ReopenWithoutFlushReplaysTheWal) {
  {
    auto corpus = OpenCorpus();
    ASSERT_TRUE(corpus.ok());
    for (int64_t id = 0; id < 5; ++id) {
      ASSERT_TRUE((*corpus)->Add(RowTensor(id)).ok());
    }
    ASSERT_TRUE((*corpus)->Delete(1).ok());
  }  // No flush: durability must come from the WAL alone.
  auto corpus = OpenCorpus();
  ASSERT_TRUE(corpus.ok()) << corpus.status().ToString();
  auto snap = (*corpus)->snapshot();
  EXPECT_EQ(LiveIdsOf(*snap), (std::vector<int64_t>{0, 2, 3, 4}));
  // The recovered memtable rows are bit-exact.
  for (int64_t r = 0; r < snap->mem_rows; ++r) {
    const auto& chunk = *snap->mem[0];
    const int64_t id = chunk.ids[static_cast<size_t>(r)];
    EXPECT_EQ(std::memcmp(chunk.data.data() + r * kDim,
                          RowForId(id, kDim).data(), sizeof(float) * kDim),
              0);
  }
  auto added = (*corpus)->Add(RowTensor(5));
  ASSERT_TRUE(added.ok());
  EXPECT_EQ(*added, 5);  // next_id is monotonic across recovery.
}

TEST_F(MutableCorpusTest, FlushSealsTheMemtableAndRotatesTheWal) {
  auto corpus = OpenCorpus();
  ASSERT_TRUE(corpus.ok());
  for (int64_t id = 0; id < 5; ++id) {
    ASSERT_TRUE((*corpus)->Add(RowTensor(id)).ok());
  }
  const int64_t epoch_before = (*corpus)->epoch();
  ASSERT_TRUE((*corpus)->Flush().ok());
  const auto stats = (*corpus)->GetStats();
  EXPECT_EQ(stats.seals, 1);
  EXPECT_EQ(stats.generation, 1);
  EXPECT_EQ(stats.sealed_segments, 1);
  EXPECT_EQ(stats.mem_rows, 0);
  EXPECT_EQ(stats.wal_records, 0);
  // Seal reshapes storage without changing results: the epoch stays put.
  EXPECT_EQ((*corpus)->epoch(), epoch_before);
  EXPECT_EQ((*corpus)->live_rows(), 5);
  EXPECT_EQ(DirEntries(dir_),
            (std::vector<std::string>{"MANIFEST-00000001",
                                      "seg-00000000.adms",
                                      "wal-00000001.admw"}));
  // An empty flush is a no-op — no new generation, no file churn.
  ASSERT_TRUE((*corpus)->Flush().ok());
  EXPECT_EQ((*corpus)->GetStats().generation, 1);
}

TEST_F(MutableCorpusTest, SealDropsRowsAlreadyTombstoned) {
  auto corpus = OpenCorpus();
  ASSERT_TRUE(corpus.ok());
  for (int64_t id = 0; id < 4; ++id) {
    ASSERT_TRUE((*corpus)->Add(RowTensor(id)).ok());
  }
  ASSERT_TRUE((*corpus)->Delete(2).ok());
  ASSERT_TRUE((*corpus)->Flush().ok());
  auto segment = mutate::LoadSegmentFile(Path("seg-00000000.adms"), kDim);
  ASSERT_TRUE(segment.ok());
  EXPECT_EQ(segment->ids, (std::vector<int64_t>{0, 1, 3}));
}

TEST_F(MutableCorpusTest, SealedDeletesScanAsTombstonesAndMergeCompactsThem) {
  auto corpus = OpenCorpus();
  ASSERT_TRUE(corpus.ok());
  for (int64_t id = 0; id < 4; ++id) {
    ASSERT_TRUE((*corpus)->Add(RowTensor(id)).ok());
  }
  ASSERT_TRUE((*corpus)->Flush().ok());
  for (int64_t id = 4; id < 8; ++id) {
    ASSERT_TRUE((*corpus)->Add(RowTensor(id)).ok());
  }
  ASSERT_TRUE((*corpus)->Flush().ok());
  ASSERT_EQ((*corpus)->GetStats().sealed_segments, 2);

  ASSERT_TRUE((*corpus)->Delete(1).ok());  // A sealed row.
  auto snap = (*corpus)->snapshot();
  EXPECT_TRUE(snap->deleted(1));
  EXPECT_EQ((*corpus)->live_rows(), 7);
  EXPECT_EQ(LiveIdsOf(*snap), (std::vector<int64_t>{0, 2, 3, 4, 5, 6, 7}));

  ASSERT_TRUE((*corpus)->Merge().ok());
  const auto stats = (*corpus)->GetStats();
  EXPECT_EQ(stats.merges, 1);
  EXPECT_EQ(stats.sealed_segments, 1);
  auto merged = mutate::LoadSegmentFile(Path("seg-00000002.adms"), kDim);
  ASSERT_TRUE(merged.ok()) << merged.status().ToString();
  EXPECT_EQ(merged->ids, (std::vector<int64_t>{0, 2, 3, 4, 5, 6, 7}));
  // The tombstone is compacted away for good: the new manifest lists none.
  auto manifest =
      mutate::LoadManifestFile(Path(mutate::ManifestFileName(3)));
  ASSERT_TRUE(manifest.ok());
  EXPECT_TRUE(manifest->tombstones.empty());

  // Merge pressure is gone: another merge is a no-op.
  ASSERT_TRUE((*corpus)->Merge().ok());
  EXPECT_EQ((*corpus)->GetStats().generation, 3);
}

TEST_F(MutableCorpusTest, IdsAreNeverReusedAcrossDeleteCompactAndRecovery) {
  {
    auto corpus = OpenCorpus();
    ASSERT_TRUE(corpus.ok());
    for (int64_t id = 0; id < 3; ++id) {
      ASSERT_TRUE((*corpus)->Add(RowTensor(id)).ok());
    }
    for (int64_t id = 0; id < 3; ++id) {
      ASSERT_TRUE((*corpus)->Delete(id).ok());
    }
    ASSERT_TRUE((*corpus)->Flush().ok());
    ASSERT_TRUE((*corpus)->Merge().ok());
    EXPECT_EQ((*corpus)->live_rows(), 0);
  }
  auto corpus = OpenCorpus();
  ASSERT_TRUE(corpus.ok());
  auto added = (*corpus)->Add(RowTensor(3));
  ASSERT_TRUE(added.ok());
  EXPECT_EQ(*added, 3);  // Fully-deleted history still pins next_id.
}

TEST_F(MutableCorpusTest, DimMismatchOnOpenIsRejected) {
  {
    auto corpus = OpenCorpus();
    ASSERT_TRUE(corpus.ok());
    ASSERT_TRUE((*corpus)->Add(RowTensor(0)).ok());
  }
  MutableCorpusConfig config;
  config.dim = kDim + 1;
  config.background = false;
  auto reopened = MutableCorpus::Open(dir_, config);
  ASSERT_FALSE(reopened.ok());
  EXPECT_EQ(reopened.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(MutableCorpusTest, BackgroundMaintenanceSealsAndMergesUnderPressure) {
  MutableCorpusConfig config;
  config.dim = kDim;
  config.seal_threshold = 8;
  config.merge_threshold = 2;
  config.background = true;
  auto corpus = MutableCorpus::Open(dir_, config);
  ASSERT_TRUE(corpus.ok());
  for (int64_t id = 0; id < 64; ++id) {
    ASSERT_TRUE((*corpus)->Add(RowTensor(id)).ok());
  }
  // Quiesce: the background thread owes us at least one seal; wait for the
  // backlog to drain, then flush the remainder deterministically.
  for (int i = 0; i < 1000 && (*corpus)->GetStats().seals == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  EXPECT_GT((*corpus)->GetStats().seals, 0);
  ASSERT_TRUE((*corpus)->Flush().ok());
  EXPECT_EQ((*corpus)->live_rows(), 64);
  auto snap = (*corpus)->snapshot();
  std::vector<int64_t> expected(64);
  for (int64_t id = 0; id < 64; ++id) expected[static_cast<size_t>(id)] = id;
  EXPECT_EQ(LiveIdsOf(*snap), expected);
}

TEST_F(MutableCorpusTest, EmptyAddBatchDoesNotBumpTheEpoch) {
  auto corpus = OpenCorpus();
  ASSERT_TRUE(corpus.ok());
  ASSERT_TRUE((*corpus)->Add(RowTensor(0)).ok());
  const int64_t epoch = (*corpus)->epoch();
  // A zero-extent [0, dim] tensor is unconstructible (Tensor CHECKs every
  // extent > 0), so the only empty batch a caller can form is an undefined
  // tensor: rejected up front. AddRows additionally early-returns on
  // n == 0, so no empty batch can ever bump the epoch and needlessly
  // invalidate the epoch-keyed result cache.
  auto rejected = (*corpus)->AddBatch(Tensor());
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ((*corpus)->epoch(), epoch);
  EXPECT_EQ((*corpus)->live_rows(), 1);
}

TEST_F(MutableCorpusTest, FreshCorpusCleansTempDebris) {
  // A crash during the very first manifest commit leaves a .tmp behind
  // (and possibly a stray WAL); a fresh corpus must sweep them too.
  WriteFileBytes(Path("MANIFEST-00000000.tmp"), "junk");
  WriteFileBytes(Path("wal-00000099.admw"), "junk");
  auto corpus = OpenCorpus();
  ASSERT_TRUE(corpus.ok()) << corpus.status().ToString();
  EXPECT_EQ(DirEntries(dir_),
            (std::vector<std::string>{"MANIFEST-00000000",
                                      "wal-00000000.admw"}));
}

// --- Fault-driven crash boundaries + recovery -----------------------------

using MutableCorpusFaultTest = MutateTest;

TEST_F(MutableCorpusFaultTest, TornWalAppendIsNotAcknowledged) {
  {
    auto corpus = OpenCorpus();
    ASSERT_TRUE(corpus.ok());
    ASSERT_TRUE((*corpus)->Add(RowTensor(0)).ok());
    ASSERT_TRUE((*corpus)->Add(RowTensor(1)).ok());

    fault::Arm(fault::kMutateWalTorn);
    auto torn = (*corpus)->Add(RowTensor(2));
    ASSERT_FALSE(torn.ok());  // NOT acknowledged.
    fault::Reset();

    // The corpus is read-only until recovery: reads still serve the acked
    // state, mutations are refused.
    EXPECT_EQ((*corpus)->live_rows(), 2);
    auto refused = (*corpus)->Add(RowTensor(3));
    ASSERT_FALSE(refused.ok());
    EXPECT_EQ(refused.status().code(), StatusCode::kFailedPrecondition);
    EXPECT_EQ((*corpus)->Delete(0).code(), StatusCode::kFailedPrecondition);
    EXPECT_EQ((*corpus)->Flush().code(), StatusCode::kFailedPrecondition);
  }
  // Recovery discards the torn tail: exactly the acked rows, and the id the
  // torn add would have taken is re-assigned (it was never acknowledged).
  auto corpus = OpenCorpus();
  ASSERT_TRUE(corpus.ok()) << corpus.status().ToString();
  EXPECT_EQ(LiveIdsOf(*(*corpus)->snapshot()),
            (std::vector<int64_t>{0, 1}));
  auto added = (*corpus)->Add(RowTensor(2));
  ASSERT_TRUE(added.ok());
  EXPECT_EQ(*added, 2);
}

TEST_F(MutableCorpusFaultTest, CrashedSealKeepsServingAndRecoversClean) {
  auto corpus = OpenCorpus();
  ASSERT_TRUE(corpus.ok());
  for (int64_t id = 0; id < 6; ++id) {
    ASSERT_TRUE((*corpus)->Add(RowTensor(id)).ok());
  }
  fault::Arm(fault::kMutateSealCrash);
  const Status crashed = (*corpus)->Flush();
  ASSERT_FALSE(crashed.ok());
  fault::Reset();

  // The orphaned segment is on disk; the corpus still serves its pre-seal
  // state and mutations keep flowing (the WAL is intact).
  EXPECT_TRUE(fs::exists(Path("seg-00000000.adms")));
  auto stats = (*corpus)->GetStats();
  EXPECT_EQ(stats.seals, 0);
  EXPECT_EQ(stats.generation, 0);
  EXPECT_EQ(stats.mem_rows, 6);
  ASSERT_TRUE((*corpus)->Add(RowTensor(6)).ok());

  // A later seal succeeds under a fresh sequence number; the orphan stays
  // until recovery deletes it.
  ASSERT_TRUE((*corpus)->Flush().ok());
  EXPECT_TRUE(fs::exists(Path("seg-00000001.adms")));
  EXPECT_TRUE(fs::exists(Path("seg-00000000.adms")));
  corpus->reset();

  auto reopened = OpenCorpus();
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_FALSE(fs::exists(Path("seg-00000000.adms")));  // Orphan cleaned.
  EXPECT_EQ(LiveIdsOf(*(*reopened)->snapshot()),
            (std::vector<int64_t>{0, 1, 2, 3, 4, 5, 6}));
}

TEST_F(MutableCorpusFaultTest, CrashedMergeKeepsBothSegments) {
  auto corpus = OpenCorpus();
  ASSERT_TRUE(corpus.ok());
  for (int64_t id = 0; id < 3; ++id) {
    ASSERT_TRUE((*corpus)->Add(RowTensor(id)).ok());
  }
  ASSERT_TRUE((*corpus)->Flush().ok());
  for (int64_t id = 3; id < 6; ++id) {
    ASSERT_TRUE((*corpus)->Add(RowTensor(id)).ok());
  }
  ASSERT_TRUE((*corpus)->Flush().ok());

  fault::Arm(fault::kMutateMergeCrash);
  ASSERT_FALSE((*corpus)->Merge().ok());
  fault::Reset();
  EXPECT_EQ((*corpus)->GetStats().sealed_segments, 2);
  EXPECT_TRUE(fs::exists(Path("seg-00000002.adms")));  // The orphan.
  corpus->reset();

  auto reopened = OpenCorpus();
  ASSERT_TRUE(reopened.ok());
  EXPECT_FALSE(fs::exists(Path("seg-00000002.adms")));
  EXPECT_EQ((*reopened)->GetStats().sealed_segments, 2);
  EXPECT_EQ(LiveIdsOf(*(*reopened)->snapshot()),
            (std::vector<int64_t>{0, 1, 2, 3, 4, 5}));
  ASSERT_TRUE((*reopened)->Merge().ok());
  EXPECT_EQ((*reopened)->GetStats().sealed_segments, 1);
}

TEST_F(MutableCorpusFaultTest, TornManifestFallsBackOneGeneration) {
  auto corpus = OpenCorpus();
  ASSERT_TRUE(corpus.ok());
  for (int64_t id = 0; id < 4; ++id) {
    ASSERT_TRUE((*corpus)->Add(RowTensor(id)).ok());
  }
  ASSERT_TRUE((*corpus)->Flush().ok());  // Generation 1.
  ASSERT_TRUE((*corpus)->Add(RowTensor(4)).ok());
  ASSERT_TRUE((*corpus)->Add(RowTensor(5)).ok());

  fault::Arm(fault::kMutateManifestTorn);
  ASSERT_FALSE((*corpus)->Flush().ok());
  fault::Reset();

  // The torn generation-2 commit left real crash debris: a torn manifest
  // under its final name, a rotated-but-uncommitted WAL, an orphan segment.
  EXPECT_TRUE(fs::exists(Path("MANIFEST-00000002")));
  EXPECT_TRUE(fs::exists(Path("wal-00000002.admw")));
  EXPECT_EQ((*corpus)->GetStats().generation, 1);  // In-memory: unswapped.
  corpus->reset();

  auto reopened = OpenCorpus();
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  // Fallback to generation 1, whose manifest + WAL hold the complete acked
  // history; every artefact of the failed commit is deleted.
  EXPECT_EQ((*reopened)->GetStats().generation, 1);
  EXPECT_EQ(LiveIdsOf(*(*reopened)->snapshot()),
            (std::vector<int64_t>{0, 1, 2, 3, 4, 5}));
  EXPECT_EQ(DirEntries(dir_),
            (std::vector<std::string>{"MANIFEST-00000001",
                                      "seg-00000000.adms",
                                      "wal-00000001.admw"}));
}

TEST_F(MutableCorpusFaultTest, PublishedButFailedSealCommitTurnsReadOnly) {
  auto corpus = OpenCorpus();
  ASSERT_TRUE(corpus.ok());
  for (int64_t id = 0; id < 4; ++id) {
    ASSERT_TRUE((*corpus)->Add(RowTensor(id)).ok());
  }
  // The generation-1 seal commit hits SyncPath four times: segment temp,
  // segment directory, manifest temp, manifest directory. skip=3 fails
  // only the last — the worst case, where the rename has already
  // published an intact MANIFEST-00000001 naming the rotated
  // wal-00000001, yet the commit reports failure and the in-memory state
  // stays at generation 0 appending to wal-00000000.
  fault::Arm(fault::kIoFsync, /*skip=*/3, /*fire=*/1);
  const Status failed = (*corpus)->Flush();
  fault::Reset();
  ASSERT_FALSE(failed.ok());
  EXPECT_TRUE(fs::exists(Path("MANIFEST-00000001")));
  EXPECT_EQ((*corpus)->GetStats().generation, 0);

  // Were another mutation acknowledged into the still-live wal-00000000,
  // a crash would recover from the intact newer manifest, replay only the
  // rotated WAL, and lose the ack. The corpus must turn read-only instead,
  // exactly like a WAL failure; reads keep serving the acked state.
  auto refused = (*corpus)->Add(RowTensor(4));
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ((*corpus)->Delete(0).code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ((*corpus)->Flush().code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ((*corpus)->live_rows(), 4);
  corpus->reset();

  // Recovery — from whichever generation survives; here the published
  // newer one — holds every acknowledged mutation, and ids keep advancing
  // from the manifest's next_id.
  auto reopened = OpenCorpus();
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ((*reopened)->GetStats().generation, 1);
  EXPECT_EQ(LiveIdsOf(*(*reopened)->snapshot()),
            (std::vector<int64_t>{0, 1, 2, 3}));
  auto added = (*reopened)->Add(RowTensor(4));
  ASSERT_TRUE(added.ok());
  EXPECT_EQ(*added, 4);
}

TEST_F(MutableCorpusFaultTest, EveryManifestTornIsDataLoss) {
  {
    auto corpus = OpenCorpus();
    ASSERT_TRUE(corpus.ok());
    ASSERT_TRUE((*corpus)->Add(RowTensor(0)).ok());
  }
  const std::string manifest = Path("MANIFEST-00000000");
  const std::string bytes = ReadFileBytes(manifest);
  WriteFileBytes(manifest, bytes.substr(0, bytes.size() / 2));
  auto reopened = OpenCorpus();
  ASSERT_FALSE(reopened.ok());
  EXPECT_EQ(reopened.status().code(), StatusCode::kDataLoss);
}

TEST_F(MutableCorpusFaultTest, StrayFilesAreDeletedAndTornNewestSkipped) {
  {
    auto corpus = OpenCorpus();
    ASSERT_TRUE(corpus.ok());
    for (int64_t id = 0; id < 4; ++id) {
      ASSERT_TRUE((*corpus)->Add(RowTensor(id)).ok());
    }
    ASSERT_TRUE((*corpus)->Flush().ok());  // Generation 1.
  }
  // Crash debris from hypothetical later generations: two torn manifests,
  // a stray WAL, a garbage segment, a temp file.
  WriteFileBytes(Path("MANIFEST-00000099"), "torn");
  WriteFileBytes(Path("MANIFEST-00000098"), "also torn");
  WriteFileBytes(Path("wal-00000099.admw"), "junk");
  WriteFileBytes(Path("seg-00000099.adms"), "junk");
  WriteFileBytes(Path("whatever.tmp"), "junk");

  auto corpus = OpenCorpus();
  ASSERT_TRUE(corpus.ok()) << corpus.status().ToString();
  EXPECT_EQ((*corpus)->GetStats().generation, 1);
  EXPECT_EQ(LiveIdsOf(*(*corpus)->snapshot()),
            (std::vector<int64_t>{0, 1, 2, 3}));
  EXPECT_EQ(DirEntries(dir_),
            (std::vector<std::string>{"MANIFEST-00000001",
                                      "seg-00000000.adms",
                                      "wal-00000001.admw"}));
  // The stray segment's sequence number is retired, never reassigned.
  ASSERT_TRUE((*corpus)->Add(RowTensor(4)).ok());
  ASSERT_TRUE((*corpus)->Flush().ok());
  EXPECT_TRUE(fs::exists(Path("seg-00000100.adms")));
}

// --- AtomicWriteFile durability (the io.fsync.fail regression) ------------

using AtomicWriteFsyncTest = MutateTest;

Status WritePayload(const std::string& path, const std::string& payload) {
  return io::AtomicWriteFile(path, [&](std::ostream& os) {
    os << payload;
    return Status::Ok();
  });
}

TEST_F(AtomicWriteFsyncTest, FileFsyncFailureKeepsTheOldContent) {
  const std::string path = Path("file");
  ASSERT_TRUE(WritePayload(path, "old").ok());
  fault::Arm(fault::kIoFsync, /*skip=*/0);
  const Status failed = WritePayload(path, "new");
  fault::Reset();
  ASSERT_FALSE(failed.ok());
  EXPECT_NE(failed.ToString().find("fsync"), std::string::npos)
      << failed.ToString();
  EXPECT_EQ(ReadFileBytes(path), "old");  // The rename never happened.
  EXPECT_FALSE(fs::exists(path + ".tmp"));
}

TEST_F(AtomicWriteFsyncTest, DirectoryFsyncFailureIsSurfaced) {
  const std::string path = Path("file");
  // skip=1: the temp-file fsync passes, the directory fsync fails — the
  // rename has happened but its durability cannot be promised, so the call
  // must NOT claim success.
  fault::Arm(fault::kIoFsync, /*skip=*/1);
  const Status failed = WritePayload(path, "new");
  fault::Reset();
  ASSERT_FALSE(failed.ok());
  EXPECT_NE(failed.ToString().find("fsync"), std::string::npos)
      << failed.ToString();
  EXPECT_FALSE(fs::exists(path + ".tmp"));
}

// --- The "mutable" scoring backend ----------------------------------------

using MutableBackendTest = MutateTest;

/// A static backend over `items`, row i answering as hit index i.
StatusOr<std::unique_ptr<serve::ScoringBackend>> BackendOver(
    const std::string& name, const Tensor& items) {
  serve::BackendConfig config;
  config.items = items;
  return serve::CreateBackend(name, config);
}

/// Diffs the mutable backend against the scalar oracle over the rows of
/// `live_ids` (ascending), with the id remap: scalar hit index i means
/// global id live_ids[i].
void ExpectBitIdentical(serve::ScoringBackend* mutable_backend,
                        const std::vector<int64_t>& live_ids,
                        const Tensor& live_rows, const Tensor& queries,
                        int64_t k) {
  auto reference = BackendOver("scalar", live_rows);
  ASSERT_TRUE(reference.ok()) << reference.status().ToString();
  serve::QueryBatch batch;
  batch.queries = queries;
  auto got = mutable_backend->ScoreTopK(batch, k, {});
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  auto want = (*reference)->ScoreTopK(batch, k, {});
  ASSERT_TRUE(want.ok()) << want.status().ToString();
  ASSERT_EQ(got->hits.size(), want->hits.size());
  for (size_t q = 0; q < want->hits.size(); ++q) {
    ASSERT_EQ(got->hits[q].size(), want->hits[q].size()) << "query " << q;
    for (size_t i = 0; i < want->hits[q].size(); ++i) {
      const int64_t expected_id =
          live_ids[static_cast<size_t>(want->hits[q][i].index)];
      EXPECT_EQ(got->hits[q][i].index, expected_id)
          << "query " << q << " hit " << i;
      EXPECT_EQ(got->hits[q][i].score, want->hits[q][i].score)
          << "query " << q << " hit " << i;  // Bitwise: exact float ==.
    }
  }
}

TEST_F(MutableBackendTest, RegistrySeedsAFreshCorpusFromTheItems) {
  serve::BackendConfig config;
  config.items = ItemsForIds({0, 1, 2, 3, 4, 5});
  auto backend = serve::CreateBackend("mutable", config);
  ASSERT_TRUE(backend.ok()) << backend.status().ToString();
  EXPECT_STREQ((*backend)->name(), "mutable");
  EXPECT_EQ((*backend)->size(), 6);
  EXPECT_EQ((*backend)->dim(), kDim);
  EXPECT_TRUE((*backend)->exact());
}

TEST_F(MutableBackendTest, ImmutableBackendsRejectMutation) {
  auto backend = BackendOver("exhaustive", ItemsForIds({0, 1}));
  ASSERT_TRUE(backend.ok());
  auto added = (*backend)->Add(RowTensor(9));
  ASSERT_FALSE(added.ok());
  EXPECT_EQ(added.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(added.status().ToString().find("immutable"), std::string::npos);
  EXPECT_EQ((*backend)->Delete(0).code(), StatusCode::kFailedPrecondition);
}

TEST_F(MutableBackendTest, MixedSealedAndMemtableStateIsBitIdentical) {
  serve::BackendConfig config;
  config.items = ItemsForIds({0, 1, 2, 3, 4, 5});
  config.wal_dir = dir_;
  auto backend = serve::CreateBackend("mutable", config);
  ASSERT_TRUE(backend.ok());
  auto* mutable_backend = static_cast<mutate::MutableBackend*>(backend->get());

  // Grow past the seed: seal some rows, leave some in the memtable, punch
  // holes in both.
  for (int64_t id = 6; id < 10; ++id) {
    auto added = (*backend)->Add(RowTensor(id));
    ASSERT_TRUE(added.ok());
    EXPECT_EQ(*added, id);
  }
  ASSERT_TRUE(mutable_backend->corpus()->Flush().ok());
  for (int64_t id = 10; id < 12; ++id) {
    ASSERT_TRUE((*backend)->Add(RowTensor(id)).ok());
  }
  ASSERT_TRUE((*backend)->Delete(3).ok());   // A sealed row.
  ASSERT_TRUE((*backend)->Delete(10).ok());  // A memtable row.
  EXPECT_EQ((*backend)->size(), 10);

  std::vector<int64_t> live_ids;
  for (int64_t id = 0; id < 12; ++id) {
    if (id != 3 && id != 10) live_ids.push_back(id);
  }
  ExpectBitIdentical(backend->get(), live_ids, ItemsForIds(live_ids),
                     ItemsForIds({1000, 1001, 1002, 1003, 1004}), 4);
}

TEST_F(MutableBackendTest, ServingShapeWithTombstonesAndCrossTierTies) {
  // The ingest-live shape at 1,100 rows: two sealed segments, then 600
  // memtable rows in three MemChunks, the last one partial. Every ninth id
  // repeats the vector of a first-segment row, so equal scores straddle
  // sealed and memtable rows and only the id tie-break orders them, and
  // every 37th id is deleted, leaving tombstones in each segment and chunk.
  constexpr int64_t kSegmentRows[] = {300, 200};
  constexpr int64_t kMemRows = 600;
  constexpr int64_t kRows = 300 + 200 + kMemRows;
  std::vector<int64_t> content(static_cast<size_t>(kRows));  // Row vectors.
  for (int64_t id = 0; id < kRows; ++id) {
    content[static_cast<size_t>(id)] = id % 9 == 4 ? id % 97 : id;
  }
  const auto content_of = [&](int64_t begin, int64_t end) {
    return ItemsForIds(std::vector<int64_t>(content.begin() + begin,
                                            content.begin() + end));
  };
  serve::BackendConfig config;
  config.items = content_of(0, kSegmentRows[0]);
  config.wal_dir = dir_;
  auto backend = serve::CreateBackend("mutable", config);
  ASSERT_TRUE(backend.ok()) << backend.status().ToString();
  MutableCorpus* corpus =
      static_cast<mutate::MutableBackend*>(backend->get())->corpus();
  ASSERT_TRUE(corpus->Flush().ok());
  ASSERT_TRUE(corpus->AddBatch(content_of(kSegmentRows[0], 500)).ok());
  ASSERT_TRUE(corpus->Flush().ok());
  ASSERT_TRUE(corpus->AddBatch(content_of(500, kRows)).ok());
  std::vector<int64_t> live_ids;
  for (int64_t id = 0; id < kRows; ++id) {
    if (id % 37 == 5) {
      ASSERT_TRUE((*backend)->Delete(id).ok());
    } else {
      live_ids.push_back(id);
    }
  }
  const auto snap = corpus->snapshot();
  ASSERT_EQ(snap->sealed.size(), 2u);
  ASSERT_EQ(snap->mem.size(), 3u);
  ASSERT_EQ(snap->mem_rows, kMemRows);
  std::vector<int64_t> live_content;
  for (int64_t id : live_ids) {
    live_content.push_back(content[static_cast<size_t>(id)]);
  }
  const Tensor live_rows = ItemsForIds(live_content);
  const int64_t live = static_cast<int64_t>(live_ids.size());

  for (const int64_t batch : {int64_t{1}, int64_t{5}, int64_t{33}}) {
    // Even queries are a repeated vector (a tie at the top), odd ones
    // fresh.
    std::vector<int64_t> query_ids;
    for (int64_t q = 0; q < batch; ++q) {
      query_ids.push_back(q % 2 == 0 ? (4 + 9 * q) % 97 : 5000 + q);
    }
    const Tensor queries = ItemsForIds(query_ids);
    for (const int64_t k : {int64_t{1}, int64_t{10}, live + 3}) {
      for (const int threads : {1, 4}) {
        SCOPED_TRACE("batch " + std::to_string(batch) + " k " +
                     std::to_string(k) + " threads " +
                     std::to_string(threads));
        kernel::SetNumThreads(threads);
        ExpectBitIdentical(backend->get(), live_ids, live_rows, queries, k);
        kernel::SetNumThreads(1);
      }
    }
  }
}

TEST_F(MutableBackendTest, JustIngestedRowIsImmediatelyRetrievable) {
  serve::BackendConfig config;
  config.items = ItemsForIds({0, 1, 2, 3});
  auto backend = serve::CreateBackend("mutable", config);
  ASSERT_TRUE(backend.ok());
  auto added = (*backend)->Add(RowTensor(777));
  ASSERT_TRUE(added.ok());
  serve::QueryBatch batch;
  batch.queries = ItemsForIds({777});
  auto result = (*backend)->ScoreTopK(batch, 1, {});
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->hits[0].size(), 1u);
  EXPECT_EQ(result->hits[0][0].index, *added);  // Its own nearest neighbour.
}

TEST_F(MutableBackendTest, PersistentWalDirSurvivesReopen) {
  serve::BackendConfig config;
  config.items = ItemsForIds({0, 1, 2});
  config.wal_dir = dir_;
  int64_t added_id = 0;
  {
    auto backend = serve::CreateBackend("mutable", config);
    ASSERT_TRUE(backend.ok());
    auto added = (*backend)->Add(RowTensor(3));
    ASSERT_TRUE(added.ok());
    added_id = *added;
  }
  // Second open: the recovered corpus — not the config items — is the
  // source of truth, so the add persists and nothing is double-seeded.
  auto backend = serve::CreateBackend("mutable", config);
  ASSERT_TRUE(backend.ok()) << backend.status().ToString();
  EXPECT_EQ((*backend)->size(), 4);
  serve::QueryBatch batch;
  batch.queries = ItemsForIds({3});
  auto result = (*backend)->ScoreTopK(batch, 1, {});
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->hits[0][0].index, added_id);
}

// --- The serving layer: epoch-keyed cache, mutation forwarding ------------

using RetrievalServiceMutableTest = MutateTest;

TEST_F(RetrievalServiceMutableTest, StaleCacheEntriesAreUnreachableAfterAdd) {
  serve::ServeConfig config;
  config.backend = serve::Backend::kMutable;
  config.cache_capacity = 64;
  auto service =
      serve::RetrievalService::Create(ItemsForIds({0, 1, 2, 3}), config);
  ASSERT_TRUE(service.ok()) << service.status().ToString();

  const Tensor query = RowTensor(777);
  (*service)->Query(query, 2);
  const auto first = (*service)->Query(query, 2);  // Cache hit.
  EXPECT_EQ((*service)->Snapshot().cache_hits, 1);

  // The new row is the query itself: any fresh scoring ranks it first.
  auto added = (*service)->Add(query);
  ASSERT_TRUE(added.ok()) << added.status().ToString();
  const auto second = (*service)->Query(query, 2);
  ASSERT_FALSE(second.empty());
  EXPECT_EQ(second[0], *added)
      << "the epoch-keyed cache must not serve the pre-Add result";
  EXPECT_NE(first, second);
  // The old entry was not *served*, it just aged out: hits unchanged.
  EXPECT_EQ((*service)->Snapshot().cache_hits, 1);

  // And the new result is itself cacheable under the new epoch.
  const auto third = (*service)->Query(query, 2);
  EXPECT_EQ(third, second);
  EXPECT_EQ((*service)->Snapshot().cache_hits, 2);
}

TEST_F(RetrievalServiceMutableTest, DeleteThroughTheServiceRemovesTheRow) {
  serve::ServeConfig config;
  config.backend = serve::Backend::kMutable;
  config.cache_capacity = 64;
  auto service =
      serve::RetrievalService::Create(ItemsForIds({0, 1, 2, 3}), config);
  ASSERT_TRUE(service.ok());
  const Tensor query = RowTensor(2);
  const auto before = (*service)->Query(query, 1);
  ASSERT_EQ(before, (std::vector<int64_t>{2}));
  ASSERT_TRUE((*service)->Delete(2).ok());
  EXPECT_EQ((*service)->size(), 3);
  const auto after = (*service)->Query(query, 4);
  EXPECT_EQ(std::count(after.begin(), after.end(), 2), 0);
}

TEST_F(RetrievalServiceMutableTest, ImmutableServiceBackendRejectsMutation) {
  serve::ServeConfig config;
  config.backend = serve::Backend::kExhaustive;
  auto service =
      serve::RetrievalService::Create(ItemsForIds({0, 1, 2, 3}), config);
  ASSERT_TRUE(service.ok());
  auto added = (*service)->Add(RowTensor(9));
  ASSERT_FALSE(added.ok());
  EXPECT_EQ(added.status().code(), StatusCode::kFailedPrecondition);
}

// --- Ingest-while-serving concurrency (runs under tsan via -L tsan) -------

using MutateConcurrencyTest = MutateTest;

TEST_F(MutateConcurrencyTest, ConcurrentMutateAndQueryThenBitIdentical) {
  MutableCorpusConfig corpus_config;
  corpus_config.dim = kDim;
  corpus_config.seal_threshold = 16;  // Real compaction pressure.
  corpus_config.merge_threshold = 2;
  corpus_config.background = true;
  auto opened = MutableCorpus::Open(dir_, corpus_config);
  ASSERT_TRUE(opened.ok());
  // The backend does not own the directory: MutateTest::TearDown does.
  mutate::MutableBackend backend(std::move(opened.value()), "");

  constexpr int kWriters = 2;
  constexpr int64_t kOpsPerWriter = 150;
  std::mutex log_mu;
  std::map<int64_t, std::vector<float>> added;   // id -> row, as acked.
  std::set<int64_t> deleted;                     // acked deletes.
  std::vector<int64_t> deletable;                // ids handed to the deleter.
  std::atomic<bool> writers_done{false};
  std::atomic<int> failures{0};

  std::vector<std::thread> threads;
  for (int w = 0; w < kWriters; ++w) {
    threads.emplace_back([&, w] {
      for (int64_t i = 0; i < kOpsPerWriter; ++i) {
        const auto row = RowForId(w * 1000000 + i, kDim);
        auto id = backend.Add(Tensor::FromVector({kDim}, row));
        if (!id.ok()) {
          ++failures;
          return;
        }
        {
          std::lock_guard<std::mutex> lock(log_mu);
          added[*id] = row;
          if (*id % 3 == 0) deletable.push_back(*id);
        }
        if (*id % 3 != 0 && i % 16 == 0) {
          // Recall-on-just-ingested: the acked row must be queryable NOW
          // (id % 3 != 0 keeps the deleter's hands off it).
          serve::QueryBatch batch;
          batch.queries = Tensor::FromVector({1, kDim}, row);
          auto result = backend.ScoreTopK(batch, 8, {});
          if (!result.ok() || result->hits[0].empty() ||
              result->hits[0][0].index != *id) {
            ++failures;
          }
        }
      }
    });
  }
  // One deleter draining the id feed; every delete it acks is recorded.
  threads.emplace_back([&] {
    size_t next = 0;
    while (true) {
      int64_t id = -1;
      {
        std::lock_guard<std::mutex> lock(log_mu);
        if (next < deletable.size()) id = deletable[next++];
      }
      if (id < 0) {
        if (writers_done.load()) return;
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
        continue;
      }
      if (backend.Delete(id).ok()) {
        std::lock_guard<std::mutex> lock(log_mu);
        deleted.insert(id);
      } else {
        ++failures;
      }
    }
  });
  // Two readers hammering ScoreTopK against whatever snapshot is current.
  std::vector<std::thread> readers;
  for (int r = 0; r < 2; ++r) {
    readers.emplace_back([&, r] {
      for (int64_t i = 0; i < 120; ++i) {
        serve::QueryBatch batch;
        batch.queries = ItemsForIds({5000 + r * 100 + (i % 7)});
        auto result = backend.ScoreTopK(batch, 5, {});
        if (!result.ok()) {
          ++failures;
          return;
        }
        const auto& hits = result->hits[0];
        for (size_t h = 1; h < hits.size(); ++h) {
          const bool ordered =
              hits[h - 1].score > hits[h].score ||
              (hits[h - 1].score == hits[h].score &&
               hits[h - 1].index < hits[h].index);
          if (!ordered) ++failures;
        }
      }
    });
  }
  for (int w = 0; w < kWriters; ++w) threads[static_cast<size_t>(w)].join();
  writers_done.store(true);
  threads.back().join();
  for (auto& reader : readers) reader.join();
  ASSERT_EQ(failures.load(), 0);

  // Quiesce, flush, and require bit-identity against a freshly built
  // exhaustive index over the surviving rows.
  ASSERT_TRUE(backend.corpus()->Flush().ok());
  std::vector<int64_t> live_ids;
  Tensor live_rows(
      {static_cast<int64_t>(added.size() - deleted.size()), kDim});
  int64_t r = 0;
  for (const auto& [id, row] : added) {
    if (deleted.count(id)) continue;
    live_ids.push_back(id);
    std::memcpy(live_rows.data() + r++ * kDim, row.data(),
                sizeof(float) * kDim);
  }
  EXPECT_EQ(backend.size(), static_cast<int64_t>(live_ids.size()));
  ExpectBitIdentical(&backend, live_ids, live_rows,
                     ItemsForIds({9000, 9001, 9002, 9003, 9004, 9005}), 10);
}

// --- The real thing: a forked child, SIGKILLed mid-ingest -----------------

std::string CrashBinaryPath() {
  char buf[4096];
  const ssize_t n = ::readlink("/proc/self/exe", buf, sizeof(buf) - 1);
  EXPECT_GT(n, 0);
  buf[n > 0 ? n : 0] = '\0';
  const std::string self(buf);
  return self.substr(0, self.find_last_of('/')) + "/adamine_mutate_crash";
}

using MutateKill9Test = MutateTest;

TEST_F(MutateKill9Test, AckedMutationsSurviveKill9AtEveryBoundary) {
  const std::string binary = CrashBinaryPath();
  ASSERT_TRUE(fs::exists(binary)) << binary;
  // Tiny thresholds: with 4 adds per seal and merges at 2 segments, these
  // kill points land before the first seal, mid-compaction, and deep into
  // repeated merge churn.
  const int64_t kSealThreshold = 4;
  const int64_t kMergeThreshold = 2;

  for (const int64_t kill_after : {3, 17, 58, 151}) {
    const std::string dir = Path("corpus_" + std::to_string(kill_after));
    fs::create_directories(dir);

    int fds[2];
    ASSERT_EQ(::pipe(fds), 0);
    const pid_t pid = ::fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
      ::dup2(fds[1], STDOUT_FILENO);
      ::close(fds[0]);
      ::close(fds[1]);
      ::execl(binary.c_str(), binary.c_str(), dir.c_str(),
              std::to_string(kDim).c_str(),
              std::to_string(kSealThreshold).c_str(),
              std::to_string(kMergeThreshold).c_str(),
              static_cast<char*>(nullptr));
      ::_exit(127);
    }
    ::close(fds[1]);
    FILE* acks = ::fdopen(fds[0], "r");
    ASSERT_NE(acks, nullptr);
    int64_t acked = -1;
    char line[64];
    while (acked + 1 < kill_after && std::fgets(line, sizeof(line), acks)) {
      long long t = -1;
      ASSERT_EQ(std::sscanf(line, "ACK %lld", &t), 1) << line;
      acked = t;
    }
    ASSERT_EQ(acked + 1, kill_after) << "child died early";
    ::kill(pid, SIGKILL);
    int wstatus = 0;
    ::waitpid(pid, &wstatus, 0);
    std::fclose(acks);

    // Recover in-process. The child may have completed (and even synced)
    // a few ops past the last ACK we read — acked is a lower bound — but
    // the recovered state must be EXACTLY the first M ops for some
    // M >= kill_after: a prefix of the history, nothing lost, nothing
    // reordered, nothing resurrected.
    MutableCorpusConfig config;
    config.dim = kDim;
    config.seal_threshold = kSealThreshold;
    config.merge_threshold = kMergeThreshold;
    config.background = false;
    auto corpus = MutableCorpus::Open(dir, config);
    ASSERT_TRUE(corpus.ok())
        << "kill_after=" << kill_after << ": " << corpus.status().ToString();
    const std::vector<int64_t> live = LiveIdsOf(*(*corpus)->snapshot());

    OpSim sim;
    int64_t matched = -1;
    // The child can race a few thousand ops past the last ACK we read
    // before the pipe buffer backpressures it; the bound comfortably
    // covers that window.
    for (int64_t t = 0; t < kill_after + 9000; ++t) {
      if (t >= kill_after && sim.LiveIds() == live) {
        matched = t;
        break;
      }
      sim.Step(t);
    }
    ASSERT_GE(matched, kill_after)
        << "kill_after=" << kill_after
        << ": recovered state is not a prefix of the acked history "
        << "(live rows: " << live.size() << ")";

    // Bit-identity of the recovered index: flush, then diff against a
    // freshly built exhaustive backend over the surviving rows.
    ASSERT_TRUE((*corpus)->Flush().ok());
    mutate::MutableBackend backend(std::move(corpus.value()), "");
    ExpectBitIdentical(&backend, live, ItemsForIds(live),
                       ItemsForIds({4000, 4001, 4002}), 5);
  }
}

TEST_F(MutateKill9Test, AckedMutationsSurviveKill9ThroughAnEnospcWindow) {
  // Same protocol, but the child rides out a simulated full-disk window
  // first: after ~30 WAL appends the next 6 fail with ENOSPC, the child
  // retries each shed op until it acks, and only then do we SIGKILL it.
  // Every acked op — before, during, and after the window — must be
  // recovered bit-identically; the rolled-back half-records must leave no
  // scar the replay trips over.
  const std::string binary = CrashBinaryPath();
  ASSERT_TRUE(fs::exists(binary)) << binary;
  const int64_t kSealThreshold = 4;
  const int64_t kMergeThreshold = 2;

  for (const int64_t kill_after : {60, 150}) {
    const std::string dir = Path("corpus_enospc_" + std::to_string(kill_after));
    fs::create_directories(dir);

    int fds[2];
    ASSERT_EQ(::pipe(fds), 0);
    const pid_t pid = ::fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
      ::dup2(fds[1], STDOUT_FILENO);
      ::close(fds[0]);
      ::close(fds[1]);
      ::execl(binary.c_str(), binary.c_str(), dir.c_str(),
              std::to_string(kDim).c_str(),
              std::to_string(kSealThreshold).c_str(),
              std::to_string(kMergeThreshold).c_str(), "enospc=30:6",
              static_cast<char*>(nullptr));
      ::_exit(127);
    }
    ::close(fds[1]);
    FILE* acks = ::fdopen(fds[0], "r");
    ASSERT_NE(acks, nullptr);
    int64_t acked = -1;
    char line[64];
    while (acked + 1 < kill_after && std::fgets(line, sizeof(line), acks)) {
      long long t = -1;
      ASSERT_EQ(std::sscanf(line, "ACK %lld", &t), 1) << line;
      acked = t;
    }
    ASSERT_EQ(acked + 1, kill_after)
        << "child died early (did the ENOSPC window not clear?)";
    ::kill(pid, SIGKILL);
    int wstatus = 0;
    ::waitpid(pid, &wstatus, 0);
    std::fclose(acks);

    MutableCorpusConfig config;
    config.dim = kDim;
    config.seal_threshold = kSealThreshold;
    config.merge_threshold = kMergeThreshold;
    config.background = false;
    auto corpus = MutableCorpus::Open(dir, config);
    ASSERT_TRUE(corpus.ok())
        << "kill_after=" << kill_after << ": " << corpus.status().ToString();
    EXPECT_FALSE((*corpus)->GetStats().read_only)
        << "a transient outage must not survive recovery as a latch";
    const std::vector<int64_t> live = LiveIdsOf(*(*corpus)->snapshot());

    OpSim sim;
    int64_t matched = -1;
    for (int64_t t = 0; t < kill_after + 9000; ++t) {
      if (t >= kill_after && sim.LiveIds() == live) {
        matched = t;
        break;
      }
      sim.Step(t);
    }
    ASSERT_GE(matched, kill_after)
        << "kill_after=" << kill_after
        << ": recovered state is not a prefix of the acked history "
        << "(live rows: " << live.size() << ")";

    ASSERT_TRUE((*corpus)->Flush().ok());
    mutate::MutableBackend backend(std::move(corpus.value()), "");
    ExpectBitIdentical(&backend, live, ItemsForIds(live),
                       ItemsForIds({4000, 4001, 4002}), 5);
  }
}

}  // namespace
}  // namespace adamine
