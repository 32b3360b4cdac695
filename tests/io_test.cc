#include "io/serialize.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <sstream>

#include "io/checkpoint.h"
#include "io/wire.h"
#include "tensor/ops.h"
#include "util/fault.h"
#include "util/rng.h"

namespace adamine::io {
namespace {

// Bit-at-a-time CRC-32 (reflected IEEE polynomial): the definition the
// table-driven io::wire::Crc32 must reproduce.
uint32_t BitwiseCrc32(const unsigned char* data, size_t n) {
  uint32_t c = 0xFFFFFFFFu;
  for (size_t i = 0; i < n; ++i) {
    c ^= data[i];
    for (int bit = 0; bit < 8; ++bit) {
      c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
  }
  return c ^ 0xFFFFFFFFu;
}

TEST(Crc32Test, KnownAnswer) {
  // The standard CRC-32 check value (zlib, PNG, Ethernet).
  wire::Crc32 crc;
  crc.Update("123456789", 9);
  EXPECT_EQ(crc.value(), 0xCBF43926u);
  EXPECT_EQ(wire::Crc32().value(), 0u);  // Empty input.
}

TEST(Crc32Test, MatchesBitwiseReferenceAtEveryLengthAndAlignment) {
  // Lengths 0-64 cover the 8-byte body with every tail length; the start
  // offsets put the 8-byte loads at every alignment. Every split point of
  // an incremental update must give the same value as one call.
  std::vector<unsigned char> buffer(64 + 8);
  Rng rng(41);
  for (unsigned char& byte : buffer) {
    byte = static_cast<unsigned char>(rng.UniformInt(256));
  }
  for (size_t offset = 0; offset < 8; ++offset) {
    for (size_t len = 0; len <= 64; ++len) {
      const unsigned char* data = buffer.data() + offset;
      const uint32_t expect = BitwiseCrc32(data, len);
      wire::Crc32 whole;
      whole.Update(data, len);
      ASSERT_EQ(whole.value(), expect) << "offset " << offset << " len " << len;
      for (size_t split = 0; split <= len; ++split) {
        wire::Crc32 parts;
        parts.Update(data, split);
        parts.Update(data + split, len - split);
        ASSERT_EQ(parts.value(), expect)
            << "offset " << offset << " len " << len << " split " << split;
      }
    }
  }
}

TEST(TensorSerializeTest, RoundTrips) {
  Rng rng(1);
  Tensor t = Tensor::Randn({3, 4}, rng);
  std::stringstream ss;
  ASSERT_TRUE(WriteTensor(ss, t).ok());
  auto back = ReadTensor(ss);
  ASSERT_TRUE(back.ok());
  ASSERT_TRUE(SameShape(t, *back));
  for (int64_t i = 0; i < t.numel(); ++i) EXPECT_EQ(t[i], (*back)[i]);
}

TEST(TensorSerializeTest, RejectsGarbage) {
  std::stringstream ss;
  ss << "not a tensor at all";
  EXPECT_FALSE(ReadTensor(ss).ok());
}

TEST(TensorSerializeTest, RejectsTruncation) {
  Rng rng(2);
  Tensor t = Tensor::Randn({10, 10}, rng);
  std::stringstream ss;
  ASSERT_TRUE(WriteTensor(ss, t).ok());
  std::string data = ss.str();
  std::stringstream truncated(data.substr(0, data.size() / 2));
  EXPECT_FALSE(ReadTensor(truncated).ok());
}

TEST(TensorSerializeTest, UndefinedTensorRejected) {
  Tensor t;
  std::stringstream ss;
  EXPECT_FALSE(WriteTensor(ss, t).ok());
}

TEST(BundleTest, RoundTripsNamesAndOrder) {
  Rng rng(3);
  std::vector<NamedTensor> bundle;
  bundle.push_back({"alpha.weight", Tensor::Randn({2, 3}, rng)});
  bundle.push_back({"beta.bias", Tensor::Randn({5}, rng)});
  std::stringstream ss;
  ASSERT_TRUE(WriteTensorBundle(ss, bundle).ok());
  auto back = ReadTensorBundle(ss);
  ASSERT_TRUE(back.ok());
  ASSERT_EQ(back->size(), 2u);
  EXPECT_EQ((*back)[0].name, "alpha.weight");
  EXPECT_EQ((*back)[1].name, "beta.bias");
  for (int64_t i = 0; i < 5; ++i) {
    EXPECT_EQ((*back)[1].tensor[i], bundle[1].tensor[i]);
  }
}

TEST(BundleTest, EmptyBundleOk) {
  std::stringstream ss;
  ASSERT_TRUE(WriteTensorBundle(ss, {}).ok());
  auto back = ReadTensorBundle(ss);
  ASSERT_TRUE(back.ok());
  EXPECT_TRUE(back->empty());
}

TEST(BundleTest, FileRoundTrip) {
  Rng rng(4);
  std::vector<NamedTensor> bundle;
  bundle.push_back({"w", Tensor::Randn({4, 4}, rng)});
  const std::string path = "/tmp/adamine_io_test.bin";
  ASSERT_TRUE(SaveTensorBundle(path, bundle).ok());
  auto back = LoadTensorBundle(path);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ((*back)[0].name, "w");
  std::remove(path.c_str());
  EXPECT_FALSE(LoadTensorBundle(path).ok());  // Gone.
}

TEST(VocabularySerializeTest, RoundTrips) {
  text::Vocabulary vocab;
  vocab.Add("tomato");
  vocab.Add("tomato");
  vocab.Add("basil");
  std::stringstream ss;
  ASSERT_TRUE(WriteVocabulary(ss, vocab).ok());
  auto back = ReadVocabulary(ss);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->size(), 2);
  EXPECT_EQ(back->IdOf("tomato"), 0);
  EXPECT_EQ(back->CountOf(0), 2);
  EXPECT_EQ(back->CountOf(1), 1);
  EXPECT_EQ(back->total_count(), 3);
}

TEST(VocabularySerializeTest, RejectsMalformedLines) {
  std::stringstream ss("word_without_count\n");
  EXPECT_FALSE(ReadVocabulary(ss).ok());
  std::stringstream ss2("word\tnot_a_number\n");
  EXPECT_FALSE(ReadVocabulary(ss2).ok());
}

core::ModelConfig TinyModel() {
  core::ModelConfig config;
  config.vocab_size = 20;
  config.word_dim = 4;
  config.ingredient_hidden = 3;
  config.word_hidden = 3;
  config.sentence_hidden = 4;
  config.image_dim = 6;
  config.latent_dim = 8;
  config.num_classes = 3;
  config.seed = 5;
  return config;
}

TEST(CheckpointTest, SaveLoadRestoresExactWeights) {
  auto model = core::CrossModalModel::Create(TinyModel());
  ASSERT_TRUE(model.ok());
  const std::string path = "/tmp/adamine_ckpt_test.bin";
  ASSERT_TRUE(SaveModel(path, **model).ok());

  // A second model with a different seed has different weights...
  core::ModelConfig other = TinyModel();
  other.seed = 99;
  auto model2 = core::CrossModalModel::Create(other);
  ASSERT_TRUE(model2.ok());
  const auto before = (*model2)->Params()[1].var.value().Clone();
  // ...until the checkpoint is loaded.
  ASSERT_TRUE(LoadModel(path, **model2).ok());
  auto p1 = (*model)->Params();
  auto p2 = (*model2)->Params();
  ASSERT_EQ(p1.size(), p2.size());
  bool any_changed = false;
  for (size_t i = 0; i < p1.size(); ++i) {
    EXPECT_EQ(p1[i].name, p2[i].name);
    for (int64_t j = 0; j < p1[i].var.value().numel(); ++j) {
      EXPECT_EQ(p1[i].var.value()[j], p2[i].var.value()[j]);
    }
  }
  (void)before;
  (void)any_changed;
  std::remove(path.c_str());
}

TEST(CheckpointTest, RejectsArchitectureMismatch) {
  auto model = core::CrossModalModel::Create(TinyModel());
  ASSERT_TRUE(model.ok());
  const std::string path = "/tmp/adamine_ckpt_mismatch.bin";
  ASSERT_TRUE(SaveModel(path, **model).ok());

  core::ModelConfig bigger = TinyModel();
  bigger.latent_dim = 16;  // Different shapes.
  auto model2 = core::CrossModalModel::Create(bigger);
  ASSERT_TRUE(model2.ok());
  Status status = LoadModel(path, **model2);
  EXPECT_FALSE(status.ok());
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Hardened-format tests: the version-2 readers must reject wrong versions,
// corruption (every byte), truncation (every prefix), and absurd headers —
// with a Status, before any large allocation.

std::string SerializedTensor(const Tensor& t) {
  std::stringstream ss;
  EXPECT_TRUE(WriteTensor(ss, t).ok());
  return ss.str();
}

template <typename T>
void AppendVal(std::string* s, T v) {
  s->append(reinterpret_cast<const char*>(&v), sizeof(v));
}

/// A hand-built "ADMT" header with an arbitrary (possibly bogus) shape.
std::string TensorHeader(int64_t ndim, const std::vector<int64_t>& dims) {
  std::string s("ADMT", 4);
  AppendVal<uint32_t>(&s, kFormatVersion);
  AppendVal<int64_t>(&s, ndim);
  for (int64_t d : dims) AppendVal<int64_t>(&s, d);
  return s;
}

StatusOr<Tensor> ReadTensorFrom(std::string bytes) {
  std::stringstream ss(std::move(bytes));
  return ReadTensor(ss);
}

TEST(TensorSerializeTest, RejectsWrongVersion) {
  Rng rng(6);
  std::string bytes = SerializedTensor(Tensor::Randn({2, 2}, rng));
  bytes[4] = static_cast<char>(kFormatVersion + 1);  // u32 after the magic.
  auto back = ReadTensorFrom(bytes);
  ASSERT_FALSE(back.ok());
  EXPECT_NE(back.status().message().find("version"), std::string::npos);
}

TEST(TensorSerializeTest, RejectsEveryByteFlip) {
  Rng rng(7);
  const std::string bytes = SerializedTensor(Tensor::Randn({3, 3}, rng));
  for (size_t i = 0; i < bytes.size(); ++i) {
    std::string corrupt = bytes;
    corrupt[i] = static_cast<char>(corrupt[i] ^ 0xFF);
    EXPECT_FALSE(ReadTensorFrom(corrupt).ok())
        << "flipped byte " << i << " went undetected";
  }
}

TEST(TensorSerializeTest, RejectsEveryTruncation) {
  Rng rng(8);
  const std::string bytes = SerializedTensor(Tensor::Randn({3, 3}, rng));
  for (size_t len = 0; len < bytes.size(); ++len) {
    EXPECT_FALSE(ReadTensorFrom(bytes.substr(0, len)).ok())
        << "prefix of " << len << " bytes parsed as a full tensor";
  }
}

TEST(TensorSerializeTest, RejectsImplausibleRank) {
  auto negative = ReadTensorFrom(TensorHeader(-1, {}));
  ASSERT_FALSE(negative.ok());
  EXPECT_NE(negative.status().message().find("rank"), std::string::npos);
  EXPECT_FALSE(ReadTensorFrom(TensorHeader(0, {})).ok());
  EXPECT_FALSE(ReadTensorFrom(TensorHeader(9, {1, 1, 1, 1, 1, 1, 1, 1, 1}))
                   .ok());
}

TEST(TensorSerializeTest, RejectsImplausibleExtents) {
  EXPECT_FALSE(ReadTensorFrom(TensorHeader(2, {-4, 4})).ok());
  EXPECT_FALSE(ReadTensorFrom(TensorHeader(1, {0})).ok());
  EXPECT_FALSE(
      ReadTensorFrom(TensorHeader(1, {(int64_t{1} << 33)})).ok());
}

TEST(TensorSerializeTest, RejectsOverflowingElementCountBeforeAllocating) {
  // Each extent is individually plausible; the product is not. The reader
  // must refuse before trying to allocate ~2^62 floats.
  auto back =
      ReadTensorFrom(TensorHeader(2, {int64_t{1} << 31, int64_t{1} << 31}));
  ASSERT_FALSE(back.ok());
  EXPECT_NE(back.status().message().find("element count"), std::string::npos);
}

TEST(TensorSerializeTest, RejectsHeaderAnnouncingMoreThanStreamHolds) {
  // 1000x1000 floats announced, almost nothing behind the header.
  std::string bytes = TensorHeader(2, {1000, 1000});
  bytes.append(8, '\0');
  auto back = ReadTensorFrom(bytes);
  ASSERT_FALSE(back.ok());
  EXPECT_NE(back.status().message().find("more data"), std::string::npos);
}

std::string SerializedBundle(const std::vector<NamedTensor>& bundle) {
  std::stringstream ss;
  EXPECT_TRUE(WriteTensorBundle(ss, bundle).ok());
  return ss.str();
}

std::string BundleHeader(int64_t count) {
  std::string s("ADMB", 4);
  AppendVal<uint32_t>(&s, kFormatVersion);
  AppendVal<int64_t>(&s, count);
  return s;
}

StatusOr<std::vector<NamedTensor>> ReadBundleFrom(std::string bytes) {
  std::stringstream ss(std::move(bytes));
  return ReadTensorBundle(ss);
}

TEST(BundleTest, RejectsWrongVersion) {
  Rng rng(9);
  std::string bytes = SerializedBundle({{"w", Tensor::Randn({2, 2}, rng)}});
  bytes[4] = static_cast<char>(kFormatVersion + 1);
  auto back = ReadBundleFrom(bytes);
  ASSERT_FALSE(back.ok());
  EXPECT_NE(back.status().message().find("version"), std::string::npos);
}

TEST(BundleTest, RejectsEveryByteFlipAndEveryTruncation) {
  Rng rng(10);
  const std::string bytes =
      SerializedBundle({{"alpha", Tensor::Randn({2, 3}, rng)},
                        {"beta", Tensor::Randn({4}, rng)}});
  for (size_t i = 0; i < bytes.size(); ++i) {
    std::string corrupt = bytes;
    corrupt[i] = static_cast<char>(corrupt[i] ^ 0xFF);
    EXPECT_FALSE(ReadBundleFrom(corrupt).ok())
        << "flipped byte " << i << " went undetected";
  }
  for (size_t len = 0; len < bytes.size(); ++len) {
    EXPECT_FALSE(ReadBundleFrom(bytes.substr(0, len)).ok())
        << "prefix of " << len << " bytes parsed as a full bundle";
  }
}

TEST(BundleTest, RejectsImplausibleEntryCounts) {
  auto negative = ReadBundleFrom(BundleHeader(-1));
  ASSERT_FALSE(negative.ok());
  EXPECT_NE(negative.status().message().find("entry count"),
            std::string::npos);
  // A count the stream cannot possibly hold is refused before reserving.
  std::string small = BundleHeader(1'000'000);
  small.append(32, '\0');
  auto huge = ReadBundleFrom(small);
  ASSERT_FALSE(huge.ok());
  EXPECT_NE(huge.status().message().find("more entries"), std::string::npos);
}

TEST(BundleTest, RejectsNegativeNameLength) {
  std::string bytes = BundleHeader(1);
  AppendVal<int64_t>(&bytes, -5);
  bytes.append(16, '\0');  // Enough trailing bytes to pass the count check.
  auto back = ReadBundleFrom(bytes);
  ASSERT_FALSE(back.ok());
  EXPECT_NE(back.status().message().find("name length"), std::string::npos);
}

TEST(BundleTest, AtomicSaveKeepsOldFileAcrossInjectedCrashes) {
  fault::Reset();
  Rng rng(11);
  std::vector<NamedTensor> v1{{"old", Tensor::Randn({2, 2}, rng)}};
  std::vector<NamedTensor> v2{{"new", Tensor::Randn({2, 2}, rng)}};
  const std::string path = "/tmp/adamine_atomic_bundle_test.bin";
  ASSERT_TRUE(SaveTensorBundle(path, v1).ok());

  // Crash mid-write: the temp file is cleaned up, the old file survives.
  fault::Arm(fault::kSerializeWrite, 3, 1);
  EXPECT_FALSE(SaveTensorBundle(path, v2).ok());
  fault::Reset();
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
  ASSERT_TRUE(LoadTensorBundle(path).ok());
  EXPECT_EQ((*LoadTensorBundle(path))[0].name, "old");

  // Crash between flush and rename: stale .tmp remains, old file survives.
  fault::Arm(fault::kAtomicRename);
  EXPECT_FALSE(SaveTensorBundle(path, v2).ok());
  fault::Reset();
  EXPECT_TRUE(std::filesystem::exists(path + ".tmp"));
  EXPECT_EQ((*LoadTensorBundle(path))[0].name, "old");

  // The next clean save replaces both the debris and the file.
  ASSERT_TRUE(SaveTensorBundle(path, v2).ok());
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
  EXPECT_EQ((*LoadTensorBundle(path))[0].name, "new");
  std::remove(path.c_str());
}

}  // namespace
}  // namespace adamine::io
