#include "io/serialize.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <sstream>
#include <string>
#include <vector>

#include "io/checkpoint.h"
#include "io/wire.h"
#include "isa_testlib.h"
#include "kernel/crc32.h"
#include "mutate/segment.h"
#include "net/frame.h"
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

// --- CRC-32 at every ISA level -------------------------------------------

/// The raw CRC state after one more byte, bit at a time: BitwiseCrc32's
/// step, so a sweep over every length costs one step per length.
uint32_t BitwiseStep(uint32_t c, unsigned char byte) {
  c ^= byte;
  for (int bit = 0; bit < 8; ++bit) {
    c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
  }
  return c;
}

std::vector<unsigned char> RandomBytes(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<unsigned char> bytes(n);
  for (unsigned char& byte : bytes) {
    byte = static_cast<unsigned char>(rng.UniformInt(256));
  }
  return bytes;
}

uint32_t Crc(const void* data, size_t n) {
  wire::Crc32 crc;
  crc.Update(data, n);
  return crc.value();
}

/// x^e mod P in the plain (unreflected) representation, P(x) = x^32 +
/// 0x04C11DB7: x^e one multiplication by x at a time.
uint32_t XPowModP(int e) {
  uint64_t r = 1;
  for (int i = 0; i < e; ++i) {
    r <<= 1;
    if ((r >> 32) != 0) r ^= 0x104C11DB7ull;
  }
  return static_cast<uint32_t>(r);
}

uint64_t Reflect(uint64_t v, int bits) {
  uint64_t out = 0;
  for (int i = 0; i < bits; ++i) out |= ((v >> i) & 1) << (bits - 1 - i);
  return out;
}

TEST(Crc32FoldTest, ConstantsDeriveFromThePolynomial) {
  // Each fold distance e gives (x^e mod P), reflected and shifted left once
  // (Gopal et al.), and each is pinned as a literal too.
  const kernel::internal::Crc32FoldConstants& k = kernel::internal::kCrc32Fold;
  const auto fold = [](int e) { return Reflect(XPowModP(e), 32) << 1; };
  EXPECT_EQ(k.r1, fold(4 * 128 + 32));
  EXPECT_EQ(k.r2, fold(4 * 128 - 32));
  EXPECT_EQ(k.r3, fold(128 + 32));
  EXPECT_EQ(k.r4, fold(128 - 32));
  EXPECT_EQ(k.r5, fold(64));
  EXPECT_EQ(k.poly, Reflect(0x104C11DB7ull, 33));
  // floor(x^64 / P) by long division: its x^32 term first, which leaves
  // P's low 32 bits at x^32 and up as the running remainder.
  uint64_t quotient = uint64_t{1} << 32;
  uint64_t rem = uint64_t{0x04C11DB7} << 32;
  for (int shift = 31; shift >= 0; --shift) {
    if (((rem >> (32 + shift)) & 1) != 0) {
      quotient |= uint64_t{1} << shift;
      rem ^= uint64_t{0x104C11DB7} << shift;
    }
  }
  EXPECT_EQ(k.mu, Reflect(quotient, 33));
  EXPECT_EQ(k.r1, 0x154442bd4u);
  EXPECT_EQ(k.r2, 0x1c6e41596u);
  EXPECT_EQ(k.r3, 0x1751997d0u);
  EXPECT_EQ(k.r4, 0x0ccaa009eu);
  EXPECT_EQ(k.r5, 0x163cd6124u);
  EXPECT_EQ(k.poly, 0x1db710641u);
  EXPECT_EQ(k.mu, 0x1f7011641u);
}

/// kernel::Crc32Update and what sits on it, at every ISA level: the
/// slicing-by-8 loop at portable, the carry-less fold from avx2 up.
class Crc32IsaTest : public IsaLevelTest {};
INSTANTIATE_TEST_SUITE_P(AllLevels, Crc32IsaTest,
                         ::testing::ValuesIn(kernel::kAllIsas), IsaLevelName);

TEST_P(Crc32IsaTest, MatchesBitwiseReferenceAtEveryLengthAndOffset) {
  // Lengths 0-4,160 cross the 64-byte fold threshold with every 16-byte
  // tail and up to 64 four-lane steps; 16 start offsets put the 16-byte
  // loads at every alignment.
  wire::Crc32 check;
  check.Update("123456789", 9);
  EXPECT_EQ(check.value(), 0xCBF43926u);
  constexpr size_t kMaxLen = 4160;
  const std::vector<unsigned char> buffer = RandomBytes(kMaxLen + 16, 43);
  for (size_t offset = 0; offset < 16; ++offset) {
    const unsigned char* data = buffer.data() + offset;
    uint32_t expect = 0xFFFFFFFFu;  // The bitwise state over data[0, len).
    for (size_t len = 0; len <= kMaxLen; ++len) {
      ASSERT_EQ(kernel::Crc32Update(0xFFFFFFFFu, data, len), expect)
          << "offset " << offset << " len " << len;
      if (len < kMaxLen) expect = BitwiseStep(expect, data[len]);
    }
  }
}

TEST_P(Crc32IsaTest, EverySplitPointGivesTheWholeValue) {
  const std::vector<unsigned char> buffer = RandomBytes(200, 47);
  for (size_t len = 0; len <= buffer.size(); ++len) {
    const uint32_t expect = BitwiseCrc32(buffer.data(), len);
    for (size_t split = 0; split <= len; ++split) {
      wire::Crc32 parts;
      parts.Update(buffer.data(), split);
      parts.Update(buffer.data() + split, len - split);
      ASSERT_EQ(parts.value(), expect) << "len " << len << " split " << split;
    }
  }
}

TEST_P(Crc32IsaTest, FiveMegabytesMatchTheBitwiseReference) {
  const std::vector<unsigned char> buffer = RandomBytes(5 << 20, 53);
  EXPECT_EQ(Crc(buffer.data(), buffer.size()),
            BitwiseCrc32(buffer.data(), buffer.size()));
}

TEST_P(Crc32IsaTest, ReadsNoBytePastTheBuffer) {
  // Every buffer ends flush against an unmapped page, so a fold or tail
  // load past its last byte faults instead of passing.
  Rng rng(59);
  std::vector<int64_t> lengths;
  for (int64_t len = 0; len <= 272; ++len) lengths.push_back(len);
  for (int64_t len : {1023, 4096, 4111, 65536 + 15}) lengths.push_back(len);
  for (int64_t len : lengths) {
    GuardedBytes bytes(len);
    auto* data = reinterpret_cast<unsigned char*>(bytes.data());
    for (int64_t i = 0; i < len; ++i) {
      data[i] = static_cast<unsigned char>(rng.UniformInt(256));
    }
    ASSERT_EQ(Crc(data, static_cast<size_t>(len)),
              BitwiseCrc32(data, static_cast<size_t>(len)))
        << "len " << len;
  }
}

TEST_P(Crc32IsaTest, ShiftJoinsTheSpansOfRandomSplits) {
  // Crc32Update(s, p, n) == Crc32Shift(Crc32Update(s, p, a), n - a) ^
  // Crc32Update(0, p + a, n - a), for random states, lengths up to 2^20
  // and split points; wire::Crc32::Combine is the same join.
  Rng rng(61);
  constexpr size_t kMaxLen = size_t{1} << 20;
  const std::vector<unsigned char> buffer = RandomBytes(kMaxLen, 67);
  std::vector<size_t> lengths = {0, 1, 15, 16, 63, 64, 65, kMaxLen};
  for (int i = 0; i < 16; ++i) {
    lengths.push_back(static_cast<size_t>(rng.UniformInt(kMaxLen + 1)));
  }
  for (size_t len : lengths) {
    const size_t split = static_cast<size_t>(
        rng.UniformInt(static_cast<int64_t>(len) + 1));
    const auto state = static_cast<uint32_t>(rng.Next());
    const unsigned char* p = buffer.data();
    const uint32_t head = kernel::Crc32Update(state, p, split);
    const uint32_t tail = kernel::Crc32Update(0, p + split, len - split);
    ASSERT_EQ(kernel::Crc32Shift(head, len - split) ^ tail,
              kernel::Crc32Update(state, p, len))
        << "len " << len << " split " << split;
    wire::Crc32 joined;
    joined.Update(p, split);
    joined.Combine(tail, len - split);
    ASSERT_EQ(joined.value(), Crc(p, len))
        << "len " << len << " split " << split;
  }
}

TEST_P(Crc32IsaTest, WrittenBundleBytesAreTheFormatSpelledOut) {
  // The bundle format written out by hand, both checksums by the bitwise
  // reference: a writer that takes the record CRC and the running CRC from
  // one pass must still write exactly these bytes. The second payload is
  // long enough for the carry-less fold.
  Rng rng(67);
  std::vector<NamedTensor> bundle;
  bundle.push_back({"a", Tensor::Randn({1, 3}, rng)});
  bundle.push_back({"weights", Tensor::Randn({4, 1025}, rng)});
  std::ostringstream os;
  ASSERT_TRUE(WriteTensorBundle(os, bundle).ok());

  std::string body;  // Every byte the bundle CRC covers.
  AppendVal<uint32_t>(&body, kFormatVersion);
  AppendVal<int64_t>(&body, static_cast<int64_t>(bundle.size()));
  for (const NamedTensor& entry : bundle) {
    AppendVal<int64_t>(&body, static_cast<int64_t>(entry.name.size()));
    body += entry.name;
    std::string record;  // Every byte the record CRC covers.
    AppendVal<uint32_t>(&record, kFormatVersion);
    AppendVal<int64_t>(&record, entry.tensor.ndim());
    for (int64_t d = 0; d < entry.tensor.ndim(); ++d) {
      AppendVal<int64_t>(&record, entry.tensor.dim(d));
    }
    record.append(reinterpret_cast<const char*>(entry.tensor.data()),
                  static_cast<size_t>(entry.tensor.numel()) * sizeof(float));
    body += "ADMT";
    body += record;
    AppendVal<uint32_t>(
        &body,
        BitwiseCrc32(reinterpret_cast<const unsigned char*>(record.data()),
                     record.size()));
  }
  std::string want = "ADMB" + body;
  AppendVal<uint32_t>(
      &want, BitwiseCrc32(reinterpret_cast<const unsigned char*>(body.data()),
                          body.size()));
  EXPECT_TRUE(os.str() == want) << "the written bundle's " << os.str().size()
                                << " bytes differ from the format's "
                                << want.size();
}

TEST_P(Crc32IsaTest, EveryBitFlipInABundleFailsItsLoad) {
  // The reader hashes each payload once and derives the record CRC and the
  // bundle's running CRC from it, so a flip must still fail a check: an
  // 80-float payload takes the fold path, a 3-float one the slicing loop.
  Rng rng(71);
  const std::string bytes =
      SerializedBundle({{"items", Tensor::Randn({5, 16}, rng)},
                        {"bias", Tensor::Randn({3}, rng)}});
  ASSERT_TRUE(ReadBundleFrom(bytes).ok());
  for (size_t i = 0; i < bytes.size(); ++i) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string corrupt = bytes;
      corrupt[i] = static_cast<char>(corrupt[i] ^ (1 << bit));
      ASSERT_FALSE(ReadBundleFrom(corrupt).ok())
          << "flipped bit " << bit << " of byte " << i << " went undetected";
    }
  }
}

TEST_P(Crc32IsaTest, FramesSegmentsAndBundlesReadBackAtEveryLevel) {
  // Written at this level, read at every level the CPU has.
  Rng rng(73);
  net::QueryRequest request;
  request.request_id = 9;
  request.k = 4;
  request.queries = Tensor::Randn({6, 32}, rng);
  const std::string frame = net::EncodeQueryRequest(request);
  const std::vector<NamedTensor> bundle = {
      {"rows", Tensor::Randn({7, 24}, rng)}};
  const std::string bundle_bytes = SerializedBundle(bundle);
  const std::vector<int64_t> ids = {3, 5, 8, 13, 21};
  const Tensor rows = Tensor::Randn({5, 24}, rng);
  const std::string path =
      (std::filesystem::temp_directory_path() /
       ("adamine_crc_isa_" + std::string(kernel::IsaName(GetParam())) + "_" +
        std::to_string(::getpid()) + ".adms"))
          .string();
  ASSERT_TRUE(mutate::WriteSegmentFile(path, ids, rows).ok());
  for (kernel::Isa level : kernel::kAllIsas) {
    if (level > kernel::CpuIsa()) continue;
    SCOPED_TRACE(::testing::Message() << "read at " << kernel::IsaName(level));
    kernel::internal::ScopedIsa cap(level);

    net::FrameAssembler assembler;
    assembler.Append(frame.data(), frame.size());
    net::Frame got;
    auto next = assembler.Next(&got);
    ASSERT_TRUE(next.ok() && *next) << next.status().ToString();
    auto decoded = net::DecodeQueryRequest(got.payload);
    ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
    EXPECT_EQ(std::memcmp(decoded->queries.data(), request.queries.data(),
                          sizeof(float) * 6 * 32),
              0);

    auto segment = mutate::LoadSegmentFile(path, 24);
    ASSERT_TRUE(segment.ok()) << segment.status().ToString();
    EXPECT_EQ(segment->ids, ids);
    EXPECT_EQ(std::memcmp(segment->rows.data(), rows.data(),
                          sizeof(float) * 5 * 24),
              0);

    auto back = ReadBundleFrom(bundle_bytes);
    ASSERT_TRUE(back.ok()) << back.status().ToString();
    EXPECT_EQ(std::memcmp((*back)[0].tensor.data(), bundle[0].tensor.data(),
                          sizeof(float) * 7 * 24),
              0);
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace adamine::io
