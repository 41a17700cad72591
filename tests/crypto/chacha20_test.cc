// The optimized keystream pipeline (SIMD block kernels, O(1) Seek,
// word-wise XOR, cached key schedules) against RFC 8439 vectors and a scalar
// reference: every fast path must be bit-identical to the one-block-at-a-time
// construction, or DC-net pads stop cancelling. Each kernel tier the host
// supports is checked on its own; tiers the host lacks are skipped by name.
#include "src/crypto/chacha20.h"

#include <gtest/gtest.h>

#include <cstring>
#include <string>

#include "src/crypto/kernels.h"

namespace dissent {
namespace {

Bytes TestKey() {
  Bytes key(32);
  for (int i = 0; i < 32; ++i) {
    key[i] = static_cast<uint8_t>(i);
  }
  return key;
}

// Scalar reference: the stream is just consecutive single blocks.
Bytes ReferenceStream(const Bytes& key, const Bytes& nonce, size_t n) {
  Bytes out;
  uint8_t block[64];
  uint32_t counter = 0;
  while (out.size() < n) {
    ChaCha20Block(key.data(), nonce.data(), counter++, block);
    size_t take = std::min<size_t>(64, n - out.size());
    out.insert(out.end(), block, block + take);
  }
  return out;
}

TEST(ChaCha20BlocksTest, Rfc8439BlockVector) {
  // RFC 8439 section 2.3.2, via the multi-block API with nblocks == 1.
  Bytes key = TestKey(), nonce(12);
  nonce[3] = 0x09;
  nonce[7] = 0x4a;
  uint8_t out[64];
  ChaCha20Blocks(key.data(), nonce.data(), 1, 1, out);
  EXPECT_EQ(ToHex(Bytes(out, out + 64)),
            "10f1e7e4d13b5915500fdd1fa32071c4c7d1f4c733c068030422aa9ac3d46c4e"
            "d2826446079faa0914c2d705d98b02a2b5129cd1de164eb9cbd083e8a2503c4e");
}

TEST(ChaCha20BlocksTest, MultiBlockMatchesSingleBlocks) {
  // Every batch size through the wide path (8 blocks) and its tail.
  Bytes key = TestKey(), nonce(12, 0x5c);
  for (size_t nblocks : {1u, 2u, 7u, 8u, 9u, 15u, 16u, 17u, 33u}) {
    Bytes multi(nblocks * 64);
    ChaCha20Blocks(key.data(), nonce.data(), 3, nblocks, multi.data());
    Bytes single(nblocks * 64);
    for (size_t b = 0; b < nblocks; ++b) {
      ChaCha20Block(key.data(), nonce.data(), 3 + static_cast<uint32_t>(b),
                    single.data() + 64 * b);
    }
    EXPECT_EQ(multi, single) << nblocks << " blocks";
  }
}

TEST(ChaCha20StreamTest, GenerateMatchesScalarReference) {
  Bytes key = TestKey(), nonce(12, 0x21);
  for (size_t n : {1u, 8u, 63u, 64u, 65u, 511u, 512u, 513u, 4097u}) {
    ChaCha20Stream stream(key, nonce);
    EXPECT_EQ(stream.Generate(n), ReferenceStream(key, nonce, n)) << n << " bytes";
  }
}

TEST(ChaCha20StreamTest, WordWiseXorMatchesScalarReference) {
  Bytes key = TestKey(), nonce(12, 0x22);
  for (size_t n : {1u, 63u, 64u, 65u, 1000u, 4097u}) {
    Bytes buf(n);
    for (size_t i = 0; i < n; ++i) {
      buf[i] = static_cast<uint8_t>(i * 31 + 7);
    }
    Bytes expect = buf;
    Bytes pad = ReferenceStream(key, nonce, n);
    for (size_t i = 0; i < n; ++i) {
      expect[i] ^= pad[i];
    }
    ChaCha20Stream stream(key, nonce);
    stream.XorStream(buf, 0, n);
    EXPECT_EQ(buf, expect) << n << " bytes";
  }
}

TEST(ChaCha20StreamTest, SeekMatchesSequentialGeneration) {
  Bytes key = TestKey(), nonce(12, 0x23);
  Bytes full = ReferenceStream(key, nonce, 9000);
  for (size_t offset : {0u, 1u, 8u, 63u, 64u, 65u, 127u, 128u, 1000u, 4096u, 8191u}) {
    ChaCha20Stream stream(key, nonce);
    stream.Seek(offset);
    Bytes got = stream.Generate(100);
    EXPECT_EQ(got, Bytes(full.begin() + offset, full.begin() + offset + 100))
        << "offset " << offset;
  }
  // Seeking backwards works too.
  ChaCha20Stream stream(key, nonce);
  stream.Seek(5000);
  stream.Generate(10);
  stream.Seek(5);
  EXPECT_EQ(stream.Generate(10), Bytes(full.begin() + 5, full.begin() + 15));
}

TEST(ChaCha20StreamTest, NextU64MatchesGeneratedBytes) {
  Bytes key = TestKey(), nonce(12, 0x24);
  Bytes full = ReferenceStream(key, nonce, 1024);
  ChaCha20Stream stream(key, nonce);
  size_t pos = 0;
  // Offset the stream so later NextU64 calls cross block boundaries.
  stream.Generate(60);
  pos += 60;
  for (int i = 0; i < 50; ++i) {
    uint64_t v = stream.NextU64();
    uint64_t expect = 0;
    for (int b = 0; b < 8; ++b) {
      expect |= static_cast<uint64_t>(full[pos + b]) << (8 * b);
    }
    pos += 8;
    EXPECT_EQ(v, expect) << "u64 #" << i;
  }
}

TEST(ChaCha20StreamTest, ParsedKeyScheduleMatchesBytesCtor) {
  Bytes key = TestKey(), nonce(12, 0x25);
  uint32_t key_words[8];
  ParseChaCha20Key(key, key_words);
  ChaCha20Stream from_bytes(key, nonce);
  ChaCha20Stream from_words(key_words, nonce.data());
  EXPECT_EQ(from_bytes.Generate(300), from_words.Generate(300));
}

TEST(ChaCha20StreamTest, InterleavedGenerateSeekXor) {
  // Mixed use of every stream entry point stays consistent with the
  // reference stream positions.
  Bytes key = TestKey(), nonce(12, 0x26);
  Bytes full = ReferenceStream(key, nonce, 4096);
  ChaCha20Stream stream(key, nonce);
  Bytes a = stream.Generate(100);  // stream bytes [0, 100)
  EXPECT_EQ(a, Bytes(full.begin(), full.begin() + 100));
  Bytes buf(200, 0);
  stream.XorStream(buf, 0, 200);  // stream bytes [100, 300)
  EXPECT_EQ(buf, Bytes(full.begin() + 100, full.begin() + 300));
  stream.Seek(1000);
  uint8_t raw[64];
  stream.GenerateRaw(raw, 64);  // stream bytes [1000, 1064)
  EXPECT_EQ(Bytes(raw, raw + 64), Bytes(full.begin() + 1000, full.begin() + 1064));
}

// --- Per-tier equivalence: each kernel against the scalar reference ---

Bytes Patterned(size_t n, uint8_t seed) {
  Bytes b(n);
  for (size_t i = 0; i < n; ++i) {
    b[i] = static_cast<uint8_t>(i * 131 + seed);
  }
  return b;
}

// Reference blocks with arbitrary (wrapping) counters.
Bytes ReferenceBlocks(const Bytes& key, const Bytes& nonce, uint32_t counter, size_t nblocks) {
  Bytes out(64 * nblocks);
  for (size_t b = 0; b < nblocks; ++b) {
    ChaCha20Block(key.data(), nonce.data(), counter + static_cast<uint32_t>(b),
                  out.data() + 64 * b);
  }
  return out;
}

class ChaChaTierTest : public ::testing::TestWithParam<std::string> {
 protected:
  void SetUp() override {
    for (const kernels::ChaChaKernel& k : kernels::ChaChaKernels()) {
      if (GetParam() == k.name) {
        kernel_ = &k;
      }
    }
    if (kernel_ == nullptr || !kernel_->supported) {
      GTEST_SKIP() << "ChaCha20 kernel tier " << GetParam() << " not supported on this host";
    }
  }

  const kernels::ChaChaKernel* kernel_ = nullptr;
};

TEST_P(ChaChaTierTest, BlockCountsMatchScalar) {
  // Batch boundaries of both SIMD widths, long runs, and a counter that
  // wraps mid-batch. A block-aligned Seek hands whole blocks straight to
  // the tier's kernel.
  Bytes key = TestKey(), nonce(12, 0x31);
  for (uint32_t counter : {0u, 5u, 0xfffffff5u}) {
    for (size_t nblocks : {0u, 1u, 7u, 8u, 9u, 15u, 16u, 17u, 24u, 33u, 2047u, 2048u}) {
      const Bytes expect = ReferenceBlocks(key, nonce, counter, nblocks);
      Bytes got(64 * nblocks + 1, 0xee);  // one guard byte past the end
      ChaCha20Stream gen(key, nonce, *kernel_);
      gen.Seek(uint64_t{64} * counter);
      gen.GenerateRaw(got.data(), 64 * nblocks);
      ASSERT_EQ(got.back(), 0xee) << nblocks << " blocks wrote past the end";
      got.pop_back();
      ASSERT_EQ(got, expect) << nblocks << " blocks from counter " << counter;

      Bytes buf = Patterned(64 * nblocks, 3);
      Bytes want = buf;
      XorInto(want, expect);
      ChaCha20Stream x(key, nonce, *kernel_);
      x.Seek(uint64_t{64} * counter);
      x.XorStreamRaw(buf.data(), buf.size());
      ASSERT_EQ(buf, want) << nblocks << " XORed blocks from counter " << counter;
    }
  }
}

TEST_P(ChaChaTierTest, EveryLengthMatchesScalar) {
  Bytes key = TestKey(), nonce(12, 0x32);
  const Bytes full = ReferenceStream(key, nonce, 3200);
  for (size_t n = 0; n <= 3200; ++n) {
    ChaCha20Stream gen(key, nonce, *kernel_);
    ASSERT_EQ(gen.Generate(n), Bytes(full.begin(), full.begin() + n)) << n << " bytes";

    Bytes buf = Patterned(n, 5);
    Bytes want = buf;
    for (size_t i = 0; i < n; ++i) {
      want[i] ^= full[i];
    }
    ChaCha20Stream x(key, nonce, *kernel_);
    x.XorStreamRaw(buf.data(), n);
    ASSERT_EQ(buf, want) << n << " XORed bytes";
  }
}

TEST_P(ChaChaTierTest, EverySeekOffsetMatchesScalar) {
  // Every start offset mod 64, at block 0 and past one full 16-block batch,
  // reading across several batch boundaries.
  Bytes key = TestKey(), nonce(12, 0x33);
  const size_t kRead = 64 * 33 + 5;
  const Bytes full = ReferenceStream(key, nonce, 64 * 17 + 64 + kRead);
  for (size_t base : {size_t{0}, size_t{64 * 17}}) {
    for (size_t off = 0; off < 64; ++off) {
      const size_t start = base + off;
      const Bytes want(full.begin() + start, full.begin() + start + kRead);
      ChaCha20Stream gen(key, nonce, *kernel_);
      gen.Seek(start);
      ASSERT_EQ(gen.Generate(kRead), want) << "offset " << start;

      Bytes buf(kRead, 0);
      ChaCha20Stream x(key, nonce, *kernel_);
      x.Seek(start);
      x.XorStreamRaw(buf.data(), kRead);
      ASSERT_EQ(buf, want) << "XOR at offset " << start;
    }
  }
}

TEST_P(ChaChaTierTest, InPlaceXorRoundTrips) {
  // XORing the same stream twice into one buffer restores it; chunked XOR
  // equals one-shot XOR.
  Bytes key = TestKey(), nonce(12, 0x34);
  const Bytes original = Patterned(64 * 40 + 17, 9);
  Bytes buf = original;
  ChaCha20Stream(key, nonce, *kernel_).XorStream(buf, 0, buf.size());
  Bytes one_shot = buf;
  ChaCha20Stream(key, nonce, *kernel_).XorStream(buf, 0, buf.size());
  EXPECT_EQ(buf, original);

  ChaCha20Stream chunked(key, nonce, *kernel_);
  for (size_t pos = 0; pos < buf.size();) {
    size_t take = std::min<size_t>(buf.size() - pos, 64 * 16 + 3);
    chunked.XorStream(buf, pos, take);
    pos += take;
  }
  EXPECT_EQ(buf, one_shot);
}

INSTANTIATE_TEST_SUITE_P(Tiers, ChaChaTierTest, ::testing::Values("avx512", "avx2", "scalar"),
                         [](const ::testing::TestParamInfo<std::string>& info) {
                           return info.param;
                         });

TEST(ChaChaKernelSelectionTest, WidestSupportedTierByCpuid) {
  const CpuFeatures& cpu = HostCpuFeatures();
  const std::string expect = cpu.avx512f ? "avx512" : cpu.avx2 ? "avx2" : "scalar";
  const std::string selected = kernels::SelectedChaChaKernel().name;
  // A build without the SIMD tiers (non-x86) runs the scalar one.
  if (kernels::ChaChaKernels().size() > 1) {
    EXPECT_EQ(selected, expect);
  } else {
    EXPECT_EQ(selected, "scalar");
  }
  EXPECT_TRUE(kernels::ChaChaKernels().back().supported);
  EXPECT_STREQ(kernels::ChaChaKernels().back().name, "scalar");
}

}  // namespace
}  // namespace dissent
