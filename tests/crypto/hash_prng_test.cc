// SHA-256 against FIPS 180-4 / NIST vectors; ChaCha20 against RFC 8439.
#include <gtest/gtest.h>

#include <cstring>
#include <random>
#include <string>

#include "src/crypto/chacha20.h"
#include "src/crypto/kernels.h"
#include "src/crypto/sha256.h"
#include "src/util/bytes.h"

namespace dissent {
namespace {

TEST(Sha256Test, NistVectors) {
  EXPECT_EQ(ToHex(Sha256::Hash(BytesOf(""))),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
  EXPECT_EQ(ToHex(Sha256::Hash(BytesOf("abc"))),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
  EXPECT_EQ(ToHex(Sha256::Hash(
                BytesOf("abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"))),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
  // One million 'a's (streaming path).
  Sha256 h;
  Bytes chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) {
    h.Update(chunk);
  }
  EXPECT_EQ(ToHex(h.Finish()),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256Test, BoundaryLengths) {
  // Padding boundaries: 55, 56, 63, 64, 65 bytes all hash without error and
  // produce distinct digests.
  std::vector<Bytes> digests;
  for (size_t n : {0u, 1u, 55u, 56u, 57u, 63u, 64u, 65u, 127u, 128u}) {
    digests.push_back(Sha256::Hash(Bytes(n, 0x5a)));
  }
  for (size_t i = 0; i < digests.size(); ++i) {
    for (size_t j = i + 1; j < digests.size(); ++j) {
      EXPECT_NE(ToHex(digests[i]), ToHex(digests[j]));
    }
  }
}

TEST(Sha256Test, PaddingBoundaryVectors) {
  // n repetitions of 'a' at the lengths where Finish's padding changes
  // shape: the 0x80 byte and the 8-byte length fit in the last block up to
  // 55 bytes of tail, and spill into one more block from 56 to 63.
  // Digests from an independent SHA-256 implementation (OpenSSL).
  const std::pair<size_t, const char*> vectors[] = {
      {0, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"},
      {55, "9f4390f8d30c2dd92ec9f095b65e2b9ae9b0a925a5258e241c9f1e910f734318"},
      {56, "b35439a4ac6f0948b6d6f9e3c6af0f5f590ce20f1bde7090ef7970686ec6738a"},
      {63, "7d3e74a05d7db15bce4ad9ec0658ea98e3f06eeecf16b4c6fff2da457ddc2f34"},
      {64, "ffe054fe7ae0cb6dc65c3af9b61d5209f439851db43d0ba5997337df154668eb"},
      {119, "31eba51c313a5c08226adf18d4a359cfdfd8d2e816b13f4af952f7ea6584dcfb"},
      {120, "2f3d335432c70b580af0e8e1b3674a7c020d683aa5f73aaaedfdc55af904c21c"},
  };
  for (const auto& [n, digest] : vectors) {
    EXPECT_EQ(ToHex(Sha256::Hash(Bytes(n, 'a'))), digest) << n << " bytes";
  }
}

TEST(Sha256Test, StreamingMatchesOneShot) {
  // Every split point of every length up to 130 bytes: two Updates hash the
  // same as one.
  Bytes msg(130);
  for (size_t i = 0; i < msg.size(); ++i) {
    msg[i] = static_cast<uint8_t>(i * 37 + 11);
  }
  for (size_t n = 0; n <= msg.size(); ++n) {
    const Bytes whole(msg.begin(), msg.begin() + n);
    const std::string one_shot = ToHex(Sha256::Hash(whole));
    for (size_t cut = 0; cut <= n; ++cut) {
      Sha256 h;
      h.Update(whole.data(), cut);
      h.Update(whole.data() + cut, n - cut);
      ASSERT_EQ(ToHex(h.Finish()), one_shot) << "length " << n << " split at " << cut;
    }
  }
}

TEST(Sha256Test, HashPartsIsFramed) {
  // Unambiguous framing: ("ab","c") != ("a","bc").
  Bytes ab = BytesOf("ab"), c = BytesOf("c"), a = BytesOf("a"), bc = BytesOf("bc");
  EXPECT_NE(ToHex(Sha256::HashParts({&ab, &c})), ToHex(Sha256::HashParts({&a, &bc})));
}

// --- Per-tier equivalence: each SHA-256 compression kernel against the
// portable one. Tiers the host lacks are skipped by name. ---

const kernels::Sha256Kernel& PortableSha256() { return kernels::Sha256Kernels().back(); }

Bytes RandomBytes(std::mt19937& rng, size_t n) {
  Bytes b(n);
  for (uint8_t& c : b) {
    c = static_cast<uint8_t>(rng());
  }
  return b;
}

class Sha256TierTest : public ::testing::TestWithParam<std::string> {
 protected:
  void SetUp() override {
    for (const kernels::Sha256Kernel& k : kernels::Sha256Kernels()) {
      if (GetParam() == k.name) {
        kernel_ = &k;
      }
    }
    if (kernel_ == nullptr || !kernel_->supported) {
      GTEST_SKIP() << "SHA-256 kernel tier " << GetParam() << " not supported on this host";
    }
  }

  const kernels::Sha256Kernel* kernel_ = nullptr;
};

TEST_P(Sha256TierTest, CompressMatchesPortableOnRandomBlocks) {
  // Random chaining states and random runs of 1..9 whole blocks.
  std::mt19937 rng(1234);
  for (int trial = 0; trial < 200; ++trial) {
    uint32_t state[8], ref[8];
    for (uint32_t& w : state) {
      w = static_cast<uint32_t>(rng());
    }
    std::memcpy(ref, state, sizeof(ref));
    const size_t nblocks = 1 + trial % 9;
    const Bytes data = RandomBytes(rng, 64 * nblocks);
    kernel_->compress(state, data.data(), nblocks);
    PortableSha256().compress(ref, data.data(), nblocks);
    ASSERT_EQ(0, std::memcmp(state, ref, sizeof(ref))) << "trial " << trial;
  }
}

TEST_P(Sha256TierTest, EverySplitPointMatchesPortable) {
  // Random messages of every length up to 200 bytes, fed in two Updates at
  // every split point, against a one-shot portable hash.
  std::mt19937 rng(99);
  const Bytes msg = RandomBytes(rng, 200);
  for (size_t n = 0; n <= msg.size(); ++n) {
    const std::string want = ToHex(Sha256(PortableSha256()).Update(msg.data(), n).Finish());
    for (size_t cut = 0; cut <= n; ++cut) {
      Sha256 h(*kernel_);
      h.Update(msg.data(), cut);
      h.Update(msg.data() + cut, n - cut);
      ASSERT_EQ(ToHex(h.Finish()), want) << "length " << n << " split at " << cut;
    }
  }
}

TEST_P(Sha256TierTest, NistVectors) {
  EXPECT_EQ(ToHex(Sha256(*kernel_).Update(BytesOf("abc")).Finish()),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
  // A long multi-block run handed to the kernel in one call.
  EXPECT_EQ(ToHex(Sha256(*kernel_).Update(Bytes(1000000, 'a')).Finish()),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

INSTANTIATE_TEST_SUITE_P(Tiers, Sha256TierTest, ::testing::Values("sha_ni", "portable"),
                         [](const ::testing::TestParamInfo<std::string>& info) {
                           return info.param;
                         });

TEST(Sha256KernelSelectionTest, ShaNiWhenCpuidHasIt) {
  const std::string selected = kernels::SelectedSha256Kernel().name;
  if (kernels::Sha256Kernels().size() > 1 && HostCpuFeatures().sha_ni) {
    EXPECT_EQ(selected, "sha_ni");
  } else {
    EXPECT_EQ(selected, "portable");
  }
}

TEST(ChaCha20Test, Rfc8439BlockVector) {
  // RFC 8439 section 2.3.2 test vector.
  Bytes key(32), nonce(12);
  for (int i = 0; i < 32; ++i) {
    key[i] = static_cast<uint8_t>(i);
  }
  nonce[3] = 0x09;
  nonce[7] = 0x4a;
  uint8_t out[64];
  ChaCha20Block(key.data(), nonce.data(), 1, out);
  Bytes got(out, out + 64);
  EXPECT_EQ(ToHex(got),
            "10f1e7e4d13b5915500fdd1fa32071c4c7d1f4c733c068030422aa9ac3d46c4e"
            "d2826446079faa0914c2d705d98b02a2b5129cd1de164eb9cbd083e8a2503c4e");
}

TEST(ChaCha20Test, Rfc8439EncryptionVector) {
  // RFC 8439 section 2.4.2: keystream for counter starting at 1.
  Bytes key(32), nonce(12);
  for (int i = 0; i < 32; ++i) {
    key[i] = static_cast<uint8_t>(i);
  }
  nonce[7] = 0x4a;
  const std::string plaintext =
      "Ladies and Gentlemen of the class of '99: If you could offer you only one tip for "
      "the future, sunscreen would be it.";
  // Stream with counter 0; RFC uses counter 1, so skip one block.
  ChaCha20Stream stream(key, nonce);
  Bytes skip = stream.Generate(64);
  Bytes ct = BytesOf(plaintext);
  stream.XorStream(ct, 0, ct.size());
  EXPECT_EQ(ToHex(Bytes(ct.begin(), ct.begin() + 16)), "6e2e359a2568f98041ba0728dd0d6981");
}

TEST(ChaCha20Test, StreamDeterminismAndChunking) {
  Bytes key(32, 0x42), nonce(12, 0x17);
  ChaCha20Stream s1(key, nonce);
  ChaCha20Stream s2(key, nonce);
  Bytes a = s1.Generate(1000);
  // Same stream read in odd-sized chunks must match.
  Bytes b;
  while (b.size() < 1000) {
    size_t take = std::min<size_t>(37, 1000 - b.size());
    Bytes chunk = s2.Generate(take);
    b.insert(b.end(), chunk.begin(), chunk.end());
  }
  EXPECT_EQ(a, b);
  // Different nonce => different stream.
  Bytes nonce2(12, 0x18);
  ChaCha20Stream s3(key, nonce2);
  EXPECT_NE(s3.Generate(1000), a);
}

TEST(ChaCha20Test, XorStreamMatchesGenerate) {
  Bytes key(32, 1), nonce(12, 2);
  ChaCha20Stream s1(key, nonce);
  ChaCha20Stream s2(key, nonce);
  Bytes buf(300, 0);
  s1.XorStream(buf, 0, 300);
  EXPECT_EQ(buf, s2.Generate(300));
  // XOR twice with identical streams cancels.
  ChaCha20Stream s3(key, nonce);
  s3.XorStream(buf, 0, 300);
  EXPECT_EQ(buf, Bytes(300, 0));
}

}  // namespace
}  // namespace dissent
