// Baseline: classic all-pairs DC-net correctness + cost model.
#include <gtest/gtest.h>

#include "src/baseline/allpairs_dcnet.h"

namespace dissent {
namespace {

TEST(AllPairsTest, PadsCancelAcrossMembers) {
  constexpr size_t kN = 12;
  AllPairsDcnet net(kN, 77);
  std::vector<bool> online(kN, true);
  std::vector<Bytes> cleartexts(kN, Bytes(64, 0));
  cleartexts[3] = Bytes(64, 0xaa);  // one anonymous sender
  std::vector<Bytes> cts;
  for (size_t i = 0; i < kN; ++i) {
    cts.push_back(net.MemberCiphertext(i, 1, cleartexts[i], online));
  }
  EXPECT_EQ(net.Combine(cts), cleartexts[3]);
}

TEST(AllPairsTest, TwoSendersCollide) {
  // The Ethernet-like collision property (§3.1): two simultaneous senders
  // garble each other.
  constexpr size_t kN = 6;
  AllPairsDcnet net(kN, 78);
  std::vector<bool> online(kN, true);
  std::vector<Bytes> cts;
  for (size_t i = 0; i < kN; ++i) {
    Bytes m(32, 0);
    if (i == 1) {
      m.assign(32, 0x11);
    }
    if (i == 4) {
      m.assign(32, 0x44);
    }
    cts.push_back(net.MemberCiphertext(i, 2, m, online));
  }
  EXPECT_EQ(net.Combine(cts), Bytes(32, 0x11 ^ 0x44));
}

TEST(AllPairsTest, MemberLossGarblesRound) {
  // The churn fragility Dissent removes (§3.6): if one member's ciphertext
  // never arrives, the combined output is garbage, not the message.
  constexpr size_t kN = 8;
  AllPairsDcnet net(kN, 79);
  std::vector<bool> online(kN, true);
  std::vector<Bytes> cts;
  for (size_t i = 0; i < kN; ++i) {
    Bytes m(32, i == 2 ? 0x5a : 0x00);
    cts.push_back(net.MemberCiphertext(i, 3, m, online));
  }
  cts.pop_back();  // member 7 vanishes mid-round
  EXPECT_NE(net.Combine(cts), Bytes(32, 0x5a));
  // Rebuilding with the member marked offline recovers the message.
  online[7] = false;
  cts.clear();
  for (size_t i = 0; i + 1 < kN; ++i) {
    Bytes m(32, i == 2 ? 0x5a : 0x00);
    cts.push_back(net.MemberCiphertext(i, 3, m, online));
  }
  EXPECT_EQ(net.Combine(cts), Bytes(32, 0x5a));
}

TEST(AllPairsTest, CostModelAsymptotics) {
  constexpr size_t kLen = 1000;
  auto p2p_small = AllPairsDcnet::PerRound(100, kLen);
  auto p2p_big = AllPairsDcnet::PerRound(1000, kLen);
  // O(N) client compute, O(N^2) messages.
  EXPECT_NEAR(p2p_big.client_prng_bytes / p2p_small.client_prng_bytes, 10.0, 0.2);
  EXPECT_NEAR(p2p_big.messages / p2p_small.messages, 100.0, 2.0);
  auto any_small = AllPairsDcnet::AnytrustPerRound(100, 8, kLen);
  auto any_big = AllPairsDcnet::AnytrustPerRound(1000, 8, kLen);
  // O(M) client compute independent of N; O(N) messages.
  EXPECT_DOUBLE_EQ(any_small.client_prng_bytes, any_big.client_prng_bytes);
  EXPECT_LT(any_big.messages / any_small.messages, 11.0);
  // Crossover: anytrust strictly cheaper on every axis at scale.
  EXPECT_GT(p2p_big.client_prng_bytes, any_big.client_prng_bytes);
  EXPECT_GT(p2p_big.total_bytes, any_big.total_bytes);
}

TEST(AllPairsTest, ExpectedAttemptsGrowWithChurnAndSize) {
  EXPECT_NEAR(AllPairsDcnet::ExpectedAttempts(1, 0.0), 1.0, 1e-9);
  double a100 = AllPairsDcnet::ExpectedAttempts(100, 0.01);
  double a1000 = AllPairsDcnet::ExpectedAttempts(1000, 0.01);
  EXPECT_GT(a100, 2.0);
  EXPECT_GT(a1000, 1000.0);
  EXPECT_GT(a1000, a100);
}

}  // namespace
}  // namespace dissent
