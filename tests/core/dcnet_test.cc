// The DC-net XOR algebra: pad determinism and the cancellation invariant
// that makes the anytrust client/server design work (§3.4, §3.6).
#include "src/core/dcnet.h"

#include <gtest/gtest.h>

#include "src/crypto/multiexp.h"
#include "src/util/rng.h"
#include "tests/core/park_pool.h"

namespace dissent {
namespace {

Bytes KeyOf(uint64_t i, uint64_t j) {
  Bytes k(32, 0);
  k[0] = static_cast<uint8_t>(i);
  k[1] = static_cast<uint8_t>(i >> 8);
  k[2] = static_cast<uint8_t>(j);
  k[3] = static_cast<uint8_t>(j >> 8);
  k[4] = 0x77;
  return k;
}

TEST(DcnetTest, PadDeterministicPerRound) {
  Bytes key = KeyOf(1, 2);
  EXPECT_EQ(DcnetPad(key, 5, 100), DcnetPad(key, 5, 100));
  EXPECT_NE(DcnetPad(key, 5, 100), DcnetPad(key, 6, 100));
  EXPECT_NE(DcnetPad(key, 5, 100), DcnetPad(KeyOf(1, 3), 5, 100));
  // Prefix property: longer pad extends shorter one.
  Bytes p40 = DcnetPad(key, 9, 40);
  Bytes p100 = DcnetPad(key, 9, 100);
  EXPECT_TRUE(std::equal(p40.begin(), p40.end(), p100.begin()));
}

TEST(DcnetTest, XorPadMatchesPad) {
  Bytes key = KeyOf(3, 4);
  Bytes buf(64, 0);
  XorDcnetPad(key, 7, buf);
  EXPECT_EQ(buf, DcnetPad(key, 7, 64));
}

TEST(DcnetTest, PadBitMatchesPadBytes) {
  Bytes key = KeyOf(5, 6);
  Bytes pad = DcnetPad(key, 11, 32);
  for (size_t b = 0; b < 256; b += 17) {
    EXPECT_EQ(DcnetPadBit(key, 11, b), GetBit(pad, b)) << "bit " << b;
  }
}

// The load-bearing invariant: with any subset L of clients online, the XOR
// of their ciphertexts and all server ciphertexts equals the XOR of their
// cleartexts (Algorithm 1+2 with the client/server secret-sharing graph).
class DcnetCancellationTest : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(DcnetCancellationTest, PadsCancelForAnyClientSubset) {
  auto [num_clients, num_servers, seed] = GetParam();
  Rng rng(seed);
  const uint64_t round = 42;
  const size_t len = 200;

  // Pairwise keys.
  std::vector<std::vector<Bytes>> key(num_clients, std::vector<Bytes>(num_servers));
  for (int i = 0; i < num_clients; ++i) {
    for (int j = 0; j < num_servers; ++j) {
      key[i][j] = KeyOf(i, j);
    }
  }
  // Random cleartexts; random online subset; random client->server owner.
  std::vector<Bytes> cleartext(num_clients, Bytes(len, 0));
  std::vector<bool> online(num_clients);
  std::vector<int> owner(num_clients);
  Bytes expected(len, 0);
  std::vector<Bytes> server_ct(num_servers, Bytes(len, 0));
  std::vector<std::vector<int>> owned(num_servers);
  for (int i = 0; i < num_clients; ++i) {
    online[i] = rng.Bernoulli(0.7);
    owner[i] = static_cast<int>(rng.Below(num_servers));
    for (auto& b : cleartext[i]) {
      b = static_cast<uint8_t>(rng.Next());
    }
    if (online[i]) {
      XorInto(expected, cleartext[i]);
      owned[owner[i]].push_back(i);
    }
  }
  // Client ciphertexts for online clients.
  for (int i = 0; i < num_clients; ++i) {
    if (!online[i]) {
      continue;
    }
    Bytes ct = BuildClientCiphertext(key[i], round, cleartext[i]);
    XorInto(server_ct[owner[i]], ct);
  }
  // Server ciphertexts: pads for ALL online clients + owned client cts.
  for (int j = 0; j < num_servers; ++j) {
    for (int i = 0; i < num_clients; ++i) {
      if (online[i]) {
        XorDcnetPad(key[i][j], round, server_ct[j]);
      }
    }
  }
  Bytes combined(len, 0);
  for (int j = 0; j < num_servers; ++j) {
    XorInto(combined, server_ct[j]);
  }
  EXPECT_EQ(combined, expected);
}

INSTANTIATE_TEST_SUITE_P(Shapes, DcnetCancellationTest,
                         ::testing::Values(std::make_tuple(1, 1, 1), std::make_tuple(5, 1, 2),
                                           std::make_tuple(1, 5, 3), std::make_tuple(10, 3, 4),
                                           std::make_tuple(40, 8, 5),
                                           std::make_tuple(64, 16, 6)));

TEST(DcnetTest, ParallelPadAggregationMatchesSerial) {
  // §3.4: the server-side pad expansion is parallelizable; the threaded path
  // must be bit-identical to the serial loop for any thread count.
  constexpr size_t kClients = 300;
  constexpr size_t kLen = 4096;
  std::vector<Bytes> keys(kClients);
  std::vector<const Bytes*> key_ptrs;
  for (size_t i = 0; i < kClients; ++i) {
    keys[i] = KeyOf(i, 9);
    key_ptrs.push_back(&keys[i]);
  }
  Bytes serial(kLen, 0);
  for (const Bytes& k : keys) {
    XorDcnetPad(k, 31, serial);
  }
  for (size_t threads : {1u, 2u, 3u, 8u, 64u}) {
    Bytes parallel(kLen, 0);
    XorDcnetPadsParallel(key_ptrs, 31, parallel, threads);
    EXPECT_EQ(parallel, serial) << threads << " threads";
  }
  // Base buffer contents are preserved (XORed into, not overwritten).
  Bytes seeded(kLen, 0x77);
  XorDcnetPadsParallel(key_ptrs, 31, seeded, 4);
  Bytes expect = serial;
  for (auto& b : expect) {
    b ^= 0x77;
  }
  EXPECT_EQ(seeded, expect);
}

TEST(DcnetTest, ColumnChunkedParallelMatchesSerialAcrossOddLengths) {
  // The column-parallel path splits the accumulator into per-worker byte
  // ranges (seeking each keystream to its column), so lengths around block
  // and chunk boundaries are the dangerous cases.
  constexpr size_t kClients = 17;
  std::vector<Bytes> keys(kClients);
  std::vector<const Bytes*> key_ptrs;
  for (size_t i = 0; i < kClients; ++i) {
    keys[i] = KeyOf(i, 3);
    key_ptrs.push_back(&keys[i]);
  }
  for (size_t len : {1u, 63u, 64u, 65u, 4097u, 100000u}) {
    Bytes serial(len, 0);
    for (const Bytes& k : keys) {
      XorDcnetPad(k, 77, serial);
    }
    for (size_t threads : {1u, 2u, 3u, 5u, 8u, 64u}) {
      Bytes parallel(len, 0);
      XorDcnetPadsParallel(key_ptrs, 77, parallel, threads);
      EXPECT_EQ(parallel, serial) << len << " bytes, " << threads << " threads";
    }
  }
}

TEST(DcnetTest, PadExpanderSubsetMatchesPerKeyXor) {
  constexpr size_t kClients = 12;
  constexpr size_t kLen = 5000;
  std::vector<Bytes> keys(kClients);
  for (size_t i = 0; i < kClients; ++i) {
    keys[i] = KeyOf(i, 8);
  }
  PadExpander expander(keys);
  ASSERT_EQ(expander.num_keys(), kClients);
  const std::vector<uint32_t> subset = {0, 3, 4, 9, 11};
  Bytes expect(kLen, 0xd1);
  for (uint32_t i : subset) {
    XorDcnetPad(keys[i], 123, expect);
  }
  for (size_t threads : {1u, 2u, 4u}) {
    Bytes got(kLen, 0xd1);
    expander.XorPads(subset, 123, got, threads);
    EXPECT_EQ(got, expect) << threads << " threads";
  }
  // XorAllPads == every index.
  Bytes all_expect(kLen, 0);
  for (const Bytes& k : keys) {
    XorDcnetPad(k, 124, all_expect);
  }
  Bytes all_got(kLen, 0);
  expander.XorAllPads(124, all_got, 3);
  EXPECT_EQ(all_got, all_expect);
}

TEST(DcnetTest, PadExpanderPadBitMatchesDcnetPadBit) {
  std::vector<Bytes> keys = {KeyOf(1, 1), KeyOf(2, 1)};
  PadExpander expander(keys);
  for (size_t bit : {0u, 7u, 8u, 511u, 512u, 513u, 70000u}) {
    EXPECT_EQ(expander.PadBit(0, 9, bit), DcnetPadBit(keys[0], 9, bit)) << bit;
    EXPECT_EQ(expander.PadBit(1, 9, bit), DcnetPadBit(keys[1], 9, bit)) << bit;
  }
}

TEST(DcnetTest, PadBitMatchesPadBytesDeepOffsets) {
  // DcnetPadBit seeks straight to the containing block; cross-check against
  // materialized pads well past the first block.
  Bytes key = KeyOf(6, 6);
  Bytes pad = DcnetPad(key, 13, 16384);
  for (size_t bit = 0; bit < 16384 * 8; bit += 4099) {
    EXPECT_EQ(DcnetPadBit(key, 13, bit), GetBit(pad, bit)) << "bit " << bit;
  }
}

// XOR of PAD(keys[i], round) over `indices`, one key at a time.
Bytes SerialPads(const std::vector<Bytes>& keys, const std::vector<uint32_t>& indices,
                 uint64_t round, size_t len) {
  Bytes out(len, 0);
  for (uint32_t i : indices) {
    XorDcnetPad(keys[i], round, out);
  }
  return out;
}

TEST(DcnetTest, CompositePadJobMatchesSerialPadsOnPoolAndInline) {
  // Below and above the fan-out threshold, on the pool and inline (fast
  // path off: nothing is posted, Take runs the job on the caller).
  for (size_t clients : {size_t{12}, kParallelPadKeys + 7}) {
    std::vector<Bytes> keys(clients);
    std::vector<uint32_t> every;
    for (size_t i = 0; i < clients; ++i) {
      keys[i] = KeyOf(i, 21);
      every.push_back(static_cast<uint32_t>(i));
    }
    auto expander = std::make_shared<const PadExpander>(keys);
    const std::vector<uint32_t> subset = {0, 3, 4, 9, 11};
    for (bool fast : {true, false}) {
      ScopedCryptoFastPath mode(fast);
      for (size_t len : {1u, 4097u, 100000u}) {
        for (const std::vector<uint32_t>& set : {every, subset}) {
          CompositePadJob job(expander, set, 31, len, Bytes(7, 0xee));
          EXPECT_EQ(job.length(), len);
          EXPECT_EQ(job.expected(), set);
          EXPECT_EQ(job.Take(), SerialPads(keys, set, 31, len))
              << clients << " clients, " << len << " bytes, fast=" << fast;
        }
      }
      CompositePadJob empty(expander, {}, 31, 64, Bytes{});
      EXPECT_EQ(empty.Take(), Bytes(64, 0));
    }
  }
}

TEST(DcnetTest, CompositePadJobDroppedBeforeItRunsIsCanceled) {
  // Dropping a queued job (a server destroyed or a slot reused before any
  // worker reached it) must cancel it: under ASan the released workers
  // touch no freed state, and the expander it shared is freed exactly once.
  std::vector<Bytes> keys = {KeyOf(1, 5), KeyOf(2, 5)};
  {
    ParkedPool parked;
    auto expander = std::make_shared<const PadExpander>(keys);
    auto job = std::make_unique<CompositePadJob>(expander, std::vector<uint32_t>{0, 1}, 3,
                                                 100000, Bytes{});
    std::weak_ptr<const PadExpander> watch = expander;
    expander.reset();
    job.reset();
    EXPECT_TRUE(watch.expired()) << "a canceled job must release what it captured";
  }
  // Dropped while (possibly) running: the worker finishes into state only it
  // still owns.
  for (int rep = 0; rep < 20; ++rep) {
    auto expander = std::make_shared<const PadExpander>(keys);
    CompositePadJob(expander, {0, 1}, 4, 65536, Bytes{});
  }
}

TEST(DcnetTest, ClientComputeScalesWithServersNotClients) {
  // The anytrust design's whole point (§3.4): a client touches M pads per
  // round regardless of N. Structural check: BuildClientCiphertext takes
  // only the M server keys.
  std::vector<Bytes> keys = {KeyOf(0, 0), KeyOf(0, 1), KeyOf(0, 2)};
  Bytes cleartext(64, 0xab);
  Bytes ct = BuildClientCiphertext(keys, 1, cleartext);
  // Reconstruct manually.
  Bytes expect = cleartext;
  for (const auto& k : keys) {
    XorInto(expect, DcnetPad(k, 1, 64));
  }
  EXPECT_EQ(ct, expect);
}

}  // namespace
}  // namespace dissent
