// Golden bytes: the exact encoding of one fixed instance of every wire
// frame, of a fixed-seed MixStep, ciphertext row, Rebuttal, SignedAccusation
// and Hello, and the SHA-256 of engine snapshots and server state taken at
// fixed points of a seeded Coordinator session. The round-trip tests
// (wire_test, fuzz_inputs_test) show each codec inverts itself; these pin
// the bytes themselves. Signatures, blame evidence and stored snapshots are
// computed over them, so no refactor of a codec may move a single byte.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/core/coordinator.h"
#include "src/core/key_shuffle.h"
#include "src/core/wire.h"
#include "src/crypto/sha256.h"
#include "src/net/net_wire.h"

namespace dissent {
namespace {

std::vector<WireMessage> OneOfEachFrame() {
  using namespace wire;
  std::vector<WireMessage> m;
  m.push_back(ClientSubmit{0x0102030405060708ull, 7, {0xde, 0xad}});
  m.push_back(Inventory{9, 2, {1, 5, 1000}});
  m.push_back(Commit{3, 1, Bytes(4, 0xab)});
  m.push_back(ServerCiphertext{3, 1, {1, 2, 3}});
  m.push_back(SignatureShare{11, 3, BytesOf("sig")});
  m.push_back(Output{77, {0x11, 0x22}, {BytesOf("s0"), BytesOf("s1")}});
  m.push_back(BlameStart{55});
  m.push_back(AccusationSubmit{55, 4, {7, 7, 7}, BytesOf("rs")});
  m.push_back(BlameRoster{56, 1, {{2, {0x0a}, BytesOf("x")}, {9, {}, BytesOf("y")}}});
  m.push_back(BlameMix{56, 2, {1, 2}});
  m.push_back(TraceEvidence{57, 1, 12, 99, true, {3, 4, 9}, {0x05}, 1, {0xff, 0x01}});
  m.push_back(BlameChallenge{57, 12, 99, 4, {0x03}});
  m.push_back(BlameRebuttal{57, 4, {0xaa}, BytesOf("sig")});
  m.push_back(BlameVerdict{57, 12, BlameVerdict::kClientExpelled, 4});
  m.push_back(Ack{10, 1, 2, {0x05}});
  m.push_back(Reliable{11, 1, 2, SerializeWire(BlameStart{5})});
  m.push_back(CatchUpRequest{40, 3});
  m.push_back(RoundSummary{41, false, {0x01}, {BytesOf("a"), BytesOf("b")}, 45});
  m.push_back(VerdictShare{57, 1, 12, BlameVerdict::kServerExposed, 1, BytesOf("vs")});
  m.push_back(RoundAbort{42, 1});
  m.push_back(AbortPrepare{43, 2, 1, BytesOf("p")});
  m.push_back(AbortCommit{43, 2, {0, 2}, {BytesOf("p0"), BytesOf("p2")}});
  m.push_back(ServerCatchUpRequest{44, 1});
  m.push_back(ServerCatchUpBatch{1, 40, 42,
                                 {{false, {0x09}, {}, {BytesOf("s0"), BytesOf("s1")}},
                                  {true, {}, {0, 1}, {BytesOf("p0"), BytesOf("p1")}}}});
  m.push_back(SlotKeys{{Bytes(3, 1), Bytes(2, 2)}});
  return m;
}

// One entry per WireMessage alternative, in variant order.
const char* const kFrameHex[] = {
    "0108070605040302010700000002000000dead",
    "02090000000000000002000000030000000100000005000000e8030000",
    "0303000000000000000100000004000000abababab",
    "0403000000000000000100000003000000010203",
    "050b000000000000000300000003000000736967",
    "064d0000000000000002000000112202000000020000007330020000007331",
    "093700000000000000",
    "0737000000000000000400000003000000070707020000007273",
    "0a3800000000000000010000000200000002000000010000000a010000007809000000000000000100000079",
    "0b380000000000000002000000020000000102",
    "0c3900000000000000010000000c000000000000006300000000000000010300000003000000040000000900"
    "000001000000050102000000ff01",
    "0d39000000000000000c000000000000006300000000000000040000000100000003",
    "0e39000000000000000400000001000000aa03000000736967",
    "0839000000000000000c000000000000000104000000",
    "0f0a0000000000000001000000020000000100000005",
    "100b00000000000000010000000200000009000000090500000000000000",
    "11280000000000000003000000",
    "12290000000000000000010000000102000000010000006101000000622d00000000000000",
    "133900000000000000010000000c000000000000000201000000020000007673",
    "142a0000000000000001000000",
    "152b000000000000000200000000000000010000000100000070",
    "162b000000000000000200000000000000020000000000000002000000020000007030020000007032",
    "172c0000000000000001000000",
    "180100000028000000000000002a000000000000000200000000010000000900000000020000000200000073"
    "30020000007331010000000002000000000000000100000002000000020000007030020000007031",
    "190200000003000000010101020000000202",
};

TEST(GoldenBytesTest, EveryFrameTypeEncodesToItsPinnedBytes) {
  const auto frames = OneOfEachFrame();
  ASSERT_EQ(frames.size(), std::variant_size_v<WireMessage>);
  ASSERT_EQ(std::size(kFrameHex), frames.size());
  for (size_t i = 0; i < frames.size(); ++i) {
    ASSERT_EQ(frames[i].index(), i);
    const Bytes encoded = SerializeWire(frames[i]);
    EXPECT_EQ(ToHex(encoded), kFrameHex[i]) << WireTypeName(frames[i]);
    Writer w;
    w.U8(0x5a);  // SerializeWireTo appends after whatever the caller wrote
    SerializeWireTo(frames[i], w);
    EXPECT_EQ(Bytes(w.data().begin() + 1, w.data().end()), encoded) << WireTypeName(frames[i]);
    auto parsed = ParseWire(FromHex(kFrameHex[i]));
    ASSERT_TRUE(parsed.has_value()) << WireTypeName(frames[i]);
    EXPECT_EQ(parsed->index(), i);
    EXPECT_EQ(SerializeWire(*parsed), FromHex(kFrameHex[i])) << WireTypeName(frames[i]);
  }
}

struct Keys {
  GroupDef def;
  std::vector<BigInt> server_privs, client_privs;
};

Keys MakeKeys(size_t servers, size_t clients, uint64_t seed) {
  Keys k;
  SecureRng rng = SecureRng::FromLabel(seed);
  k.def = MakeTestGroup(Group::Named(GroupId::kTesting256), servers, clients, rng,
                        &k.server_privs, &k.client_privs);
  return k;
}

std::string Sha256Hex(const Bytes& b) { return ToHex(Sha256::Hash(b)); }

TEST(GoldenBytesTest, MixStepAndCiphertextRowArePinned) {
  const Keys k = MakeKeys(2, 3, 1701);
  const Group& g = *k.def.group;
  SecureRng rng = SecureRng::FromLabel(1702);
  CiphertextMatrix inputs;
  for (size_t i = 0; i < 3; ++i) {
    inputs.push_back(EncryptPseudonymKey(k.def, k.def.client_pubs[i], rng));
  }
  EXPECT_EQ(Sha256Hex(SerializeCiphertextRow(g, inputs[0])),
            "fa8837bbe187bedc9e5cee7beb2ef3d4591d99658cb8b0a9b07018ed4ad3c5f0");
  const MixStep step = KeyShuffleMixStep(k.def, 0, k.server_privs[0], inputs, rng);
  const Bytes encoded = SerializeMixStep(g, step);
  EXPECT_EQ(encoded.size(), 1696u);
  EXPECT_EQ(Sha256Hex(encoded), "64563b56a1b312f5dc114ae1a30b21674739dbf8eadf3df931f464166c2cfe09");
  auto parsed = ParseMixStep(g, encoded);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(SerializeMixStep(g, *parsed), encoded);
}

TEST(GoldenBytesTest, RebuttalAccusationAndHelloArePinned) {
  const Keys k = MakeKeys(2, 3, 1703);
  const Group& g = *k.def.group;
  DissentClient client(k.def, 1, k.client_privs[1], SecureRng::FromLabel(1704));
  const Bytes rebuttal = client.BuildRebuttal(0).Serialize(g);
  EXPECT_EQ(ToHex(rebuttal),
            "01000000000000002000000021dab7fd247ae35879d0a3aafdddefe6bbda5d8b46cc1fa58d0d1987dd72"
            "af456c000000200000002b20a0f31a09ce7754118d0a367941af4fe039b3bf1cd7a5f256b434d6abd3b1"
            "200000008027646f82f025a17a7f7e5fe9c4858ec08bdbb822428c539a0bfbc1bf6f713c200000002c48"
            "50bc414874d31333ac35b53bc9eeb2e812885428117d6be56db38d8ee892");
  auto back = Rebuttal::Deserialize(g, rebuttal);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->Serialize(g), rebuttal);

  SignedAccusation acc;
  acc.accusation = Accusation{21, 2, 1234};
  SecureRng rng = SecureRng::FromLabel(1705);
  acc.signature = SchnorrSign(g, k.client_privs[2], acc.accusation.Canonical(), rng);
  EXPECT_EQ(ToHex(acc.Serialize(g)),
            "150000000000000002000000d2040000000000004800000020000000596f5e2bb48b1917248b1e3b121a"
            "6fa0a6dcc176b094aafd595bebe08a2b6b5f20000000306291e764b2da40bb338753fa58ae84ef166c71"
            "9f9d9b51e330bd123db1bdf4");

  const Bytes secret = net::SessionSecret(1706, BytesOf("group"));
  EXPECT_EQ(ToHex(net::SerializeNet(net::MakeHello(secret, 1, 5, 4, 77))),
            "800105000000040000004d000000000000002000000049c3e3d7eb708607b5a09e013a3aeaae23fcc11c"
            "405d558e0ff599013def0f59");
}

TEST(GoldenBytesTest, SnapshotAndServerStateDigestsArePinned) {
  // A seeded reliable Coordinator session, sampled at fixed points: in the
  // middle of the key shuffle, once keys are installed, while round 3 is
  // being combined (gossip and unacked frames in flight), and after round 4.
  const Keys k = MakeKeys(3, 6, 1707);
  Coordinator coord(k.def, k.server_privs, k.client_privs, 1707);
  ReliabilityConfig rel;
  rel.enabled = true;
  coord.EnableReliability(rel, 2 * 1000 * 1000);
  std::vector<std::string> snaps, states;
  auto sample = [&] {
    snaps.push_back(Sha256Hex(coord.server_engine(1).SerializeSnapshot()));
    states.push_back(Sha256Hex(coord.server(1).SerializeState()));
  };
  bool mid_shuffle = false, mid_round = false;
  coord.SetMessageFilter([&](const Peer& from, const Peer&, const WireMessage& msg) {
    const auto* rel_frame = std::get_if<wire::Reliable>(&msg);
    if (rel_frame == nullptr || from.kind != Peer::Kind::kServer || from.index != 1) {
      return true;
    }
    auto inner = ParseWire(rel_frame->inner);
    if (!inner.has_value()) {
      return true;
    }
    const auto* commit = std::get_if<wire::Commit>(&*inner);
    if (!mid_shuffle && std::holds_alternative<wire::BlameMix>(*inner)) {
      mid_shuffle = true;
      sample();
    } else if (!mid_round && commit != nullptr && commit->round == 3) {
      mid_round = true;
      sample();
    }
    return true;
  });
  ASSERT_TRUE(coord.RunScheduling());
  sample();
  for (size_t i = 0; i < 6; ++i) {
    coord.client(i).QueueMessage(Bytes(24, static_cast<uint8_t>(0x30 + i)));
  }
  for (int r = 0; r < 4; ++r) {
    ASSERT_TRUE(coord.RunRound().completed);
  }
  sample();
  ASSERT_TRUE(mid_shuffle && mid_round);
  const std::vector<std::string> want_snaps = {
      "4bef682946f57f5d0340f99e0b30448d8b11ce00f418c6a59a659537feac8f70",
      "2cd9b963293193ece49be7506a358b6a9083f69fcfd3e516697a7ef339d46541",
      "9cccc12a248b73737e52f763baeb60d5707df1bd2809c179bc31d95a06a8162d",
      "d1995f96841e2f0602715ab4c172f47ad962993f9f4bd71e77582bacc79b343a",
  };
  const std::vector<std::string> want_states = {
      "556cab82ff3f356130b8c15a7b63f74f5beb0253842c18cb60813396c9aba524",
      "594d4559548e0e3356044c24d0e729c5c0bc4451a6c85b823dd99ec23c4b7639",
      "040e8dc7c263a2a8c311eb291db2156f1095c84b0222f1a5cb3c4d5f08e18aa9",
      "0f09f4369ce2dd6a62d60eb2bd74ba91da57dd794b1cb9190d2f51ae14a8f7ad",
  };
  EXPECT_EQ(snaps, want_snaps);
  EXPECT_EQ(states, want_states);
}

}  // namespace
}  // namespace dissent
