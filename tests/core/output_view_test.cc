// One-pass output decoding (SlotSchedule::Decode) against the per-slot
// reference, and the process-wide accepted-output memo (output_view.h):
// forged outputs are never accepted on the strength of an earlier genuine
// one, decodes are shared only between equal layouts, and the memo stays
// bounded.
#include <gtest/gtest.h>

#include "src/core/client.h"
#include "src/core/output_cert.h"
#include "src/core/output_view.h"
#include "src/crypto/chacha20.h"
#include "src/crypto/sha256.h"
#include "src/util/serialize.h"

namespace dissent {
namespace {

// The reference decoder: the slot format of cleartext.h read the long way —
// a separately generated mask, a Reader over the unmasked body, and a
// byte-at-a-time zero-fill check.
std::optional<SlotPayload> ReferenceDecodeSlot(const Bytes& region) {
  if (region.size() < SlotOverheadBytes()) {
    return std::nullopt;
  }
  Bytes seed(region.begin(), region.begin() + 16);
  Bytes body(region.begin() + 16, region.end());
  Writer w;
  w.Str("dissent.slot.mask");
  w.Blob(seed);
  ChaCha20Stream stream(Sha256::Hash(w.data()), Bytes(12, 0x5f));
  XorInto(body, stream.Generate(body.size()));
  Reader r(body);
  uint32_t magic, next_length, payload_len;
  uint16_t shuffle_request;
  if (!r.U32(&magic) || magic != 0xd155e27a || !r.U32(&next_length) ||
      !r.U16(&shuffle_request) || !r.U32(&payload_len) || payload_len > r.remaining()) {
    return std::nullopt;
  }
  SlotPayload p;
  p.next_length = next_length;
  p.shuffle_request = shuffle_request;
  if (!r.Raw(payload_len, &p.payload)) {
    return std::nullopt;
  }
  while (r.remaining() > 0) {
    uint8_t b;
    if (!r.U8(&b) || b != 0) {
      return std::nullopt;
    }
  }
  return p;
}

// The reference decode of a whole output: ExtractSlot + DecodeSlot per open
// slot, with the schedule rule of slot_schedule.h.
DecodedOutput ReferenceDecode(const SlotSchedule& layout, const Bytes& cleartext,
                              uint32_t default_length) {
  DecodedOutput out;
  for (size_t s = 0; s < layout.num_slots(); ++s) {
    if (!layout.is_open(s)) {
      out.next_lengths.push_back(GetBit(cleartext, s) ? default_length : 0);
      continue;
    }
    auto p = ReferenceDecodeSlot(layout.ExtractSlot(cleartext, s));
    if (!p.has_value()) {
      out.next_lengths.push_back(0);
      continue;
    }
    uint32_t want = std::min(p->next_length, SlotSchedule::kMaxSlotLength);
    if (want != 0 && want < SlotOverheadBytes()) {
      want = static_cast<uint32_t>(SlotOverheadBytes());
    }
    out.next_lengths.push_back(want);
    out.accusation_requested |= p->shuffle_request != 0;
    if (!p->payload.empty()) {
      out.messages.emplace_back(s, p->payload);
    }
  }
  return out;
}

SlotSchedule LayoutOf(const std::vector<uint32_t>& lengths, uint32_t default_length) {
  Writer w;
  w.U32(default_length);
  w.U32(static_cast<uint32_t>(lengths.size()));
  for (uint32_t len : lengths) {
    w.U32(len);
  }
  Bytes bytes = w.Take();
  Reader r(bytes);
  return *SlotSchedule::DeserializeFrom(r);
}

void ExpectSameDecode(const DecodedOutput& got, const DecodedOutput& want) {
  EXPECT_EQ(got.messages, want.messages);
  EXPECT_EQ(got.accusation_requested, want.accusation_requested);
  EXPECT_EQ(got.next_lengths, want.next_lengths);
}

TEST(DecodedOutputTest, MatchesPerSlotReferenceOnRandomizedLayouts) {
  constexpr uint32_t kDefault = 64;
  SecureRng rng = SecureRng::FromLabel(1301);
  for (int trial = 0; trial < 200; ++trial) {
    const size_t n = 1 + rng.RandomU64() % 24;
    std::vector<uint32_t> lengths(n, 0);
    for (uint32_t& len : lengths) {
      // Closed, minimal, default, and odd lengths (partial last words).
      switch (rng.RandomU64() % 4) {
        case 0:
          len = 0;
          break;
        case 1:
          len = static_cast<uint32_t>(SlotOverheadBytes() + rng.RandomU64() % 9);
          break;
        default:
          len = static_cast<uint32_t>(SlotOverheadBytes() + rng.RandomU64() % 200);
      }
    }
    SlotSchedule layout = LayoutOf(lengths, kDefault);
    Bytes cleartext(layout.TotalLength(), 0);
    for (size_t b = 0; b < layout.RequestRegionBytes(); ++b) {
      cleartext[b] = static_cast<uint8_t>(rng.RandomU64());
    }
    for (size_t s = 0; s < n; ++s) {
      if (lengths[s] == 0) {
        continue;
      }
      Bytes region;
      switch (rng.RandomU64() % 5) {
        case 0:  // absent owner
          region.assign(lengths[s], 0);
          break;
        case 1:  // garbled
          region = rng.RandomBytes(lengths[s]);
          break;
        default: {
          SlotPayload p;
          p.payload = rng.RandomBytes(rng.RandomU64() % (SlotPayloadCapacity(lengths[s]) + 1));
          // Next lengths: close, below the minimum, ordinary, and above the
          // clamp.
          const uint32_t choices[] = {0, 3, 256, SlotSchedule::kMaxSlotLength + 7};
          p.next_length = choices[rng.RandomU64() % 4];
          p.shuffle_request = rng.RandomU64() % 4 == 0 ? 0x11 : 0;
          region = *EncodeSlot(p, lengths[s], rng);
        }
      }
      std::copy(region.begin(), region.end(), cleartext.begin() + layout.SlotOffset(s));
    }
    SCOPED_TRACE("trial " + std::to_string(trial));
    ExpectSameDecode(layout.Decode(cleartext), ReferenceDecode(layout, cleartext, kDefault));
    SlotSchedule advanced = layout;
    advanced.Advance(cleartext);
    EXPECT_EQ(advanced, LayoutOf(ReferenceDecode(layout, cleartext, kDefault).next_lengths,
                                 kDefault));
  }
}

TEST(DecodedOutputTest, NonzeroFillByteAtEveryOffsetIsGarbled) {
  SecureRng rng = SecureRng::FromLabel(1302);
  // Fill lengths 0..20 cover whole words and every partial last word.
  for (size_t fill = 0; fill <= 20; ++fill) {
    SlotPayload p;
    p.payload = BytesOf("payload");
    p.next_length = 128;
    const size_t len = SlotOverheadBytes() + p.payload.size() + fill;
    Bytes region = *EncodeSlot(p, len, rng);
    ASSERT_TRUE(DecodeSlot(region).has_value());
    for (size_t k = 0; k < fill; ++k) {
      // The body is masked by XOR, so flipping a region byte flips exactly
      // that plaintext fill byte.
      Bytes tampered = region;
      tampered[len - fill + k] ^= 0x40;
      EXPECT_FALSE(DecodeSlot(tampered).has_value()) << "fill " << fill << " offset " << k;
      EXPECT_FALSE(ReferenceDecodeSlot(tampered).has_value());
      SlotSchedule layout = LayoutOf({static_cast<uint32_t>(len)}, 64);
      Bytes cleartext = tampered;
      cleartext.insert(cleartext.begin(), uint8_t{0});  // request-bit region
      DecodedOutput d = layout.Decode(cleartext);
      EXPECT_TRUE(d.messages.empty());
      ASSERT_EQ(d.next_lengths.size(), 1u);
      EXPECT_EQ(d.next_lengths[0], 0u) << "a garbled slot must close";
    }
  }
}

// A small certified-output world: M servers sign (round, cleartext) under
// `def`; clients are built against any GroupDef the test chooses.
struct CertWorld {
  explicit CertWorld(uint64_t seed, size_t servers = 3, size_t clients = 4)
      : rng(SecureRng::FromLabel(seed)) {
    def = MakeTestGroup(Group::Named(GroupId::kTesting256), servers, clients, rng,
                        &server_privs, &client_privs);
  }
  std::vector<Bytes> Sign(uint64_t round, const Bytes& cleartext) {
    std::vector<Bytes> sigs;
    for (const BigInt& priv : server_privs) {
      sigs.push_back(SignOutput(def, round, cleartext, priv, rng).Serialize(*def.group));
    }
    return sigs;
  }
  std::unique_ptr<DissentClient> Client(const GroupDef& d, size_t i) {
    auto c = std::make_unique<DissentClient>(d, i, client_privs[i], SecureRng::FromLabel(i));
    c->AssignSlot(i, d.num_clients());
    return c;
  }

  SecureRng rng;
  GroupDef def;
  std::vector<BigInt> server_privs, client_privs;
};

TEST(AcceptedOutputMemoTest, CoHostedClientsShareOneDecode) {
  CertWorld w(1310);
  const SlotSchedule layout(w.def.num_clients(), w.def.policy.default_slot_length);
  Bytes cleartext(layout.TotalLength(), 0);
  cleartext[0] = 0xa0;  // request bits for slots 0 and 2
  const std::vector<Bytes> sigs = w.Sign(1, cleartext);
  auto first = AcceptCertifiedOutput(w.def, 1, cleartext, sigs, layout);
  ASSERT_NE(first, nullptr);
  EXPECT_EQ(first->next_lengths, (std::vector<uint32_t>{256, 0, 256, 0}));
  // A second client with its own copies of the same bytes, under an equal
  // (separately built) GroupDef, gets the very same decode.
  GroupDef def_copy = w.def;
  auto second = AcceptCertifiedOutput(def_copy, 1, Bytes(cleartext), std::vector<Bytes>(sigs),
                                      SlotSchedule(layout));
  EXPECT_EQ(second, first);
}

TEST(AcceptedOutputMemoTest, ForgedOutputAfterAcceptedOneIsRejectedByEveryClient) {
  CertWorld w(1311);
  auto genuine_client = w.Client(w.def, 0);
  const Bytes cleartext(genuine_client->schedule().TotalLength(), 0x00);
  const std::vector<Bytes> sigs = w.Sign(1, cleartext);
  ASSERT_TRUE(genuine_client->ProcessOutput(1, cleartext, sigs).signatures_ok);

  // One flipped signature byte, in each server's signature.
  for (size_t j = 0; j < sigs.size(); ++j) {
    for (size_t byte : {size_t{0}, sigs[j].size() / 2, sigs[j].size() - 1}) {
      std::vector<Bytes> forged = sigs;
      forged[j][byte] ^= 0x01;
      auto client = w.Client(w.def, 1);
      EXPECT_FALSE(client->ProcessOutput(1, cleartext, forged).signatures_ok)
          << "server " << j << " byte " << byte;
    }
  }
  // One flipped cleartext byte.
  Bytes altered = cleartext;
  altered[0] ^= 0x80;
  EXPECT_FALSE(w.Client(w.def, 2)->ProcessOutput(1, altered, sigs).signatures_ok);
  // Identical bytes under a GroupDef that differs in a single client key.
  GroupDef other = w.def;
  other.client_pubs[3] = w.def.group->GExp(BigInt(7));
  EXPECT_FALSE(w.Client(other, 3)->ProcessOutput(1, cleartext, sigs).signatures_ok);
  // The genuine output still verifies for everyone else.
  EXPECT_TRUE(w.Client(w.def, 3)->ProcessOutput(1, cleartext, sigs).signatures_ok);
}

TEST(AcceptedOutputMemoTest, ClientWithDifferentLayoutDecodesAgainstItsOwn) {
  CertWorld w(1312);
  auto a = w.Client(w.def, 0);
  auto b = w.Client(w.def, 1);
  // Round 1 differs per client (b just resynced onto another history):
  // a's layout for round 2 opens slot 0, b's opens slot 1 — same length.
  const size_t req = a->schedule().TotalLength();
  Bytes open0(req, 0), open1(req, 0);
  SetBit(open0, 0, true);
  SetBit(open1, 1, true);
  a->CatchUp(1, open0);
  b->CatchUp(1, open1);
  ASSERT_EQ(a->schedule().TotalLength(), b->schedule().TotalLength());
  ASSERT_NE(a->schedule(), b->schedule());

  SlotPayload p;
  p.payload = BytesOf("one region, two readings");
  p.next_length = 256;
  const uint32_t len = w.def.policy.default_slot_length;
  Bytes cleartext(a->schedule().RequestRegionBytes(), 0);
  Bytes region = *EncodeSlot(p, len, w.rng);
  cleartext.insert(cleartext.end(), region.begin(), region.end());
  const std::vector<Bytes> sigs = w.Sign(2, cleartext);

  auto ra = a->ProcessOutput(2, cleartext, sigs);
  auto rb = b->ProcessOutput(2, cleartext, sigs);
  ASSERT_TRUE(ra.signatures_ok);
  ASSERT_TRUE(rb.signatures_ok);
  ASSERT_EQ(ra.messages.size(), 1u);
  ASSERT_EQ(rb.messages.size(), 1u);
  EXPECT_EQ(ra.messages[0].first, 0u);
  EXPECT_EQ(rb.messages[0].first, 1u) << "b read the output under a's layout";
  EXPECT_EQ(rb.messages[0].second, p.payload);
  EXPECT_TRUE(a->schedule().is_open(0));
  EXPECT_FALSE(a->schedule().is_open(1));
  EXPECT_TRUE(b->schedule().is_open(1));
  EXPECT_FALSE(b->schedule().is_open(0));
}

TEST(AcceptedOutputMemoTest, StaysBoundedOverAThousandRounds) {
  CertWorld w(1313, /*servers=*/1, /*clients=*/2);
  auto client = w.Client(w.def, 0);
  const Bytes cleartext(client->schedule().TotalLength(), 0);
  for (uint64_t round = 1; round <= 1000; ++round) {
    ASSERT_TRUE(client->ProcessOutput(round, cleartext, w.Sign(round, cleartext)).signatures_ok)
        << "round " << round;
    ASSERT_LE(AcceptedOutputMemoSize(), kAcceptedOutputMemoCapacity) << "round " << round;
  }
  EXPECT_EQ(AcceptedOutputMemoSize(), kAcceptedOutputMemoCapacity);
}

}  // namespace
}  // namespace dissent
