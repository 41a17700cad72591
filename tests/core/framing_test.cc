// Slot payload framing (OAEP-style padding), slot-schedule evolution, and
// the one-buffer TCP framing of wire messages.
#include <gtest/gtest.h>

#include <utility>

#include "src/core/cleartext.h"
#include "src/core/slot_schedule.h"
#include "src/core/wire.h"
#include "src/net/framing.h"

namespace dissent {
namespace {

SecureRng Rng(uint64_t label) { return SecureRng::FromLabel(label); }

TEST(CleartextTest, EncodeDecodeRoundTrip) {
  SecureRng rng = Rng(1);
  SlotPayload p;
  p.next_length = 512;
  p.shuffle_request = 0x2a;
  p.payload = BytesOf("hello dissent");
  auto region = EncodeSlot(p, 128, rng);
  ASSERT_TRUE(region.has_value());
  EXPECT_EQ(region->size(), 128u);
  auto back = DecodeSlot(*region);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->next_length, 512u);
  EXPECT_EQ(back->shuffle_request, 0x2a);
  EXPECT_EQ(back->payload, BytesOf("hello dissent"));
}

TEST(CleartextTest, PayloadTooLargeRejected) {
  SecureRng rng = Rng(2);
  SlotPayload p;
  p.payload = Bytes(200, 1);
  EXPECT_FALSE(EncodeSlot(p, 64, rng).has_value());
  EXPECT_EQ(SlotPayloadCapacity(64), 64 - SlotOverheadBytes());
  EXPECT_EQ(SlotPayloadCapacity(4), 0u);
}

TEST(CleartextTest, AllZeroRegionDecodesAsAbsent) {
  Bytes zeros(100, 0);
  EXPECT_FALSE(DecodeSlot(zeros).has_value());
  EXPECT_FALSE(DecodeSlot(Bytes{}).has_value());
  EXPECT_FALSE(DecodeSlot(Bytes(3, 0)).has_value());
}

TEST(CleartextTest, BitFlipsAreDetected) {
  // A disruptor flipping any body bit must not produce a silently-valid slot
  // with altered content going unnoticed by the magic/zero-fill checks OR it
  // garbles the payload. (We can't detect all flips — payload flips pass the
  // structure check — but the victim detects them by comparison, §3.9.)
  SecureRng rng = Rng(3);
  SlotPayload p;
  p.payload = BytesOf("x");
  auto region = EncodeSlot(p, 64, rng);
  ASSERT_TRUE(region.has_value());
  // Flip a zero-fill byte (tail).
  Bytes tampered = *region;
  tampered.back() ^= 0x01;
  EXPECT_FALSE(DecodeSlot(tampered).has_value());
  // Flip a magic byte (just after seed).
  tampered = *region;
  tampered[16] ^= 0x80;
  EXPECT_FALSE(DecodeSlot(tampered).has_value());
}

TEST(CleartextTest, EveryEncodingIsFresh) {
  // Same payload twice -> different wire bytes (the §3.9 unpredictability
  // property that guarantees witness bits exist).
  SecureRng rng = Rng(4);
  SlotPayload p;
  p.payload = BytesOf("same message");
  auto r1 = EncodeSlot(p, 96, rng);
  auto r2 = EncodeSlot(p, 96, rng);
  EXPECT_NE(*r1, *r2);
}

TEST(SlotScheduleTest, InitialAllClosed) {
  SlotSchedule s(10, 256);
  EXPECT_EQ(s.num_slots(), 10u);
  EXPECT_EQ(s.TotalLength(), s.RequestRegionBytes());
  EXPECT_EQ(s.RequestRegionBytes(), 2u);
  for (size_t i = 0; i < 10; ++i) {
    EXPECT_FALSE(s.is_open(i));
  }
}

TEST(SlotScheduleTest, RequestBitOpensSlot) {
  SlotSchedule s(10, 256);
  Bytes cleartext(s.TotalLength(), 0);
  SetBit(cleartext, 3, true);
  SetBit(cleartext, 7, true);
  s.Advance(cleartext);
  EXPECT_TRUE(s.is_open(3));
  EXPECT_TRUE(s.is_open(7));
  EXPECT_FALSE(s.is_open(0));
  EXPECT_EQ(s.slot_length(3), 256u);
  EXPECT_EQ(s.TotalLength(), s.RequestRegionBytes() + 512u);
  EXPECT_EQ(s.SlotOffset(3), s.RequestRegionBytes());
  EXPECT_EQ(s.SlotOffset(7), s.RequestRegionBytes() + 256u);
}

TEST(SlotScheduleTest, HeaderDrivesResizeAndClose) {
  SecureRng rng = Rng(5);
  SlotSchedule s(4, 128);
  // Open slot 1.
  Bytes ct(s.TotalLength(), 0);
  SetBit(ct, 1, true);
  s.Advance(ct);
  ASSERT_TRUE(s.is_open(1));
  // Owner asks to grow to 1000.
  SlotPayload p;
  p.next_length = 1000;
  ct.assign(s.TotalLength(), 0);
  auto region = EncodeSlot(p, 128, rng);
  std::copy(region->begin(), region->end(), ct.begin() + s.SlotOffset(1));
  s.Advance(ct);
  EXPECT_EQ(s.slot_length(1), 1000u);
  // Owner closes.
  p.next_length = 0;
  ct.assign(s.TotalLength(), 0);
  region = EncodeSlot(p, 1000, rng);
  std::copy(region->begin(), region->end(), ct.begin() + s.SlotOffset(1));
  s.Advance(ct);
  EXPECT_FALSE(s.is_open(1));
}

TEST(SlotScheduleTest, GarbledSlotCloses) {
  SlotSchedule s(4, 128);
  Bytes ct(s.TotalLength(), 0);
  SetBit(ct, 2, true);
  s.Advance(ct);
  ASSERT_TRUE(s.is_open(2));
  // Round output with garbage in slot 2 (owner offline or disrupted).
  ct.assign(s.TotalLength(), 0);
  ct[s.SlotOffset(2) + 20] = 0xff;
  s.Advance(ct);
  EXPECT_FALSE(s.is_open(2));
}

TEST(SlotScheduleTest, ResizeRequestIsClamped) {
  SecureRng rng = Rng(6);
  SlotSchedule s(2, 128);
  Bytes ct(s.TotalLength(), 0);
  SetBit(ct, 0, true);
  s.Advance(ct);
  SlotPayload p;
  p.next_length = 0xffffffff;  // disruptor-sized request
  ct.assign(s.TotalLength(), 0);
  auto region = EncodeSlot(p, 128, rng);
  std::copy(region->begin(), region->end(), ct.begin() + s.SlotOffset(0));
  s.Advance(ct);
  EXPECT_EQ(s.slot_length(0), SlotSchedule::kMaxSlotLength);
  // A nonzero-but-tiny request is raised to the minimum usable size.
  p.next_length = 3;
  ct.assign(s.TotalLength(), 0);
  region = EncodeSlot(p, SlotSchedule::kMaxSlotLength, rng);
  std::copy(region->begin(), region->end(), ct.begin() + s.SlotOffset(0));
  s.Advance(ct);
  EXPECT_EQ(s.slot_length(0), SlotOverheadBytes());
}

// One default-constructed message of every WireMessage alternative.
template <size_t... I>
std::vector<WireMessage> EveryWireType(std::index_sequence<I...>) {
  return {WireMessage(std::in_place_index<I>)...};
}

TEST(WireFramingTest, OneBufferFrameEqualsEncodeFrameOfSerializeWire) {
  std::vector<WireMessage> msgs =
      EveryWireType(std::make_index_sequence<std::variant_size_v<WireMessage>>{});
  ASSERT_EQ(msgs.size(), std::variant_size_v<WireMessage>);
  // Populated shapes of the frames that carry the bulk bytes.
  msgs.push_back(wire::ClientSubmit{7, 3, Bytes(131072, 0x5a)});
  msgs.push_back(wire::ServerCiphertext{7, 2, Bytes(4099, 0xc3)});
  msgs.push_back(wire::Output{9, Bytes(70000, 0x11), {Bytes(64, 1), Bytes(64, 2)}});
  msgs.push_back(wire::Reliable{5, 1, 2, SerializeWire(wire::ClientSubmit{7, 3, Bytes(300, 9)})});
  msgs.push_back(wire::RoundSummary{4, false, Bytes(1000, 3), {Bytes(64, 4)}, 6});
  for (const WireMessage& m : msgs) {
    const auto framed = net::FrameWire(m);
    ASSERT_NE(framed, nullptr);
    EXPECT_EQ(*framed, net::EncodeFrame(SerializeWire(m))) << WireTypeName(m);
  }
}

}  // namespace
}  // namespace dissent
