#include "src/core/cleartext.h"

#include <cstring>

#include "src/crypto/chacha20.h"
#include "src/crypto/sha256.h"
#include "src/util/serialize.h"

namespace dissent {

namespace {
constexpr size_t kSeedBytes = 16;
constexpr uint32_t kMagic = 0xd155e27a;

// The mask keystream for a slot seed, keyed for this purpose only.
ChaCha20Stream MaskStream(const uint8_t* seed) {
  Writer w;
  w.Str("dissent.slot.mask");
  w.Blob(Bytes(seed, seed + kSeedBytes));
  static const Bytes kNonce(12, 0x5f);
  return ChaCha20Stream(Sha256::Hash(w.data()), kNonce);
}

uint32_t LoadLE32(const uint8_t* p) {
  return static_cast<uint32_t>(p[0]) | static_cast<uint32_t>(p[1]) << 8 |
         static_cast<uint32_t>(p[2]) << 16 | static_cast<uint32_t>(p[3]) << 24;
}

// True iff every byte of [p, p + n) is zero, checked a word at a time.
bool AllZero(const uint8_t* p, size_t n) {
  uint64_t acc = 0;
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    uint64_t w;
    std::memcpy(&w, p + i, 8);
    acc |= w;
  }
  for (; i < n; ++i) {
    acc |= p[i];
  }
  return acc == 0;
}
}  // namespace

size_t SlotOverheadBytes() {
  // seed + magic + next_length + shuffle_request + payload_len
  return kSeedBytes + 4 + 4 + 2 + 4;
}

size_t SlotPayloadCapacity(size_t slot_length) {
  size_t overhead = SlotOverheadBytes();
  return slot_length >= overhead ? slot_length - overhead : 0;
}

std::optional<Bytes> EncodeSlot(const SlotPayload& p, size_t slot_length, SecureRng& rng) {
  if (p.payload.size() > SlotPayloadCapacity(slot_length)) {
    return std::nullopt;
  }
  Writer body;
  body.U32(kMagic);
  body.U32(p.next_length);
  body.U16(p.shuffle_request);
  body.U32(static_cast<uint32_t>(p.payload.size()));
  body.Raw(p.payload);
  Bytes body_bytes = body.Take();
  body_bytes.resize(slot_length - kSeedBytes, 0);  // zero fill

  Bytes seed = rng.RandomBytes(kSeedBytes);
  MaskStream(seed.data()).XorStreamRaw(body_bytes.data(), body_bytes.size());

  Bytes out;
  out.reserve(slot_length);
  out.insert(out.end(), seed.begin(), seed.end());
  out.insert(out.end(), body_bytes.begin(), body_bytes.end());
  return out;
}

std::optional<SlotPayload> DecodeSlot(const uint8_t* region, size_t len) {
  constexpr size_t kHeaderBytes = 4 + 4 + 2 + 4;
  if (len < SlotOverheadBytes()) {
    return std::nullopt;
  }
  // Unmask the body in one buffer, then parse it in place.
  Bytes body(region + kSeedBytes, region + len);
  MaskStream(region).XorStreamRaw(body.data(), body.size());
  const uint8_t* b = body.data();
  if (LoadLE32(b) != kMagic) {
    return std::nullopt;
  }
  const uint32_t payload_len = LoadLE32(b + 10);
  if (payload_len > body.size() - kHeaderBytes) {
    return std::nullopt;
  }
  // Everything past the payload must be the zero fill — anything else is
  // corruption.
  const size_t fill = kHeaderBytes + payload_len;
  if (!AllZero(b + fill, body.size() - fill)) {
    return std::nullopt;
  }
  SlotPayload p;
  p.next_length = LoadLE32(b + 4);
  p.shuffle_request = static_cast<uint16_t>(b[8] | b[9] << 8);
  p.payload.assign(b + kHeaderBytes, b + fill);
  return p;
}

std::optional<SlotPayload> DecodeSlot(const Bytes& region) {
  return DecodeSlot(region.data(), region.size());
}

}  // namespace dissent
