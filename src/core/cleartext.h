// Message-slot framing and the self-randomizing (OAEP-style) padding of §3.9.
//
// Slot region layout on the wire (all inside the owner's message slot):
//   [16-byte seed][body XOR PRNG(seed)]
// where body is:
//   [u32 magic][u32 next_length][u16 shuffle_request][u32 payload_len][payload][zero padding]
//
// The seed-mask construction makes every output bit of an honest slot
// unpredictable to a disruptor, guaranteeing a bit flipped 0->1 (a "witness
// bit") exists with probability 1/2 per flipped bit. The magic distinguishes
// a decodable slot from an absent owner (all-zero region) or a garbled one.
#ifndef DISSENT_CORE_CLEARTEXT_H_
#define DISSENT_CORE_CLEARTEXT_H_

#include <optional>

#include "src/crypto/random.h"
#include "src/util/bytes.h"

namespace dissent {

struct SlotPayload {
  uint32_t next_length = 0;      // requested slot length for the next round
  uint16_t shuffle_request = 0;  // nonzero requests an accusation shuffle
  Bytes payload;
};

// Minimum slot length able to carry an empty payload.
size_t SlotOverheadBytes();

// Maximum payload for a slot of the given length.
size_t SlotPayloadCapacity(size_t slot_length);

// Encodes into exactly `slot_length` bytes. Returns nullopt if the payload
// does not fit.
std::optional<Bytes> EncodeSlot(const SlotPayload& p, size_t slot_length, SecureRng& rng);

// Decodes a slot region; nullopt for absent (all zero) or garbled content.
std::optional<SlotPayload> DecodeSlot(const Bytes& region);
// The same over the `len` bytes at `region` (a slot inside a full round
// cleartext), without copying the region out first.
std::optional<SlotPayload> DecodeSlot(const uint8_t* region, size_t len);

}  // namespace dissent

#endif  // DISSENT_CORE_CLEARTEXT_H_
