#include "src/core/slot_schedule.h"

#include <cassert>

namespace dissent {

SlotSchedule::SlotSchedule(size_t num_slots, uint32_t default_open_length)
    : lengths_(num_slots, 0), default_open_length_(default_open_length) {
  assert(default_open_length >= SlotOverheadBytes());
}

size_t SlotSchedule::SlotOffset(size_t i) const {
  size_t off = RequestRegionBytes();
  for (size_t s = 0; s < i; ++s) {
    off += lengths_[s];
  }
  return off;
}

size_t SlotSchedule::TotalLength() const {
  size_t total = RequestRegionBytes();
  for (uint32_t len : lengths_) {
    total += len;
  }
  return total;
}

Bytes SlotSchedule::ExtractSlot(const Bytes& cleartext, size_t i) const {
  assert(cleartext.size() == TotalLength());
  size_t off = SlotOffset(i);
  return Bytes(cleartext.begin() + off, cleartext.begin() + off + lengths_[i]);
}

DecodedOutput SlotSchedule::Decode(const Bytes& cleartext) const {
  assert(cleartext.size() == TotalLength());
  DecodedOutput out;
  out.next_lengths.assign(lengths_.size(), 0);
  size_t off = RequestRegionBytes();
  for (size_t i = 0; i < lengths_.size(); ++i) {
    const size_t len = lengths_[i];
    if (len == 0) {
      const bool requested = i / 8 < cleartext.size() && GetBit(cleartext, i);
      out.next_lengths[i] = requested ? default_open_length_ : 0;
      continue;
    }
    const size_t begin = off;
    off += len;
    if (off > cleartext.size()) {
      continue;  // past the end: absent
    }
    auto payload = DecodeSlot(cleartext.data() + begin, len);
    if (!payload.has_value()) {
      continue;  // absent or garbled: close, owner re-requests
    }
    uint32_t want = payload->next_length;
    if (want > kMaxSlotLength) {
      want = kMaxSlotLength;
    }
    if (want != 0 && want < SlotOverheadBytes()) {
      want = static_cast<uint32_t>(SlotOverheadBytes());
    }
    out.next_lengths[i] = want;
    if (payload->shuffle_request != 0) {
      out.accusation_requested = true;
    }
    if (!payload->payload.empty()) {
      out.messages.emplace_back(i, std::move(payload->payload));
    }
  }
  return out;
}

void SlotSchedule::SerializeTo(Writer& w) const {
  w.U32(default_open_length_);
  w.U32(static_cast<uint32_t>(lengths_.size()));
  for (uint32_t len : lengths_) {
    w.U32(len);
  }
}

std::optional<SlotSchedule> SlotSchedule::DeserializeFrom(Reader& r) {
  uint32_t def_len, count;
  if (!r.U32(&def_len) || !r.U32(&count) || static_cast<size_t>(count) > r.remaining() / 4) {
    return std::nullopt;
  }
  SlotSchedule s(count, def_len);
  for (uint32_t i = 0; i < count; ++i) {
    uint32_t len;
    if (!r.U32(&len) || len > kMaxSlotLength) {
      return std::nullopt;
    }
    s.lengths_[i] = len;
  }
  return s;
}

}  // namespace dissent
