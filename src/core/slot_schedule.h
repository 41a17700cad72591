// Round cleartext layout and its evolution across rounds (§3.8).
//
// Every round's cleartext is:
//   [request-bit region: ceil(N/8) bytes][slot 0 region][slot 1 region]...
// Slot i belongs to the holder of pseudonym key i (assigned by the key
// shuffle; nobody knows which client that is). A closed slot has length 0.
//
// Evolution is a deterministic function of round outputs, so every client
// and server derives the identical layout for round r+1 from round r:
//  * closed slot + request bit i set        -> opens at default length
//  * open slot, valid header                -> next_length from the header
//  * open slot, absent/garbled              -> closes (owner re-requests)
// All participants must call Advance() with each round's cleartext.
//
// Decode() reads every open slot of an output once; the resulting
// DecodedOutput feeds message extraction, the shuffle-request scan, and
// Advance(), so no participant decodes a slot twice per round.
#ifndef DISSENT_CORE_SLOT_SCHEDULE_H_
#define DISSENT_CORE_SLOT_SCHEDULE_H_

#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "src/core/cleartext.h"
#include "src/util/bytes.h"
#include "src/util/serialize.h"

namespace dissent {

// One round output read under the layout it was built with.
struct DecodedOutput {
  // Payloads of the valid open slots that carry one (slot -> payload), in
  // slot order.
  std::vector<std::pair<size_t, Bytes>> messages;
  // Some open slot carried a nonzero shuffle-request field (§3.9).
  bool accusation_requested = false;
  // Every slot's length in the layout this output determines.
  std::vector<uint32_t> next_lengths;
};

class SlotSchedule {
 public:
  SlotSchedule(size_t num_slots, uint32_t default_open_length);

  size_t num_slots() const { return lengths_.size(); }
  uint32_t slot_length(size_t i) const { return lengths_[i]; }
  bool is_open(size_t i) const { return lengths_[i] > 0; }

  size_t RequestRegionBytes() const { return (lengths_.size() + 7) / 8; }
  // Byte offset of slot i's region within the round cleartext.
  size_t SlotOffset(size_t i) const;
  // Total cleartext length for the current round.
  size_t TotalLength() const;

  // Reads slot i's region out of a full round cleartext.
  Bytes ExtractSlot(const Bytes& cleartext, size_t i) const;

  // Decodes every open slot of this round's output in one pass. A slot
  // region that would run past the end of `cleartext` reads as absent.
  DecodedOutput Decode(const Bytes& cleartext) const;

  // Applies one completed round's output, updating every slot length.
  void Advance(const Bytes& cleartext) { Advance(Decode(cleartext)); }
  // The same from an output this layout already decoded.
  void Advance(const DecodedOutput& decoded) { lengths_ = decoded.next_lengths; }

  bool operator==(const SlotSchedule& o) const {
    return default_open_length_ == o.default_open_length_ && lengths_ == o.lengths_;
  }
  bool operator!=(const SlotSchedule& o) const { return !(*this == o); }

  // Snapshot support (crash-recovery, see engine.h): the schedule is part of
  // a server's serialized session state, through this field list.
  SlotSchedule() = default;  // to decode into
  template <class Io>
  friend bool Fields(Io& io, SlotSchedule& s) {
    return io.U32(s.default_open_length_) &&
           io.Seq(s.lengths_, 4, [&io](uint32_t& len) {
             return io.U32(len) && io.Check(len <= kMaxSlotLength);
           });
  }
  static std::optional<SlotSchedule> DeserializeFrom(Reader& r);

  // Clamp for requested lengths (guards against a disruptor opening a
  // gigantic slot through a corrupted header).
  static constexpr uint32_t kMaxSlotLength = 1 << 20;

 private:
  std::vector<uint32_t> lengths_;
  uint32_t default_open_length_ = 0;
};

}  // namespace dissent

#endif  // DISSENT_CORE_SLOT_SCHEDULE_H_
