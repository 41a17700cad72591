#include "src/core/client.h"

#include <algorithm>
#include <cassert>

#include "src/core/dcnet.h"
#include "src/core/key_shuffle.h"
#include "src/core/output_view.h"
#include "src/crypto/dh.h"
#include "src/crypto/sha256.h"
#include "src/util/serialize.h"

namespace dissent {

DissentClient::DissentClient(const GroupDef& def, size_t client_index,
                             const BigInt& long_term_priv, SecureRng rng, size_t pipeline_depth)
    : def_(def),
      index_(client_index),
      priv_(long_term_priv),
      rng_(std::move(rng)),
      pipeline_depth_(std::max<size_t>(pipeline_depth, 1)) {
  const Group& g = *def_.group;
  server_keys_.reserve(def_.num_servers());
  dh_elements_.reserve(def_.num_servers());
  for (const BigInt& server_pub : def_.server_pubs) {
    server_keys_.push_back(DeriveSharedKey(g, priv_, server_pub, "dissent.dcnet"));
    dh_elements_.push_back(DhSharedElement(g, priv_, server_pub));
  }
  pad_expander_ = PadExpander(server_keys_);
  pseudonym_ = SchnorrKeyPair::Generate(g, rng_);
  ResetScheduleWindow(SlotSchedule(def.num_clients(), def.policy.default_slot_length));
}

void DissentClient::ResetScheduleWindow(SlotSchedule initial) {
  scheds_.clear();
  for (size_t k = 0; k < pipeline_depth_; ++k) {
    scheds_.push_back(initial);
  }
  sched_base_round_ = 1;
}

void DissentClient::AssignSlot(size_t slot_index, size_t num_slots) {
  slot_ = slot_index;
  ResetScheduleWindow(SlotSchedule(num_slots, def_.policy.default_slot_length));
}

const SlotSchedule& DissentClient::ScheduleFor(uint64_t round) const {
  if (round <= sched_base_round_) {
    return scheds_.front();
  }
  size_t offset = static_cast<size_t>(round - sched_base_round_);
  return offset < scheds_.size() ? scheds_[offset] : scheds_.back();
}

void DissentClient::AdvanceSchedules(uint64_t round, const DecodedOutput& decoded) {
  // This output determines the layout of round + pipeline_depth: the lagged
  // evolution is layout(r+depth) = Advance(layout(r), output(r)), so the
  // cleartext must be interpreted with the layout of the round it was built
  // for — scheds_.front(), not the newest window entry (whose length can
  // already differ at depth > 1, which would mean reading past the output's
  // end). Rebase the window even if outputs were skipped while offline.
  SlotSchedule next = scheds_.front();
  next.Advance(decoded);
  scheds_.push_back(std::move(next));
  scheds_.pop_front();
  sched_base_round_ = round + 1;
}

void DissentClient::QueueMessage(Bytes payload) {
  outbox_.push_back(std::move(payload));
  want_open_ = true;
}

Bytes DissentClient::BuildOwnSlotRegion(uint64_t round, size_t slot_len) {
  SlotPayload p;
  if (!outbox_.empty()) {
    size_t cap = SlotPayloadCapacity(slot_len);
    const Bytes& next = outbox_.front();
    if (next.size() <= cap) {
      p.payload = next;
      outbox_.pop_front();
    } else {
      // Message larger than the slot: ask for a bigger slot next round and
      // send nothing yet.
      p.next_length = static_cast<uint32_t>(next.size() + SlotOverheadBytes());
    }
  }
  if (p.next_length == 0) {
    if (!outbox_.empty()) {
      p.next_length =
          static_cast<uint32_t>(std::max<size_t>(def_.policy.default_slot_length,
                                                 outbox_.front().size() + SlotOverheadBytes()));
    } else if (pending_accusation_.has_value()) {
      p.next_length = def_.policy.default_slot_length;  // keep open for the shuffle request
    } else {
      p.next_length = 0;  // close
    }
  }
  if (pending_accusation_.has_value()) {
    // Nonzero k-bit shuffle request signals the servers (§3.9). Random value
    // so a disruptor cancels it with probability only 2^-k.
    uint32_t mask = (1u << def_.policy.shuffle_request_bits) - 1;
    do {
      accusation_request_code_ = static_cast<uint16_t>(rng_.RandomU64() & mask);
    } while (accusation_request_code_ == 0);
    p.shuffle_request = accusation_request_code_;
  }
  auto region = EncodeSlot(p, slot_len, rng_);
  assert(region.has_value());
  if (!outbox_.empty() || pending_accusation_.has_value()) {
    want_open_ = true;
  } else {
    want_open_ = false;
  }
  return *region;
}

Bytes DissentClient::BuildCiphertext(uint64_t round) {
  const SlotSchedule& layout = ScheduleFor(round);
  Bytes cleartext(layout.TotalLength(), 0);
  SentRecord record;
  record.cleartext_len = cleartext.size();
  if (slot_.has_value()) {
    size_t s = *slot_;
    if (layout.is_open(s)) {
      Bytes region = BuildOwnSlotRegion(round, layout.slot_length(s));
      std::copy(region.begin(), region.end(), cleartext.begin() + layout.SlotOffset(s));
      requested_last_round_ = false;
      record.slot_open = true;
      record.own_region = std::move(region);
    } else if (want_open_ || !outbox_.empty() || pending_accusation_.has_value()) {
      // Request-bit protocol (§3.8): set unconditionally the first time, then
      // randomize so a squatting disruptor cannot cancel us forever.
      bool set_bit = !requested_last_round_ || rng_.RandomU64() % 2 == 0;
      if (set_bit) {
        SetBit(cleartext, *slot_, true);
      }
      requested_last_round_ = true;
    }
  }
  sent_records_[round] = std::move(record);
  // Bound the in-flight window even if outputs never come back.
  while (sent_records_.size() > pipeline_depth_ + 1) {
    sent_records_.erase(sent_records_.begin());
  }
  // XOR the M server pads in place via the cached key schedules (Algorithm 1
  // step 2); `cleartext` already holds our slot content.
  pad_expander_.XorAllPads(round, cleartext);
  return cleartext;
}

DissentClient::OutputResult DissentClient::ProcessOutput(uint64_t round, const Bytes& cleartext,
                                                        const std::vector<Bytes>& server_sigs) {
  OutputResult result;
  const SlotSchedule& layout = ScheduleFor(round);
  auto decoded = AcceptCertifiedOutput(def_, round, cleartext, server_sigs, layout);
  if (decoded == nullptr) {
    return result;
  }
  result.signatures_ok = true;

  // Witness-bit scan (§3.9): any bit we sent as 0 that came out as 1 inside
  // our own slot region, when the decoded region differs from what we sent.
  auto sent_it = sent_records_.find(round);
  if (slot_.has_value() && sent_it != sent_records_.end() && layout.is_open(*slot_) &&
      sent_it->second.slot_open && sent_it->second.cleartext_len == cleartext.size()) {
    size_t off = layout.SlotOffset(*slot_) * 8;
    size_t len_bits = layout.slot_length(*slot_) * 8;
    const Bytes& sent_region = sent_it->second.own_region;
    Bytes got_region = layout.ExtractSlot(cleartext, *slot_);
    if (sent_region != got_region) {
      result.own_slot_disrupted = true;
      for (size_t b = 0; b < len_bits; ++b) {
        if (!GetBit(sent_region, b) && GetBit(got_region, b)) {
          Accusation acc;
          acc.round = round;
          acc.slot = static_cast<uint32_t>(*slot_);
          acc.bit_index = off + b;
          SignedAccusation signed_acc;
          signed_acc.accusation = acc;
          signed_acc.signature =
              SchnorrSign(*def_.group, pseudonym_.priv, acc.Canonical(), rng_);
          pending_accusation_ = signed_acc;
          break;
        }
      }
    }
  }
  sent_records_.erase(sent_records_.begin(), sent_records_.upper_bound(round));

  // Everyone's messages and the shuffle-request scan come from the one
  // decode; the scan is exactly the rule the servers apply in FinishRound,
  // so both sides flag the same rounds for the blame sub-phase.
  result.accusation_requested = decoded->accusation_requested;
  result.messages = decoded->messages;
  AdvanceSchedules(round, *decoded);
  return result;
}

void DissentClient::CatchUp(uint64_t round, const Bytes& cleartext) {
  AdvanceSchedules(round, scheds_.front().Decode(cleartext));
}

void DissentClient::AbortRound(uint64_t round) {
  // Mirror DissentServer::AbortRound: advance the lagged schedule with an
  // all-zero cleartext (every slot closes; owners re-request). Anything we
  // placed in our slot for the aborted round never came out — put the head
  // message back so a round abort degrades to a delay, not a silent loss.
  auto sent_it = sent_records_.find(round);
  if (sent_it != sent_records_.end() && sent_it->second.slot_open) {
    auto payload = DecodeSlot(sent_it->second.own_region);
    if (payload.has_value() && !payload->payload.empty()) {
      outbox_.push_front(payload->payload);
    }
  }
  sent_records_.erase(sent_records_.begin(), sent_records_.upper_bound(round));
  if (!outbox_.empty() || pending_accusation_.has_value()) {
    want_open_ = true;
  }
  Bytes zero(scheds_.front().TotalLength(), 0);
  AdvanceSchedules(round, scheds_.front().Decode(zero));
}

std::optional<SignedAccusation> DissentClient::TakeAccusation() {
  auto acc = pending_accusation_;
  pending_accusation_.reset();
  return acc;
}

Bytes DissentClient::BuildBlameCiphertext() {
  // Fixed width whether or not we are accusing: victims are
  // indistinguishable from filler-submitting bystanders (§3.9).
  Bytes payload;
  auto acc = TakeAccusation();
  if (acc.has_value()) {
    payload = acc->Serialize(*def_.group);
    // Keep a copy until a verdict lands: if the instance ends inconclusive
    // (our row lost in transit or collection closed early), the accusation
    // is restored for a bounded number of retries instead of being erased.
    shipped_accusation_ = acc;
    accusation_retries_ = 2;
  }
  payload.resize(kAccusationBytes, 0);
  auto row = EncryptMessageBlocks(def_, payload, MessageBlockWidth(def_, kAccusationBytes),
                                  rng_);
  assert(row.has_value());
  return SerializeCiphertextRow(*def_.group, *row);
}

std::optional<Rebuttal> DissentClient::BuildBlameRebuttal(
    uint64_t round, uint64_t bit_index, const std::vector<bool>& claimed_pad_bits) const {
  for (size_t j = 0; j < def_.num_servers() && j < claimed_pad_bits.size(); ++j) {
    bool own_view = DcnetPadBit(server_keys_[j], round, bit_index);
    if (own_view != claimed_pad_bits[j]) {
      return BuildRebuttal(j);
    }
  }
  return std::nullopt;
}

namespace {
// Deterministic signing nonce (RFC 6979 style, like BuildRebuttal): keeps
// the signing methods const and the bytes identical across transports.
SecureRng BlameNonceRng(const Group& group, const BigInt& priv, const char* label,
                        uint64_t session, const Bytes& payload) {
  Writer nonce;
  nonce.Str(label);
  nonce.Blob(group.ScalarToBytes(priv));
  nonce.U64(session);
  nonce.Blob(payload);
  return SecureRng(Sha256::Hash(nonce.data()));
}
}  // namespace

Bytes DissentClient::SignBlameAnswer(uint64_t session, uint64_t round, uint64_t bit_index,
                                     const Bytes& pad_bits, const Bytes& rebuttal) const {
  Bytes canonical = BlameAnswerSigningBytes(session, static_cast<uint32_t>(index_), round,
                                            bit_index, pad_bits, rebuttal);
  SecureRng prover_rng =
      BlameNonceRng(*def_.group, priv_, "dissent.blame.answer.nonce", session, canonical);
  return SchnorrSign(*def_.group, priv_, canonical, prover_rng).Serialize(*def_.group);
}

void DissentClient::OnBlameVerdict(uint8_t verdict_kind) {
  // wire::BlameVerdict::kInconclusive == 0; conclusive verdicts resolve the
  // shipped accusation either way (traced, or superseded by the traced one).
  if (verdict_kind == 0 && shipped_accusation_.has_value() && accusation_retries_ > 0 &&
      !pending_accusation_.has_value()) {
    pending_accusation_ = shipped_accusation_;
    --accusation_retries_;
    return;
  }
  shipped_accusation_.reset();
  accusation_retries_ = 0;
}

Bytes DissentClient::SignBlameRow(uint64_t session, const Bytes& row) const {
  Bytes canonical = BlameRowSigningBytes(session, static_cast<uint32_t>(index_), row);
  SecureRng prover_rng =
      BlameNonceRng(*def_.group, priv_, "dissent.blame.row.nonce", session, row);
  return SchnorrSign(*def_.group, priv_, canonical, prover_rng).Serialize(*def_.group);
}

Rebuttal DissentClient::BuildRebuttal(size_t server_index) const {
  Rebuttal r;
  r.client_index = static_cast<uint32_t>(index_);
  r.server_index = static_cast<uint32_t>(server_index);
  r.shared_element = dh_elements_[server_index];
  // Prove log_g(client_pub) == log_{server_pub}(shared_element); witness is
  // our long-term private key. The prover nonce is derived deterministically
  // from the key and statement (RFC 6979 style), which keeps this method
  // const and makes rebuttals reproducible.
  Writer w;
  w.Str("dissent.rebuttal.nonce");
  w.Blob(def_.group->ScalarToBytes(priv_));
  w.U32(r.server_index);
  SecureRng prover_rng(Sha256::Hash(w.data()));
  r.proof = DleqProve(*def_.group, def_.group->g(), def_.client_pubs[index_],
                      def_.server_pubs[server_index], r.shared_element, priv_, prover_rng);
  return r;
}

}  // namespace dissent
