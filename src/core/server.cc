#include "src/core/server.h"

#include <algorithm>
#include <cassert>

#include "src/core/dcnet.h"
#include "src/core/output_cert.h"
#include "src/crypto/dh.h"
#include "src/crypto/sha256.h"

namespace dissent {

namespace {

// Folds equal-length buffers into one accumulator via word-wise XOR: one
// copy of the first operand, then one in-place pass per further operand.
Bytes XorFold(const std::vector<const Bytes*>& parts) {
  assert(!parts.empty());
  Bytes acc = *parts[0];
  for (size_t i = 1; i < parts.size(); ++i) {
    XorWords(acc.data(), parts[i]->data(), acc.size());
  }
  return acc;
}

}  // namespace

DissentServer::DissentServer(const GroupDef& def, size_t server_index,
                             const BigInt& long_term_priv, SecureRng rng, size_t pipeline_depth)
    : def_(def),
      index_(server_index),
      priv_(long_term_priv),
      rng_(std::move(rng)),
      pipeline_depth_(std::max<size_t>(pipeline_depth, 1)) {
  client_keys_.reserve(def_.num_clients());
  for (const BigInt& client_pub : def_.client_pubs) {
    client_keys_.push_back(DeriveSharedKey(*def_.group, priv_, client_pub, "dissent.dcnet"));
  }
  pad_expander_ = std::make_shared<const PadExpander>(client_keys_);
  expelled_.assign(def_.num_clients(), false);
  rounds_.resize(pipeline_depth_);
  ResetScheduleWindow(SlotSchedule(def.num_clients(), def.policy.default_slot_length));
}

void DissentServer::ResetScheduleWindow(SlotSchedule initial) {
  scheds_.clear();
  for (size_t k = 0; k < pipeline_depth_; ++k) {
    scheds_.push_back(initial);
  }
  sched_base_round_ = 1;
}

void DissentServer::BeginSlots(size_t num_slots) {
  ResetScheduleWindow(SlotSchedule(num_slots, def_.policy.default_slot_length));
}

void DissentServer::SetEvidenceRounds(size_t rounds) {
  evidence_rounds_ = rounds;
  PruneEvidence();
}

const SlotSchedule& DissentServer::ScheduleFor(uint64_t round) const {
  if (round <= sched_base_round_) {
    return scheds_.front();
  }
  size_t offset = static_cast<size_t>(round - sched_base_round_);
  return offset < scheds_.size() ? scheds_[offset] : scheds_.back();
}

DissentServer::RoundSlot* DissentServer::FindRound(uint64_t round) {
  RoundSlot& slot = rounds_[round % pipeline_depth_];
  return slot.active && slot.round == round ? &slot : nullptr;
}

const DissentServer::RoundSlot* DissentServer::FindRound(uint64_t round) const {
  const RoundSlot& slot = rounds_[round % pipeline_depth_];
  return slot.active && slot.round == round ? &slot : nullptr;
}

void DissentServer::StartRound(uint64_t round) {
  // Ring reuse: starting round r claims the slot of round r - depth, which
  // is exactly the "keep at most pipeline_depth rounds in flight" rule the
  // map-based path enforced by erasure. Buffer capacity carries over, so the
  // steady state allocates nothing per round.
  RoundSlot& slot = rounds_[round % pipeline_depth_];
  slot.round = round;
  slot.active = true;
  slot.acc.clear();
  slot.acc_pads.clear();
  slot.received_ids.clear();
  slot.submitted.assign((def_.num_clients() + 63) / 64, 0);
  // The composite pad depends only on keys, round and length, so expand it
  // in the background now, for the clients this round is expected to carry,
  // while the submission window runs. Replacing the job cancels one the
  // slot's previous round never joined (an abort); the previous round's
  // ciphertext buffer becomes the new accumulator.
  slot.pad_job = std::make_unique<CompositePadJob>(pad_expander_, ExpectedClients(), round,
                                                   ScheduleFor(round).TotalLength(),
                                                   std::move(slot.server_ct));
  slot.server_ct.clear();
  newest_round_ = std::max(newest_round_, round);
  equivocator_.reset();
  PruneEvidence();
  NotePeakState();
}

void DissentServer::AdoptPadJob(RoundSlot& slot, size_t len) {
  // The job's accumulator becomes the round accumulator, so a round holds one
  // L-byte buffer, never a pad buffer next to a ciphertext buffer. Joining
  // runs the job here if no worker has started it; by the first accept a
  // worker has normally finished it.
  if (slot.pad_job != nullptr && slot.pad_job->length() == len) {
    slot.acc_pads = slot.pad_job->expected();
    slot.acc = slot.pad_job->Take();
  } else {
    slot.acc_pads.clear();
    slot.acc.assign(len, 0);
  }
  slot.pad_job.reset();
}

std::vector<uint32_t> DissentServer::ExpectedClients() const {
  // Predict the composite list of the last closed round; before any close,
  // every member. Clients expelled since then are certainly out.
  std::vector<uint32_t> expected;
  if (last_composite_.has_value()) {
    expected.reserve(last_composite_->size());
    for (uint32_t i : *last_composite_) {
      if (!expelled_[i]) {
        expected.push_back(i);
      }
    }
  } else {
    expected.reserve(def_.num_clients());
    for (size_t i = 0; i < def_.num_clients(); ++i) {
      if (!expelled_[i]) {
        expected.push_back(static_cast<uint32_t>(i));
      }
    }
  }
  return expected;
}

bool DissentServer::AcceptClientCiphertext(uint64_t round, size_t client_index,
                                           Bytes ciphertext) {
  RoundSlot* slot = FindRound(round);
  if (slot == nullptr || client_index >= def_.num_clients() || expelled_[client_index]) {
    return false;
  }
  if (ciphertext.size() != ScheduleFor(round).TotalLength()) {
    return false;
  }
  uint64_t& word = slot->submitted[client_index / 64];
  const uint64_t bit = 1ull << (client_index % 64);
  if ((word & bit) != 0) {
    return false;  // duplicate
  }
  word |= bit;
  // Streaming combine: fold the ciphertext into the round accumulator now,
  // and let the buffer go. The round never holds more than the accumulator
  // (plus the bounded evidence log) regardless of how many clients submit.
  if (slot->acc.empty()) {
    AdoptPadJob(*slot, ciphertext.size());
  }
  XorWords(slot->acc.data(), ciphertext.data(), ciphertext.size());
  slot->received_ids.push_back(static_cast<uint32_t>(client_index));
  if (evidence_rounds_ > 0) {
    evidence_bytes_ += ciphertext.size();
    evidence_[round].received_cts.emplace(static_cast<uint32_t>(client_index),
                                          std::move(ciphertext));
  }
  NotePeakState();
  return true;
}

size_t DissentServer::SubmissionCount(uint64_t round) const {
  const RoundSlot* slot = FindRound(round);
  return slot == nullptr ? 0 : slot->received_ids.size();
}

size_t DissentServer::SubmissionCount() const { return SubmissionCount(newest_round_); }

std::vector<uint32_t> DissentServer::Inventory(uint64_t round) const {
  std::vector<uint32_t> out;
  const RoundSlot* slot = FindRound(round);
  if (slot == nullptr) {
    return out;
  }
  out = slot->received_ids;
  std::sort(out.begin(), out.end());  // arrival order -> canonical sorted set
  return out;
}

std::vector<std::vector<uint32_t>> DissentServer::TrimInventories(
    const std::vector<std::vector<uint32_t>>& inventories) {
  std::vector<std::vector<uint32_t>> trimmed(inventories.size());
  std::map<uint32_t, size_t> first_owner;
  for (size_t j = 0; j < inventories.size(); ++j) {
    for (uint32_t i : inventories[j]) {
      first_owner.try_emplace(i, j);
    }
  }
  for (const auto& [i, j] : first_owner) {
    trimmed[j].push_back(i);
  }
  return trimmed;
}

const Bytes& DissentServer::BuildServerCiphertext(uint64_t round,
                                                  const std::vector<uint32_t>& composite_list,
                                                  const std::vector<uint32_t>& own_share) {
  RoundSlot& st = *FindRound(round);
  if (st.acc.empty()) {
    AdoptPadJob(st, ScheduleFor(round).TotalLength());  // nobody submitted
  }
  // If the trim assigned one of our accepted clients to a lower-indexed
  // server (possible only when a client multi-submits or a peer lies in its
  // inventory), back that ciphertext out of the accumulator so s_j matches
  // l'_j exactly — the map-based path excluded it by construction. Without
  // retained evidence the correction is impossible and the round output
  // degrades to garbage, the same observable outcome as any server-side
  // disruption (the commit/verify phases still run honestly).
  if (own_share.size() != st.received_ids.size() && evidence_rounds_ > 0) {
    auto ev = evidence_.find(round);
    if (ev != evidence_.end()) {
      for (uint32_t i : st.received_ids) {
        if (!std::binary_search(own_share.begin(), own_share.end(), i)) {
          auto ct = ev->second.received_cts.find(i);
          if (ct != ev->second.received_cts.end() && ct->second.size() == st.acc.size()) {
            XorWords(st.acc.data(), ct->second.data(), ct->second.size());
          }
        }
      }
    }
  }
  // s_j = XOR_{i in l} PAD(i, j) ^ (accepted ciphertexts of l'_j) (§3.4).
  // The accumulator already holds the pads of acc_pads (the job's expected
  // set E, or nothing for a restored or re-laid-out round), so patch in the
  // pads of acc_pads △ l: each XOR toggles one pad in or out, and at steady
  // full participation the difference is empty.
  std::vector<uint64_t> differs((def_.num_clients() + 63) / 64, 0);
  for (uint32_t i : st.acc_pads) {
    differs[i / 64] ^= 1ull << (i % 64);
  }
  for (uint32_t i : composite_list) {
    differs[i / 64] ^= 1ull << (i % 64);
  }
  std::vector<uint32_t> patch;
  for (size_t w = 0; w < differs.size(); ++w) {
    for (uint64_t bits = differs[w]; bits != 0; bits &= bits - 1) {
      patch.push_back(static_cast<uint32_t>(w * 64 + __builtin_ctzll(bits)));
    }
  }
  XorCompositePads(*pad_expander_, patch, round, st.acc);
  st.server_ct = std::move(st.acc);
  st.acc.clear();
  st.acc_pads.clear();
  last_composite_ = composite_list;
  // Retain evidence for accusation tracing (received ciphertexts were
  // already moved in at ingest).
  if (evidence_rounds_ > 0) {
    RoundEvidence& ev = evidence_[round];
    ev.composite_list = composite_list;
    ev.own_share = own_share;
    evidence_bytes_ += st.server_ct.size();
    ev.server_ct = st.server_ct;
    // The layout this round was built with, for accusation validation (the
    // accused bit must fall inside the accuser's slot as laid out *then*).
    ev.layout = ScheduleFor(round);
    PruneEvidence();
  }
  NotePeakState();
  return st.server_ct;
}

Bytes DissentServer::CommitHash(uint64_t round) const {
  return Sha256::Hash(FindRound(round)->server_ct);
}

const Bytes& DissentServer::server_ciphertext(uint64_t round) const {
  return FindRound(round)->server_ct;
}

std::optional<Bytes> DissentServer::CombineAndVerify(uint64_t round,
                                                     const std::vector<const Bytes*>& server_cts,
                                                     const std::vector<const Bytes*>& commits) {
  assert(server_cts.size() == def_.num_servers() && commits.size() == def_.num_servers());
  const size_t len = ScheduleFor(round).TotalLength();
  // One verification pass over all commitments before any combining work.
  // Our own ciphertext is the one CommitHash hashed into our commitment, so
  // only the siblings' need hashing.
  for (size_t j = 0; j < server_cts.size(); ++j) {
    if (server_cts[j]->size() != len ||
        (j != index_ && Sha256::Hash(*server_cts[j]) != *commits[j])) {
      equivocator_ = j;
      return std::nullopt;
    }
  }
  return XorFold(server_cts);
}

namespace {
// Deterministic signing nonce (RFC 6979 style, mirroring the client's
// BlameNonceRng): signatures depend only on (key, message), never on rng_
// history, so a restarted server re-signs byte-identically.
SecureRng ServerNonceRng(const Group& group, const BigInt& priv, const char* label,
                         const Bytes& payload) {
  Writer nonce;
  nonce.Str(label);
  nonce.Blob(group.ScalarToBytes(priv));
  nonce.Blob(payload);
  return SecureRng(Sha256::Hash(nonce.data()));
}
}  // namespace

SchnorrSignature DissentServer::SignRoundOutput(uint64_t round, const Bytes& cleartext) const {
  Bytes canonical = OutputSigningBytes(def_, round, cleartext);
  SecureRng rng = ServerNonceRng(*def_.group, priv_, "dissent.output.nonce", canonical);
  return SchnorrSign(*def_.group, priv_, canonical, rng);
}

Bytes DissentServer::SignVerdictShare(uint64_t session, uint64_t round, uint8_t kind,
                                      uint32_t culprit) const {
  Bytes canonical =
      VerdictSigningBytes(session, static_cast<uint32_t>(index_), round, kind, culprit);
  SecureRng rng = ServerNonceRng(*def_.group, priv_, "dissent.verdict.nonce", canonical);
  return SchnorrSign(*def_.group, priv_, canonical, rng).Serialize(*def_.group);
}

bool DissentServer::VerifyVerdictShare(uint64_t session, uint32_t server_index, uint64_t round,
                                       uint8_t kind, uint32_t culprit,
                                       const Bytes& signature) const {
  if (server_index >= def_.num_servers()) {
    return false;
  }
  auto sig = SchnorrSignature::Deserialize(*def_.group, signature);
  if (!sig.has_value()) {
    return false;
  }
  return SchnorrVerify(*def_.group, def_.server_pubs[server_index],
                       VerdictSigningBytes(session, server_index, round, kind, culprit), *sig);
}

namespace {
Bytes AbortSigningBytes(uint64_t round, uint64_t epoch, uint32_t server_index) {
  Writer w;
  w.Str("dissent.abort.prepare.v1");
  w.U64(round);
  w.U64(epoch);
  w.U32(server_index);
  return w.Take();
}
}  // namespace

Bytes DissentServer::SignAbortPrepare(uint64_t round, uint64_t epoch) const {
  Bytes canonical = AbortSigningBytes(round, epoch, static_cast<uint32_t>(index_));
  SecureRng rng = ServerNonceRng(*def_.group, priv_, "dissent.abort.nonce", canonical);
  return SchnorrSign(*def_.group, priv_, canonical, rng).Serialize(*def_.group);
}

bool DissentServer::VerifyAbortPrepare(uint64_t round, uint64_t epoch, uint32_t server_index,
                                       const Bytes& signature) const {
  if (server_index >= def_.num_servers()) {
    return false;
  }
  auto sig = SchnorrSignature::Deserialize(*def_.group, signature);
  if (!sig.has_value()) {
    return false;
  }
  return SchnorrVerify(*def_.group, def_.server_pubs[server_index],
                       AbortSigningBytes(round, epoch, server_index), *sig);
}

DissentServer::RoundFinish DissentServer::FinishRound(uint64_t round, const Bytes& cleartext) {
  RoundFinish result;
  auto it = evidence_.find(round);
  if (it != evidence_.end()) {
    result.participation = it->second.composite_list.size();
    // Certified output joins the evidence: accusation validation checks the
    // accused bit against exactly these bytes.
    evidence_bytes_ += cleartext.size();
    it->second.cleartext = cleartext;
  } else if (const RoundSlot* slot = FindRound(round)) {
    result.participation = slot->received_ids.size();
  }
  // One decode of the open slots, against the layout this round was built
  // with (scheds_.front(), never a newer window entry whose total length
  // may already differ), feeds both the shuffle-request scan (§3.9) and the
  // lagged schedule advance: this output determines the layout of round
  // round + pipeline_depth, via layout(r+depth) = Advance(layout(r),
  // output(r)). Rebase the window even if rounds were skipped.
  const DecodedOutput decoded = scheds_.front().Decode(cleartext);
  result.accusation_requested = decoded.accusation_requested;
  SlotSchedule next = scheds_.front();
  next.Advance(decoded);
  scheds_.push_back(std::move(next));
  scheds_.pop_front();
  sched_base_round_ = round + 1;
  if (RoundSlot* slot = FindRound(round)) {
    slot->active = false;
    slot->pad_job.reset();
  }
  return result;
}

void DissentServer::AbortRound(uint64_t round) {
  // Advance with an all-zero cleartext of this round's layout: request bits
  // all clear and every open slot garbled, so every slot closes. Survivors
  // running the same abort derive the identical next layout.
  Bytes zero(scheds_.front().TotalLength(), 0);
  SlotSchedule next = scheds_.front();
  next.Advance(zero);
  scheds_.push_back(std::move(next));
  scheds_.pop_front();
  sched_base_round_ = round + 1;
  if (RoundSlot* slot = FindRound(round)) {
    slot->active = false;
    slot->pad_job.reset();  // cancels it if no worker has started it
  }
  // No certified output exists: drop the round's evidence (tracing against
  // an aborted round is meaningless).
  auto it = evidence_.find(round);
  if (it != evidence_.end()) {
    size_t bytes = it->second.server_ct.size() + it->second.cleartext.size();
    for (const auto& [i, ct] : it->second.received_cts) {
      bytes += ct.size();
    }
    evidence_bytes_ -= std::min(evidence_bytes_, bytes);
    evidence_.erase(it);
  }
}

// v2: each accumulator is stored with the set of clients whose pads it
// holds. A v1 accumulator held the pads of its accepted clients with no such
// record, so it cannot be patched exactly and is refused.
constexpr char kStateMagic[] = "dissent.server.state.v2";

template <class Io>
bool DissentServer::StateFields(Io& io, uint64_t& base, uint64_t& newest,
                                std::deque<SlotSchedule>& scheds, std::vector<bool>& expelled,
                                std::vector<RoundSlot>& rounds) const {
  const size_t n = def_.num_clients();
  const auto client_ids = [&](std::vector<uint32_t>& ids) {
    return io.Seq(ids, 4, n, [&](uint32_t& id) { return io.U32(id) && io.Check(id < n); });
  };
  uint32_t index = static_cast<uint32_t>(index_);
  return io.Magic(kStateMagic) && io.U32(index) && io.Check(index == index_) && io.U64(base) &&
         io.U64(newest) &&
         io.SeqOf(scheds, pipeline_depth_, [&](SlotSchedule& s) { return Fields(io, s); }) &&
         io.Via([&] { return Bytes(expelled.begin(), expelled.end()); },
                [&](const Bytes& flags) {
                  expelled.assign(flags.begin(), flags.end());
                  return true;
                },
                [&](Bytes& flags) {
                  return io.SeqOf(flags, n,
                                  [&](uint8_t& f) { return io.U8(f) && io.Check(f <= 1); });
                }) &&
         // In-flight submission ring: without it a restarted server would
         // reopen its rounds empty and could sign a *different* combined
         // ciphertext for a round it had already gossiped (self-equivocation
         // by amnesia). With it, restart resumes the combine exactly where
         // the crash interrupted it.
         io.SeqOf(rounds, pipeline_depth_, [&](RoundSlot& slot) {
           return io.U64(slot.round) && io.Bool(slot.active) && io.Blob(slot.acc) &&
                  client_ids(slot.acc_pads) && io.Blob(slot.server_ct) &&
                  client_ids(slot.received_ids) &&
                  io.Seq(slot.submitted, 8, (n + 63) / 64,
                         [&](uint64_t& word) { return io.U64(word); });
         });
}

Bytes DissentServer::SerializeState() const {
  Writer w;
  Encoder e(w);
  auto& self = const_cast<DissentServer&>(*this);  // the write side only reads
  StateFields(e, self.sched_base_round_, self.newest_round_, self.scheds_, self.expelled_,
              self.rounds_);
  return w.Take();
}

bool DissentServer::RestoreState(const Bytes& state) {
  uint64_t base = 0, newest = 0;
  std::deque<SlotSchedule> scheds;
  std::vector<bool> expelled;
  std::vector<RoundSlot> rounds;
  Reader r(state);
  Decoder d(r);
  if (!StateFields(d, base, newest, scheds, expelled, rounds) || !r.AtEnd()) {
    return false;
  }
  scheds_ = std::move(scheds);
  sched_base_round_ = base;
  newest_round_ = newest;
  expelled_ = std::move(expelled);
  // The in-flight rounds resume exactly where the crash interrupted them:
  // already-accepted submissions are in the accumulators, and the engine's
  // snapshot replays its own inventory/commit progress on top. Pad jobs are
  // not state: the replaced slots' jobs are canceled, and a restored round
  // expands at window close every pad its accumulator does not hold yet.
  rounds_ = std::move(rounds);
  last_composite_.reset();
  evidence_.clear();
  evidence_bytes_ = 0;
  equivocator_.reset();
  // Deterministic reseed: the post-restart rng is a pure function of the
  // restored state, so a replayed crash schedule reproduces the same trace.
  Writer reseed;
  reseed.Str("dissent.server.restart");
  reseed.Blob(state);
  rng_ = SecureRng(Sha256::Hash(reseed.data()));
  return true;
}

const DissentServer::RoundEvidence* DissentServer::EvidenceFor(uint64_t round) const {
  auto it = evidence_.find(round);
  return it == evidence_.end() ? nullptr : &it->second;
}

bool DissentServer::PadBit(uint64_t round, size_t client_index, size_t bit_index) const {
  return pad_expander_->PadBit(client_index, round, bit_index);
}

void DissentServer::NotePeakState() {
  size_t resident = 0;
  for (const RoundSlot& slot : rounds_) {
    if (slot.active) {
      resident += slot.acc.size() + slot.server_ct.size() +
                  (slot.pad_job != nullptr ? slot.pad_job->length() : 0);
    }
  }
  peak_round_state_bytes_ = std::max(peak_round_state_bytes_, resident);
}

void DissentServer::PruneEvidence() {
  while (evidence_.size() > evidence_rounds_) {
    const RoundEvidence& ev = evidence_.begin()->second;
    size_t bytes = ev.server_ct.size() + ev.cleartext.size();
    for (const auto& [i, ct] : ev.received_cts) {
      bytes += ct.size();
    }
    evidence_bytes_ -= std::min(evidence_bytes_, bytes);
    evidence_.erase(evidence_.begin());
  }
}

void DissentServer::SetPseudonymKeys(std::vector<BigInt> keys) {
  pseudonym_keys_ = std::move(keys);
}

bool DissentServer::CheckAccusation(const SignedAccusation& acc) const {
  const RoundEvidence* ev = EvidenceFor(acc.accusation.round);
  if (ev == nullptr || ev->cleartext.empty() || pseudonym_keys_.empty()) {
    return false;
  }
  const SlotSchedule& layout = ev->layout;
  if (acc.accusation.slot >= layout.num_slots() || !layout.is_open(acc.accusation.slot)) {
    return false;
  }
  return ValidateAccusation(def_, pseudonym_keys_, acc, ev->cleartext,
                            layout.SlotOffset(acc.accusation.slot) * 8,
                            static_cast<size_t>(layout.slot_length(acc.accusation.slot)) * 8);
}

MixStep DissentServer::MixLayer(const CiphertextMatrix& inputs, SecureRng* rng) {
  return KeyShuffleMixStep(def_, index_, priv_, inputs, rng != nullptr ? *rng : rng_);
}

TraceDisclosure DissentServer::BuildTraceDisclosure(uint64_t round, size_t bit_index) const {
  TraceDisclosure d;
  const RoundEvidence* ev = EvidenceFor(round);
  if (ev == nullptr) {
    return d;  // evidence expired: present = false
  }
  d.present = true;
  d.own_share = ev->own_share;
  d.client_ct_bits.reserve(ev->own_share.size());
  for (uint32_t i : ev->own_share) {
    auto ct = ev->received_cts.find(i);
    d.client_ct_bits.push_back(ct != ev->received_cts.end() &&
                               bit_index < ct->second.size() * 8 &&
                               GetBit(ct->second, bit_index));
  }
  d.server_ct_bit = bit_index < ev->server_ct.size() * 8 && GetBit(ev->server_ct, bit_index);
  d.pad_bits.reserve(ev->composite_list.size());
  for (uint32_t i : ev->composite_list) {
    bool b = PadBit(round, i, bit_index);
    if (trace_lie_client_.has_value() && *trace_lie_client_ == i) {
      // Frame this client: flip its disclosed pad bit, and flip the
      // disclosed server-ciphertext bit to keep the §3.9 balance check for
      // this server passing — only the framed client's rebuttal (the DLEQ
      // reveal of the true shared secret) can now expose the lie.
      b = !b;
      d.server_ct_bit = !d.server_ct_bit;
    }
    d.pad_bits.push_back(b);
  }
  return d;
}

void DissentServer::ExpelClient(size_t client_index) {
  if (client_index < expelled_.size()) {
    expelled_[client_index] = true;
  }
}

}  // namespace dissent
