// Dissent client (Algorithm 1).
//
// Pure protocol logic, no I/O and no clocks: the caller (a ClientEngine,
// see engine.h, or a test) drives it round by round. The client:
//  * derives one shared secret per *server* (anytrust secret-sharing graph,
//    §3.4) — never per client pair,
//  * builds one ciphertext per round: XOR of M server pads plus its own slot
//    content (§3.3, Algorithm 1 step 2),
//  * verifies the all-server signature set on each round output (step 3),
//  * detects disruption of its own slot, finds a witness bit, and produces a
//    pseudonym-signed accusation (§3.9),
//  * applies the randomized request-bit retry of §3.8.
//
// Pipelining: with pipeline_depth d, the slot layout of round r depends only
// on outputs up to round r-d, so after processing output r the client can
// immediately build and submit the ciphertext for round r+d while rounds
// r+1..r+d-1 are still in flight. The client keeps a d-wide window of
// schedule snapshots and the sent cleartext of every in-flight round (for
// witness-bit detection). Depth 1 is the strictly sequential protocol.
#ifndef DISSENT_CORE_CLIENT_H_
#define DISSENT_CORE_CLIENT_H_

#include <deque>
#include <map>
#include <optional>

#include "src/core/accusation_types.h"
#include "src/core/dcnet.h"
#include "src/core/group_def.h"
#include "src/core/slot_schedule.h"
#include "src/crypto/schnorr.h"

namespace dissent {

class DissentClient {
 public:
  DissentClient(const GroupDef& def, size_t client_index, const BigInt& long_term_priv,
                SecureRng rng, size_t pipeline_depth = 1);

  // --- scheduling (§3.10) ---
  // Fresh pseudonym key submitted to the key shuffle.
  const SchnorrKeyPair& pseudonym() const { return pseudonym_; }
  // Called once the shuffle output is known: the position of our pseudonym
  // public key in the shuffled list is our slot.
  void AssignSlot(size_t slot_index, size_t num_slots);
  std::optional<size_t> slot() const { return slot_; }
  size_t pipeline_depth() const { return pipeline_depth_; }

  // --- application interface ---
  void QueueMessage(Bytes payload);
  size_t PendingMessages() const { return outbox_.size(); }

  // --- Algorithm 1 ---
  // Step 2: ciphertext for round r (remembers the cleartext for witness
  // detection). Must be called exactly once, in round order, for every round
  // the client participates in; at most pipeline_depth rounds may be in
  // flight (built but not yet processed).
  Bytes BuildCiphertext(uint64_t round);

  struct OutputResult {
    bool signatures_ok = false;
    bool own_slot_disrupted = false;
    // Some open slot carried a nonzero shuffle-request field (§3.9) — the
    // same scan the servers run in FinishRound, so clients and servers agree
    // on which rounds trigger the blame sub-phase.
    bool accusation_requested = false;
    // Decoded payloads of all valid open slots this round (slot -> payload).
    std::vector<std::pair<size_t, Bytes>> messages;
  };
  // Step 3: verify and ingest a round output; advances the (lagged) slot
  // schedule. `server_sigs` are the raw certificate bytes, roster order; a
  // certificate that does not parse or verify is rejected. Verify and
  // decode go through the process-wide memo of output_view.h, so clients
  // sharing a process check each certified output once. Outputs must
  // arrive in strictly increasing round order. A
  // forward gap (rounds missed while offline) applies only the received
  // output to the schedule, which stays correct only if no slot layout
  // changed during the gap — the silent-group common case. A client that
  // may have missed layout changes must replay every missed cleartext via
  // CatchUp (as Coordinator::SetClientOnline does) before resuming; a real
  // transport would fetch them from its upstream server on reconnect.
  OutputResult ProcessOutput(uint64_t round, const Bytes& cleartext,
                             const std::vector<Bytes>& server_sigs);

  // Skip a round the client missed entirely (offline): keeps the schedule in
  // sync using the signed output it fetches on reconnect.
  void CatchUp(uint64_t round, const Bytes& cleartext);

  // A round the server fleet aborted (crash past the abort deadline): the
  // schedule advances with an all-zero cleartext — every slot closes, all
  // owners re-request — and the message we staged for the dead round goes
  // back to the head of the outbox. Call in place of ProcessOutput/CatchUp.
  void AbortRound(uint64_t round);

  // --- accusation (§3.9) ---
  bool HasPendingAccusation() const { return pending_accusation_.has_value(); }
  // The signed accusation to submit via the accusation shuffle.
  std::optional<SignedAccusation> TakeAccusation();

  // The fixed-width blame-shuffle submission (wire::AccusationSubmit body):
  // the pending accusation if one exists, an all-zero filler otherwise, both
  // padded to kAccusationBytes, encrypted under the combined server key and
  // serialized as an ElGamal row. Consumes the pending accusation.
  Bytes BuildBlameCiphertext();

  // Rebuttal (§3.9 final case): reveal the shared-secret element with server
  // `server_index` plus a DLEQ proof of its correctness.
  Rebuttal BuildRebuttal(size_t server_index) const;

  // Answer a BlameChallenge: compare the servers' claimed pad bits for us at
  // (round, bit) against our own view; the first mismatch names the lying
  // server and yields a rebuttal. nullopt concedes (an honest client whose
  // pads all match has nothing to rebut — and a real disruptor's pads always
  // match, so conceding is what convicts it).
  std::optional<Rebuttal> BuildBlameRebuttal(uint64_t round, uint64_t bit_index,
                                             const std::vector<bool>& claimed_pad_bits) const;

  // Signature under the long-term key over (session, our id, the challenge
  // context we answered, and the rebuttal bytes — empty for a concession):
  // no server can forge a concession in our name, nor extract one by
  // doctoring the challenge it relays. Deterministic nonce, so both
  // transports produce identical bytes.
  Bytes SignBlameAnswer(uint64_t session, uint64_t round, uint64_t bit_index,
                        const Bytes& pad_bits, const Bytes& rebuttal) const;

  // Verdict feedback (§3.9): an inconclusive instance restores the shipped
  // accusation (bounded retries) so a blame row lost in transit does not
  // permanently erase a victim's only evidence of a past disruption.
  void OnBlameVerdict(uint8_t verdict_kind);

  // Signature under the long-term key over our blame-shuffle row, so no
  // server can substitute a forged row for ours when rosters are gossiped.
  Bytes SignBlameRow(uint64_t session, const Bytes& row) const;

  // Newest known schedule (the layout of the most advanced in-flight round).
  const SlotSchedule& schedule() const { return scheds_.back(); }
  size_t index() const { return index_; }
  // The per-server DC-net secrets (exposed for tests only).
  const std::vector<Bytes>& server_keys() const { return server_keys_; }

 private:
  // What to place in our slot this round, if it is open.
  Bytes BuildOwnSlotRegion(uint64_t round, size_t slot_len);
  const SlotSchedule& ScheduleFor(uint64_t round) const;
  // Applies one round output, decoded under scheds_.front(), to the lagged
  // schedule window.
  void AdvanceSchedules(uint64_t round, const DecodedOutput& decoded);
  void ResetScheduleWindow(SlotSchedule initial);

  const GroupDef& def_;
  size_t index_;
  BigInt priv_;
  SecureRng rng_;
  size_t pipeline_depth_;
  std::vector<Bytes> server_keys_;     // K_ij per server j
  // Parsed key schedules for the M server secrets, built once at
  // construction and reused every round by BuildCiphertext.
  PadExpander pad_expander_;
  std::vector<BigInt> dh_elements_;    // g^{x_i x_j} (for rebuttals)
  SchnorrKeyPair pseudonym_;
  std::optional<size_t> slot_;

  // scheds_[k] is the layout of round sched_base_round_ + k (window width =
  // pipeline_depth). Processing output r appends the layout of r + depth and
  // rebases the window to r + 1.
  std::deque<SlotSchedule> scheds_;
  uint64_t sched_base_round_ = 1;

  std::deque<Bytes> outbox_;
  bool want_open_ = false;
  bool requested_last_round_ = false;
  // What we placed in our own slot for each in-flight round (built, output
  // not yet processed), for witness-bit detection (§3.9). Only the own-slot
  // region is retained — O(slot length) per round, not O(L) — which is what
  // keeps a 5,000-client simulation's client-side memory flat.
  struct SentRecord {
    size_t cleartext_len = 0;  // full round length, to match against outputs
    bool slot_open = false;
    Bytes own_region;          // empty unless slot_open
  };
  std::map<uint64_t, SentRecord> sent_records_;
  std::optional<SignedAccusation> pending_accusation_;
  // The accusation most recently shipped into a blame shuffle, restorable on
  // an inconclusive verdict (bounded retries; see OnBlameVerdict).
  std::optional<SignedAccusation> shipped_accusation_;
  int accusation_retries_ = 0;
  uint16_t accusation_request_code_ = 0;
};

}  // namespace dissent

#endif  // DISSENT_CORE_CLIENT_H_
