// Dissent server (Algorithm 2).
//
// Pure protocol logic, no I/O and no clocks. One instance per server j. The
// caller (a ServerEngine, see engine.h) drives it per round:
//   1. Submission: StartRound opens per-round state and posts the round's
//      composite-pad job (dcnet.h CompositePadJob) to the shared worker
//      pool: XOR_{i in E} PAD(i, round) for the *expected* client set E —
//      the composite list of the last round this server closed, minus
//      clients expelled since (every non-expelled client before the first
//      close). The pads depend only on keys, round and length, so they
//      expand on idle cores while the window runs. AcceptClientCiphertext
//      collects ciphertexts until the window-policy deadline (owned by the
//      engine/driver). The first accepted ciphertext joins the job (running
//      it on the caller if no worker has started it) and adopts its buffer
//      as the round accumulator, so a round holds one L-byte buffer at any
//      time. Accepted ciphertexts are *streamed*: each one is XORed into that
//      accumulator (XorWords) at ingest time and the buffer is released (or
//      moved into the bounded accusation-evidence log), so a round in flight
//      holds O(L) ciphertext bytes no matter how many clients submit — not
//      the O(N*L) of buffering all N ciphertexts until the window closes. No
//      per-client pad is folded at ingest: the accumulator holds the pads of
//      exactly E (recorded with it, also in snapshots). Duplicate detection
//      is a flat per-round bitmap indexed by client id, ring-buffered by
//      round % pipeline_depth.
//   2. Inventory: Inventory(round) lists the clients heard from directly.
//   3. Commitment: after the composite client list l is fixed (union of
//      trimmed inventories), BuildServerCiphertext patches the pads of E △ l
//      into the accumulator — empty at steady full participation. Without a
//      usable job (a restored slot that had no accumulator yet, a layout
//      whose length changed) E is empty and it expands every pad of l
//      itself. XOR commutes, so s_j is byte-identical at any worker count;
//      CommitHash publishes HASH(s_j).
//   4/5. Combining + certification: CombineAndVerify checks every sibling's
//      commitment in one pass (equivocation is detected here) and folds the
//      ciphertexts into one accumulator, then the caller collects signatures
//      (output_cert.h).
//
// Rounds are keyed by round number: up to `pipeline_depth` rounds may be in
// flight concurrently (submissions for round r+1 accepted while round r is
// still combining), stored in a ring of pipeline_depth slots (slot =
// round % depth) so the hot path never touches a node-based map. The slot
// schedule advances with a lag of `pipeline_depth` rounds — the layout of
// round r is determined by the outputs of rounds 1..r-depth — which is what
// lets a client build the ciphertext for round r+depth as soon as it has
// processed round r's output. Depth 1 reproduces the strictly sequential
// protocol exactly.
//
// Because clients share secrets only with servers, a client that vanishes
// mid-round simply drops out of l — the server-side pipeline never needs to
// re-contact clients (§3.6).
//
// Servers retain per-round evidence (received ciphertexts, l, s_j) for the
// last `evidence_rounds` rounds to serve accusation tracing (§3.9). The
// evidence log is the only place received ciphertexts persist; paper-scale
// deployments that do not serve tracing locally set evidence_rounds = 0 and
// keep the whole data path at O(L) resident bytes per round.
#ifndef DISSENT_CORE_SERVER_H_
#define DISSENT_CORE_SERVER_H_

#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <vector>

#include "src/core/accusation.h"
#include "src/core/dcnet.h"
#include "src/core/group_def.h"
#include "src/core/key_shuffle.h"
#include "src/core/slot_schedule.h"
#include "src/crypto/schnorr.h"

namespace dissent {

class DissentServer {
 public:
  static constexpr size_t kEvidenceRounds = 16;

  DissentServer(const GroupDef& def, size_t server_index, const BigInt& long_term_priv,
                SecureRng rng, size_t pipeline_depth = 1);

  void BeginSlots(size_t num_slots);  // after the key shuffle
  size_t index() const { return index_; }
  size_t pipeline_depth() const { return pipeline_depth_; }

  // How many rounds of accusation evidence (including received client
  // ciphertexts) to retain. 0 disables retention entirely: tracing becomes
  // unavailable but per-round resident ciphertext memory is O(L).
  void SetEvidenceRounds(size_t rounds);
  size_t evidence_rounds() const { return evidence_rounds_; }

  // Newest known schedule (the layout of the most advanced in-flight round).
  const SlotSchedule& schedule() const { return scheds_.back(); }
  // Schedule for a specific round; rounds outside the in-flight window clamp
  // to the nearest retained layout.
  const SlotSchedule& ScheduleFor(uint64_t round) const;
  size_t ExpectedCiphertextLength() const { return schedule().TotalLength(); }
  size_t ExpectedCiphertextLength(uint64_t round) const {
    return ScheduleFor(round).TotalLength();
  }

  // --- step 1: submission ---
  // Opens per-round state and starts the round's background pad job; up to
  // pipeline_depth rounds may be open at once (starting round r reuses —
  // and thus drops, canceling any unjoined job — the ring slot of round
  // r - depth).
  void StartRound(uint64_t round);
  // Streams one client ciphertext into the round accumulator. Returns false
  // for duplicate/malformed submissions or inactive rounds.
  bool AcceptClientCiphertext(uint64_t round, size_t client_index, Bytes ciphertext);
  size_t SubmissionCount(uint64_t round) const;
  size_t SubmissionCount() const;  // newest started round

  // --- step 2: inventory ---
  std::vector<uint32_t> Inventory(uint64_t round) const;

  // Deterministic trim (§ Algorithm 2 step 3): a client submitting to
  // several servers is kept only by the lowest-indexed one. Static so the
  // engine and tests share the exact rule.
  static std::vector<std::vector<uint32_t>> TrimInventories(
      const std::vector<std::vector<uint32_t>>& inventories);

  // --- step 3: commitment ---
  // l = composite list; own_share = l'_j for this server.
  const Bytes& BuildServerCiphertext(uint64_t round, const std::vector<uint32_t>& composite_list,
                                     const std::vector<uint32_t>& own_share);
  Bytes CommitHash(uint64_t round) const;
  const Bytes& server_ciphertext(uint64_t round) const;

  // --- steps 4-5: combining + certification ---
  // Verifies every sibling's ciphertext against its commitment in one pass
  // (this server's own entry is the one CommitHash committed to, and is not
  // re-hashed), then XORs them all into one accumulator. Returns nullopt
  // (and records the cheater) on a commitment mismatch.
  std::optional<Bytes> CombineAndVerify(uint64_t round,
                                        const std::vector<const Bytes*>& server_cts,
                                        const std::vector<const Bytes*>& commits);
  std::optional<size_t> detected_equivocator() const { return equivocator_; }

  // Deterministic (derived nonce, RFC 6979 style): re-signing the same
  // (round, cleartext) after a crash/restart yields the identical bytes, so
  // retransmitted certificates match their originals bit-for-bit.
  SchnorrSignature SignRoundOutput(uint64_t round, const Bytes& cleartext) const;

  // --- verdict agreement (engine-driven, §3.9 hardening) ---
  // Signature over VerdictSigningBytes with a deterministic nonce; the
  // engine broadcasts it as a wire::VerdictShare and acts on an expulsion
  // only once every server's share over the identical context verifies.
  Bytes SignVerdictShare(uint64_t session, uint64_t round, uint8_t kind,
                         uint32_t culprit) const;
  bool VerifyVerdictShare(uint64_t session, uint32_t server_index, uint64_t round,
                          uint8_t kind, uint32_t culprit, const Bytes& signature) const;

  // --- abort agreement (engine-driven) ---
  // Signed prepare vote for aborting `round` at abort-history `epoch` (the
  // number of aborts the voter has already applied — binding each vote to
  // one history so votes across divergent histories can never combine into
  // a certificate). Deterministic nonce: a restarted server re-signs
  // byte-identically, so re-broadcast prepares dedup at receivers.
  Bytes SignAbortPrepare(uint64_t round, uint64_t epoch) const;
  bool VerifyAbortPrepare(uint64_t round, uint64_t epoch, uint32_t server_index,
                          const Bytes& signature) const;

  // --- step 6 aftermath ---
  // Advances the (lagged) shared slot schedule and drops round state; also
  // scans shuffle-request fields so the server fleet knows an accusation
  // shuffle is being requested (§3.9). Must be called in round order.
  struct RoundFinish {
    bool accusation_requested = false;
    size_t participation = 0;
  };
  RoundFinish FinishRound(uint64_t round, const Bytes& cleartext);

  // Abort aftermath: closes `round` without a certified output. The shared
  // schedule still advances (with an all-zero cleartext, which closes every
  // slot deterministically — owners re-request), so all survivors agree on
  // the layout of round + depth. Must be called in round order, in place of
  // FinishRound.
  void AbortRound(uint64_t round);

  // --- crash recovery (engine-driven) ---
  // Serialized session state a restarting server needs to rejoin mid-stream:
  // the lagged schedule window, the expulsion set and the in-flight
  // submission ring, each accumulator with the set of clients whose pads it
  // holds (format v2; a v1 state, whose accumulators held unrecorded pads,
  // is refused). Pad jobs are not state: a restored round expands the pads
  // its accumulator lacks at window close. Evidence and pseudonym keys are
  // excluded too: tracing for pre-crash rounds degrades to unavailable, and
  // the engine snapshot carries the keys. RestoreState also reseeds the
  // internal rng from the snapshot hash, keeping the restarted server
  // deterministic (steady-state signing no longer touches it at all).
  Bytes SerializeState() const;
  bool RestoreState(const Bytes& state);

  // --- accusation support (§3.9) ---
  struct RoundEvidence {
    std::vector<uint32_t> composite_list;
    std::vector<uint32_t> own_share;
    std::map<uint32_t, Bytes> received_cts;  // all received, incl. trimmed
    Bytes server_ct;
    // Retained for accusation validation: the certified cleartext and the
    // slot layout the round was built with (FinishRound fills the cleartext;
    // the default is an empty zero-slot layout, overwritten at build time).
    Bytes cleartext;
    SlotSchedule layout{0, 256};
  };
  const RoundEvidence* EvidenceFor(uint64_t round) const;
  // Pad bit s_ij[k] for client i at global bit k of `round`.
  bool PadBit(uint64_t round, size_t client_index, size_t bit_index) const;

  // --- blame sub-phase support (§3.9, engine-driven) ---
  // The shuffled pseudonym keys, roster-ordered by slot; needed to validate
  // accusation signatures. The engine installs them when its scheduling
  // shuffle verifies (or a transport does, for keys computed out of band).
  void SetPseudonymKeys(std::vector<BigInt> keys);
  const std::vector<BigInt>& pseudonym_keys() const { return pseudonym_keys_; }

  // Full §3.9 accusation check against retained evidence: pseudonym
  // signature, accused bit inside the accuser's slot at that round's layout,
  // and the bit actually came out 1. False when the evidence has expired.
  bool CheckAccusation(const SignedAccusation& acc) const;

  // This server's proven layer of a verified mix cascade (§3.10): the
  // blame shuffle draws from the logic rng; the scheduling shuffle passes
  // the node's scheduling rng, so the logic rng draws exactly as when keys
  // are installed out of band.
  MixStep MixLayer(const CiphertextMatrix& inputs, SecureRng* rng = nullptr);

  // The §3.9 trace disclosure for (round, bit): pad bits over the retained
  // composite list, received ciphertext bits over the trimmed own share, and
  // the published server-ciphertext bit. `present` is false when evidence
  // for the round has expired.
  TraceDisclosure BuildTraceDisclosure(uint64_t round, size_t bit_index) const;

  // Membership: an expelled client's submissions are rejected from the next
  // started round on (the engine also removes it from window expectations).
  void ExpelClient(size_t client_index);
  bool IsExpelled(size_t client_index) const {
    return client_index < expelled_.size() && expelled_[client_index];
  }

  // Test hook: this server frames `client` during tracing — it flips the
  // disclosed pad bit s_ij[k] for that client AND its disclosed server
  // ciphertext bit, staying self-consistent so the lie survives the §3.9
  // balance checks and only the framed client's rebuttal can expose it.
  void InjectTraceLie(size_t about_client) { trace_lie_client_ = about_client; }

  const Bytes& SharedKeyWith(size_t client_index) const { return client_keys_[client_index]; }

  // --- observability ---
  // Peak of the combining state resident across all in-flight rounds: the
  // streaming accumulators, the pad jobs' accumulators and built server
  // ciphertexts. O(depth * L) by construction — independent of the number
  // of submitting clients. The bounded evidence log (when enabled) is
  // accounted separately.
  size_t peak_round_state_bytes() const { return peak_round_state_bytes_; }
  size_t evidence_bytes() const { return evidence_bytes_; }

 private:
  // Ring slot for one in-flight round (index = round % pipeline_depth).
  struct RoundSlot {
    uint64_t round = 0;
    bool active = false;
    // Background composite pads of the expected set, until the first accept
    // (or the build) adopts its accumulator as `acc`.
    std::unique_ptr<CompositePadJob> pad_job;
    // XOR of every accepted client ciphertext and of the pads of exactly the
    // clients in acc_pads; empty until adopted. BuildServerCiphertext patches
    // acc_pads △ l and moves it into server_ct, whose buffer the slot's next
    // round's job reuses.
    Bytes acc;
    std::vector<uint32_t> acc_pads;
    Bytes server_ct;
    std::vector<uint32_t> received_ids;  // arrival order; sorted on demand
    std::vector<uint64_t> submitted;     // bitmap over client ids
  };

  RoundSlot* FindRound(uint64_t round);
  const RoundSlot* FindRound(uint64_t round) const;
  std::vector<uint32_t> ExpectedClients() const;
  void AdoptPadJob(RoundSlot& slot, size_t len);
  void ResetScheduleWindow(SlotSchedule initial);
  void NotePeakState();
  void PruneEvidence();

  const GroupDef& def_;
  size_t index_;
  BigInt priv_;
  SecureRng rng_;
  size_t pipeline_depth_;
  std::vector<Bytes> client_keys_;  // K_ij per client i
  // Precomputed key schedules for all N client secrets; the per-round hot
  // path expands pads straight into the accumulator with no per-client
  // buffers. Shared with in-flight pad jobs, which may outlive the server.
  std::shared_ptr<const PadExpander> pad_expander_;
  // Composite list of the last round this server closed (the next jobs'
  // expected set); unset before the first close and after a restore.
  std::optional<std::vector<uint32_t>> last_composite_;

  // scheds_[k] is the layout of round sched_base_round_ + k; the window is
  // pipeline_depth entries wide. FinishRound(r) (with r == sched_base_round_)
  // pops the front and appends the layout of round r + depth.
  std::deque<SlotSchedule> scheds_;
  uint64_t sched_base_round_ = 1;

  std::vector<RoundSlot> rounds_;  // ring of in-flight rounds
  uint64_t newest_round_ = 0;
  std::optional<size_t> equivocator_;
  size_t evidence_rounds_ = kEvidenceRounds;
  std::map<uint64_t, RoundEvidence> evidence_;
  size_t peak_round_state_bytes_ = 0;
  size_t evidence_bytes_ = 0;
  std::vector<BigInt> pseudonym_keys_;
  std::vector<bool> expelled_;
  std::optional<size_t> trace_lie_client_;
};

}  // namespace dissent

#endif  // DISSENT_CORE_SERVER_H_
