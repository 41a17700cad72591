// Sans-I/O protocol engines for the Dissent round protocol.
//
// ServerEngine and ClientEngine own the per-round step sequencing of
// Algorithm 2 / Algorithm 1 — submission windows, the inventory -> commit ->
// ciphertext -> signature gossip cascade, output distribution, and round
// pipelining — as pure state machines with no clocks, sockets, or simulator
// types inside. Every interaction is:
//
//     Actions a = engine.HandleMessage(from, msg, now_us);   // or HandleTimer
//     for (auto& e : a.out)    transport.send(e.to, SerializeWire(e.msg));
//     for (auto& t : a.timers) transport.schedule(t.delay_us, t.token);
//
// The drivers are thin transports over this API: Coordinator (coordinator.h)
// delivers Envelopes in-process with zero latency, NetDissent
// (net_protocol.h) maps them onto sim::Network sends and Simulator timers,
// and a future real-socket (io_uring) transport slots in the same way. The
// engines are the only place protocol order lives, so the drivers can never
// disagree on it.
//
// Shared-payload ownership rules: an Envelope holds a
// `shared_ptr<const WireMessage>`, and one message object is shared by every
// envelope of a broadcast (server gossip goes out as M-1 envelopes sharing
// one message; the round Output goes out as a *single* envelope addressed to
// Peer::Kind::kAttachedClients, which the transport fans out to this
// server's attached clients). The contract is:
//   * the engine never mutates a message after emitting it — payloads are
//     immutable from construction;
//   * a transport that needs to tamper (test hooks) must copy-on-write, not
//     mutate in place, because sibling envelopes alias the same object;
//   * transports may cache per-payload work (serialization, parse results)
//     keyed on the message/frame pointer — identity is stable for the
//     lifetime of the shared_ptr and broadcast envelopes are emitted
//     consecutively;
//   * a transport expanding kAttachedClients chooses the wire fan-out (one
//     frame per client, or one frame per client-hosting machine): the frame
//     bytes are identical for every recipient by construction.
//
// Certified-output memo (output_view.h): a ClientEngine's output path
// verifies and decodes each distinct certified output once per process, so
// co-hosted clients share the work. The memo is process-wide, bounded, and
// guarded by one mutex, so engines on different threads may share it. It
// owns copies of everything it keys on — the GroupDef by value, the round,
// the exact cleartext and raw signature bytes, never an address or a hash
// — and hands out immutable shared_ptr<const DecodedOutput> values, so no
// entry points into an engine's or a message's storage. Only outputs whose
// certificate verified are inserted; a decode is shared only between equal
// layouts, and the witness-bit scan of each client's own slot stays per
// client.
//
// Crypto fast-path (Elem/MultiExp) rules — the engines' proof work (the
// scheduling and blame mix cascade, output certificates) rides the multi-exponentiation engine
// in crypto/multiexp.h; the contract mirrors the ownership rules above:
//   * Group::Elem carries Montgomery-form limbs. Convert with
//     ToElem/FromElem at boundaries (wire, transcripts, comparisons) and
//     chain MulElems/MultiExp in the Montgomery domain in between; the
//     BigInt encoding stays canonical, and every fast path is bit-identical
//     to the generic Montgomery::Exp reference (tests/crypto/multiexp_test).
//   * Exponent-secrecy split: *Secret entry points (GExpSecret, ExpSecret,
//     MultiExpSecret) use fixed schedules + constant-time table scans and
//     MUST be used for private keys, nonces, and shuffle secrets; the plain
//     variants are variable-time and for public (verifier-side) exponents
//     only. See montgomery.h.
//   * Determinism under parallelism: provers draw all randomness serially,
//     then fan pure exponentiation across ParallelFor workers — protocol
//     bytes are independent of thread count, so transport byte-identity
//     tests hold at any parallelism level. ScopedCryptoFastPath(false)
//     restores the pre-PR serial/generic behaviour for benches and
//     equivalence tests.
//
// Pipelining: a ServerEngine keeps a window of `pipeline_depth` concurrent
// in-flight rounds, with all gathering state held in a ring of
// pipeline_depth slots keyed by round number — submissions for round r+1
// are accepted and the r+1 gossip cascade runs while round r is still
// combining or certifying. Rounds *finish* strictly in order (outputs are
// distributed in round order). Depth 1 reproduces the sequential protocol
// exactly.
//
// Scheduling sub-phase (§3.10): an engine whose logic holds no pseudonym
// keys runs the verified key shuffle before round 1. ClientEngine::
// StartSession sends the client's encrypted pseudonym key, signed, to its
// upstream server; each server collects its attached clients' rows,
// gossips its roster, and the servers mix in index order, verifying every
// sibling's step. Each server then installs the keys, sends them to its
// attached clients as one SlotKeys frame, and opens round 1; a client that
// receives them takes its slot and submits. It is the same cascade (one
// state, one roster -> merge -> ordered mix -> verify path) that blame runs
// below; only finishing differs: scheduling waits for every client's row
// and drops a step that fails verification, blame has a collection
// deadline and exposes the cheating mixer. A row that reaches a server
// whose session is already live is answered with the keys. The mix
// randomness comes from a scheduling rng the transport passes in, so the
// logic rngs draw exactly as when keys are installed out of band.
//
// Blame sub-phase (§3.9): when a finished round's certified output carries a
// nonzero shuffle-request field, every server engine independently flags a
// blame instance whose session id is that round number. Pipeline semantics
// are deterministic: the engine stops opening new rounds, the ≤ depth rounds
// already in flight drain to completion in order, and only then does the
// blame protocol run — BlameStart to the attached clients, fixed-width
// AccusationSubmit collection, roster gossip, the verified mix cascade in
// server order, TraceEvidence disclosure, TraceDisruptor, the accused
// client's rebuttal, and finally a BlameVerdict broadcast. An expelled
// client is removed from the logic's membership and from this engine's
// window expectations before any post-blame round opens, so it is out of
// every schedule from round session+depth on. The engines then reopen depth
// rounds and the pipeline resumes. Clients mirror the same flag scan: once
// they see a flagged output they defer further submissions until the
// verdict, so no submission is ever dropped against an unopened round.
#ifndef DISSENT_CORE_ENGINE_H_
#define DISSENT_CORE_ENGINE_H_

#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <utility>
#include <vector>

#include "src/core/accusation.h"
#include "src/core/client.h"
#include "src/core/server.h"
#include "src/core/wire.h"
#include "src/util/serialize.h"

namespace dissent {

// Protocol-level address: transports map these to nodes/sockets.
// kAttachedClients is a broadcast address — "every client attached to
// server `index`" — so a 5,000-client output distribution is one envelope,
// not 5,000.
struct Peer {
  enum class Kind : uint8_t { kServer, kClient, kAttachedClients };
  Kind kind = Kind::kServer;
  uint32_t index = 0;
};
inline Peer ServerPeer(uint32_t j) { return Peer{Peer::Kind::kServer, j}; }
inline Peer ClientPeer(uint32_t i) { return Peer{Peer::Kind::kClient, i}; }
inline Peer AttachedClientsPeer(uint32_t server) {
  return Peer{Peer::Kind::kAttachedClients, server};
}

// One outgoing message: the transport serializes and delivers it. The
// payload is shared so a broadcast to M-1 peers carries one copy of (say) a
// 128 KiB server ciphertext, and transports can serialize it once by caching
// on pointer identity (broadcast envelopes are emitted consecutively). See
// the shared-payload ownership rules in the header comment.
struct Envelope {
  Peer to;
  std::shared_ptr<const WireMessage> msg;
};

// Request to be called back via HandleTimer(token) after delay_us. Tokens
// are engine-opaque; stale timers (for finished rounds) are ignored, so the
// transport never needs to cancel anything.
struct TimerRequest {
  uint64_t token = 0;
  int64_t delay_us = 0;
};

// Ack/retransmit layer shared by both engines. Off by default: the
// in-process Coordinator is lossless and the sim transport was historically
// run over reliable links, and with `enabled = false` every engine byte
// stream is identical to the pre-reliability protocol.
struct ReliabilityConfig {
  bool enabled = false;
  int64_t rto_us = 500 * 1000ll;        // initial per-frame retransmit timeout
  int64_t max_rto_us = 8 * 1000000ll;   // backoff cap
};

// Per-directed-peer sequencing, dedup, and retransmission for unicast
// engine traffic. Every unicast Envelope is wrapped in wire::Reliable{seq,
// inner}; the receiver acks every arrival (cumulative frontier + a sack
// bitmap of the 64 following sequence numbers), delivers each seq at most
// once, and the sender re-emits unacked frames with capped exponential
// backoff on a single repeating sweep timer owned by the engine.
// kAttachedClients broadcasts stay unreliable — a client that misses an
// Output recovers via the CatchUpRequest/RoundSummary path instead, so the
// fan-out stays one shared frame.
class ReliableMailbox {
 public:
  explicit ReliableMailbox(ReliabilityConfig cfg = {}) : cfg_(cfg) {}
  bool enabled() const { return cfg_.enabled; }

  // Sender side: wraps each unicast envelope of `out` in place (skipping
  // kAttachedClients fan-outs and Ack/Reliable frames the mailbox itself
  // produced) and records it for retransmission. `self` stamps
  // Reliable::from_id.
  void WrapOutgoing(std::vector<Envelope>& out, uint32_t self, int64_t now_us);

  enum class Recv : uint8_t { kDeliver, kDuplicate, kMalformed };
  // Receiver side: always appends an Ack toward `from`; parses and returns
  // the inner message iff this seq is new on the (from -> us) link.
  Recv OnReliable(const Peer& from, const wire::Reliable& rel, uint32_t self,
                  std::shared_ptr<const WireMessage>* inner, std::vector<Envelope>& out);
  void OnAck(const Peer& from, const wire::Ack& ack);

  // Re-emits every due pending frame into `out`, doubling its timeout
  // (capped at max_rto_us).
  void Sweep(int64_t now_us, std::vector<Envelope>& out);
  bool HasPending() const;
  uint64_t retransmits() const { return retransmits_; }
  // First-transmission reliable frames (the denominator of the retransmit
  // overhead ratio 1 + retransmits/reliable_sent).
  uint64_t reliable_sent() const { return reliable_sent_; }
  // Frames received more than once and discarded after acking.
  uint64_t duplicates_dropped() const { return duplicates_dropped_; }
  // Peak unacked frames pending across all links at once.
  uint64_t max_in_flight() const { return max_in_flight_; }

  // Snapshot both directions of every link (pending frames, cumulative
  // frontiers, out-of-order sets) so a restarted node neither replays
  // delivered frames nor orphans unacked ones. Restored timeouts are reset
  // to the initial rto. The field list of the engine snapshot's mailbox
  // part (serialize.h); engine.cc instantiates it.
  template <class Io>
  bool Fields(Io& io);

 private:
  struct Pending {
    std::shared_ptr<const WireMessage> frame;  // the wrapped Reliable message
    int64_t due_us = 0;
    int64_t rto_us = 0;
  };
  struct Link {
    Peer peer;
    uint64_t next_seq = 1;                // sender side
    std::map<uint64_t, Pending> pending;  // sender side: seq -> frame
    uint64_t cum = 0;                     // receiver side: all of 1..cum seen
    std::set<uint64_t> ooo;               // receiver side: seen beyond cum
  };
  Link& LinkFor(const Peer& peer);
  void EmitAck(const Link& l, uint32_t self, std::vector<Envelope>& out) const;

  void NotePeakInFlight();

  ReliabilityConfig cfg_;
  std::map<uint64_t, Link> links_;  // keyed on (peer.kind << 32) | peer.index
  uint64_t retransmits_ = 0;
  uint64_t reliable_sent_ = 0;
  uint64_t duplicates_dropped_ = 0;
  uint64_t max_in_flight_ = 0;
};

class ServerEngine {
 public:
  struct Config {
    // Submission window (§5.1): once `window_fraction` of the expected
    // submitters have answered, close at `window_multiplier` times the
    // elapsed time; `hard_deadline_us` is the backstop.
    double window_fraction = 0.95;
    double window_multiplier = 1.1;
    int64_t hard_deadline_us = 120 * 1000000ll;
    // Adaptive window sizing (§5.1 discussion): when true, the expected
    // submitter count for round r is the participation this server observed
    // at the close of the previous round's window, so sustained churn moves
    // the threshold instead of stalling every round to the hard deadline.
    // The first round (no observation yet) uses the attached-client share.
    bool adaptive_window = true;
    // Concurrent in-flight rounds (must match the logic's pipeline_depth).
    size_t pipeline_depth = 1;
    // Clients attached to this server (they receive Output messages).
    std::vector<uint32_t> attached_clients;
    // Ack/retransmit layer for unicast traffic (see ReliableMailbox).
    ReliabilityConfig reliability;
    // Graceful degradation: when nonzero, a round still unfinished this
    // long after its window opened triggers an abort vote; once every
    // server that is still alive (>= M-1 distinct votes, ours among them)
    // agrees, the round at the finish frontier aborts cleanly — all-zero
    // cleartext, RoundSummary{aborted} to the attached clients — and a
    // replacement round opens, so one crashed server past its restart
    // deadline cannot wedge the pipeline forever. 0 disables aborts.
    int64_t abort_deadline_us = 0;
    // Two-phase epoch-committed abort agreement (the default): votes are
    // signed wire::AbortPrepare frames stamped with the voter's abort epoch
    // (aborts applied so far), a round only aborts on a wire::AbortCommit
    // certificate carrying >= M-1 verified signatures, and certificates are
    // idempotently re-deliverable — a healing partition converges by
    // certificate replay, and a server restored from a stale snapshot is
    // unwedged via the ServerCatchUpRequest/Batch path. When false (with
    // abort_deadline_us > 0) the legacy one-shot RoundAbort broadcast runs
    // byte-identically to its pre-agreement form.
    bool abort_agreement = true;
    // Verdict agreement (§3.9 hardening): before acting on any expulsion,
    // every server broadcasts a signed VerdictShare over its proposed
    // verdict and waits for a verified share from *every* peer over the
    // identical (session, round, kind, culprit) context. A mismatch or a
    // missing share downgrades the verdict to inconclusive — no server ever
    // expels unilaterally on a verdict its peers did not provably reach.
    bool verdict_agreement = true;
    // Finished rounds retained as RoundSummary frames for client catch-up.
    size_t output_history = 64;
  };

  // A round that reached its terminal state this call.
  struct RoundDone {
    uint64_t round = 0;
    bool completed = false;
    bool aborted = false;  // fleet-voted RoundAbort (see Config::abort_deadline_us)
    Bytes cleartext;
    size_t participation = 0;
    bool below_alpha = false;           // §3.7 threshold would have stalled
    bool accusation_requested = false;  // §3.9 shuffle-request field seen
    std::optional<size_t> equivocating_server;
    int64_t started_at_us = 0;          // when this round's window opened
  };

  // Result of one blame instance (§3.9), reported when the verdict is
  // reached. Deterministic and identical on every honest server.
  struct BlameDone {
    uint64_t session = 0;
    bool shuffle_ran = false;       // cascade completed and verified
    bool accusation_found = false;  // a decodable SignedAccusation surfaced
    bool accusation_valid = false;  // it checked out against evidence
    TraceVerdict trace;             // pre-rebuttal trace verdict
    wire::BlameVerdict verdict;     // the final outcome clients receive
    // True when every server produced a verified VerdictShare over this
    // exact verdict (trivially true with agreement disabled or M == 1);
    // false when shares were missing or mismatched and the verdict was
    // downgraded to inconclusive.
    bool verdict_agreed = false;
  };

  struct Actions {
    std::vector<Envelope> out;
    std::vector<TimerRequest> timers;
    std::vector<RoundDone> done;
    std::vector<BlameDone> blame;
  };

  // `logic` must outlive the engine; `def` is the shared group roster.
  // `sched_rng` draws this server's scheduling mix layer: with it, and no
  // pseudonym keys on the logic, the engine runs the scheduling sub-phase.
  ServerEngine(DissentServer* logic, const GroupDef& def, Config config,
               std::optional<SecureRng> sched_rng = std::nullopt);

  // Call once. Opens rounds 1..pipeline_depth at once when the logic already
  // holds pseudonym keys (or no scheduling rng was given); otherwise runs
  // the scheduling sub-phase first.
  Actions StartSession(int64_t now_us);
  Actions HandleMessage(const Peer& from, const WireMessage& msg, int64_t now_us);
  Actions HandleTimer(uint64_t token, int64_t now_us);

  // --- crash recovery ---
  // Serializes the full in-flight protocol state: the logic's schedule
  // window and submission ring, this engine's round ring, frontiers,
  // retained RoundSummary history, both directions of the reliable
  // mailbox, and either the pseudonym keys or (mid-scheduling) the
  // scheduling shuffle's rows, rosters and mix steps. A server restored from the latest snapshot resumes
  // byte-identically — unacked frames it sent are retransmitted from the
  // mailbox, frames it never acked are retransmitted by the peers — so its
  // post-restart gossip can never contradict pre-crash gossip already in
  // peers' first-write-wins slots (which would read as equivocation).
  // Excluded, by design: blame-instance state beyond the pending flag (a
  // crash during an active blame instance degrades to the peers' share
  // deadline and an inconclusive verdict) and accumulated trace evidence.
  // Recovery of in-flight frames requires Config::reliability.enabled.
  Bytes SerializeSnapshot() const;
  // Rebuilds from a snapshot taken by the same server (index and pipeline
  // depth must match) on a fresh logic, installing the pseudonym keys it
  // carries. Returns the timer re-arms (window/deadline backstops for every
  // restored round, plus the retransmit sweep) or nullopt on a malformed
  // snapshot. Evidence retention must be set on the logic by the transport
  // before this call; a snapshot taken mid-scheduling needs the engine's
  // scheduling rng.
  std::optional<Actions> RestoreSnapshot(const Bytes& snapshot, int64_t now_us);

  // Timer-token introspection for transports that prune their timer heaps:
  // tokens are (id << kTimerKindBits) | kind, where id is a round or blame
  // session. A token is prunable after `round` resolves iff it is a
  // per-round backstop for id <= round — retransmit-sweep tokens and (while
  // a blame instance is live) blame backstops are never prunable.
  static constexpr uint64_t kTimerKindBits = 3;
  static uint64_t TimerTokenId(uint64_t token) { return token >> kTimerKindBits; }
  static bool TimerStaleAfterRound(uint64_t token, uint64_t round, bool blame_live);

  DissentServer& logic() { return *logic_; }
  // True once the pseudonym keys are installed and round 1 has opened.
  bool session_live() const { return live_; }
  // Servers whose scheduling mix step failed verification, in order of
  // rejection (the transport logs them; scheduling waits for a good step).
  const std::vector<uint32_t>& rejected_mix_steps() const { return rejected_mix_steps_; }
  uint64_t rounds_completed() const { return rounds_completed_; }
  size_t last_participation() const { return last_participation_; }
  // Submissions accepted for a round while an earlier round was still in
  // flight — nonzero iff pipelining actually overlapped rounds.
  uint64_t pipelined_submissions() const { return pipelined_submissions_; }
  size_t inflight_rounds() const;
  bool halted() const { return halted_; }
  // Submission count this server observed at its most recent window close
  // (the adaptive-window input); 0 until a window has closed.
  size_t last_window_observed() const { return last_window_observed_; }
  // True from the moment a finished round flags an accusation shuffle until
  // that blame instance's verdict is broadcast.
  bool blame_in_progress() const { return blame_.pending || blame_.active; }
  uint64_t blames_completed() const { return blames_completed_; }
  uint64_t rounds_aborted() const { return rounds_aborted_; }
  // Frames re-sent by the reliable mailbox (retransmission overhead probe).
  uint64_t retransmits() const { return mailbox_.retransmits(); }
  uint64_t reliable_sent() const { return mailbox_.reliable_sent(); }
  uint64_t duplicates_dropped() const { return mailbox_.duplicates_dropped(); }
  uint64_t max_in_flight() const { return mailbox_.max_in_flight(); }
  // Server catch-up: true while this engine is replaying signed round
  // summaries from a sibling to close a stale-snapshot gap.
  bool catching_up() const { return catching_up_; }
  // Rounds applied via the server catch-up path (outputs + certificates).
  uint64_t catch_up_rounds() const { return catch_up_rounds_; }

 private:
  // Ring slot for one in-flight round (index = round % pipeline_depth).
  struct RoundState {
    uint64_t round = 0;
    bool active = false;
    int64_t started_us = 0;
    bool window_closed = false;
    bool window_timer_armed = false;
    int64_t window_close_at_us = 0;  // absolute; for snapshot re-arming
    std::vector<std::optional<std::vector<uint32_t>>> inventories;
    std::vector<std::optional<Bytes>> commits;
    std::vector<std::optional<Bytes>> server_cts;
    std::vector<std::optional<Bytes>> sigs;  // serialized, parse-checked
    // Per-sibling one-shot: set after re-offering our phase frames to a
    // sibling that re-ran this round (not snapshotted; a restored server
    // may re-offer again).
    std::vector<bool> reoffered;
    bool sent_commit = false;
    bool sent_ct = false;
    bool sent_sig = false;
    // Abort-agreement mutual exclusion: per round a server emits EITHER its
    // SignatureShare or an AbortPrepare, never both. Completion needs all M
    // signatures and a certificate needs M-1 prepares, so with 2M-1 > M
    // one-per-server emissions a certified output and an abort certificate
    // can never both exist for the same round.
    bool promised_abort = false;
    size_t participation = 0;
    Bytes cleartext;
  };

  // Timer tokens carry (round-or-session << kTimerKindBits) | kind.
  // kWindowPolicy, kHardDeadline, and kAbortDeadline belong to the round
  // pipeline; kBlameCollect backstops the blame-shuffle collection window,
  // kBlameRebuttal the accused client's answer (a silent client concedes),
  // and kVerdictShares the agreement exchange (missing shares downgrade the
  // verdict to inconclusive). kRetransmit (id always 0) is the mailbox's
  // repeating sweep.
  enum TimerKind : uint64_t {
    kWindowPolicy = 0,
    kHardDeadline = 1,
    kBlameCollect = 2,
    kBlameRebuttal = 3,
    kVerdictShares = 4,
    kRetransmit = 5,
    kAbortDeadline = 6,
    // Repeating catch-up retry (id always 0); never stale.
    kServerCatchUp = 7,
  };
  static uint64_t Token(uint64_t round, TimerKind kind) {
    return (round << kTimerKindBits) | kind;
  }

  // One verified mix cascade (§3.10) over rows collected from the attached
  // clients: the scheduling shuffle (session wire::kScheduleSession, width-1
  // pseudonym keys) and every blame instance (accusation blocks) run on this
  // state, one at a time. Open while `rosters` is sized.
  struct Cascade {
    uint64_t session = 0;
    size_t width = 0;  // ElGamal elements per row
    // Collection: rows from this server's attached clients (row bytes + the
    // client's signature over them).
    bool collecting = false;
    std::map<uint32_t, std::pair<Bytes, Bytes>> collected;
    std::vector<std::optional<std::vector<wire::BlameRosterEntry>>> rosters;
    // Mixing: the merged matrix walks through every server's verified layer.
    bool mixing = false;
    std::vector<std::optional<Bytes>> mix_steps;  // serialized, per server
    CiphertextMatrix matrix;
    size_t steps_verified = 0;
  };

  // One blame instance (§3.9); at most one runs at a time, and all round
  // pipelining is suspended while it does. Its shuffle is cascade_.
  struct BlameState {
    bool pending = false;  // flagged; waiting for in-flight rounds to drain
    bool active = false;
    uint64_t session = 0;
    bool shuffle_ran = false;
    // Trace: the decoded accusation plus every server's disclosure.
    bool tracing = false;
    std::optional<SignedAccusation> accusation;
    bool accusation_found = false;
    bool accusation_valid = false;
    std::vector<std::optional<wire::TraceEvidence>> disclosures;
    TraceVerdict trace;
    // Rebuttal: the accused client's answer (or its absence).
    bool awaiting_rebuttal = false;
    uint32_t accused = 0;
    std::vector<bool> accused_pad_bits;  // per server, for the challenge
    // A peer's forwarded rebuttal that arrived while a straggling
    // TraceEvidence still held our own trace back; replayed after tracing.
    std::optional<wire::BlameRebuttal> pending_rebuttal;
    // Verdict agreement: our proposed verdict and every server's verified
    // share over it (shares from faster peers are stored before we propose
    // and compared once we do).
    bool awaiting_shares = false;
    uint8_t proposed_kind = 0;
    uint32_t proposed_culprit = 0;
    uint64_t proposed_round = 0;
    std::vector<std::optional<wire::VerdictShare>> shares;
  };

  RoundState* FindRound(uint64_t round);
  // Empties every per-server gossip slot of a ring entry.
  void ClearGossip(RoundState& st) const;
  // The snapshot's one field list (SerializeSnapshot/RestoreSnapshot).
  template <class Io>
  bool SnapshotFields(Io& io);
  void StartRound(uint64_t round, int64_t now_us, Actions& a);
  // The pre-reliability HandleMessage body: dispatches one already-unwrapped
  // message. The public entry point peels Reliable/Ack frames first.
  void DispatchMessage(const Peer& from, const WireMessage& msg, int64_t now_us, Actions& a);
  void HandleServerPhase(uint32_t sender, const WireMessage& msg, int64_t now_us, Actions& a);
  void Broadcast(WireMessage msg, Actions& a);
  void MaybeArmWindowTimer(uint64_t round, int64_t now_us, Actions& a);
  void CloseWindow(uint64_t round, Actions& a);
  void MaybeBuildCiphertext(uint64_t round, Actions& a);
  void MaybeShareCiphertext(uint64_t round, Actions& a);
  void MaybeCertify(uint64_t round, Actions& a);
  void ReofferRoundFrames(uint64_t round, uint32_t sender, Actions& a);
  void MaybeFinishRounds(int64_t now_us, Actions& a);
  bool AllPresent(const std::vector<std::optional<Bytes>>& v) const;
  // Wraps unicast output in the mailbox and keeps the retransmit sweep
  // armed; every public entry point funnels its Actions through here.
  void Seal(Actions& a, int64_t now_us);
  // Finished/aborted-round bookkeeping shared by MaybeFinishRounds and the
  // abort path: retains the RoundSummary for catch-up serving.
  void RetainSummary(wire::RoundSummary summary);
  void HandleCatchUpRequest(const Peer& from, const wire::CatchUpRequest& req, Actions& a);
  void RecordAbortVote(uint64_t round, uint32_t server, int64_t now_us, Actions& a);
  void MaybeAbortRound(uint64_t round, int64_t now_us, Actions& a);

  // --- epoch-committed abort agreement (Config::abort_agreement) ---
  // The shared abort aftermath (deactivate, advance the logic's schedule
  // with a zero cleartext, notify clients, reopen the pipeline) — called by
  // the legacy unanimity path and by certificate application.
  void ApplyAbort(uint64_t round, int64_t now_us, Actions& a);
  // Signs and broadcasts our AbortPrepare for the finish-frontier round at
  // the current epoch (idempotent re-broadcast on deadline re-arm).
  void BroadcastOwnPrepare(uint64_t round, int64_t now_us, Actions& a);
  void HandleAbortPrepare(const Peer& from, const wire::AbortPrepare& msg, int64_t now_us,
                          Actions& a);
  void HandleAbortCommit(const Peer& from, const wire::AbortCommit& msg, int64_t now_us,
                         Actions& a);
  // Assembles a certificate once >= M-1 verified prepares (ours among them)
  // exist for the frontier round at the current epoch.
  void MaybeAssembleAbortCert(uint64_t round, int64_t now_us, Actions& a);
  bool VerifyAbortCert(const wire::AbortCommit& cert, uint64_t epoch) const;
  // Applies a verified certificate for the frontier round and replays any
  // stashed in-window successors that became applicable.
  void CommitAbortCert(wire::AbortCommit cert, int64_t now_us, Actions& a);

  // --- server catch-up (stale-snapshot re-admission) ---
  void BeginServerCatchUp(int64_t now_us, Actions& a);
  void SendServerCatchUpRequest(Actions& a);
  void HandleServerCatchUpRequest(const Peer& from, const wire::ServerCatchUpRequest& req,
                                  Actions& a);
  void HandleServerCatchUpBatch(const Peer& from, const wire::ServerCatchUpBatch& batch,
                                int64_t now_us, Actions& a);

  // --- the shared mix cascade (scheduling §3.10, blame §3.9) ---
  bool NeedsScheduling() const {
    return sched_rng_.has_value() && logic_->pseudonym_keys().empty();
  }
  bool IsAttached(uint32_t client) const;
  // Attached clients that are not expelled: every row a cascade waits for.
  size_t ExpectedSubmitters() const;
  void OpenCascade(uint64_t session, size_t width);
  void HandleCascadeRow(const Peer& from, const wire::AccusationSubmit& row, int64_t now_us,
                        Actions& a);
  void MaybeCloseCollection(int64_t now_us, Actions& a, bool deadline = false);
  void MaybeAssembleMatrix(int64_t now_us, Actions& a);
  void TryAdvanceCascade(int64_t now_us, Actions& a);
  // Scheduling verified: install the keys, send them down, open round 1.
  void FinishScheduling(int64_t now_us, Actions& a);
  std::shared_ptr<const WireMessage> SlotKeysMessage() const;

  // --- blame sub-phase (§3.9) ---
  void MaybeStartBlame(int64_t now_us, Actions& a);
  void HandleBlameMessage(const Peer& from, const WireMessage& msg, int64_t now_us, Actions& a);
  void BufferEarlyBlame(uint32_t sender, const WireMessage& msg);
  void DecodeBlameAccusation(int64_t now_us, Actions& a);
  void MaybeTrace(int64_t now_us, Actions& a);
  void HandleRebuttal(const wire::BlameRebuttal& msg, const Peer& from, int64_t now_us,
                      Actions& a);
  // Verdict reached locally: with agreement on, broadcast our signed share
  // and wait for every peer's before acting (ConcludeBlame); without it,
  // conclude immediately.
  void FinishBlame(uint8_t kind, uint32_t culprit, int64_t now_us, Actions& a);
  void HandleVerdictShare(const wire::VerdictShare& share, const Peer& from, int64_t now_us,
                          Actions& a);
  void MaybeAgreeVerdict(int64_t now_us, Actions& a);
  void ConcludeBlame(uint8_t kind, uint32_t culprit, bool agreed, int64_t now_us, Actions& a);

  DissentServer* logic_;
  const GroupDef& def_;
  Config config_;
  size_t index_;
  size_t num_servers_;

  std::vector<RoundState> rounds_;  // ring of in-flight rounds
  // Server-phase messages for rounds we have not opened yet (a faster peer
  // can be a full phase ahead); replayed on StartRound. Bounded.
  std::map<uint64_t, std::vector<std::pair<uint32_t, WireMessage>>> early_;
  uint64_t next_round_to_start_ = 1;
  uint64_t next_round_to_finish_ = 1;
  uint64_t rounds_completed_ = 0;
  size_t last_participation_ = 0;
  size_t last_window_observed_ = 0;
  uint64_t pipelined_submissions_ = 0;
  bool halted_ = false;

  bool live_ = false;
  std::optional<SecureRng> sched_rng_;
  std::vector<uint32_t> rejected_mix_steps_;
  Cascade cascade_;
  BlameState blame_;
  // Server-gossiped blame messages that outpaced our own pipeline drain
  // (a peer can finish, collect, and roster while our last round's
  // signatures are still in flight). One slot per (sender, type); replayed
  // when the blame instance activates.
  std::vector<std::pair<uint32_t, WireMessage>> blame_early_;
  uint64_t blames_completed_ = 0;
  size_t blame_width_ = 0;  // ElGamal row width of a kAccusationBytes payload
  size_t expelled_attached_ = 0;

  ReliableMailbox mailbox_;
  bool retransmit_armed_ = false;
  // Finished/aborted rounds retained for CatchUpRequest serving, newest at
  // the back, capped at Config::output_history.
  std::deque<wire::RoundSummary> recent_;
  // RoundAbort votes per round (one bit per server), erased on resolution.
  // Legacy path only (Config::abort_agreement == false).
  std::map<uint64_t, std::vector<bool>> abort_votes_;
  uint64_t rounds_aborted_ = 0;

  // --- epoch-committed abort agreement state ---
  // Verified prepares per round: server -> (epoch, signature). Our own entry
  // doubles as the promise marker — once present, MaybeCertify withholds our
  // SignatureShare for that round, so a certificate and a certified output
  // cannot both form from the frames we send after voting.
  std::map<uint64_t, std::map<uint32_t, std::pair<uint64_t, Bytes>>> abort_prepares_;
  // Certificates for rounds ahead of the finish frontier (a healed peer can
  // be several aborts ahead); applied in order as the frontier reaches them.
  std::map<uint64_t, wire::AbortCommit> pending_certs_;
  // Applied certificates, retained alongside recent_ for catch-up serving
  // and for idempotent re-delivery, pruned to Config::output_history.
  std::map<uint64_t, wire::AbortCommit> abort_certs_;
  // Server catch-up: set when a restored snapshot's frontier trails the
  // fleet (detected via a stale prepare or an out-of-window certificate);
  // cleared when the gap closes to <= pipeline_depth and the pipeline
  // reopens.
  bool catching_up_ = false;
  bool catchup_timer_armed_ = false;
  uint64_t catch_up_rounds_ = 0;
};

class ClientEngine {
 public:
  struct Config {
    uint32_t upstream_server = 0;
    size_t pipeline_depth = 1;  // must match the logic's pipeline_depth
    // Event-driven transports leave this on: processing round r's output
    // immediately builds and submits round r+depth. A synchronous transport
    // (the in-process Coordinator) turns it off and paces submissions itself
    // via SubmitRound, so application sends queued between rounds still make
    // the next round.
    bool auto_submit = true;
    // Ack/retransmit layer for the upstream link (see ReliableMailbox).
    ReliabilityConfig reliability;
    // Resynchronization after a missed output: when nonzero, outputs are
    // ingested strictly sequentially (out-of-order arrivals are stashed) and
    // a repeating timer that sees no forward progress for this long sends a
    // CatchUpRequest upstream — answered with signed RoundSummary frames —
    // and re-submits the retained in-flight ciphertexts (a crashed server
    // may have lost acked-but-unprocessed submissions). 0 keeps the
    // historical gap-tolerant ProcessOutput behaviour and arms no timers.
    int64_t resync_timeout_us = 0;
  };

  // One verified round output, decoded.
  struct Delivery {
    uint64_t round = 0;
    bool signatures_ok = false;
    bool own_slot_disrupted = false;
    std::vector<std::pair<size_t, Bytes>> messages;
    Bytes cleartext;
  };

  struct Actions {
    std::vector<Envelope> out;
    std::vector<TimerRequest> timers;
    std::vector<Delivery> delivered;
    // Blame verdicts received from the upstream server (§3.9), in order.
    std::vector<wire::BlameVerdict> verdicts;
  };

  // `sched_rng` encrypts the scheduling row: with it, and no slot on the
  // logic, StartSession joins the scheduling sub-phase.
  ClientEngine(DissentClient* logic, const GroupDef& def, Config config,
               std::optional<SecureRng> sched_rng = std::nullopt);

  // Call once. Submits ciphertexts for rounds 1..pipeline_depth when the
  // logic already holds its slot (or no scheduling rng was given);
  // otherwise sends the scheduling row, and submits once the upstream
  // server's SlotKeys arrive (with auto_submit).
  Actions StartSession(int64_t now_us);
  Actions HandleMessage(const Peer& from, const WireMessage& msg, int64_t now_us);
  Actions HandleTimer(uint64_t token, int64_t now_us);
  // Build and submit a specific round's ciphertext (transport-driven
  // resynchronization, e.g. after a reconnect catch-up).
  Actions SubmitRound(uint64_t round, int64_t now_us);

  DissentClient& logic() { return *logic_; }
  // True once a BlameVerdict expelled this client; it stops submitting.
  bool expelled() const { return expelled_; }
  uint64_t last_output_round() const { return last_output_round_; }
  uint64_t retransmits() const { return mailbox_.retransmits(); }

  // Client timer kinds (same (id << kTimerKindBits) | kind layout as the
  // server's; both ride id 0 and re-arm themselves, so transports must
  // never prune client tokens).
  enum TimerKind : uint64_t {
    kClientRetransmit = 0,
    kClientResync = 1,
  };

 private:
  static uint64_t Token(uint64_t id, TimerKind kind) {
    return (id << ServerEngine::kTimerKindBits) | kind;
  }
  void Submit(uint64_t round, Actions& a);
  void SubmitFirstRounds(Actions& a);
  void SendScheduleRow(Actions& a);
  void AdoptSlotKeys(const wire::SlotKeys& msg, int64_t now_us, Actions& a);
  void SendUpstream(WireMessage msg, Actions& a);
  void AnswerBlameStart(uint64_t session, Actions& a);
  void Seal(Actions& a, int64_t now_us);
  // The pre-reliability HandleMessage body (the public entry point peels
  // Reliable/Ack frames first).
  void Dispatch(const Peer& from, const WireMessage& msg, int64_t now_us, Actions& a);
  // Shared ingest for Output and RoundSummary frames: replay-guarded,
  // strictly sequential in resync mode (stashing out-of-order arrivals and
  // draining the stash afterwards), and the only place the submit chain and
  // blame deferral advance.
  void IngestRound(uint64_t round, bool aborted, const Bytes& cleartext,
                   const std::vector<Bytes>& signatures, uint64_t final_round, int64_t now_us,
                   Actions& a);
  void ApplyRound(uint64_t round, bool aborted, const Bytes& cleartext,
                  const std::vector<Bytes>& signatures, int64_t now_us, Actions& a);
  // True once we have processed the outputs of every round the servers
  // drained before opening the blame instance (session .. session+depth-1).
  bool SeenDrainedOutputs(uint64_t session) const {
    return last_output_round_ + 1 >= session + config_.pipeline_depth;
  }

  DissentClient* logic_;
  const GroupDef& def_;
  Config config_;
  std::optional<SecureRng> sched_rng_;
  bool awaiting_keys_ = false;  // scheduling row sent, SlotKeys not yet in
  uint64_t last_output_round_ = 0;  // replay guard: outputs move forward only
  // Blame deferral (§3.9): after a flagged output, auto-submission pauses
  // (the servers stopped opening rounds) and the held rounds flush when the
  // verdict arrives — so submissions are never dropped against unopened
  // rounds and the pipeline resumes without a stall.
  bool blame_hold_ = false;
  std::vector<uint64_t> deferred_;
  // A BlameStart that arrived before the flagged round's output (small
  // frames can overtake large ones on bandwidth-modeled links): answered
  // only once every drained output has been processed, so the accusation
  // that rides the shuffle is the same on every transport and ordering.
  std::optional<uint64_t> pending_blame_start_;
  uint64_t last_verdict_session_ = 0;
  // Duplicate-BlameStart guard: answering twice would consume the pending
  // accusation (and an rng draw) a second time.
  uint64_t last_answered_blame_session_ = 0;
  bool expelled_ = false;

  ReliableMailbox mailbox_;
  bool retransmit_armed_ = false;
  bool resync_armed_ = false;
  // Highest fleet frontier any RoundSummary advertised; while it exceeds
  // last_output_round_ the resync timer requests the next catch-up batch
  // every tick (not only on stall).
  uint64_t catchup_final_round_ = 0;
  // Resync mode: certified rounds that arrived ahead of the sequential
  // frontier, waiting for the gap to fill (bounded; far-future arrivals are
  // re-fetched via catch-up instead).
  struct StashedRound {
    bool aborted = false;
    Bytes cleartext;
    std::vector<Bytes> signatures;
  };
  std::map<uint64_t, StashedRound> stash_;
  // Recently submitted ciphertexts, re-sent on a stalled resync timer and
  // pruned as outputs arrive. With reliability on, each value is the sealed
  // wire::Reliable frame the mailbox keeps until the ack (one copy of the
  // ciphertext per in-flight round); otherwise the bare ClientSubmit. Key 0
  // holds the scheduling row until the slot keys arrive.
  std::map<uint64_t, std::shared_ptr<const WireMessage>> sent_submits_;
  int64_t last_progress_us_ = 0;
};

}  // namespace dissent

#endif  // DISSENT_CORE_ENGINE_H_
