// In-process driver for the full Dissent protocol.
//
// Runs the real thing — real crypto, real DC-net byte planes — with all
// clients and servers as in-memory objects. Since PR 2 the Coordinator is a
// *transport*, not an orchestrator: the round protocol is driven exclusively
// by the sans-I/O ServerEngine/ClientEngine state machines (engine.h), and
// this class merely shuttles their typed WireMessage envelopes between
// engines with zero latency and fires their timer requests from a virtual
// clock. The networked driver (net_protocol.h) runs the *same* engines over
// the simulated network, so the two drivers cannot disagree on protocol
// order — RunRound() here and a simulated round there produce byte-identical
// cleartexts for identical seeds.
//
// This is the configuration behind the integration tests, the examples, and
// the Fig 9 whole-protocol bench. (The discrete-event performance model in
// src/simmodel reproduces the latency figures.)
//
// Adversarial hooks let tests inject exactly the misbehaviour §3.9 defends
// against: a client flipping bits in a victim's slot (tampering with its own
// ClientSubmit in flight), a server equivocating on its commitment (altering
// its ServerCiphertext in flight), and a server lying during trace pad-bit
// disclosure (a logic-level hook — the liar publishes, and itself uses, the
// forged TraceEvidence, as a real cheater would).
//
// The §3.9 blame flow — accusation shuffle, trace, rebuttal, expulsion — is
// a sub-phase of the engines since PR 4: a finished round whose output
// carries a shuffle request drains the pipeline and runs blame to a
// BlameVerdict entirely through engine messages, so it happens *inside*
// RunRound's message pump. RunAccusationPhase is a thin driver that keeps
// rounds turning until the pending accusation's verdict lands and then
// reports it.
#ifndef DISSENT_CORE_COORDINATOR_H_
#define DISSENT_CORE_COORDINATOR_H_

#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <queue>
#include <set>

#include "src/core/accusation.h"
#include "src/core/engine.h"
#include "src/core/key_shuffle.h"

namespace dissent {

class Coordinator {
 public:
  Coordinator(GroupDef def, std::vector<BigInt> server_privs, std::vector<BigInt> client_privs,
              uint64_t seed);

  DissentClient& client(size_t i) { return *clients_[i]; }
  DissentServer& server(size_t j) { return *servers_[j]; }
  const GroupDef& def() const { return def_; }

  // --- scheduling (§3.10) ---
  // Runs the engines' scheduling sub-phase — the verifiable key shuffle,
  // each mix step verified by every server — and returns once every server
  // has installed the keys and opened round 1 and every client holds its
  // slot. Returns false if that never happens (a failed proof stalls it).
  bool RunScheduling();
  // Skips the verified shuffle and assigns slot i to client i (the shuffle's
  // cost is cubic-ish in N and irrelevant to round-path behavior). For
  // scale tests/benches only: anonymity of the slot mapping is forfeited.
  bool RunSchedulingDirect();
  // Installs an externally computed shuffle result (the final pseudonym-key
  // order) and finishes scheduling from it. Lets a distributed deployment's
  // reference run feed the exact cascade its per-node rng discipline
  // produced, so socket-transport cleartexts can be pinned byte-identical
  // to this driver under the real (non-direct) shuffle.
  bool RunSchedulingExternal(std::vector<BigInt> keys);
  const std::vector<BigInt>& pseudonym_keys() const { return pseudonym_keys_; }
  // Wall-clock seconds RunScheduling spent in the verified cascade
  // (prove + verify at every server); 0 after RunSchedulingDirect.
  double scheduling_seconds() const { return scheduling_seconds_; }

  // --- round execution ---
  void SetClientOnline(size_t i, bool online);
  bool IsClientOnline(size_t i) const { return online_[i]; }

  struct RoundOutcome {
    uint64_t round = 0;
    bool completed = false;
    bool below_alpha = false;   // §3.7 threshold would have stalled the round
    size_t participation = 0;
    Bytes cleartext;
    // Slot -> payload for every readable message this round.
    std::vector<std::pair<size_t, Bytes>> messages;
    bool accusation_requested = false;
    std::optional<size_t> equivocating_server;
  };
  // Pumps the engine message queues until the next round certifies (or
  // halts on detected equivocation).
  RoundOutcome RunRound();
  uint64_t rounds_completed() const { return next_round_ - 1; }
  size_t last_participation() const { return last_participation_; }

  // --- accusation pipeline (§3.9) ---
  struct AccusationOutcome {
    bool shuffle_ran = false;
    bool accusation_found = false;
    bool accusation_valid = false;
    TraceVerdict verdict;
    // Final expulsion after any rebuttal.
    std::optional<size_t> expelled_client;
    std::optional<size_t> expelled_server;
    // Wall-clock phase breakdown (Fig 9 reports these separately).
    double shuffle_seconds = 0;  // accusation (blame) shuffle + verification
    double trace_seconds = 0;    // validation, bit tracing, rebuttal
  };
  // Thin driver over the engines' blame sub-phase: if a blame instance
  // already resolved during earlier RunRound calls, reports it; otherwise
  // runs rounds until the pending accusation reaches a verdict (the victim
  // may first need a request-bit round to reopen its slot).
  AccusationOutcome RunAccusationPhase();
  // True when a blame verdict resolved during earlier RunRound calls and has
  // not yet been consumed by RunAccusationPhase.
  bool has_blame_outcome() const { return last_blame_.has_value(); }

  const std::set<size_t>& expelled_clients() const { return expelled_clients_; }

  // --- adversarial hooks (tests/benches) ---
  // Client `disruptor` XORs a 1 into `bit` of its DC-net ciphertext each
  // round (anonymously corrupting whoever owns that bit position).
  void InjectDisruptor(size_t disruptor, size_t bit);
  void ClearDisruptor() { disruptor_.reset(); }
  // Server's ServerCiphertext is altered in flight after it committed
  // (equivocation).
  void InjectEquivocatingServer(size_t server_index);
  // Server lies about one client's pad bit during accusation tracing.
  void InjectTraceLiar(size_t server_index, size_t about_client);
  // Every queued envelope is delivered twice (idempotency property tests:
  // engines must produce byte-identical cleartexts under duplication).
  void SetDuplicateDelivery(bool on) { duplicate_delivery_ = on; }
  // Generic in-flight filter: return false to drop the envelope. Lets tests
  // sever specific message types (e.g. one server's VerdictShare frames) to
  // probe degradation paths the network transport would need fault timing
  // to hit.
  using MessageFilter = std::function<bool(const Peer& from, const Peer& to,
                                           const WireMessage& msg)>;
  void SetMessageFilter(MessageFilter filter) { filter_ = std::move(filter); }

  // --- crash-recovery hooks (tests) ---
  // Turns on the ack/retransmit layer and client resync (engine.h) for
  // every engine; call before scheduling. Off by default, which keeps this
  // transport's frame stream the pre-reliability one.
  void EnableReliability(ReliabilityConfig reliability, int64_t resync_timeout_us);
  ServerEngine& server_engine(size_t j) { return *server_engines_[j]; }
  // Server j crashes and restarts from `snapshot`, an earlier
  // SerializeSnapshot of the same server: whatever it ingested since is
  // lost. May be called from a message filter — the crash then falls
  // between two deliveries.
  void RestartServer(size_t j, const Bytes& snapshot);

 private:
  struct RoundRecord {
    Bytes cleartext;
  };
  struct QueuedMsg {
    Peer from;
    Peer to;
    std::shared_ptr<const WireMessage> msg;  // shared with sibling broadcasts
  };
  struct PendingTimer {
    int64_t due;
    uint64_t seq;
    size_t owner;       // server index, or client index when client_owned
    uint64_t token;
    bool client_owned;  // client engines request timers too (PR 6 reliability)
  };
  struct TimerLater {
    bool operator()(const PendingTimer& a, const PendingTimer& b) const {
      return a.due != b.due ? a.due > b.due : a.seq > b.seq;
    }
  };

  // Out-of-band scheduling tail: slots from pseudonym_keys_, open round 1.
  bool FinishScheduling();
  bool SchedulingDone() const;
  ServerEngine::Config ServerConfigFor(size_t j) const;
  void BuildEngines();

  // Zero-latency transport plumbing.
  void DispatchServerActions(size_t j, ServerEngine::Actions actions);
  void DispatchClientActions(size_t i, ClientEngine::Actions actions);
  void DeliverNextQueued();
  void FireEarliestTimer();
  bool RoundResolved(uint64_t round) const;

  GroupDef def_;
  std::vector<SecureRng> client_sched_rngs_;
  std::vector<SecureRng> server_sched_rngs_;
  double scheduling_seconds_ = 0;
  std::vector<BigInt> server_privs_;
  std::vector<std::unique_ptr<DissentClient>> clients_;
  std::vector<std::unique_ptr<DissentServer>> servers_;
  std::vector<std::unique_ptr<ClientEngine>> client_engines_;
  std::vector<std::unique_ptr<ServerEngine>> server_engines_;
  ReliabilityConfig reliability_;
  int64_t resync_timeout_us_ = 0;
  std::vector<bool> online_;
  std::vector<std::vector<uint32_t>> attached_;  // per server: its clients
  std::vector<uint64_t> last_seen_round_;
  std::vector<BigInt> pseudonym_keys_;
  uint64_t next_round_ = 1;
  size_t last_participation_ = 0;
  std::map<uint64_t, RoundRecord> history_;
  std::set<size_t> expelled_clients_;

  // Transport state. Timers are a manual binary heap so stale entries (the
  // per-round 120 s hard-deadline backstops that never fire in a
  // zero-latency transport) can be pruned once their round resolves.
  std::deque<QueuedMsg> queue_;
  std::vector<PendingTimer> timers_;
  int64_t vnow_ = 0;  // virtual clock (µs); advances only on timer fires
  uint64_t timer_seq_ = 0;
  bool session_started_ = false;
  bool halted_ = false;

  // Per-round results gathered while pumping.
  std::map<uint64_t, ServerEngine::RoundDone> server0_done_;
  std::map<uint64_t, size_t> servers_done_count_;
  std::map<uint64_t, size_t> equivocator_seen_;
  std::map<uint64_t, std::pair<size_t, ClientEngine::Delivery>> first_delivery_;

  struct DisruptorHook {
    size_t client;
    size_t bit;
  };
  std::optional<DisruptorHook> disruptor_;
  std::optional<size_t> equivocator_;
  bool duplicate_delivery_ = false;
  MessageFilter filter_;

  // Most recent engine blame verdict (server 0's report) not yet consumed by
  // RunAccusationPhase, plus the wall-clock phase buckets accumulated while
  // delivering blame messages.
  std::optional<ServerEngine::BlameDone> last_blame_;
  double blame_shuffle_seconds_ = 0;
  double blame_trace_seconds_ = 0;
};

}  // namespace dissent

#endif  // DISSENT_CORE_COORDINATOR_H_
