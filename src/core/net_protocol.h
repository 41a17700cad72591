// Simulated-network transport for the sans-I/O protocol engines.
//
// NetDissent is a thin shim: it owns one ServerEngine per server and one
// ClientEngine per client (engine.h), maps every Envelope the engines emit
// onto a sim::Network send (serialized with the typed wire codec, wire.h),
// and maps every TimerRequest onto a Simulator::Schedule callback. All
// protocol sequencing — submission windows, the gossip cascade of
// Algorithm 2, pipelined rounds — lives in the engines; this file only
// models the deployment topology of §3.5 (clients speak to one upstream
// server; servers form a full mesh) plus client think-time jitter.
//
// Paper-scale topology (§5.2): clients are multiplexed onto *machines*
// (`clients_per_machine`), exactly like the DeterLab/PlanetLab testbeds ran
// 5,000 clients on ~100 hosts. A machine is one sim::Network node: its
// clients share its NIC (uplink serialization) and its links. The engines'
// single kAttachedClients Output envelope fans out as one ref-counted frame
// per attached machine, parsed once per frame and handed to every
// co-located client — per-round distribution cost scales with machines, not
// clients.
//
// Scheduling (the key shuffle) is the engines' first sub-phase, so it runs
// over the simulated network like everything else; Start() steps the
// simulation until it is done. `direct_scheduling` (slot i = client i) and
// `preset_pseudonym_keys` install keys out of band instead, for scale runs
// where the cascade's cost would dwarf the rounds under test and for the
// socket transport's byte-identity reference.
//
// With Options::pipeline_depth > 1, submissions for round r+1 are accepted
// while round r is still combining/certifying (Verdict/Riposte-style round
// overlap); rounds/sec on latency-bound topologies scales accordingly.
#ifndef DISSENT_CORE_NET_PROTOCOL_H_
#define DISSENT_CORE_NET_PROTOCOL_H_

#include <deque>
#include <memory>
#include <optional>

#include "src/core/engine.h"
#include "src/core/key_shuffle.h"
#include "src/sim/latency_model.h"
#include "src/sim/network.h"
#include "src/util/rng.h"

namespace dissent {

class NetDissent {
 public:
  struct Options {
    LinkSpec client_link{.latency = 50 * kMillisecond, .bandwidth_bps = 12.5e6};
    LinkSpec server_link{.latency = 10 * kMillisecond, .bandwidth_bps = 12.5e6};
    // Shared per-node NIC serialization (one queue per sender, not one per
    // destination). Bandwidth 0 disables the queue — the pre-machine model.
    LinkSpec machine_uplink{.latency = 0, .bandwidth_bps = 0};
    LinkSpec server_uplink{.latency = 0, .bandwidth_bps = 0};
    // Submission window: close at multiplier * t(fraction) after round start,
    // bounded by hard_deadline.
    double window_fraction = 0.95;
    double window_multiplier = 1.1;
    SimTime hard_deadline = 120 * kSecond;
    // Adaptive window sizing from the previous round's observed
    // participation (engine.h); the paper's static attached-share policy
    // when false.
    bool adaptive_window = true;
    // Client think time before submitting each round (models app + OS).
    SimTime client_jitter_max = 5 * kMillisecond;
    // Heavy-tailed per-round submission delay + dropout (PlanetLab, §5.1).
    // When set, replaces the uniform jitter; a "never" draw skips that
    // client's submission for the round entirely.
    std::optional<PlanetLabDelayModel> submit_delay;
    // Concurrent in-flight rounds (1 = strictly sequential protocol).
    size_t pipeline_depth = 1;
    // --- paper-scale topology ---
    // Clients hosted per machine node (§5.2 testbed multiplexing). Machine m
    // hosts clients [m*k, (m+1)*k) and attaches to server m % M; with k = 1
    // this degenerates to the original one-node-per-client topology and the
    // original i % M attachment.
    size_t clients_per_machine = 1;
    // Skip the verified key shuffle; assign slot i to client i.
    bool direct_scheduling = false;
    // Externally computed shuffle result (final pseudonym-key order):
    // Start() installs these instead of running the cascade itself, so a
    // distributed deployment's per-node rng discipline can be reproduced
    // exactly when this driver serves as the byte-identity reference for
    // the socket transport. Ignored when direct_scheduling is set.
    std::optional<std::vector<BigInt>> preset_pseudonym_keys;
    // Rounds of accusation evidence each server retains (0 => none, keeping
    // per-round server ciphertext memory strictly O(L)).
    size_t evidence_rounds = DissentServer::kEvidenceRounds;
    // --- hostile-network survival (PR 6) ---
    // Chaos layer: loss/duplication/reordering/corruption/partitions applied
    // by sim::Network, plus timed server crash/restart windows enacted here
    // (Crash::node is a *server index*; the engine is torn down at down_at
    // and rebuilt from its serialized snapshot at up_at).
    std::optional<sim::FaultPlan> fault_plan;
    // Ack/retransmit with capped exponential backoff on every unicast
    // engine envelope (engine.h ReliableMailbox). Off by default: the clean
    // fast path stays byte-identical to the pre-reliability protocol.
    ReliabilityConfig reliability;
    // Client stall detector: after this long without a new certified round
    // the client asks its upstream server for the signed summaries it
    // missed (CatchUpRequest) and re-sends its in-flight submissions.
    // 0 disables (historical gap-tolerant ingest).
    SimTime resync_timeout = 0;
    // Fleet-voted degradation: a round unfinished this long after opening
    // is aborted by server vote instead of stalling the pipeline forever.
    // 0 disables.
    SimTime abort_deadline = 0;
    // Epoch-committed two-phase abort agreement (signed AbortPrepare votes,
    // AbortCommit certificates, server catch-up/re-admission). False runs
    // the legacy one-shot RoundAbort broadcast — the split-brain negative
    // control. Only meaningful with abort_deadline > 0.
    bool abort_agreement = true;
    // Signed RoundSummaries each server retains for catch-up service.
    size_t output_history = 64;
    // 64-bit FNV-1a trailer on every frame, verified and stripped on
    // receipt; a mismatch (chaos-layer corruption) downgrades to a clean
    // drop, which the reliability layer then repairs. Without this,
    // corruption that still parses could poison a round irrecoverably.
    bool frame_checksums = false;
  };

  NetDissent(GroupDef def, std::vector<BigInt> server_privs, std::vector<BigInt> client_privs,
             Simulator* sim, Options options, uint64_t seed);
  ~NetDissent();

  // Starts every engine at the current sim time. With keys installed out
  // of band, round 1 opens at once; otherwise the engines' key shuffle runs
  // first and Start() steps the simulation until every server has opened
  // round 1 and every online client holds its slot. False if the shuffle
  // stalls (within Options::hard_deadline of sim time).
  bool Start();

  DissentClient& client(size_t i);
  DissentServer& server(size_t j);
  // Engine access for tests (retransmit counters, resync progress).
  ClientEngine& client_engine(size_t i);
  ServerEngine& server_engine(size_t j);
  void SetClientOnline(size_t i, bool online);

  // Observability for tests/benches.
  uint64_t rounds_completed() const { return rounds_completed_; }
  // Wall-clock seconds the verified key-shuffle cascade took inside Start()
  // (prove + verify at every server, plus simulating its traffic); 0 with
  // keys installed out of band. The scale benches report this as the
  // control-plane setup cost.
  double scheduling_seconds() const { return scheduling_seconds_; }
  size_t last_participation() const { return last_participation_; }
  const std::vector<std::pair<size_t, Bytes>>& delivered_messages() const {
    return delivered_;
  }
  SimTime last_round_duration() const { return last_round_duration_; }
  // Cleartexts of completed rounds, in order (as seen by server 0) — lets
  // tests compare engine output byte-for-byte against the in-process driver.
  const std::vector<Bytes>& round_cleartexts() const { return cleartexts_; }
  // Stop retaining per-round cleartexts/messages (long bench runs).
  void SetRecordCleartexts(bool on) { record_cleartexts_ = on; }
  // Total submissions accepted for a round while an earlier round was still
  // in flight, across all servers; nonzero iff pipelining overlapped rounds.
  uint64_t pipelined_submissions() const;
  // Largest combining state any server held across its in-flight rounds
  // (accumulator + built ciphertext bytes; see DissentServer). O(depth * L)
  // for the streaming engine regardless of client count.
  size_t peak_round_state_bytes() const;
  Network& network() { return net_; }

  // --- blame sub-phase (§3.9) ---
  // Adversarial hook: client `disruptor` has a 1 XORed into `bit` of every
  // DC-net ciphertext it submits (tampered in flight, where a real attacker
  // sits); mirrors Coordinator::InjectDisruptor for transport equivalence.
  void InjectDisruptor(size_t disruptor, size_t bit);
  void ClearDisruptor() { disruptor_.reset(); }
  // Blame verdicts reached so far (server 0's reports, in order).
  const std::vector<ServerEngine::BlameDone>& blame_outcomes() const { return blame_done_; }
  // True while any server engine has a blame instance pending or active.
  bool blame_in_progress() const;

  // --- hostile-network observability (PR 6) ---
  // Total reliable-frame retransmissions across every engine (servers and
  // clients); the retransmit-overhead bench column derives from this plus
  // Network::bytes_sent.
  uint64_t retransmits() const;
  // Frames dropped because their FNV trailer failed verification.
  uint64_t checksum_drops() const { return checksum_drops_; }
  // Fleet-voted round aborts (server 0's count).
  uint64_t rounds_aborted() const;
  // Server crash/restart cycles the harness has enacted.
  uint64_t server_restarts() const { return server_restarts_; }
  // Crash-recovery hook (tests): server j crashes now and restarts at once
  // from `snapshot`, an earlier SerializeSnapshot of the same server —
  // whatever it ingested since is lost.
  void RestartServer(size_t j, Bytes snapshot);

 private:
  struct ServerNode;
  struct ClientNode;
  struct MachineNode;

  // Serialize-once cache for consecutive broadcast envelopes sharing one
  // payload object (keyed by pointer identity).
  struct SerializeCache {
    const WireMessage* msg = nullptr;
    Network::Frame frame;
  };

  void DispatchServer(size_t j, ServerEngine::Actions actions);
  void DispatchClient(size_t i, ClientEngine::Actions actions);
  void SendEnvelope(size_t server_index, const Envelope& env, SerializeCache& cache);
  void SubmitWithDelay(size_t client_index, Network::Frame frame, bool round_paced);
  void DeliverToServer(size_t j, NodeId from, const Network::Frame& payload);
  void DeliverToMachine(size_t m, NodeId from, const Network::Frame& payload);
  // Serializes a message for the wire, appending the FNV trailer when
  // frame_checksums is on.
  Network::Frame MakeFrame(const WireMessage& msg);
  // Crash harness (fault_plan crash windows): snapshot + teardown at
  // down_at, rebuild from the snapshot at up_at.
  void CrashServer(size_t j);
  void RestoreServer(size_t j);
  ServerEngine::Config ServerConfigFor(size_t j) const;
  // Parse each distinct frame exactly once: broadcast deliveries share the
  // frame object, so the parse result is cached by frame identity.
  std::shared_ptr<const WireMessage> ParseFrame(const Network::Frame& frame);

  GroupDef def_;
  std::vector<BigInt> server_privs_;
  Simulator* sim_;
  Network net_;
  Options options_;
  SecureRng rng_;
  Rng jitter_;

  std::vector<std::unique_ptr<ClientNode>> clients_;
  std::vector<std::unique_ptr<ServerNode>> servers_;
  std::vector<MachineNode> machines_;
  uint64_t rounds_completed_ = 0;
  double scheduling_seconds_ = 0;
  size_t last_participation_ = 0;
  SimTime last_round_duration_ = 0;
  bool record_cleartexts_ = true;
  std::vector<std::pair<size_t, Bytes>> delivered_;
  std::vector<Bytes> cleartexts_;

  struct ParseCacheEntry {
    const Bytes* key = nullptr;
    std::weak_ptr<const Bytes> key_owner;  // expiry guard against reuse
    std::shared_ptr<const WireMessage> msg;
  };
  std::deque<ParseCacheEntry> parse_cache_;

  struct DisruptorHook {
    size_t client;
    size_t bit;
  };
  std::optional<DisruptorHook> disruptor_;
  std::vector<ServerEngine::BlameDone> blame_done_;

  uint64_t checksum_drops_ = 0;
  uint64_t server_restarts_ = 0;
};

}  // namespace dissent

#endif  // DISSENT_CORE_NET_PROTOCOL_H_
