// Real-socket transport for the sans-I/O protocol engines.
//
// Third sibling of Coordinator (in-process) and NetDissent (simulated
// network): ServerNode and ClientHostNode own the engines and map every
// Envelope onto a length-prefixed TCP frame and every TimerRequest onto an
// EventLoop timer. No protocol sequencing lives here — the engines cannot
// disagree with the other transports on order, and the harness pins their
// cleartexts byte-identical per round.
//
// Topology (§3.5 over TCP):
//   * Server links are *directional*: each server dials every sibling and
//     sends only on its outbound connection; inbound connections carry the
//     sibling's frames. Two sockets per pair sidesteps simultaneous-connect
//     races, and loss across a redial is healed by the ReliableMailbox.
//   * A client host process (the machine-multiplexed N-clients-per-process
//     shape) keeps one bidirectional connection to its upstream server;
//     the server replies on the same socket. Hosts redial with backoff.
//   * Identity: a connection is mute until its HMAC hello verifies
//     (net_wire.h); the claimed id range then bounds every claimed client
//     id on that connection, mirroring NetDissent's machine-hosting check.
//
// Scheduling (§3.10) runs as a transport-level pre-engine phase over the
// same sockets: SchedSubmit -> SchedRoster gossip -> SchedMix cascade in
// server order (each step proof-verified as it applies) -> SchedKeys to the
// attached client hosts. Only after the cascade verifies does a server
// construct its engine and open round 1, so no engine ever sees a frame for
// a session that does not yet exist on its own side; frames from faster
// siblings that arrive before scheduling finishes locally are dropped and
// healed by the mailbox.
//
// Crash recovery: SnapshotBytes() captures the pseudonym keys plus the
// engine snapshot (PR 6); a new ServerNode restores with
// RestoreFromSnapshot *instead of* the scheduling phase and resumes
// byte-identically — dissentd wires this to SIGTERM + a state file.
#ifndef DISSENT_NET_SOCKET_TRANSPORT_H_
#define DISSENT_NET_SOCKET_TRANSPORT_H_

#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <vector>

#include "src/core/engine.h"
#include "src/net/deployment.h"
#include "src/net/event_loop.h"
#include "src/net/framing.h"
#include "src/net/net_wire.h"

namespace dissent {
namespace net {

// One TCP connection: nonblocking reads through an incremental FrameDecoder,
// buffered writes with EPOLLOUT-driven backpressure, complete frames handed
// to on_frame in arrival order.
class Connection {
 public:
  using FrameHandler = std::function<void(Connection*, Bytes)>;
  using EventHandler = std::function<void(Connection*)>;

  // Wraps an accepted (already connected) fd.
  Connection(EventLoop* loop, int fd);
  // Dials host:port; on_connect fires when the connect completes (frames
  // queued before that are flushed then). A refused/failed dial reports
  // through on_close.
  Connection(EventLoop* loop, const std::string& host, uint16_t port);
  ~Connection();
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  void set_on_frame(FrameHandler h) { on_frame_ = std::move(h); }
  void set_on_close(EventHandler h) { on_close_ = std::move(h); }
  void set_on_connect(EventHandler h) { on_connect_ = std::move(h); }

  // Frames `payload` and queues it. SendFramed takes pre-framed bytes so a
  // broadcast buffers one shared buffer per recipient instead of copying.
  void Send(const Bytes& payload);
  void SendFramed(std::shared_ptr<const Bytes> framed);
  static std::shared_ptr<const Bytes> Frame(const Bytes& payload);

  void Close();  // idempotent; fires on_close once
  bool closed() const { return fd_ < 0; }
  size_t pending_bytes() const { return pending_bytes_; }
  // Bytes of a partially received frame (nonzero on a mid-frame close).
  size_t partial_frame_bytes() const { return decoder_.buffered(); }

  // Identity established by the hello handshake (owner-managed).
  // `greeted` is the *outbound* side: set once our own hello has been
  // queued, so no protocol frame can precede it on the wire. Frames the
  // owner suppresses while !greeted are healed by the reliable mailbox
  // (engine traffic) or SendSchedStateTo replay (scheduling).
  bool greeted = false;
  bool identified = false;
  uint8_t peer_role = 0;
  uint32_t first_id = 0;
  uint32_t id_count = 0;

 private:
  void Register(uint32_t events);
  void OnEvents(uint32_t events);
  void ReadAll();
  void FlushWrites();
  void UpdateWriteInterest();

  EventLoop* loop_;
  int fd_ = -1;
  bool connecting_ = false;
  bool want_write_ = false;
  FrameDecoder decoder_;
  std::deque<std::pair<std::shared_ptr<const Bytes>, size_t>> outq_;
  size_t pending_bytes_ = 0;
  // Guards deferred loop callbacks (async connect completion/failure)
  // against outliving the connection.
  std::shared_ptr<bool> alive_ = std::make_shared<bool>(true);
  FrameHandler on_frame_;
  EventHandler on_close_;
  EventHandler on_connect_;
};

// One dissent server over real sockets: accepts sibling and client-host
// connections, runs the scheduling phase, then drives a ServerEngine.
class ServerNode {
 public:
  ServerNode(EventLoop* loop, DeployConfig cfg, size_t index);
  ~ServerNode();

  // Binds and listens on cfg.server_port(index). False on bind failure.
  bool Listen();
  // Begins dialing siblings and (unless restored) collecting scheduling
  // submissions. Call after Listen and, when restoring, after
  // RestoreFromSnapshot.
  void Start();

  // --- crash recovery ---
  // Full durable state: pseudonym keys + engine snapshot. Empty until
  // scheduling has finished (there is no session to preserve yet).
  Bytes SnapshotBytes() const;
  // Rebuilds the session from a snapshot instead of running scheduling.
  bool RestoreFromSnapshot(const Bytes& snapshot);
  bool restored() const { return restored_; }

  // --- observability ---
  bool session_started() const { return engine_ != nullptr; }
  uint64_t rounds_completed() const;
  uint64_t retransmits() const;
  uint64_t pipelined_submissions() const;
  bool halted() const;
  // ReliableMailbox health (PR 8): first-time wraps, duplicate deliveries
  // shed, and the peak unacked backlog across all links.
  uint64_t reliable_sent() const;
  uint64_t duplicates_dropped() const;
  uint64_t max_in_flight() const;
  // Abort agreement / re-admission: certificate-retired rounds and rounds
  // re-applied from sibling history after a stale-snapshot restore.
  uint64_t rounds_aborted() const;
  uint64_t catch_up_rounds() const;
  // Wall-clock seconds from session start (or restore) to now/last round.
  double elapsed_seconds() const;
  // Per-round callback (round, RoundDone) — dissentd's cleartext log.
  std::function<void(const ServerEngine::RoundDone&)> on_round;
  // Fires once when rounds_completed() first reaches cfg.rounds.
  std::function<void()> on_target_rounds;

 private:
  void DialSibling(size_t j);
  void OnSiblingConnected(size_t j);
  Connection* AdoptInbound(int fd);
  void DropConnection(Connection* conn);
  void OnFrame(Connection* conn, Bytes payload);
  void OnNetMessage(Connection* conn, NetMessage msg);
  void OnWireMessage(Connection* conn, std::shared_ptr<const WireMessage> msg);
  void HandleHello(Connection* conn, const Hello& hello);

  // Scheduling phase.
  void MaybeBuildOwnRoster();
  void MaybeAssembleMatrix();
  void TryAdvanceCascade();
  void FinishScheduling(std::vector<BigInt> keys);
  void SendToSibling(size_t j, const Bytes& payload);
  void BroadcastToSiblings(const Bytes& payload);
  void SendSchedStateTo(size_t j);

  // One frame to every identified client-host connection.
  void SendToHosts(const std::shared_ptr<const Bytes>& frame);

  // Engine plumbing.
  void Dispatch(ServerEngine::Actions actions);
  void InstallEngine();
  ServerEngine::Config EngineConfig() const;

  EventLoop* loop_;
  DeployConfig cfg_;
  size_t index_;
  GroupDef def_;
  std::vector<BigInt> server_privs_;  // only [index_] is used for mixing
  BigInt priv_;
  Bytes secret_;
  std::vector<uint32_t> attached_;  // client ids attached to this server

  int listen_fd_ = -1;
  std::map<Connection*, std::unique_ptr<Connection>> conns_;
  std::vector<std::unique_ptr<Connection>> graveyard_;
  bool cleanup_scheduled_ = false;
  std::vector<Connection*> sibling_out_;   // outbound, index j (self null)
  std::vector<Connection*> sibling_in_;    // inbound identified as server j
  std::vector<int64_t> dial_backoff_us_;   // per-sibling redial backoff
  // Per-link jitter streams for the redial backoff, seeded from
  // (cfg.seed, self, sibling) and advanced once per retry: desynchronizes
  // reconnect storms deterministically (same seed -> same schedule).
  std::vector<uint64_t> dial_jitter_;
  std::map<uint32_t, Connection*> client_conn_;  // client id -> host conn
  std::set<Connection*> host_conns_;       // identified client-host conns

  // Scheduling state (inert when restored_).
  std::map<uint32_t, Bytes> sched_rows_;  // attached client -> submitted row
  std::vector<std::optional<SchedRoster>> rosters_;
  std::vector<std::optional<Bytes>> mix_steps_;  // serialized, per server
  CiphertextMatrix submissions_;   // merged, client-id order
  CiphertextMatrix cascade_;       // current matrix as steps apply
  std::vector<MixStep> verified_steps_;  // kept for verify_cascade
  size_t steps_applied_ = 0;
  bool own_roster_sent_ = false;
  bool own_step_sent_ = false;
  bool keys_ready_ = false;
  std::shared_ptr<const Bytes> sched_keys_frame_;  // framed SchedKeys

  std::unique_ptr<DissentServer> logic_;
  std::unique_ptr<ServerEngine> engine_;
  std::vector<BigInt> pseudonym_keys_;
  bool restored_ = false;
  int64_t session_start_us_ = 0;
  int64_t last_round_us_ = 0;
  bool target_reported_ = false;
  // Timer lambdas outlive `this` when a node is torn down mid-run (the
  // in-process crash/restore tests do exactly that); they bail through this.
  std::shared_ptr<bool> alive_guard_ = std::make_shared<bool>(true);
};

// One dissent-client process hosting cfg.host_num_clients(host) clients
// multiplexed over a single upstream connection.
class ClientHostNode {
 public:
  ClientHostNode(EventLoop* loop, DeployConfig cfg, size_t host_index);
  ~ClientHostNode();

  // Starts dialing the upstream server (redials with backoff forever).
  void Start();

  size_t first_client() const { return first_; }
  size_t num_clients() const { return count_; }
  // Hosted client `local` (0-based within this host) — the binary queues
  // application payloads here before Start().
  DissentClient& client_logic(size_t local) { return *logic_[local]; }
  bool slots_assigned() const { return slots_assigned_; }
  // Smallest contiguous output round every hosted engine has processed.
  uint64_t min_delivered_round() const;
  uint64_t retransmits() const;
  // Per-delivery callback (global client id, Delivery).
  std::function<void(size_t, const ClientEngine::Delivery&)> on_delivery;

 private:
  void Dial();
  void OnConnected();
  void OnClosed();
  void OnFrame(Bytes payload);
  void HandleSchedKeys(const SchedKeys& msg);
  void Dispatch(size_t local, ClientEngine::Actions actions);

  EventLoop* loop_;
  DeployConfig cfg_;
  size_t host_;
  size_t first_ = 0;
  size_t count_ = 0;
  size_t upstream_ = 0;
  GroupDef def_;
  Bytes secret_;

  std::unique_ptr<Connection> conn_;
  std::unique_ptr<Connection> dead_conn_;  // deferred destruction
  int64_t redial_backoff_us_ = 200 * 1000;
  uint64_t redial_jitter_ = 0;  // seeded per (cfg.seed, host, upstream)

  std::vector<std::unique_ptr<DissentClient>> logic_;
  std::vector<std::unique_ptr<ClientEngine>> engines_;
  // Cached scheduling submissions: the encryption randomness is drawn once
  // at construction, so a reconnect replays byte-identical rows.
  std::vector<Bytes> sched_rows_;
  bool slots_assigned_ = false;
  std::shared_ptr<bool> alive_guard_ = std::make_shared<bool>(true);
};

}  // namespace net
}  // namespace dissent

#endif  // DISSENT_NET_SOCKET_TRANSPORT_H_
