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
// Scheduling (§3.10) is the engines' first sub-phase, so its frames are
// ordinary engine traffic: each ServerNode builds its engine at
// construction, a client host starts its engines (which send their
// scheduling rows) on its first connection, and the mailbox heals what a
// redial loses. The per-node scheduling rngs are net::DeployNodeRng's, so
// the key order equals the sim reference's (DistributedCascadeKeys).
//
// Crash recovery: SnapshotBytes() is the engine snapshot (keys included,
// or the scheduling shuffle so far); a new ServerNode restores with
// RestoreFromSnapshot instead of starting a session and resumes
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
  // owner suppresses while !greeted are healed by the reliable mailbox.
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
// connections and drives a ServerEngine (scheduling sub-phase included).
class ServerNode {
 public:
  ServerNode(EventLoop* loop, DeployConfig cfg, size_t index);
  ~ServerNode();

  // Binds and listens on cfg.server_port(index). False on bind failure.
  bool Listen();
  // Begins dialing siblings and (unless restored) starts the engine's
  // session. Call after Listen and, when restoring, after
  // RestoreFromSnapshot.
  void Start();

  // --- crash recovery ---
  // Full durable state: the engine snapshot.
  Bytes SnapshotBytes() const;
  // Rebuilds the session from a snapshot instead of starting one.
  bool RestoreFromSnapshot(const Bytes& snapshot);
  bool restored() const { return restored_; }

  // --- observability ---
  // True once scheduling has verified and round 1 is open.
  bool session_started() const { return engine_->session_live(); }
  uint64_t rounds_completed() const { return engine_->rounds_completed(); }
  uint64_t retransmits() const { return engine_->retransmits(); }
  uint64_t pipelined_submissions() const { return engine_->pipelined_submissions(); }
  bool halted() const { return engine_->halted(); }
  // ReliableMailbox health (PR 8): first-time wraps, duplicate deliveries
  // shed, and the peak unacked backlog across all links.
  uint64_t reliable_sent() const { return engine_->reliable_sent(); }
  uint64_t duplicates_dropped() const { return engine_->duplicates_dropped(); }
  uint64_t max_in_flight() const { return engine_->max_in_flight(); }
  // Abort agreement / re-admission: certificate-retired rounds and rounds
  // re-applied from sibling history after a stale-snapshot restore.
  uint64_t rounds_aborted() const { return engine_->rounds_aborted(); }
  uint64_t catch_up_rounds() const { return engine_->catch_up_rounds(); }
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
  void OnWireMessage(Connection* conn, std::shared_ptr<const WireMessage> msg);
  void HandleHello(Connection* conn, const Hello& hello);

  // One frame to every identified client-host connection.
  void SendToHosts(const std::shared_ptr<const Bytes>& frame);

  // Engine plumbing: a fresh logic + engine over `logic_rng`.
  void BuildEngine(SecureRng logic_rng);
  void Dispatch(ServerEngine::Actions actions);

  EventLoop* loop_;
  DeployConfig cfg_;
  size_t index_;
  GroupDef def_;
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

  std::unique_ptr<DissentServer> logic_;
  std::unique_ptr<ServerEngine> engine_;
  bool restored_ = false;
  size_t rejected_reported_ = 0;  // scheduling mix steps logged so far
  int64_t session_start_us_ = -1;  // when the session went live (or restored)
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
  bool started_ = false;  // engines started on the first connection
  std::shared_ptr<bool> alive_guard_ = std::make_shared<bool>(true);
};

}  // namespace net
}  // namespace dissent

#endif  // DISSENT_NET_SOCKET_TRANSPORT_H_
