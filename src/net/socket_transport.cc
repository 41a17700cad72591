#include "src/net/socket_transport.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>

#include "src/core/wire.h"
#include "src/util/serialize.h"

namespace dissent {
namespace net {

namespace {

// Backpressure guard: a peer that never drains lets the write queue grow;
// past this the connection is torn down (the mailbox re-delivers protocol
// frames on the replacement).
constexpr size_t kMaxPendingWriteBytes = 1u << 30;

int SetNonBlocking(int fd) {
  int flags = fcntl(fd, F_GETFL, 0);
  return fcntl(fd, F_SETFL, flags | O_NONBLOCK);
}

// Deterministic redial jitter: one splitmix64 stream per link, seeded from
// (deployment seed, dialer, peer). A whole fleet restarting after a fault
// would otherwise redial in lockstep (every backoff doubles from the same
// 200 ms), hammering the listener in synchronized bursts; a seeded stream
// spreads the retries while keeping any given run exactly reproducible.
uint64_t JitterSeed(uint64_t seed, uint64_t self, uint64_t peer) {
  return seed ^ (self * 0x9e3779b97f4a7c15ull) ^ (peer * 0xc2b2ae3d27d4eb4full);
}

// Advances the stream and returns a jitter in [0, delay/4].
int64_t NextBackoffJitter(uint64_t& state, int64_t delay) {
  state += 0x9e3779b97f4a7c15ull;
  uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  z ^= z >> 31;
  return static_cast<int64_t>(z % static_cast<uint64_t>(delay / 4 + 1));
}

}  // namespace

// ---------------------------------------------------------------------------
// Connection

Connection::Connection(EventLoop* loop, int fd) : loop_(loop), fd_(fd) {
  SetNonBlocking(fd_);
  int one = 1;
  setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  Register(EPOLLIN | EPOLLET);
}

Connection::Connection(EventLoop* loop, const std::string& host, uint16_t port)
    : loop_(loop) {
  fd_ = socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (fd_ < 0) {
    return;
  }
  int one = 1;
  setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd_);
    fd_ = -1;
    return;
  }
  connecting_ = true;
  const int rc = connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr));
  if (rc != 0 && errno != EINPROGRESS) {
    // Loopback can refuse synchronously (the peer is not listening yet).
    // Report asynchronously through on_close so the owner — which has not
    // set its handlers yet — sees the same path as an async failure.
    ::close(fd_);
    fd_ = -1;
    auto alive = alive_;
    loop_->ScheduleAfter(0, [this, alive] {
      if (*alive && on_close_) {
        on_close_(this);
      }
    });
    return;
  }
  if (rc == 0) {
    // Connected synchronously; deliver on_connect asynchronously so the
    // owner can set handlers first.
    auto alive = alive_;
    loop_->ScheduleAfter(0, [this, alive] {
      if (*alive && fd_ >= 0 && connecting_) {
        connecting_ = false;
        if (on_connect_) {
          on_connect_(this);
        }
        if (fd_ >= 0) {
          FlushWrites();
        }
      }
    });
  }
  Register(EPOLLIN | EPOLLET | EPOLLOUT);
  want_write_ = true;
}

Connection::~Connection() {
  *alive_ = false;
  on_close_ = nullptr;  // destruction is not a close event
  Close();
}

void Connection::Register(uint32_t events) {
  loop_->AddFd(fd_, events, [this](uint32_t ev) { OnEvents(ev); });
}

void Connection::OnEvents(uint32_t events) {
  if (fd_ < 0) {
    return;
  }
  if (connecting_ && (events & (EPOLLOUT | EPOLLERR | EPOLLHUP))) {
    int err = 0;
    socklen_t len = sizeof(err);
    getsockopt(fd_, SOL_SOCKET, SO_ERROR, &err, &len);
    if (err != 0) {
      Close();
      return;
    }
    connecting_ = false;
    if (on_connect_) {
      on_connect_(this);
    }
    if (fd_ < 0) {
      return;
    }
    FlushWrites();
    if (fd_ < 0) {
      return;
    }
  }
  if (events & EPOLLIN) {
    ReadAll();
    if (fd_ < 0) {
      return;
    }
  }
  if (events & EPOLLOUT) {
    FlushWrites();
    if (fd_ < 0) {
      return;
    }
  }
  if (events & (EPOLLERR | EPOLLHUP)) {
    Close();
  }
}

void Connection::ReadAll() {
  uint8_t buf[65536];
  for (;;) {
    const ssize_t n = ::read(fd_, buf, sizeof(buf));
    if (n > 0) {
      if (!decoder_.Feed(buf, static_cast<size_t>(n))) {
        Close();  // oversized frame: protocol violation
        return;
      }
      while (auto frame = decoder_.Next()) {
        if (on_frame_) {
          on_frame_(this, std::move(*frame));
        }
        if (fd_ < 0) {
          return;  // a handler closed us
        }
      }
      continue;
    }
    if (n == 0) {
      Close();  // peer closed (possibly mid-frame; decoder_.buffered() > 0)
      return;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      return;  // drained (edge-triggered contract)
    }
    if (errno == EINTR) {
      continue;
    }
    Close();
    return;
  }
}

void Connection::FlushWrites() {
  while (!outq_.empty()) {
    auto& [buf, off] = outq_.front();
    // MSG_NOSIGNAL: a peer that died between epoll batches must surface as
    // EPIPE (-> Close -> redial), never as process-fatal SIGPIPE.
    const ssize_t n =
        ::send(fd_, buf->data() + off, buf->size() - off, MSG_NOSIGNAL);
    if (n > 0) {
      off += static_cast<size_t>(n);
      pending_bytes_ -= static_cast<size_t>(n);
      if (off == buf->size()) {
        outq_.pop_front();
      }
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      break;
    }
    if (n < 0 && errno == EINTR) {
      continue;
    }
    Close();
    return;
  }
  UpdateWriteInterest();
}

void Connection::UpdateWriteInterest() {
  if (fd_ < 0) {
    return;
  }
  const bool want = !outq_.empty() || connecting_;
  if (want != want_write_) {
    want_write_ = want;
    loop_->ModFd(fd_, EPOLLIN | EPOLLET | (want ? uint32_t{EPOLLOUT} : 0u));
  }
}

std::shared_ptr<const Bytes> Connection::Frame(const Bytes& payload) {
  return std::make_shared<const Bytes>(EncodeFrame(payload));
}

void Connection::Send(const Bytes& payload) { SendFramed(Frame(payload)); }

void Connection::SendFramed(std::shared_ptr<const Bytes> framed) {
  if (fd_ < 0) {
    return;
  }
  pending_bytes_ += framed->size();
  if (pending_bytes_ > kMaxPendingWriteBytes) {
    Close();
    return;
  }
  outq_.emplace_back(std::move(framed), 0);
  if (!connecting_) {
    FlushWrites();
  }
}

void Connection::Close() {
  if (fd_ < 0) {
    return;
  }
  loop_->DelFd(fd_);
  ::close(fd_);
  fd_ = -1;
  if (on_close_) {
    // May hand us to the owner's graveyard; nothing after this touches
    // members, so the deferred destruction pattern is safe.
    on_close_(this);
  }
}

// ---------------------------------------------------------------------------
// ServerNode

ServerNode::ServerNode(EventLoop* loop, DeployConfig cfg, size_t index)
    : loop_(loop), cfg_(std::move(cfg)), index_(index) {
  std::vector<BigInt> server_privs;
  def_ = BuildDeployGroup(cfg_, &server_privs, nullptr);
  priv_ = server_privs[index_];
  secret_ = SessionSecret(cfg_.seed, def_.Id());
  for (size_t i = 0; i < cfg_.num_clients; ++i) {
    const size_t h = i / cfg_.clients_per_host;
    if (cfg_.host_upstream(h) == index_) {
      attached_.push_back(static_cast<uint32_t>(i));
    }
  }
  sibling_out_.assign(cfg_.num_servers, nullptr);
  sibling_in_.assign(cfg_.num_servers, nullptr);
  dial_backoff_us_.assign(cfg_.num_servers, 200 * 1000);
  dial_jitter_.resize(cfg_.num_servers);
  for (size_t j = 0; j < cfg_.num_servers; ++j) {
    dial_jitter_[j] = JitterSeed(cfg_.seed, index_, j);
  }
  BuildEngine(DeployNodeRng(cfg_, DeployRngKind::kServerLogic, index_));
}

void ServerNode::BuildEngine(SecureRng logic_rng) {
  logic_ = std::make_unique<DissentServer>(def_, index_, priv_, std::move(logic_rng),
                                           std::max<size_t>(cfg_.pipeline_depth, 1));
  logic_->SetEvidenceRounds(cfg_.evidence_rounds);
  ServerEngine::Config ec;
  ec.window_fraction = cfg_.window_fraction;
  ec.window_multiplier = cfg_.window_multiplier;
  ec.hard_deadline_us = cfg_.hard_deadline_us;
  ec.adaptive_window = false;
  ec.pipeline_depth = std::max<size_t>(cfg_.pipeline_depth, 1);
  ec.attached_clients = attached_;
  ec.reliability = cfg_.reliability;
  ec.output_history = cfg_.output_history;
  ec.abort_deadline_us = cfg_.abort_deadline_us;
  ec.abort_agreement = cfg_.abort_agreement;
  engine_ = std::make_unique<ServerEngine>(
      logic_.get(), def_, ec, DeployNodeRng(cfg_, DeployRngKind::kServerSched, index_));
}

ServerNode::~ServerNode() {
  *alive_guard_ = false;
  if (listen_fd_ >= 0) {
    loop_->DelFd(listen_fd_);
    ::close(listen_fd_);
  }
}

bool ServerNode::Listen() {
  listen_fd_ = socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (listen_fd_ < 0) {
    return false;
  }
  int one = 1;
  setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(cfg_.server_port(index_));
  if (inet_pton(AF_INET, cfg_.host.c_str(), &addr.sin_addr) != 1 ||
      bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0 ||
      listen(listen_fd_, 511) < 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    return false;
  }
  loop_->AddFd(listen_fd_, EPOLLIN | EPOLLET, [this](uint32_t) {
    for (;;) {
      const int fd = accept4(listen_fd_, nullptr, nullptr, SOCK_NONBLOCK | SOCK_CLOEXEC);
      if (fd < 0) {
        return;  // EAGAIN (drained) or transient error; ET re-arms on next conn
      }
      AdoptInbound(fd);
    }
  });
  return true;
}

void ServerNode::Start() {
  for (size_t j = 0; j < cfg_.num_servers; ++j) {
    if (j != index_) {
      DialSibling(j);
    }
  }
  if (!restored_) {
    Dispatch(engine_->StartSession(loop_->NowUs()));
  }
}

Connection* ServerNode::AdoptInbound(int fd) {
  auto conn = std::make_unique<Connection>(loop_, fd);
  Connection* c = conn.get();
  conns_[c] = std::move(conn);
  c->set_on_close([this](Connection* dead) { DropConnection(dead); });
  c->set_on_frame([this](Connection* from, Bytes payload) { OnFrame(from, std::move(payload)); });
  return c;
}

void ServerNode::DropConnection(Connection* conn) {
  for (size_t j = 0; j < sibling_in_.size(); ++j) {
    if (sibling_in_[j] == conn) {
      sibling_in_[j] = nullptr;
    }
  }
  for (size_t j = 0; j < sibling_out_.size(); ++j) {
    if (sibling_out_[j] == conn) {
      sibling_out_[j] = nullptr;
      // Redial with backoff (plus seeded per-link jitter) so a restarted
      // sibling regains its link without the fleet retrying in lockstep.
      const int64_t delay =
          dial_backoff_us_[j] + NextBackoffJitter(dial_jitter_[j], dial_backoff_us_[j]);
      dial_backoff_us_[j] = std::min<int64_t>(dial_backoff_us_[j] * 2, 2 * 1000000);
      auto alive = alive_guard_;
      loop_->ScheduleAfter(delay, [this, j, alive] {
        if (*alive && sibling_out_[j] == nullptr) {
          DialSibling(j);
        }
      });
    }
  }
  host_conns_.erase(conn);
  for (auto it = client_conn_.begin(); it != client_conn_.end();) {
    it = it->second == conn ? client_conn_.erase(it) : std::next(it);
  }
  auto it = conns_.find(conn);
  if (it != conns_.end()) {
    if (!conn->closed()) {
      conn->set_on_close(nullptr);
      conn->Close();
    }
    graveyard_.push_back(std::move(it->second));
    conns_.erase(it);
    if (!cleanup_scheduled_) {
      cleanup_scheduled_ = true;
      auto alive = alive_guard_;
      loop_->ScheduleAfter(0, [this, alive] {
        if (*alive) {
          graveyard_.clear();
          cleanup_scheduled_ = false;
        }
      });
    }
  }
}

void ServerNode::DialSibling(size_t j) {
  auto conn =
      std::make_unique<Connection>(loop_, cfg_.host, cfg_.sibling_dial_port(index_, j));
  Connection* c = conn.get();
  conns_[c] = std::move(conn);
  sibling_out_[j] = c;
  c->set_on_close([this](Connection* dead) { DropConnection(dead); });
  // The outbound leg is send-only; inbound sibling frames arrive on the
  // sibling's own dial to us.
  c->set_on_connect([this, j](Connection*) { OnSiblingConnected(j); });
}

void ServerNode::OnSiblingConnected(size_t j) {
  dial_backoff_us_[j] = 200 * 1000;
  Connection* c = sibling_out_[j];
  if (c == nullptr) {
    return;
  }
  const uint64_t nonce = static_cast<uint64_t>(loop_->NowUs()) ^ (index_ << 48);
  c->Send(SerializeNet(MakeHello(secret_, Hello::kServer, static_cast<uint32_t>(index_), 1,
                                 nonce)));
  // Only now may protocol frames flow: anything queued while the dial was
  // still in flight would have preceded the hello and been dropped as
  // unauthenticated by the sibling (the reliable mailbox re-sends it).
  c->greeted = true;
}

void ServerNode::OnFrame(Connection* conn, Bytes payload) {
  if (IsNetFrame(payload)) {
    auto msg = ParseNet(payload);
    if (!msg.has_value()) {
      DropConnection(conn);
      return;
    }
    HandleHello(conn, std::get<Hello>(*msg));
    return;
  }
  if (!conn->identified) {
    DropConnection(conn);  // protocol frames before hello: not authenticated
    return;
  }
  auto msg = ParseWireShared(payload);
  if (msg == nullptr) {
    return;
  }
  OnWireMessage(conn, std::move(msg));
}

void ServerNode::HandleHello(Connection* conn, const Hello& hello) {
  if (conn->identified || !VerifyHello(secret_, hello)) {
    DropConnection(conn);
    return;
  }
  if (hello.role == Hello::kServer) {
    const uint32_t j = hello.first_id;
    if (hello.count != 1 || j >= cfg_.num_servers || j == index_) {
      DropConnection(conn);
      return;
    }
    if (sibling_in_[j] != nullptr) {
      DropConnection(sibling_in_[j]);  // stale link from a dead incarnation
    }
    sibling_in_[j] = conn;
  } else {
    const uint32_t first = hello.first_id;
    const uint32_t count = hello.count;
    const size_t h = first / cfg_.clients_per_host;
    if (first % cfg_.clients_per_host != 0 || count != cfg_.host_num_clients(h) ||
        count == 0 || cfg_.host_upstream(h) != index_) {
      DropConnection(conn);
      return;
    }
    for (uint32_t i = first; i < first + count; ++i) {
      auto it = client_conn_.find(i);
      if (it != client_conn_.end() && it->second != conn) {
        DropConnection(it->second);  // replaced by a reconnect
      }
      client_conn_[i] = conn;
    }
    host_conns_.insert(conn);
  }
  conn->identified = true;
  conn->peer_role = hello.role;
  conn->first_id = hello.first_id;
  conn->id_count = hello.count;
}

Bytes ServerNode::SnapshotBytes() const { return engine_->SerializeSnapshot(); }

bool ServerNode::RestoreFromSnapshot(const Bytes& snapshot) {
  // Fresh logic; RestoreState (inside RestoreSnapshot) reseeds its rng
  // deterministically from the state bytes, so the seed here is irrelevant.
  BuildEngine(SecureRng::FromLabel(0x52455354u ^ index_));
  auto actions = engine_->RestoreSnapshot(snapshot, loop_->NowUs());
  if (!actions.has_value()) {
    return false;
  }
  restored_ = true;
  Dispatch(std::move(*actions));
  return true;
}

void ServerNode::OnWireMessage(Connection* conn, std::shared_ptr<const WireMessage> msg) {
  Peer peer;
  if (conn->peer_role == Hello::kServer) {
    peer = ServerPeer(conn->first_id);
  } else {
    // Claimed client ids are authentic iff inside the connection's hello
    // range (NetDissent's machine-hosting check, per-connection).
    uint32_t claimed;
    if (const auto* submit = std::get_if<wire::ClientSubmit>(msg.get())) {
      claimed = submit->client_id;
    } else if (const auto* acc = std::get_if<wire::AccusationSubmit>(msg.get())) {
      claimed = acc->client_id;
    } else if (const auto* rebuttal = std::get_if<wire::BlameRebuttal>(msg.get())) {
      claimed = rebuttal->client_id;
    } else if (const auto* catch_up = std::get_if<wire::CatchUpRequest>(msg.get())) {
      claimed = catch_up->client_id;
    } else if (const auto* rel = std::get_if<wire::Reliable>(msg.get())) {
      claimed = rel->from_id;
    } else if (const auto* ack = std::get_if<wire::Ack>(msg.get())) {
      claimed = ack->from_id;
    } else {
      return;
    }
    if (claimed < conn->first_id || claimed >= conn->first_id + conn->id_count) {
      return;
    }
    peer = ClientPeer(claimed);
  }
  Dispatch(engine_->HandleMessage(peer, *msg, loop_->NowUs()));
}

void ServerNode::SendToHosts(const std::shared_ptr<const Bytes>& frame) {
  // A send to a host that has gone away fails and closes the connection,
  // which erases it from host_conns_ mid-loop: walk a copy. The closed
  // Connection itself stays valid (DropConnection defers its destruction),
  // and SendFramed on it is a no-op.
  const std::vector<Connection*> hosts(host_conns_.begin(), host_conns_.end());
  for (Connection* c : hosts) {
    c->SendFramed(frame);
  }
}

void ServerNode::Dispatch(ServerEngine::Actions actions) {
  // Serialize once per shared payload: broadcast envelopes are emitted
  // consecutively and alias one message object.
  const WireMessage* cache_key = nullptr;
  std::shared_ptr<const Bytes> cache_frame;
  for (const Envelope& env : actions.out) {
    if (env.msg.get() != cache_key) {
      cache_key = env.msg.get();
      cache_frame = FrameWire(*env.msg);
    }
    switch (env.to.kind) {
      case Peer::Kind::kServer:
        if (env.to.index < sibling_out_.size() && sibling_out_[env.to.index] != nullptr &&
            sibling_out_[env.to.index]->greeted) {
          sibling_out_[env.to.index]->SendFramed(cache_frame);
        }
        break;
      case Peer::Kind::kClient: {
        auto it = client_conn_.find(env.to.index);
        if (it != client_conn_.end()) {
          it->second->SendFramed(cache_frame);
        }
        break;
      }
      case Peer::Kind::kAttachedClients:
        // One frame per client-hosting connection; the hosts fan out
        // in-process, so distribution cost scales with processes.
        SendToHosts(cache_frame);
        break;
    }
  }
  for (const TimerRequest& t : actions.timers) {
    auto alive = alive_guard_;
    loop_->ScheduleAfter(t.delay_us, [this, alive, token = t.token] {
      if (*alive) {
        Dispatch(engine_->HandleTimer(token, loop_->NowUs()));
      }
    });
  }
  if (session_start_us_ < 0 && engine_->session_live()) {
    session_start_us_ = last_round_us_ = loop_->NowUs();
  }
  while (rejected_reported_ < engine_->rejected_mix_steps().size()) {
    std::fprintf(stderr, "server %zu: mix step %u failed verification\n", index_,
                 engine_->rejected_mix_steps()[rejected_reported_++]);
  }
  for (const ServerEngine::RoundDone& done : actions.done) {
    last_round_us_ = loop_->NowUs();
    if (on_round) {
      on_round(done);
    }
  }
  if (!target_reported_ && cfg_.rounds > 0 && engine_->rounds_completed() >= cfg_.rounds) {
    target_reported_ = true;
    if (on_target_rounds) {
      on_target_rounds();
    }
  }
}

double ServerNode::elapsed_seconds() const {
  return session_start_us_ < 0 ? 0.0
                               : static_cast<double>(last_round_us_ - session_start_us_) / 1e6;
}

// ---------------------------------------------------------------------------
// ClientHostNode

ClientHostNode::ClientHostNode(EventLoop* loop, DeployConfig cfg, size_t host_index)
    : loop_(loop), cfg_(std::move(cfg)), host_(host_index) {
  first_ = cfg_.host_first_client(host_);
  count_ = cfg_.host_num_clients(host_);
  upstream_ = cfg_.host_upstream(host_);
  std::vector<BigInt> client_privs;
  def_ = BuildDeployGroup(cfg_, nullptr, &client_privs);
  secret_ = SessionSecret(cfg_.seed, def_.Id());
  // Hosts occupy the id space above the servers in the jitter seeding.
  redial_jitter_ = JitterSeed(cfg_.seed, cfg_.num_servers + host_, upstream_);
  const size_t depth = std::max<size_t>(cfg_.pipeline_depth, 1);
  for (size_t k = 0; k < count_; ++k) {
    const size_t i = first_ + k;
    logic_.push_back(std::make_unique<DissentClient>(
        def_, i, client_privs[i], DeployNodeRng(cfg_, DeployRngKind::kClientLogic, i), depth));
    ClientEngine::Config ec;
    ec.upstream_server = static_cast<uint32_t>(upstream_);
    ec.pipeline_depth = depth;
    ec.auto_submit = true;
    ec.reliability = cfg_.reliability;
    ec.resync_timeout_us = cfg_.resync_timeout_us;
    engines_.push_back(std::make_unique<ClientEngine>(
        logic_.back().get(), def_, ec, DeployNodeRng(cfg_, DeployRngKind::kClientSched, i)));
  }
}

ClientHostNode::~ClientHostNode() { *alive_guard_ = false; }

void ClientHostNode::Start() { Dial(); }

void ClientHostNode::Dial() {
  conn_ = std::make_unique<Connection>(loop_, cfg_.host, cfg_.client_dial_port(upstream_));
  conn_->set_on_connect([this](Connection*) { OnConnected(); });
  conn_->set_on_close([this](Connection*) { OnClosed(); });
  conn_->set_on_frame([this](Connection*, Bytes payload) { OnFrame(std::move(payload)); });
}

void ClientHostNode::OnConnected() {
  // Pin the connection for the whole greeting: a Send can fail synchronously
  // (peer reset between accept and our first write) and Close -> OnClosed
  // moves conn_ into dead_conn_ mid-call. The object itself outlives this
  // frame there, and Send on a closed connection is a no-op, so the raw
  // pointer stays safe where re-reading the conn_ member would not.
  Connection* c = conn_.get();
  redial_backoff_us_ = 200 * 1000;
  const uint64_t nonce = static_cast<uint64_t>(loop_->NowUs()) ^ (first_ << 20);
  c->Send(SerializeNet(MakeHello(secret_, Hello::kClientHost,
                                 static_cast<uint32_t>(first_),
                                 static_cast<uint32_t>(count_), nonce)));
  c->greeted = true;
  // The first connection starts the session: each engine sends its
  // scheduling row (later redials leave re-sending to the mailbox).
  if (!started_) {
    started_ = true;
    for (size_t local = 0; local < engines_.size(); ++local) {
      Dispatch(local, engines_[local]->StartSession(loop_->NowUs()));
    }
  }
}

void ClientHostNode::OnClosed() {
  // Defer destruction (we are inside the connection's callback) and redial
  // with the same seeded jitter discipline as the sibling links.
  dead_conn_ = std::move(conn_);
  const int64_t delay =
      redial_backoff_us_ + NextBackoffJitter(redial_jitter_, redial_backoff_us_);
  redial_backoff_us_ = std::min<int64_t>(redial_backoff_us_ * 2, 2 * 1000000);
  auto alive = alive_guard_;
  loop_->ScheduleAfter(delay, [this, alive] {
    if (*alive) {
      dead_conn_.reset();
      if (conn_ == nullptr) {
        Dial();
      }
    }
  });
}

void ClientHostNode::OnFrame(Bytes payload) {
  auto msg = ParseWireShared(payload);
  if (msg == nullptr) {
    return;
  }
  const Peer peer = ServerPeer(static_cast<uint32_t>(upstream_));
  // Unicast frames carry their addressee; broadcasts fan out to every
  // hosted client (mirrors NetDissent::DeliverToMachine).
  uint64_t unicast_to = UINT64_MAX;
  if (const auto* challenge = std::get_if<wire::BlameChallenge>(msg.get())) {
    unicast_to = challenge->client_id;
  } else if (const auto* rel = std::get_if<wire::Reliable>(msg.get())) {
    unicast_to = rel->to_id;
  } else if (const auto* ack = std::get_if<wire::Ack>(msg.get())) {
    unicast_to = ack->to_id;
  }
  if (unicast_to != UINT64_MAX) {
    if (unicast_to >= first_ && unicast_to < first_ + count_) {
      const size_t local = static_cast<size_t>(unicast_to) - first_;
      Dispatch(local, engines_[local]->HandleMessage(peer, *msg, loop_->NowUs()));
    }
    return;
  }
  if (!std::holds_alternative<wire::Output>(*msg) &&
      !std::holds_alternative<wire::BlameStart>(*msg) &&
      !std::holds_alternative<wire::BlameVerdict>(*msg) &&
      !std::holds_alternative<wire::RoundSummary>(*msg) &&
      !std::holds_alternative<wire::SlotKeys>(*msg)) {
    return;
  }
  for (size_t local = 0; local < engines_.size(); ++local) {
    Dispatch(local, engines_[local]->HandleMessage(peer, *msg, loop_->NowUs()));
  }
}

void ClientHostNode::Dispatch(size_t local, ClientEngine::Actions actions) {
  for (const Envelope& env : actions.out) {
    // Client engines only ever address their upstream server. Frames while
    // disconnected (or before our hello is queued) are dropped here; the
    // reliable mailbox re-sends them once the link is greeted.
    if (conn_ != nullptr && conn_->greeted && !conn_->closed()) {
      conn_->SendFramed(FrameWire(*env.msg));
    }
  }
  for (const TimerRequest& t : actions.timers) {
    auto alive = alive_guard_;
    loop_->ScheduleAfter(t.delay_us, [this, alive, local, token = t.token] {
      if (*alive) {
        Dispatch(local, engines_[local]->HandleTimer(token, loop_->NowUs()));
      }
    });
  }
  for (const ClientEngine::Delivery& d : actions.delivered) {
    if (on_delivery) {
      on_delivery(first_ + local, d);
    }
  }
}

uint64_t ClientHostNode::min_delivered_round() const {
  uint64_t min_round = UINT64_MAX;
  for (const auto& e : engines_) {
    min_round = std::min(min_round, e->last_output_round());
  }
  return min_round == UINT64_MAX ? 0 : min_round;
}

uint64_t ClientHostNode::retransmits() const {
  uint64_t total = 0;
  for (const auto& e : engines_) {
    total += e->retransmits();
  }
  return total;
}

}  // namespace net
}  // namespace dissent
