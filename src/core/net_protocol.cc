#include "src/core/net_protocol.h"

#include <algorithm>
#include <cassert>
#include <chrono>

#include "src/core/wire.h"

namespace dissent {

namespace {
constexpr size_t kParseCacheEntries = 8;
constexpr size_t kChecksumBytes = 8;

// FNV-1a, the frame-integrity trailer. Not cryptographic — transport frames
// are authenticated at the protocol layer (signatures); this only converts
// chaos-layer bit corruption into a clean drop the reliability layer heals.
uint64_t Fnv1a64(const uint8_t* p, size_t n) {
  uint64_t h = 1469598103934665603ull;
  for (size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 1099511628211ull;
  }
  return h;
}
}  // namespace

struct NetDissent::ServerNode {
  std::unique_ptr<DissentServer> logic;
  std::unique_ptr<ServerEngine> engine;
  std::optional<SecureRng> sched_rng;  // handed to every incarnation's engine
  NodeId node = 0;
  std::vector<size_t> attached_machines;
  // Crash harness: timers scheduled by a previous incarnation check the
  // epoch and die silently instead of poking the rebuilt engine.
  uint64_t epoch = 0;
  bool crashed = false;
  // The snapshot taken at crash time (models the durable checkpoint a real
  // server would have been writing continuously).
  Bytes snapshot;
};

struct NetDissent::ClientNode {
  std::unique_ptr<DissentClient> logic;
  std::unique_ptr<ClientEngine> engine;
  size_t machine = 0;
  size_t upstream = 0;  // server index
  bool online = true;
};

// One client-hosting host (§5.2): its clients share the node, its NIC, and
// its links. With clients_per_machine == 1 this is the classic
// one-node-per-client topology.
struct NetDissent::MachineNode {
  NodeId node = 0;
  size_t first_client = 0;
  size_t num_clients = 0;
  size_t upstream = 0;
};

NetDissent::NetDissent(GroupDef def, std::vector<BigInt> server_privs,
                       std::vector<BigInt> client_privs, Simulator* sim, Options options,
                       uint64_t seed)
    : def_(std::move(def)),
      server_privs_(std::move(server_privs)),
      sim_(sim),
      net_(sim),
      options_(options),
      rng_(SecureRng::FromLabel(seed)),
      jitter_(seed ^ 0xabcdef) {
  const size_t depth = std::max<size_t>(options_.pipeline_depth, 1);
  const size_t per_machine = std::max<size_t>(options_.clients_per_machine, 1);
  const size_t num_machines = (def_.num_clients() + per_machine - 1) / per_machine;
  // Clients are constructed (and fork the session rng) before servers, in
  // the same order as the in-process Coordinator, so identical seeds yield
  // identical protocol bytes across the two transports.
  for (size_t i = 0; i < def_.num_clients(); ++i) {
    auto node = std::make_unique<ClientNode>();
    node->logic = std::make_unique<DissentClient>(def_, i, client_privs[i], rng_.Fork(), depth);
    node->machine = i / per_machine;
    node->upstream = node->machine % def_.num_servers();
    clients_.push_back(std::move(node));
  }
  for (size_t j = 0; j < def_.num_servers(); ++j) {
    auto node = std::make_unique<ServerNode>();
    node->logic = std::make_unique<DissentServer>(def_, j, server_privs_[j], rng_.Fork(), depth);
    node->logic->SetEvidenceRounds(options_.evidence_rounds);
    servers_.push_back(std::move(node));
  }
  // Engines: thin typed state machines; this class is only their transport.
  // Their scheduling rngs fork after the logic rngs, clients first (the
  // Coordinator's and net::DeployNodeRng's order).
  for (size_t i = 0; i < clients_.size(); ++i) {
    ClientEngine::Config cfg;
    cfg.upstream_server = static_cast<uint32_t>(clients_[i]->upstream);
    cfg.pipeline_depth = depth;
    cfg.reliability = options_.reliability;
    cfg.resync_timeout_us = options_.resync_timeout;
    clients_[i]->engine =
        std::make_unique<ClientEngine>(clients_[i]->logic.get(), def_, cfg, rng_.Fork());
  }
  // Attached clients are listed machine-major so broadcast fan-out visits
  // each machine's clients contiguously.
  machines_.resize(num_machines);
  for (size_t m = 0; m < num_machines; ++m) {
    machines_[m].first_client = m * per_machine;
    machines_[m].num_clients = std::min(per_machine, def_.num_clients() - m * per_machine);
    machines_[m].upstream = m % def_.num_servers();
  }
  for (size_t j = 0; j < def_.num_servers(); ++j) {
    for (size_t m = 0; m < num_machines; ++m) {
      if (machines_[m].upstream == j) {
        servers_[j]->attached_machines.push_back(m);
      }
    }
    // Config built by a helper so the crash harness can rebuild an identical
    // engine around a restored snapshot.
    servers_[j]->sched_rng = rng_.Fork();
    servers_[j]->engine = std::make_unique<ServerEngine>(servers_[j]->logic.get(), def_,
                                                         ServerConfigFor(j), servers_[j]->sched_rng);
  }
  // Network nodes. Servers first so their node ids are stable regardless of
  // client count; deliveries parse the typed wire message (once per distinct
  // frame) and feed the engine(s), then dispatch whatever they want
  // sent/scheduled.
  for (size_t j = 0; j < def_.num_servers(); ++j) {
    servers_[j]->node = net_.AddNode([this, j](NodeId from, const Network::Frame& payload) {
      DeliverToServer(j, from, payload);
    });
    if (options_.server_uplink.bandwidth_bps > 0) {
      net_.SetUplink(servers_[j]->node, options_.server_uplink);
    }
  }
  for (size_t m = 0; m < num_machines; ++m) {
    machines_[m].node = net_.AddNode([this, m](NodeId from, const Network::Frame& payload) {
      DeliverToMachine(m, from, payload);
    });
    if (options_.machine_uplink.bandwidth_bps > 0) {
      net_.SetUplink(machines_[m].node, options_.machine_uplink);
    }
  }
  // Topology: dedicated links; server mesh faster than client uplinks.
  for (auto& m : machines_) {
    net_.SetLink(m.node, servers_[m.upstream]->node, options_.client_link);
    net_.SetLink(servers_[m.upstream]->node, m.node, options_.client_link);
  }
  for (auto& a : servers_) {
    for (auto& b : servers_) {
      if (a->node != b->node) {
        net_.SetLink(a->node, b->node, options_.server_link);
      }
    }
  }
}

NetDissent::~NetDissent() = default;

DissentClient& NetDissent::client(size_t i) { return *clients_[i]->logic; }

DissentServer& NetDissent::server(size_t j) { return *servers_[j]->logic; }

ClientEngine& NetDissent::client_engine(size_t i) { return *clients_[i]->engine; }

ServerEngine& NetDissent::server_engine(size_t j) { return *servers_[j]->engine; }

void NetDissent::SetClientOnline(size_t i, bool online) {
  // Per-client flag (machines host many clients, so node-level online state
  // is the wrong granularity): an offline client neither submits nor has
  // outputs fanned out to it, which is exactly the §3.6 silent-vanish model.
  clients_[i]->online = online;
}

std::shared_ptr<const WireMessage> NetDissent::ParseFrame(const Network::Frame& frame) {
  for (auto it = parse_cache_.begin(); it != parse_cache_.end(); ++it) {
    if (it->key == frame.get() && !it->key_owner.expired()) {
      return it->msg;
    }
  }
  std::shared_ptr<const WireMessage> msg;
  if (options_.frame_checksums) {
    // Verify and strip the FNV trailer; a mismatch means the chaos layer
    // corrupted the frame in flight — treat as loss (reliability retransmits
    // it) rather than letting a mutated-but-parseable frame reach an engine.
    if (frame->size() < kChecksumBytes) {
      ++checksum_drops_;
      return nullptr;
    }
    const size_t body_len = frame->size() - kChecksumBytes;
    uint64_t stored = 0;
    for (size_t i = 0; i < kChecksumBytes; ++i) {
      stored |= static_cast<uint64_t>((*frame)[body_len + i]) << (8 * i);
    }
    if (Fnv1a64(frame->data(), body_len) != stored) {
      ++checksum_drops_;
      return nullptr;
    }
    Bytes body(frame->begin(), frame->begin() + static_cast<ptrdiff_t>(body_len));
    msg = ParseWireShared(body);
  } else {
    msg = ParseWireShared(*frame);
  }
  if (msg == nullptr) {
    return nullptr;  // malformed: drop
  }
  // Only frames with other deliveries still in flight can hit the cache
  // again; unique point-to-point frames (use_count == 1: our reference only)
  // are not worth remembering.
  if (frame.use_count() > 1) {
    parse_cache_.push_front({frame.get(), frame, msg});
    while (parse_cache_.size() > kParseCacheEntries) {
      parse_cache_.pop_back();
    }
  }
  return msg;
}

void NetDissent::DeliverToServer(size_t j, NodeId from, const Network::Frame& payload) {
  auto msg = ParseFrame(payload);
  if (msg == nullptr) {
    return;
  }
  Peer peer;
  if (from < servers_.size()) {
    peer = ServerPeer(static_cast<uint32_t>(from));
  } else {
    // Client traffic arrives from a machine node; the claimed sender is
    // authentic iff that client is hosted on the sending machine (models the
    // per-client authenticated connections a machine multiplexes). Clients
    // speak ClientSubmit plus the client legs of the blame sub-phase.
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
      // Reliability wrapper around any of the above; the engine re-checks
      // the inner frame's own claims after unwrapping.
      claimed = rel->from_id;
    } else if (const auto* ack = std::get_if<wire::Ack>(msg.get())) {
      claimed = ack->from_id;
    } else {
      return;
    }
    size_t m = from - servers_.size();
    const MachineNode& machine = machines_[m];
    if (claimed < machine.first_client || claimed >= machine.first_client + machine.num_clients ||
        machine.upstream != j) {
      return;
    }
    peer = ClientPeer(claimed);
  }
  DispatchServer(j, servers_[j]->engine->HandleMessage(peer, *msg, sim_->Now()));
}

void NetDissent::DeliverToMachine(size_t m, NodeId from, const Network::Frame& payload) {
  if (from >= servers_.size()) {
    return;  // machines only receive from servers
  }
  auto msg = ParseFrame(payload);
  if (msg == nullptr) {
    return;
  }
  const MachineNode& machine = machines_[m];
  const Peer peer = ServerPeer(static_cast<uint32_t>(from));
  // Client-specific unicast traffic: hand the frame to the addressed client
  // only (the machine multiplexes per-client connections). Blame challenges
  // carry the addressee in the protocol frame; reliability wrappers carry it
  // in their transport header.
  uint64_t unicast_to = UINT64_MAX;
  if (const auto* challenge = std::get_if<wire::BlameChallenge>(msg.get())) {
    unicast_to = challenge->client_id;
  } else if (const auto* rel = std::get_if<wire::Reliable>(msg.get())) {
    unicast_to = rel->to_id;
  } else if (const auto* ack = std::get_if<wire::Ack>(msg.get())) {
    unicast_to = ack->to_id;
  }
  if (unicast_to != UINT64_MAX) {
    size_t i = static_cast<size_t>(unicast_to);
    if (i >= machine.first_client && i < machine.first_client + machine.num_clients &&
        clients_[i]->online) {
      DispatchClient(i, clients_[i]->engine->HandleMessage(peer, *msg, sim_->Now()));
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
  // Fan the (already parsed) broadcast to every hosted client. RoundSummary
  // (and a SlotKeys answer to one late row) is fanned too: catch-up replies address one client, but a
  // summary is certified public output — any co-hosted client behind on that
  // round may ingest it, and the rest drop it via the round guard.
  for (size_t k = 0; k < machine.num_clients; ++k) {
    size_t i = machine.first_client + k;
    if (!clients_[i]->online) {
      continue;
    }
    DispatchClient(i, clients_[i]->engine->HandleMessage(peer, *msg, sim_->Now()));
  }
}

bool NetDissent::Start() {
  // Keys computed out of band (slot i = client i under direct scheduling,
  // which skips a shuffle whose cost at 1,000+ clients dwarfs the rounds
  // under test): slots follow that order as if the shuffle had run here.
  std::optional<std::vector<BigInt>> keys = options_.preset_pseudonym_keys;
  if (options_.direct_scheduling) {
    keys.emplace();
    for (const auto& c : clients_) {
      keys->push_back(c->logic->pseudonym().pub);
    }
  }
  if (keys.has_value()) {
    if (keys->size() != clients_.size()) {
      return false;
    }
    for (auto& c : clients_) {
      auto it = std::find(keys->begin(), keys->end(), c->logic->pseudonym().pub);
      if (it == keys->end()) {
        return false;
      }
      c->logic->AssignSlot(static_cast<size_t>(it - keys->begin()), keys->size());
    }
    for (auto& s : servers_) {
      s->logic->SetPseudonymKeys(*keys);
      s->logic->BeginSlots(clients_.size());
    }
  }
  // Chaos layer: install the frame-level plan on the network and enact the
  // crash windows here (Crash::node names a *server index* — the network
  // cannot rebuild an engine; this harness can).
  if (options_.fault_plan.has_value()) {
    net_.SetFaultPlan(*options_.fault_plan);
    for (const auto& crash : options_.fault_plan->crashes) {
      const size_t j = crash.node;
      if (j >= servers_.size() || crash.up_at <= crash.down_at) {
        continue;
      }
      sim_->ScheduleAt(crash.down_at, [this, j] { CrashServer(j); });
      sim_->ScheduleAt(crash.up_at, [this, j] { RestoreServer(j); });
    }
  }
  const auto sched_start = std::chrono::steady_clock::now();
  for (size_t j = 0; j < servers_.size(); ++j) {
    DispatchServer(j, servers_[j]->engine->StartSession(sim_->Now()));
  }
  for (size_t i = 0; i < clients_.size(); ++i) {
    if (clients_[i]->online) {
      DispatchClient(i, clients_[i]->engine->StartSession(sim_->Now()));
    }
  }
  if (keys.has_value()) {
    return true;
  }
  // Scheduling (§3.10) runs inside the engines over the simulated network:
  // step the simulation until every server is live and every online client
  // has its slot (and with it, its round-1 submission), within the hard
  // deadline.
  auto scheduled = [this] {
    for (const auto& s : servers_) {
      if (s->crashed || !s->engine->session_live()) {
        return false;
      }
    }
    for (const auto& c : clients_) {
      if (c->online && !c->logic->slot().has_value()) {
        return false;
      }
    }
    return true;
  };
  while (!scheduled() && sim_->pending() > 0 && sim_->Now() < options_.hard_deadline) {
    sim_->Step();
  }
  scheduling_seconds_ =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - sched_start).count();
  return scheduled();
}

ServerEngine::Config NetDissent::ServerConfigFor(size_t j) const {
  ServerEngine::Config cfg;
  cfg.window_fraction = options_.window_fraction;
  cfg.window_multiplier = options_.window_multiplier;
  cfg.hard_deadline_us = options_.hard_deadline;
  cfg.adaptive_window = options_.adaptive_window;
  cfg.pipeline_depth = std::max<size_t>(options_.pipeline_depth, 1);
  cfg.reliability = options_.reliability;
  cfg.abort_deadline_us = options_.abort_deadline;
  cfg.abort_agreement = options_.abort_agreement;
  cfg.output_history = options_.output_history;
  for (size_t m : servers_[j]->attached_machines) {
    for (size_t k = 0; k < machines_[m].num_clients; ++k) {
      cfg.attached_clients.push_back(static_cast<uint32_t>(machines_[m].first_client + k));
    }
  }
  return cfg;
}

void NetDissent::CrashServer(size_t j) {
  ServerNode& s = *servers_[j];
  if (s.crashed) {
    return;
  }
  // The snapshot stands in for the durable checkpoint a real server writes
  // as it goes; taking it at crash time models losing nothing but the
  // in-flight frames — which is exactly what the reliability layer repairs.
  s.snapshot = s.engine->SerializeSnapshot();
  ++s.epoch;  // orphan every timer the dead incarnation scheduled
  s.crashed = true;
  net_.SetOnline(s.node, false);
}

void NetDissent::RestoreServer(size_t j) {
  ServerNode& s = *servers_[j];
  if (!s.crashed) {
    return;
  }
  // Rebuild logic + engine from scratch, then resume from the snapshot (it
  // carries the keys, or the scheduling shuffle so far). The fresh rng seed
  // is irrelevant: DissentServer::RestoreState reseeds deterministically
  // from the state bytes, so a restart is replayable.
  const size_t depth = std::max<size_t>(options_.pipeline_depth, 1);
  auto logic = std::make_unique<DissentServer>(
      def_, j, server_privs_[j], SecureRng::FromLabel(0x52455354u ^ j), depth);
  logic->SetEvidenceRounds(options_.evidence_rounds);
  s.logic = std::move(logic);
  s.engine = std::make_unique<ServerEngine>(s.logic.get(), def_, ServerConfigFor(j), s.sched_rng);
  s.crashed = false;
  net_.SetOnline(s.node, true);
  ++server_restarts_;
  auto actions = s.engine->RestoreSnapshot(s.snapshot, sim_->Now());
  s.snapshot.clear();
  if (actions.has_value()) {
    DispatchServer(j, std::move(*actions));
  }
}

void NetDissent::RestartServer(size_t j, Bytes snapshot) {
  CrashServer(j);
  servers_[j]->snapshot = std::move(snapshot);
  RestoreServer(j);
}

void NetDissent::SubmitWithDelay(size_t client_index, Network::Frame frame, bool round_paced) {
  const ClientNode& c = *clients_[client_index];
  const NodeId from = machines_[c.machine].node;
  const NodeId to = servers_[c.upstream]->node;
  SimTime delay;
  if (round_paced && options_.submit_delay.has_value()) {
    delay = options_.submit_delay->Draw(jitter_);
    if (delay < 0) {
      return;  // PlanetLab straggler that never answers this round (§5.1)
    }
  } else {
    // Client think time before submitting (models app + OS). Blame replies
    // are reactive, so they get the uniform jitter, never the heavy-tailed
    // round-pacing dropout model.
    delay = static_cast<SimTime>(jitter_.Below(
        static_cast<uint64_t>(std::max<SimTime>(options_.client_jitter_max, 1))));
  }
  sim_->Schedule(delay, [this, client_index, from, to, f = std::move(frame)] {
    if (!clients_[client_index]->online) {
      return;  // vanished during think time: the frame never leaves (§3.6)
    }
    net_.Send(from, to, f);
  });
}

void NetDissent::SendEnvelope(size_t server_index, const Envelope& env,
                              SerializeCache& cache) {
  // Serialize exactly once per payload object; every destination shares the
  // resulting frame (broadcast envelopes are emitted consecutively, so a
  // one-entry cache keyed on message identity suffices).
  if (env.msg.get() != cache.msg) {
    cache.msg = env.msg.get();
    cache.frame = MakeFrame(*env.msg);
  }
  const Network::Frame& frame = cache.frame;
  const NodeId from = servers_[server_index]->node;
  switch (env.to.kind) {
    case Peer::Kind::kServer:
      net_.Send(from, servers_[env.to.index]->node, frame);
      return;
    case Peer::Kind::kClient:
      net_.Send(from, machines_[clients_[env.to.index]->machine].node, frame);
      return;
    case Peer::Kind::kAttachedClients:
      // One frame per attached machine; co-located clients share it.
      for (size_t m : servers_[env.to.index]->attached_machines) {
        net_.Send(from, machines_[m].node, frame);
      }
      return;
  }
}

void NetDissent::DispatchServer(size_t j, ServerEngine::Actions actions) {
  SerializeCache cache;
  for (const Envelope& env : actions.out) {
    SendEnvelope(j, env, cache);
  }
  for (const TimerRequest& t : actions.timers) {
    const uint64_t epoch = servers_[j]->epoch;
    sim_->Schedule(static_cast<SimTime>(t.delay_us), [this, j, epoch, token = t.token] {
      if (servers_[j]->epoch != epoch) {
        return;  // scheduled by an incarnation that has since crashed
      }
      DispatchServer(j, servers_[j]->engine->HandleTimer(token, sim_->Now()));
    });
  }
  for (ServerEngine::RoundDone& done : actions.done) {
    if (j != 0) {
      continue;  // bookkeeping from server 0's perspective, as before
    }
    if (done.completed) {
      ++rounds_completed_;
      last_participation_ = done.participation;
      last_round_duration_ = sim_->Now() - static_cast<SimTime>(done.started_at_us);
      if (record_cleartexts_) {
        cleartexts_.push_back(std::move(done.cleartext));
      }
    }
  }
  for (ServerEngine::BlameDone& done : actions.blame) {
    if (j == 0) {
      blame_done_.push_back(std::move(done));
    }
  }
}

void NetDissent::DispatchClient(size_t i, ClientEngine::Actions actions) {
  const ClientNode& c = *clients_[i];
  if (c.online) {
    for (const Envelope& env : actions.out) {
      // Clients only ever emit toward their upstream server: ClientSubmit
      // plus the blame legs (AccusationSubmit, BlameRebuttal).
      assert(env.to.kind == Peer::Kind::kServer && env.to.index == c.upstream);
      std::shared_ptr<const WireMessage> msg = env.msg;
      // Adversarial hook (§3.9): the disruptor's submissions are tampered in
      // flight; the payload may be shared, so mutate a private copy.
      if (disruptor_.has_value() && i == disruptor_->client) {
        if (const auto* submit = std::get_if<wire::ClientSubmit>(msg.get())) {
          if (disruptor_->bit < submit->ciphertext.size() * 8) {
            auto mutated = std::make_shared<WireMessage>(*msg);
            auto& ct = std::get<wire::ClientSubmit>(*mutated).ciphertext;
            SetBit(ct, disruptor_->bit, !GetBit(ct, disruptor_->bit));
            msg = std::move(mutated);
          }
        }
      }
      // Only bare submissions ride the heavy-tailed PlanetLab round-pacing
      // model (which can "never" deliver). Reliability-wrapped frames get
      // the uniform think-time jitter instead: a retransmission schedule
      // with its own per-round dropout would double-count the loss model,
      // and the chaos layer already supplies frame loss when wanted. (This
      // also means the in-flight disruptor hook above no-ops under
      // reliability — its frames are Reliable-wrapped — so disruption tests
      // keep reliability off.)
      const bool round_paced = std::holds_alternative<wire::ClientSubmit>(*msg);
      SubmitWithDelay(i, MakeFrame(*msg), round_paced);
    }
  }
  for (const TimerRequest& t : actions.timers) {
    // Client timers (retransmit sweep, resync heartbeat) survive offline
    // windows: the engine keeps ticking, but DispatchClient drops any frames
    // it emits while the client is offline.
    sim_->Schedule(static_cast<SimTime>(t.delay_us), [this, i, token = t.token] {
      DispatchClient(i, clients_[i]->engine->HandleTimer(token, sim_->Now()));
    });
  }
  if (i == 0 && record_cleartexts_) {
    for (ClientEngine::Delivery& d : actions.delivered) {
      if (!d.signatures_ok) {
        continue;
      }
      for (auto& m : d.messages) {
        delivered_.push_back(std::move(m));
      }
    }
  }
}

uint64_t NetDissent::pipelined_submissions() const {
  uint64_t total = 0;
  for (const auto& s : servers_) {
    total += s->engine->pipelined_submissions();
  }
  return total;
}

size_t NetDissent::peak_round_state_bytes() const {
  size_t peak = 0;
  for (const auto& s : servers_) {
    peak = std::max(peak, s->logic->peak_round_state_bytes());
  }
  return peak;
}

void NetDissent::InjectDisruptor(size_t disruptor, size_t bit) {
  disruptor_ = DisruptorHook{disruptor, bit};
}

Network::Frame NetDissent::MakeFrame(const WireMessage& msg) {
  if (!options_.frame_checksums) {
    return SerializeWireShared(msg);
  }
  Bytes data = SerializeWire(msg);
  const uint64_t h = Fnv1a64(data.data(), data.size());
  for (size_t i = 0; i < kChecksumBytes; ++i) {
    data.push_back(static_cast<uint8_t>(h >> (8 * i)));
  }
  return std::make_shared<const Bytes>(std::move(data));
}

uint64_t NetDissent::retransmits() const {
  uint64_t total = 0;
  for (const auto& s : servers_) {
    total += s->engine->retransmits();
  }
  for (const auto& c : clients_) {
    total += c->engine->retransmits();
  }
  return total;
}

uint64_t NetDissent::rounds_aborted() const { return servers_[0]->engine->rounds_aborted(); }

bool NetDissent::blame_in_progress() const {
  for (const auto& s : servers_) {
    if (s->engine->blame_in_progress()) {
      return true;
    }
  }
  return false;
}

}  // namespace dissent
