#include "src/fleet.h"

#include <algorithm>
#include <string_view>

#include "src/core/key_shuffle.h"

namespace perfbench {

using dissent::ClientEngine;
using dissent::Envelope;
using dissent::Peer;
using dissent::ServerEngine;
using dissent::WireMessage;
using dissent::net::DeployNodeRng;
using dissent::net::DeployRngKind;

namespace {

double Seconds(int64_t from_ns, int64_t to_ns) {
  return static_cast<double>(to_ns - from_ns) * 1e-9;
}

uint8_t TagOf(const WireMessage& msg) { return dissent::SerializeWire(msg)[0]; }

}  // namespace

InProcFleet::InProcFleet(dissent::net::DeployConfig cfg) : cfg_(std::move(cfg)) {
  // The first byte of a serialized WireMessage is its type tag; Reliable
  // frames carry their inner message serialized, so the tag names the
  // protocol step without a parse.
  namespace wire = dissent::wire;
  tag_span_[TagOf(wire::ClientSubmit{})] = "engine.server_submit";
  tag_span_[TagOf(wire::Inventory{})] = "engine.server_close";
  tag_span_[TagOf(wire::Commit{})] = "engine.server_close";
  tag_span_[TagOf(wire::ServerCiphertext{})] = "engine.server_combine";
  tag_span_[TagOf(wire::SignatureShare{})] = "engine.server_finish";
}

InProcFleet::~InProcFleet() = default;

bool InProcFleet::Setup(SetupPhases* phases) {
  const size_t n = cfg_.num_clients;
  const size_t m = cfg_.num_servers;
  const size_t depth = std::max<size_t>(cfg_.pipeline_depth, 1);
  const int64_t t0 = NowNs();

  std::vector<dissent::BigInt> client_privs;
  def_ = dissent::net::BuildDeployGroup(cfg_, &server_privs_, &client_privs);
  for (size_t i = 0; i < n; ++i) {
    clients_.push_back(std::make_unique<dissent::DissentClient>(
        def_, i, client_privs[i], DeployNodeRng(cfg_, DeployRngKind::kClientLogic, i), depth));
  }
  for (size_t j = 0; j < m; ++j) {
    servers_.push_back(std::make_unique<dissent::DissentServer>(
        def_, j, server_privs_[j], DeployNodeRng(cfg_, DeployRngKind::kServerLogic, j), depth));
    servers_[j]->SetEvidenceRounds(cfg_.evidence_rounds);
  }
  const int64_t t_keys = NowNs();

  // The per-node scheduling cascade of DistributedCascadeKeys, timed by
  // phase: each client's submission from its sched rng, then one verified
  // mix step per server from its sched rng.
  dissent::CiphertextMatrix current;
  current.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    dissent::SecureRng rng = DeployNodeRng(cfg_, DeployRngKind::kClientSched, i);
    current.push_back(dissent::EncryptPseudonymKey(def_, clients_[i]->pseudonym().pub, rng));
  }
  const int64_t t_submit = NowNs();
  int64_t prove_ns = 0;
  int64_t verify_ns = 0;
  for (size_t j = 0; j < m; ++j) {
    dissent::SecureRng rng = DeployNodeRng(cfg_, DeployRngKind::kServerSched, j);
    const int64_t a = NowNs();
    dissent::MixStep step = dissent::KeyShuffleMixStep(def_, j, server_privs_[j], current, rng);
    const int64_t b = NowNs();
    const bool ok = dissent::VerifyMixStep(def_, j, current, step);
    verify_ns += NowNs() - b;
    prove_ns += b - a;
    if (!ok) {
      return false;
    }
    current = std::move(step.decrypted);
  }
  const int64_t t_shuffle = NowNs();

  std::vector<dissent::BigInt> keys;
  keys.reserve(n);
  for (const auto& row : current) {
    keys.push_back(row[0].b);
  }
  for (size_t i = 0; i < n; ++i) {
    auto it = std::find(keys.begin(), keys.end(), clients_[i]->pseudonym().pub);
    if (it == keys.end()) {
      return false;
    }
    clients_[i]->AssignSlot(static_cast<size_t>(it - keys.begin()), n);
  }
  for (auto& s : servers_) {
    s->SetPseudonymKeys(keys);
    s->BeginSlots(n);
  }
  // Machine-major attachment: client host h serves clients
  // [h*k, h*k+k) and attaches to server h % M (DeployConfig topology).
  attached_.assign(m, {});
  upstream_.assign(n, 0);
  for (size_t i = 0; i < n; ++i) {
    upstream_[i] = static_cast<uint32_t>(cfg_.host_upstream(i / cfg_.clients_per_host));
    attached_[upstream_[i]].push_back(static_cast<uint32_t>(i));
  }
  for (size_t j = 0; j < m; ++j) {
    ServerEngine::Config ec;
    ec.window_fraction = cfg_.window_fraction;
    ec.window_multiplier = cfg_.window_multiplier;
    ec.hard_deadline_us = cfg_.hard_deadline_us;
    ec.adaptive_window = false;
    ec.pipeline_depth = depth;
    ec.attached_clients = attached_[j];
    ec.reliability = cfg_.reliability;
    ec.output_history = cfg_.output_history;
    ec.abort_deadline_us = cfg_.abort_deadline_us;
    ec.abort_agreement = cfg_.abort_agreement;
    server_engines_.push_back(std::make_unique<ServerEngine>(servers_[j].get(), def_, ec));
  }
  for (size_t i = 0; i < n; ++i) {
    ClientEngine::Config cc;
    cc.upstream_server = upstream_[i];
    cc.pipeline_depth = depth;
    cc.reliability = cfg_.reliability;
    cc.resync_timeout_us = cfg_.resync_timeout_us;
    client_engines_.push_back(std::make_unique<ClientEngine>(clients_[i].get(), def_, cc));
  }
  for (size_t j = 0; j < m; ++j) {
    DispatchServer(static_cast<uint32_t>(j), server_engines_[j]->StartSession(vnow_us_));
  }
  const int64_t t_end = NowNs();
  if (phases != nullptr) {
    phases->keys_s = Seconds(t0, t_keys);
    phases->submit_s = Seconds(t_keys, t_submit);
    phases->prove_s = static_cast<double>(prove_ns) * 1e-9;
    phases->verify_s = static_cast<double>(verify_ns) * 1e-9;
    phases->install_s = Seconds(t_shuffle, t_end);
    phases->total_s = Seconds(t0, t_end);
  }
  return true;
}

void InProcFleet::StartClients() {
  for (size_t i = 0; i < client_engines_.size(); ++i) {
    DispatchClient(static_cast<uint32_t>(i), client_engines_[i]->StartSession(vnow_us_));
  }
}

const char* InProcFleet::ServerSpanName(const WireMessage& msg) const {
  const char* name = nullptr;
  if (const auto* rel = std::get_if<dissent::wire::Reliable>(&msg)) {
    name = rel->inner.empty() ? nullptr : tag_span_[rel->inner[0]];
  } else if (!std::holds_alternative<dissent::wire::Ack>(msg)) {
    name = tag_span_[TagOf(msg)];  // unwrapped frames only flow with reliability off
  }
  return name != nullptr ? name : "engine.server_other";
}

bool InProcFleet::Step() {
  if (!queue_.empty()) {
    Queued q = std::move(queue_.front());
    queue_.pop_front();
    if (q.to.kind == Peer::Kind::kServer) {
      ServerEngine::Actions a;
      {
        ScopedSpan span(tracer_, tracer_ != nullptr && tracer_->enabled()
                                     ? ServerSpanName(*q.msg)
                                     : "",
                        frontier_);
        a = server_engines_[q.to.index]->HandleMessage(q.from, *q.msg, vnow_us_);
      }
      DispatchServer(q.to.index, std::move(a));
    } else {
      ClientEngine::Actions a;
      {
        ScopedSpan span(tracer_,
                        std::holds_alternative<dissent::wire::Output>(*q.msg)
                            ? "engine.client_output"
                            : "engine.client_other",
                        frontier_);
        a = client_engines_[q.to.index]->HandleMessage(q.from, *q.msg, vnow_us_);
      }
      DispatchClient(q.to.index, std::move(a));
    }
    return true;
  }
  if (timers_.empty()) {
    return false;
  }
  std::pop_heap(timers_.begin(), timers_.end(), TimerLater());
  const Timer t = timers_.back();
  timers_.pop_back();
  vnow_us_ = std::max(vnow_us_, t.due_us);
  if (t.client_owned) {
    ClientEngine::Actions a;
    {
      ScopedSpan span(tracer_, "engine.timer", frontier_);
      a = client_engines_[t.owner]->HandleTimer(t.token, vnow_us_);
    }
    DispatchClient(t.owner, std::move(a));
  } else {
    ServerEngine::Actions a;
    {
      ScopedSpan span(tracer_, "engine.timer", frontier_);
      a = server_engines_[t.owner]->HandleTimer(t.token, vnow_us_);
      // A window-policy timer closes the window: it emits the Inventory
      // (and, once every sibling inventory is in, the commitment).
      if (tracer_ != nullptr && tracer_->enabled()) {
        for (const Envelope& e : a.out) {
          if (std::string_view(ServerSpanName(*e.msg)) == "engine.server_close") {
            span.set_name("engine.server_close");
            break;
          }
        }
      }
    }
    DispatchServer(t.owner, std::move(a));
  }
  return true;
}

void InProcFleet::PushTimers(const std::vector<dissent::TimerRequest>& timers, uint32_t owner,
                             bool client_owned) {
  for (const dissent::TimerRequest& t : timers) {
    timers_.push_back({vnow_us_ + t.delay_us, timer_seq_++, owner, client_owned, t.token});
    std::push_heap(timers_.begin(), timers_.end(), TimerLater());
  }
}

void InProcFleet::ProbeWire(const std::shared_ptr<const WireMessage>& msg) {
  if (tracer_ == nullptr || !tracer_->enabled() || msg == last_probed_) {
    return;
  }
  last_probed_ = msg;
  dissent::Bytes bytes;
  {
    ScopedSpan span(tracer_, "wire.serialize", 0);
    bytes = dissent::SerializeWire(*msg);
  }
  {
    ScopedSpan span(tracer_, "wire.parse", 0);
    if (!dissent::ParseWire(bytes).has_value()) {
      ++wire_parse_failures_;
    }
  }
  wire_bytes_ += bytes.size();
}

void InProcFleet::DispatchServer(uint32_t j, ServerEngine::Actions actions) {
  for (Envelope& env : actions.out) {
    ProbeWire(env.msg);
    if (env.to.kind == Peer::Kind::kAttachedClients) {
      for (uint32_t c : attached_[env.to.index]) {
        queue_.push_back({dissent::ServerPeer(j), dissent::ClientPeer(c), env.msg});
      }
    } else {
      queue_.push_back({dissent::ServerPeer(j), env.to, std::move(env.msg)});
    }
  }
  PushTimers(actions.timers, j, false);
  if (j == 0) {
    for (const ServerEngine::RoundDone& done : actions.done) {
      frontier_ = done.round + 1;
      if (on_round) {
        on_round(done);
      }
    }
  }
}

void InProcFleet::DispatchClient(uint32_t i, ClientEngine::Actions actions) {
  for (Envelope& env : actions.out) {
    ProbeWire(env.msg);
    queue_.push_back({dissent::ClientPeer(i), env.to, std::move(env.msg)});
  }
  PushTimers(actions.timers, i, true);
  if (on_delivery) {
    for (const ClientEngine::Delivery& d : actions.delivered) {
      on_delivery(i, d);
    }
  }
}

}  // namespace perfbench
