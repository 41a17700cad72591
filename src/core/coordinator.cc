#include "src/core/coordinator.h"

#include <algorithm>
#include <cassert>
#include <chrono>

#include "src/core/dcnet.h"
#include "src/core/output_cert.h"

namespace dissent {

Coordinator::Coordinator(GroupDef def, std::vector<BigInt> server_privs,
                         std::vector<BigInt> client_privs, uint64_t seed)
    : def_(std::move(def)) {
  assert(server_privs.size() == def_.num_servers());
  assert(client_privs.size() == def_.num_clients());
  SecureRng rng = SecureRng::FromLabel(seed);
  for (size_t i = 0; i < client_privs.size(); ++i) {
    clients_.push_back(std::make_unique<DissentClient>(def_, i, client_privs[i], rng.Fork()));
  }
  for (size_t j = 0; j < server_privs.size(); ++j) {
    servers_.push_back(std::make_unique<DissentServer>(def_, j, server_privs[j], rng.Fork()));
  }
  // Scheduling rngs fork after the logic rngs, clients first — the order of
  // net::DeployNodeRng — so a seed yields the same key shuffle on every
  // transport.
  for (size_t i = 0; i < client_privs.size(); ++i) {
    client_sched_rngs_.push_back(rng.Fork());
  }
  for (size_t j = 0; j < server_privs.size(); ++j) {
    server_sched_rngs_.push_back(rng.Fork());
  }
  server_privs_ = std::move(server_privs);
  online_.assign(clients_.size(), true);
  last_seen_round_.assign(clients_.size(), 0);
  // The engines own all round sequencing; this class only delivers their
  // envelopes (zero latency) and fires their timers (virtual clock).
  attached_.resize(servers_.size());
  for (size_t i = 0; i < clients_.size(); ++i) {
    attached_[i % servers_.size()].push_back(static_cast<uint32_t>(i));
  }
  BuildEngines();
}

ServerEngine::Config Coordinator::ServerConfigFor(size_t j) const {
  ServerEngine::Config cfg;
  cfg.window_fraction = def_.policy.window_fraction;
  cfg.window_multiplier = def_.policy.window_multiplier;
  cfg.hard_deadline_us = def_.policy.hard_deadline;
  cfg.attached_clients = attached_[j];
  cfg.reliability = reliability_;
  return cfg;
}

void Coordinator::BuildEngines() {
  server_engines_.clear();
  client_engines_.clear();
  for (size_t j = 0; j < servers_.size(); ++j) {
    server_engines_.push_back(std::make_unique<ServerEngine>(
        servers_[j].get(), def_, ServerConfigFor(j), server_sched_rngs_[j]));
  }
  for (size_t i = 0; i < clients_.size(); ++i) {
    ClientEngine::Config cfg;
    cfg.upstream_server = static_cast<uint32_t>(i % servers_.size());
    // This transport is synchronous: submissions are paced by RunRound (so a
    // message queued between rounds still makes the next round, as the
    // step-by-step reference semantics promise).
    cfg.auto_submit = false;
    cfg.reliability = reliability_;
    cfg.resync_timeout_us = resync_timeout_us_;
    client_engines_.push_back(
        std::make_unique<ClientEngine>(clients_[i].get(), def_, cfg, client_sched_rngs_[i]));
  }
}

void Coordinator::EnableReliability(ReliabilityConfig reliability, int64_t resync_timeout_us) {
  assert(!session_started_);
  reliability_ = reliability;
  resync_timeout_us_ = resync_timeout_us;
  BuildEngines();
}

void Coordinator::RestartServer(size_t j, const Bytes& snapshot) {
  // The dead incarnation's timers die with it.
  timers_.erase(std::remove_if(timers_.begin(), timers_.end(),
                               [j](const PendingTimer& t) {
                                 return !t.client_owned && t.owner == j;
                               }),
                timers_.end());
  std::make_heap(timers_.begin(), timers_.end(), TimerLater());
  // Fresh logic + engine, then resume from the snapshot (it carries the
  // keys; RestoreState reseeds the logic's rng from the state bytes).
  servers_[j] = std::make_unique<DissentServer>(def_, j, server_privs_[j],
                                                SecureRng::FromLabel(0x52455354u ^ j));
  server_engines_[j] = std::make_unique<ServerEngine>(servers_[j].get(), def_,
                                                      ServerConfigFor(j), server_sched_rngs_[j]);
  auto actions = server_engines_[j]->RestoreSnapshot(snapshot, vnow_);
  assert(actions.has_value());
  if (actions.has_value()) {
    DispatchServerActions(j, std::move(*actions));
  }
}

bool Coordinator::RunScheduling() {
  // The engines run the shuffle as their first sub-phase, over the same
  // pump as rounds. Timers fire too (a client that missed the keys re-sends
  // its row on its resync tick), up to the hard deadline.
  const auto sched_start = std::chrono::steady_clock::now();
  for (size_t i = 0; i < client_engines_.size(); ++i) {
    DispatchClientActions(i, client_engines_[i]->StartSession(vnow_));
  }
  for (size_t j = 0; j < server_engines_.size(); ++j) {
    DispatchServerActions(j, server_engines_[j]->StartSession(vnow_));
  }
  while (!SchedulingDone()) {
    if (!queue_.empty()) {
      DeliverNextQueued();
    } else if (!timers_.empty() && vnow_ < def_.policy.hard_deadline) {
      FireEarliestTimer();
    } else {
      return false;  // stalled: a row or a verified step never arrived
    }
  }
  scheduling_seconds_ =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - sched_start).count();
  blame_shuffle_seconds_ = 0;  // the shuffle rode the blame frames; not a blame phase
  pseudonym_keys_ = servers_[0]->pseudonym_keys();
  session_started_ = true;
  return true;
}

bool Coordinator::SchedulingDone() const {
  for (const auto& engine : server_engines_) {
    if (!engine->session_live()) {
      return false;
    }
  }
  for (const auto& c : clients_) {
    if (!c->slot().has_value()) {
      return false;
    }
  }
  return true;
}

bool Coordinator::RunSchedulingDirect() {
  // Identity assignment: slot i belongs to client i. Everything downstream
  // of scheduling (round path, accusations) behaves identically; only the
  // unlinkability of the slot<->client mapping is gone.
  pseudonym_keys_.clear();
  for (auto& c : clients_) {
    pseudonym_keys_.push_back(c->pseudonym().pub);
  }
  return FinishScheduling();
}

bool Coordinator::RunSchedulingExternal(std::vector<BigInt> keys) {
  if (keys.size() != clients_.size()) {
    return false;
  }
  pseudonym_keys_ = std::move(keys);
  return FinishScheduling();
}

bool Coordinator::FinishScheduling() {
  // Each client locates its own key; that index is its slot.
  for (size_t i = 0; i < clients_.size(); ++i) {
    auto it = std::find(pseudonym_keys_.begin(), pseudonym_keys_.end(),
                        clients_[i]->pseudonym().pub);
    if (it == pseudonym_keys_.end()) {
      return false;
    }
    clients_[i]->AssignSlot(static_cast<size_t>(it - pseudonym_keys_.begin()),
                            pseudonym_keys_.size());
  }
  for (auto& s : servers_) {
    s->BeginSlots(pseudonym_keys_.size());
    // The blame sub-phase validates accusation signatures server-side.
    s->SetPseudonymKeys(pseudonym_keys_);
  }
  // Open round 1 on every server; clients submit per RunRound call.
  for (size_t j = 0; j < server_engines_.size(); ++j) {
    DispatchServerActions(j, server_engines_[j]->StartSession(vnow_));
  }
  session_started_ = true;
  return true;
}

void Coordinator::SetClientOnline(size_t i, bool online) {
  if (online && !online_[i]) {
    // On reconnect the client fetches the signed outputs it missed and
    // replays them so its slot schedule stays in lockstep (§3.6: servers
    // never stall for it; catching up is the client's job).
    for (const auto& [r, rec] : history_) {
      if (r > last_seen_round_[i]) {
        clients_[i]->CatchUp(r, rec.cleartext);
        last_seen_round_[i] = r;
      }
    }
    // Resynchronized; the next RunRound submits for it again.
  }
  online_[i] = online;
}

void Coordinator::DispatchServerActions(size_t j, ServerEngine::Actions actions) {
  for (Envelope& env : actions.out) {
    if (env.to.kind == Peer::Kind::kAttachedClients) {
      // Broadcast expansion: one engine envelope fans out to the server's
      // attachment set; every copy shares the same message object.
      for (uint32_t c : attached_[env.to.index]) {
        queue_.push_back({ServerPeer(static_cast<uint32_t>(j)), ClientPeer(c), env.msg});
      }
      continue;
    }
    queue_.push_back({ServerPeer(static_cast<uint32_t>(j)), env.to, std::move(env.msg)});
  }
  for (const TimerRequest& t : actions.timers) {
    timers_.push_back({vnow_ + t.delay_us, timer_seq_++, j, t.token, false});
    std::push_heap(timers_.begin(), timers_.end(), TimerLater());
  }
  for (ServerEngine::RoundDone& done : actions.done) {
    servers_done_count_[done.round]++;
    if (done.equivocating_server.has_value()) {
      equivocator_seen_[done.round] = *done.equivocating_server;
    }
    if (j == 0) {
      if (done.completed) {
        // History for offline clients' reconnect catch-up (§3.6).
        RoundRecord rec;
        rec.cleartext = done.cleartext;
        history_[done.round] = std::move(rec);
        if (history_.size() > DissentServer::kEvidenceRounds) {
          history_.erase(history_.begin());
        }
        last_participation_ = done.participation;
      }
      server0_done_[done.round] = std::move(done);
    }
  }
  for (ServerEngine::BlameDone& done : actions.blame) {
    // Verdicts are deterministic and identical on every honest server;
    // record server 0's and apply the membership change transport-side too.
    if (done.verdict.kind == wire::BlameVerdict::kClientExpelled) {
      expelled_clients_.insert(done.verdict.culprit);
    }
    if (j == 0) {
      last_blame_ = std::move(done);
    }
  }
}

void Coordinator::DispatchClientActions(size_t i, ClientEngine::Actions actions) {
  for (Envelope& env : actions.out) {
    queue_.push_back({ClientPeer(static_cast<uint32_t>(i)), env.to, std::move(env.msg)});
  }
  for (const TimerRequest& t : actions.timers) {
    timers_.push_back({vnow_ + t.delay_us, timer_seq_++, i, t.token, true});
    std::push_heap(timers_.begin(), timers_.end(), TimerLater());
  }
  for (ClientEngine::Delivery& d : actions.delivered) {
    assert(d.signatures_ok);
    last_seen_round_[i] = d.round;
    auto it = first_delivery_.find(d.round);
    if (it == first_delivery_.end() || it->second.first > i) {
      first_delivery_[d.round] = {i, std::move(d)};
    }
  }
}

void Coordinator::DeliverNextQueued() {
  QueuedMsg qm = std::move(queue_.front());
  queue_.pop_front();
  // Transport-level drops: offline or expelled clients neither send nor
  // receive (§3.6 — the other side cannot tell the difference). Exception:
  // the BlameVerdict that expels a client still reaches it (the expulsion
  // notice itself), since the engine recorded the expulsion before the
  // envelope was delivered.
  if (qm.from.kind == Peer::Kind::kClient &&
      (!online_[qm.from.index] || expelled_clients_.count(qm.from.index) != 0)) {
    return;
  }
  if (qm.to.kind == Peer::Kind::kClient &&
      (!online_[qm.to.index] ||
       (expelled_clients_.count(qm.to.index) != 0 &&
        !std::holds_alternative<wire::BlameVerdict>(*qm.msg)))) {
    return;
  }
  if (filter_ && !filter_(qm.from, qm.to, *qm.msg)) {
    return;  // test-injected in-flight drop
  }
  // Adversarial in-flight tampering (§3.9 test hooks). The payload may be
  // shared with sibling broadcast envelopes, so tamper on a private copy.
  if (disruptor_.has_value() && qm.from.kind == Peer::Kind::kClient &&
      qm.from.index == disruptor_->client) {
    if (const auto* submit = std::get_if<wire::ClientSubmit>(qm.msg.get())) {
      if (disruptor_->bit < submit->ciphertext.size() * 8) {
        auto mutated = std::make_shared<WireMessage>(*qm.msg);
        auto& ct = std::get<wire::ClientSubmit>(*mutated).ciphertext;
        SetBit(ct, disruptor_->bit, !GetBit(ct, disruptor_->bit));
        qm.msg = std::move(mutated);
      }
    }
  }
  if (equivocator_.has_value() && qm.from.kind == Peer::Kind::kServer &&
      qm.from.index == *equivocator_) {
    if (const auto* sct = std::get_if<wire::ServerCiphertext>(qm.msg.get())) {
      if (!sct->ciphertext.empty()) {
        auto mutated = std::make_shared<WireMessage>(*qm.msg);
        std::get<wire::ServerCiphertext>(*mutated).ciphertext[0] ^= 1;
        qm.msg = std::move(mutated);
      }
    }
  }
  // Fig 9 phase buckets: wall time spent processing blame messages, split
  // into the shuffle leg and the trace/rebuttal leg. One variant-index
  // check gates all of it, so the per-message hot path (millions of
  // ClientSubmit/Output deliveries at scale) pays nothing.
  const bool is_blame = IsBlamePhaseMessage(*qm.msg);
  std::chrono::steady_clock::time_point deliver_start;
  if (is_blame) {
    deliver_start = std::chrono::steady_clock::now();
  }
  const int copies = duplicate_delivery_ ? 2 : 1;
  for (int c = 0; c < copies; ++c) {
    if (qm.to.kind == Peer::Kind::kServer) {
      DispatchServerActions(
          qm.to.index, server_engines_[qm.to.index]->HandleMessage(qm.from, *qm.msg, vnow_));
    } else {
      DispatchClientActions(
          qm.to.index, client_engines_[qm.to.index]->HandleMessage(qm.from, *qm.msg, vnow_));
    }
  }
  if (is_blame) {
    const bool is_shuffle_leg = std::holds_alternative<wire::BlameStart>(*qm.msg) ||
                                std::holds_alternative<wire::AccusationSubmit>(*qm.msg) ||
                                std::holds_alternative<wire::BlameRoster>(*qm.msg) ||
                                std::holds_alternative<wire::BlameMix>(*qm.msg);
    double secs =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - deliver_start).count();
    (is_shuffle_leg ? blame_shuffle_seconds_ : blame_trace_seconds_) += secs;
  }
}

void Coordinator::FireEarliestTimer() {
  std::pop_heap(timers_.begin(), timers_.end(), TimerLater());
  PendingTimer t = timers_.back();
  timers_.pop_back();
  vnow_ = std::max(vnow_, t.due);
  if (t.client_owned) {
    DispatchClientActions(t.owner, client_engines_[t.owner]->HandleTimer(t.token, vnow_));
  } else {
    DispatchServerActions(t.owner, server_engines_[t.owner]->HandleTimer(t.token, vnow_));
  }
}

bool Coordinator::RoundResolved(uint64_t round) const {
  auto eq = equivocator_seen_.find(round);
  if (eq != equivocator_seen_.end()) {
    // The cheater's own engine never reports; all honest engines have.
    auto cnt = servers_done_count_.find(round);
    return cnt != servers_done_count_.end() && cnt->second + 1 >= servers_.size();
  }
  auto cnt = servers_done_count_.find(round);
  return cnt != servers_done_count_.end() && cnt->second == servers_.size();
}

Coordinator::RoundOutcome Coordinator::RunRound() {
  RoundOutcome outcome;
  outcome.round = next_round_;
  if (halted_ || !session_started_) {
    // Do not consume a round number: the engines never opened (or will never
    // finish) it, and burning one would desynchronize every later call.
    return outcome;
  }
  const uint64_t round = next_round_++;

  // Step 1: online, non-expelled clients build and submit ciphertexts for
  // this round through their engines (client i -> server i mod M).
  for (size_t i = 0; i < client_engines_.size(); ++i) {
    if (!online_[i] || expelled_clients_.count(i) != 0) {
      continue;
    }
    DispatchClientActions(i, client_engines_[i]->SubmitRound(round, vnow_));
  }

  // Pump: deliver everything in flight; when the system goes quiet, fire the
  // earliest pending timer (this is what closes submission windows). Stop
  // firing timers once the round resolves, then drain the trailing envelopes
  // (the next round's submissions) so they are queued for the next call.
  while (!RoundResolved(round)) {
    if (!queue_.empty()) {
      DeliverNextQueued();
      continue;
    }
    if (timers_.empty()) {
      break;  // stalled: nothing in flight and nothing scheduled
    }
    FireEarliestTimer();
  }
  while (!queue_.empty()) {
    DeliverNextQueued();
  }

  auto eq = equivocator_seen_.find(round);
  if (eq != equivocator_seen_.end()) {
    outcome.equivocating_server = eq->second;
    halted_ = true;  // round aborted; cheater identified; group re-forms
  }
  auto done = server0_done_.find(round);
  if (done != server0_done_.end() && done->second.completed &&
      !outcome.equivocating_server.has_value()) {
    outcome.completed = true;
    outcome.participation = done->second.participation;
    outcome.below_alpha = done->second.below_alpha;
    outcome.accusation_requested = done->second.accusation_requested;
    outcome.cleartext = done->second.cleartext;
  }
  auto del = first_delivery_.find(round);
  if (del != first_delivery_.end()) {
    outcome.messages = del->second.second.messages;
  }
  // Drop per-round bookkeeping that can no longer be queried, and prune the
  // resolved rounds' never-fired hard-deadline backstops from the heap
  // (otherwise they accumulate one per server per round for the session).
  // Blame timers (token kinds 2/3) are pruned only when no blame instance is
  // pending anywhere — a live instance may still need its backstops.
  server0_done_.erase(server0_done_.begin(), server0_done_.upper_bound(round));
  servers_done_count_.erase(servers_done_count_.begin(),
                            servers_done_count_.upper_bound(round));
  first_delivery_.erase(first_delivery_.begin(), first_delivery_.upper_bound(round));
  bool blame_live = false;
  for (const auto& engine : server_engines_) {
    blame_live |= engine->blame_in_progress();
  }
  auto stale = std::remove_if(timers_.begin(), timers_.end(),
                              [round, blame_live](const PendingTimer& t) {
                                // Client timers are self-rearming heartbeats
                                // (retransmit/resync) — never stale by round.
                                if (t.client_owned) {
                                  return false;
                                }
                                return ServerEngine::TimerStaleAfterRound(t.token, round,
                                                                          blame_live);
                              });
  if (stale != timers_.end()) {
    timers_.erase(stale, timers_.end());
    std::make_heap(timers_.begin(), timers_.end(), TimerLater());
  }
  return outcome;
}

Coordinator::AccusationOutcome Coordinator::RunAccusationPhase() {
  // The blame machinery lives in the engines (§3.9 as a first-class protocol
  // phase): a flagged round drains the pipeline and runs the accusation
  // shuffle -> trace -> rebuttal -> BlameVerdict flow through the same
  // message pump as the rounds themselves. This driver only keeps rounds
  // turning until the verdict lands — the victim may first need a
  // request-bit round to reopen a garbled slot and raise its shuffle-request
  // field — then translates the engine report into the legacy outcome shape.
  for (int i = 0; i < 64 && !last_blame_.has_value() && !halted_; ++i) {
    bool blame_live = false;
    for (const auto& engine : server_engines_) {
      blame_live |= engine->blame_in_progress();
    }
    if (i >= 6 && !blame_live) {
      break;  // no request surfaced and nothing is in flight: nothing to do
    }
    RunRound();
  }
  AccusationOutcome outcome;
  if (!last_blame_.has_value()) {
    return outcome;
  }
  const ServerEngine::BlameDone& done = *last_blame_;
  outcome.shuffle_ran = done.shuffle_ran;
  outcome.accusation_found = done.accusation_found;
  outcome.accusation_valid = done.accusation_valid;
  outcome.verdict = done.trace;
  switch (done.verdict.kind) {
    case wire::BlameVerdict::kClientExpelled:
      outcome.expelled_client = done.verdict.culprit;
      break;
    case wire::BlameVerdict::kServerExposed:
      outcome.expelled_server = done.verdict.culprit;
      break;
    default:
      break;
  }
  outcome.shuffle_seconds = blame_shuffle_seconds_;
  outcome.trace_seconds = blame_trace_seconds_;
  // Consume: the buckets accumulated since the previous report belong to
  // this instance, whether it resolved here or inside earlier RunRounds.
  blame_shuffle_seconds_ = 0;
  blame_trace_seconds_ = 0;
  last_blame_.reset();
  return outcome;
}

void Coordinator::InjectDisruptor(size_t disruptor, size_t bit) {
  disruptor_ = DisruptorHook{disruptor, bit};
}

void Coordinator::InjectEquivocatingServer(size_t server_index) {
  equivocator_ = server_index;
}

void Coordinator::InjectTraceLiar(size_t server_index, size_t about_client) {
  // Logic-level hook: the lying server publishes (and itself consumes) a
  // self-consistent forged TraceEvidence, exactly as a real cheater would.
  servers_[server_index]->InjectTraceLie(about_client);
}

}  // namespace dissent
