#include "src/core/engine.h"

#include <algorithm>
#include <cassert>

#include "src/core/output_cert.h"

namespace dissent {

namespace {

// Bitmap helpers for the TraceEvidence / BlameChallenge wire bitmaps.
Bytes PackBits(const std::vector<bool>& bits) {
  Bytes out((bits.size() + 7) / 8, 0);
  for (size_t k = 0; k < bits.size(); ++k) {
    if (bits[k]) {
      out[k / 8] |= static_cast<uint8_t>(1u << (k % 8));
    }
  }
  return out;
}

// Strict inverse of PackBits: the wire codec's canonical-bitmap rule
// (exact width, no stray bits) gates every unpack, so hostile peers cannot
// smuggle state in oversized or padded bitmaps.
std::optional<std::vector<bool>> UnpackBits(const Bytes& bitmap, size_t n) {
  if (!BitmapCanonical(bitmap, n)) {
    return std::nullopt;
  }
  std::vector<bool> bits(n);
  for (size_t k = 0; k < n; ++k) {
    bits[k] = (bitmap[k / 8] >> (k % 8)) & 1;
  }
  return bits;
}

bool IsBlameGossip(const WireMessage& msg) {
  return std::holds_alternative<wire::BlameRoster>(msg) ||
         std::holds_alternative<wire::BlameMix>(msg) ||
         std::holds_alternative<wire::TraceEvidence>(msg) ||
         std::holds_alternative<wire::BlameRebuttal>(msg) ||
         std::holds_alternative<wire::VerdictShare>(msg);
}

uint64_t BlameSessionOf(const WireMessage& msg) {
  if (const auto* m = std::get_if<wire::BlameRoster>(&msg)) {
    return m->session;
  }
  if (const auto* m = std::get_if<wire::BlameMix>(&msg)) {
    return m->session;
  }
  if (const auto* m = std::get_if<wire::TraceEvidence>(&msg)) {
    return m->session;
  }
  if (const auto* m = std::get_if<wire::BlameRebuttal>(&msg)) {
    return m->session;
  }
  if (const auto* m = std::get_if<wire::VerdictShare>(&msg)) {
    return m->session;
  }
  return 0;
}

uint64_t PeerKey(const Peer& p) {
  return (static_cast<uint64_t>(p.kind) << 32) | p.index;
}

// RoundSummary frames answered per CatchUpRequest (a lagging client asks
// again once these are ingested).
constexpr size_t kCatchUpBatch = 64;
// Receive-window flood guard: sequence numbers this far beyond the
// cumulative frontier are hostile (an honest sender's pending set is
// bounded by its own unacked traffic, which retransmission keeps small).
constexpr uint64_t kRecvWindow = 4096;
// Sack bitmap covers (cum, cum + kSackSpan]; frames beyond it are simply
// retransmitted until the cumulative frontier advances.
constexpr uint64_t kSackSpan = 64;

}  // namespace

// ---------------------------------------------------------------------------
// ReliableMailbox
// ---------------------------------------------------------------------------

ReliableMailbox::Link& ReliableMailbox::LinkFor(const Peer& peer) {
  Link& l = links_[PeerKey(peer)];
  l.peer = peer;
  return l;
}

void ReliableMailbox::WrapOutgoing(std::vector<Envelope>& out, uint32_t self, int64_t now_us) {
  if (!cfg_.enabled) {
    return;
  }
  for (Envelope& env : out) {
    // Broadcast fan-outs stay unreliable (clients recover via catch-up);
    // Ack and already-wrapped frames (retransmissions) pass through.
    if (env.to.kind == Peer::Kind::kAttachedClients ||
        std::holds_alternative<wire::Ack>(*env.msg) ||
        std::holds_alternative<wire::Reliable>(*env.msg)) {
      continue;
    }
    Link& l = LinkFor(env.to);
    const uint64_t seq = l.next_seq++;
    wire::Reliable rel;
    rel.seq = seq;
    rel.from_id = self;
    rel.to_id = env.to.index;
    rel.inner = SerializeWire(*env.msg);
    auto wrapped = std::make_shared<const WireMessage>(std::move(rel));
    l.pending.emplace(seq, Pending{wrapped, now_us + cfg_.rto_us, cfg_.rto_us});
    env.msg = std::move(wrapped);
    ++reliable_sent_;
  }
  NotePeakInFlight();
}

void ReliableMailbox::NotePeakInFlight() {
  uint64_t total = 0;
  for (const auto& [key, l] : links_) {
    (void)key;
    total += l.pending.size();
  }
  max_in_flight_ = std::max(max_in_flight_, total);
}

void ReliableMailbox::EmitAck(const Link& l, uint32_t self, std::vector<Envelope>& out) const {
  wire::Ack ack;
  ack.seq = l.cum;
  ack.from_id = self;
  ack.to_id = l.peer.index;
  uint64_t max_off = 0;
  for (uint64_t s : l.ooo) {
    if (s > l.cum && s <= l.cum + kSackSpan) {
      max_off = std::max(max_off, s - l.cum);
    }
  }
  if (max_off > 0) {
    // Sized to the highest set bit, so the canonical no-trailing-zero-byte
    // wire rule holds by construction.
    ack.sack.assign((max_off + 7) / 8, 0);
    for (uint64_t s : l.ooo) {
      if (s > l.cum && s <= l.cum + kSackSpan) {
        const uint64_t k = s - l.cum - 1;
        ack.sack[k / 8] |= static_cast<uint8_t>(1u << (k % 8));
      }
    }
  }
  out.push_back({l.peer, std::make_shared<const WireMessage>(std::move(ack))});
}

ReliableMailbox::Recv ReliableMailbox::OnReliable(const Peer& from, const wire::Reliable& rel,
                                                  uint32_t self,
                                                  std::shared_ptr<const WireMessage>* inner,
                                                  std::vector<Envelope>& out) {
  if (!cfg_.enabled || rel.seq == 0) {
    return Recv::kMalformed;
  }
  Link& l = LinkFor(from);
  if (rel.seq > l.cum + kRecvWindow) {
    return Recv::kMalformed;  // flood guard: not even worth an ack
  }
  const bool fresh = rel.seq > l.cum && l.ooo.count(rel.seq) == 0;
  if (fresh) {
    if (rel.seq == l.cum + 1) {
      ++l.cum;
      while (l.ooo.erase(l.cum + 1) != 0) {
        ++l.cum;
      }
    } else {
      l.ooo.insert(rel.seq);
    }
  }
  // Always ack — a lost ack makes the sender retransmit, and the dedup
  // above makes that retransmission harmless.
  EmitAck(l, self, out);
  if (!fresh) {
    ++duplicates_dropped_;
    return Recv::kDuplicate;
  }
  auto parsed = ParseWire(rel.inner);
  if (!parsed.has_value()) {
    return Recv::kMalformed;
  }
  *inner = std::make_shared<const WireMessage>(std::move(*parsed));
  return Recv::kDeliver;
}

void ReliableMailbox::OnAck(const Peer& from, const wire::Ack& ack) {
  if (!cfg_.enabled) {
    return;
  }
  auto it = links_.find(PeerKey(from));
  if (it == links_.end()) {
    return;
  }
  Link& l = it->second;
  l.pending.erase(l.pending.begin(), l.pending.upper_bound(ack.seq));
  for (size_t k = 0; k < ack.sack.size() * 8; ++k) {
    if ((ack.sack[k / 8] >> (k % 8)) & 1) {
      l.pending.erase(ack.seq + 1 + k);
    }
  }
}

void ReliableMailbox::Sweep(int64_t now_us, std::vector<Envelope>& out) {
  for (auto& [key, l] : links_) {
    (void)key;
    for (auto& [seq, p] : l.pending) {
      (void)seq;
      if (p.due_us > now_us) {
        continue;
      }
      p.rto_us = std::min<int64_t>(p.rto_us * 2, cfg_.max_rto_us);
      p.due_us = now_us + p.rto_us;
      out.push_back({l.peer, p.frame});
      ++retransmits_;
    }
  }
}

bool ReliableMailbox::HasPending() const {
  for (const auto& [key, l] : links_) {
    (void)key;
    if (!l.pending.empty()) {
      return true;
    }
  }
  return false;
}

void ReliableMailbox::SerializeTo(Writer& w) const {
  w.U32(static_cast<uint32_t>(links_.size()));
  for (const auto& [key, l] : links_) {
    (void)key;
    w.U8(static_cast<uint8_t>(l.peer.kind));
    w.U32(l.peer.index);
    w.U64(l.next_seq);
    w.U64(l.cum);
    w.U32(static_cast<uint32_t>(l.ooo.size()));
    for (uint64_t s : l.ooo) {
      w.U64(s);
    }
    w.U32(static_cast<uint32_t>(l.pending.size()));
    for (const auto& [seq, p] : l.pending) {
      w.U64(seq);
      w.Blob(SerializeWire(*p.frame));
    }
  }
}

bool ReliableMailbox::RestoreFrom(Reader& r) {
  links_.clear();
  uint32_t n = 0;
  if (!r.U32(&n) || n > (1u << 16)) {
    return false;
  }
  for (uint32_t i = 0; i < n; ++i) {
    uint8_t kind = 0;
    uint32_t idx = 0;
    if (!r.U8(&kind) || kind > static_cast<uint8_t>(Peer::Kind::kAttachedClients) ||
        !r.U32(&idx)) {
      return false;
    }
    Link& l = LinkFor(Peer{static_cast<Peer::Kind>(kind), idx});
    uint32_t n_ooo = 0;
    uint32_t n_pending = 0;
    if (!r.U64(&l.next_seq) || !r.U64(&l.cum) || !r.U32(&n_ooo) || n_ooo > kRecvWindow) {
      return false;
    }
    for (uint32_t k = 0; k < n_ooo; ++k) {
      uint64_t s = 0;
      if (!r.U64(&s)) {
        return false;
      }
      l.ooo.insert(s);
    }
    if (!r.U32(&n_pending) || n_pending > kRecvWindow) {
      return false;
    }
    for (uint32_t k = 0; k < n_pending; ++k) {
      uint64_t seq = 0;
      Bytes frame;
      if (!r.U64(&seq) || !r.Blob(&frame)) {
        return false;
      }
      auto parsed = ParseWire(frame);
      if (!parsed.has_value() || !std::holds_alternative<wire::Reliable>(*parsed)) {
        return false;
      }
      // Due immediately, back at the initial timeout: the restart itself is
      // the backoff.
      l.pending.emplace(
          seq, Pending{std::make_shared<const WireMessage>(std::move(*parsed)), 0, cfg_.rto_us});
    }
  }
  return true;
}

// ---------------------------------------------------------------------------
// ServerEngine
// ---------------------------------------------------------------------------

ServerEngine::ServerEngine(DissentServer* logic, const GroupDef& def, Config config,
                           std::optional<SecureRng> sched_rng)
    : logic_(logic),
      def_(def),
      config_(std::move(config)),
      index_(logic->index()),
      num_servers_(def.num_servers()),
      sched_rng_(std::move(sched_rng)),
      mailbox_(config_.reliability) {
  assert(config_.pipeline_depth == logic_->pipeline_depth());
  rounds_.resize(std::max<size_t>(config_.pipeline_depth, 1));
  for (RoundState& st : rounds_) {
    ClearGossip(st);  // a snapshot may precede round 1
  }
  blame_width_ = MessageBlockWidth(def_, kAccusationBytes);
  // Scheduling traffic can arrive before StartSession (a faster sibling's
  // roster, an early row); the cascade is open to keep it.
  if (NeedsScheduling()) {
    OpenCascade(wire::kScheduleSession, 1);
  }
}

size_t ServerEngine::inflight_rounds() const {
  size_t n = 0;
  for (const RoundState& st : rounds_) {
    n += st.active ? 1 : 0;
  }
  return n;
}

void ServerEngine::ClearGossip(RoundState& st) const {
  st.inventories.assign(num_servers_, std::nullopt);
  st.commits.assign(num_servers_, std::nullopt);
  st.server_cts.assign(num_servers_, std::nullopt);
  st.sigs.assign(num_servers_, std::nullopt);
  st.reoffered.assign(num_servers_, false);
}

ServerEngine::RoundState* ServerEngine::FindRound(uint64_t round) {
  RoundState& st = rounds_[round % rounds_.size()];
  return st.active && st.round == round ? &st : nullptr;
}

ServerEngine::Actions ServerEngine::StartSession(int64_t now_us) {
  Actions a;
  if (!NeedsScheduling()) {
    // Keys installed out of band: the session is live at once.
    cascade_ = Cascade{};
    live_ = true;
    for (size_t k = 0; k < config_.pipeline_depth; ++k) {
      StartRound(next_round_to_start_, now_us, a);
    }
  } else {
    MaybeCloseCollection(now_us, a);
  }
  Seal(a, now_us);
  return a;
}

void ServerEngine::StartRound(uint64_t round, int64_t now_us, Actions& a) {
  assert(round == next_round_to_start_);
  ++next_round_to_start_;
  logic_->StartRound(round);
  // Ring reuse: the slot of round r - depth was released when that round
  // finished; gathering vectors keep their capacity across rounds.
  RoundState& st = rounds_[round % rounds_.size()];
  assert(!st.active);
  st.round = round;
  st.active = true;
  st.started_us = now_us;
  st.window_closed = false;
  st.window_timer_armed = false;
  st.window_close_at_us = 0;
  st.sent_commit = st.sent_ct = st.sent_sig = false;
  st.promised_abort = false;
  st.participation = 0;
  st.cleartext.clear();
  ClearGossip(st);
  a.timers.push_back({Token(round, kHardDeadline), config_.hard_deadline_us});
  if (config_.abort_deadline_us > 0) {
    a.timers.push_back({Token(round, kAbortDeadline), config_.abort_deadline_us});
  }
  // A server expecting zero submissions (no attached clients, or all
  // expelled) is window-satisfied the moment the round opens; without this
  // its window would idle until the hard deadline — wall-clock-fatal on the
  // real-socket transport, invisible under simulated time.
  MaybeArmWindowTimer(round, now_us, a);
  // Replay server-phase traffic that arrived before we opened this round.
  auto early = early_.find(round);
  if (early != early_.end()) {
    auto msgs = std::move(early->second);
    early_.erase(early);
    for (auto& [sender, msg] : msgs) {
      HandleServerPhase(sender, msg, now_us, a);
    }
  }
}

ServerEngine::Actions ServerEngine::HandleMessage(const Peer& from, const WireMessage& msg,
                                                  int64_t now_us) {
  Actions a;
  if (halted_) {
    return a;
  }
  // Reliability layer first: peel Reliable wrappers (ack + dedup) and
  // consume Acks before any protocol dispatch.
  if (const auto* ack = std::get_if<wire::Ack>(&msg)) {
    mailbox_.OnAck(from, *ack);
    Seal(a, now_us);
    return a;
  }
  if (const auto* rel = std::get_if<wire::Reliable>(&msg)) {
    std::shared_ptr<const WireMessage> inner;
    if (mailbox_.OnReliable(from, *rel, static_cast<uint32_t>(index_), &inner, a.out) ==
        ReliableMailbox::Recv::kDeliver) {
      DispatchMessage(from, *inner, now_us, a);
    }
    Seal(a, now_us);
    return a;
  }
  DispatchMessage(from, msg, now_us, a);
  Seal(a, now_us);
  return a;
}

void ServerEngine::DispatchMessage(const Peer& from, const WireMessage& msg, int64_t now_us,
                                   Actions& a) {
  if (const auto* submit = std::get_if<wire::ClientSubmit>(&msg)) {
    if (from.kind != Peer::Kind::kClient || from.index != submit->client_id) {
      return;
    }
    RoundState* st = FindRound(submit->round);
    if (st == nullptr || st->window_closed) {
      return;
    }
    if (logic_->AcceptClientCiphertext(submit->round, submit->client_id, submit->ciphertext)) {
      if (submit->round > next_round_to_finish_) {
        ++pipelined_submissions_;  // an earlier round is still in flight
      }
      MaybeArmWindowTimer(submit->round, now_us, a);
    }
    return;
  }
  if (const auto* req = std::get_if<wire::CatchUpRequest>(&msg)) {
    HandleCatchUpRequest(from, *req, a);
    return;
  }
  if (const auto* abort = std::get_if<wire::RoundAbort>(&msg)) {
    if (from.kind == Peer::Kind::kServer && from.index == abort->server_id &&
        abort->server_id < num_servers_ && abort->server_id != index_) {
      RecordAbortVote(abort->round, abort->server_id, now_us, a);
    }
    return;
  }
  if (const auto* prep = std::get_if<wire::AbortPrepare>(&msg)) {
    HandleAbortPrepare(from, *prep, now_us, a);
    return;
  }
  if (const auto* cert = std::get_if<wire::AbortCommit>(&msg)) {
    HandleAbortCommit(from, *cert, now_us, a);
    return;
  }
  if (const auto* creq = std::get_if<wire::ServerCatchUpRequest>(&msg)) {
    HandleServerCatchUpRequest(from, *creq, a);
    return;
  }
  if (const auto* batch = std::get_if<wire::ServerCatchUpBatch>(&msg)) {
    HandleServerCatchUpBatch(from, *batch, now_us, a);
    return;
  }
  if (std::holds_alternative<wire::AccusationSubmit>(msg) || IsBlameGossip(msg)) {
    HandleBlameMessage(from, msg, now_us, a);
    return;
  }
  // Everything else is server-to-server gossip.
  if (from.kind != Peer::Kind::kServer) {
    return;
  }
  HandleServerPhase(from.index, msg, now_us, a);
  // Any phase message can be the last missing piece (including the one that
  // lets us certify and add our own signature): always re-check completion.
  MaybeFinishRounds(now_us, a);
}

void ServerEngine::HandleServerPhase(uint32_t sender, const WireMessage& msg, int64_t now_us,
                                     Actions& a) {
  uint64_t round = 0;
  uint32_t claimed = 0;
  if (const auto* m = std::get_if<wire::Inventory>(&msg)) {
    round = m->round;
    claimed = m->server_id;
  } else if (const auto* m = std::get_if<wire::Commit>(&msg)) {
    round = m->round;
    claimed = m->server_id;
  } else if (const auto* m = std::get_if<wire::ServerCiphertext>(&msg)) {
    round = m->round;
    claimed = m->server_id;
  } else if (const auto* m = std::get_if<wire::SignatureShare>(&msg)) {
    round = m->round;
    claimed = m->server_id;
  } else {
    return;  // Output/accusation messages are not server-engine input
  }
  if (claimed != sender || sender >= num_servers_ || sender == index_) {
    return;
  }
  if (round < next_round_to_finish_) {
    return;  // stale
  }
  RoundState* strp = FindRound(round);
  if (strp == nullptr) {
    // A faster peer is ahead of us; hold its message until we open the
    // round. Bounded in both round range and per-round size so a
    // misbehaving peer cannot grow the buffer: one slot per (sender, phase).
    if (round >= next_round_to_start_ &&
        round < next_round_to_start_ + 2 * config_.pipeline_depth + 2) {
      auto& pending = early_[round];
      for (const auto& [held_sender, held_msg] : pending) {
        if (held_sender == sender && held_msg.index() == msg.index()) {
          return;  // duplicate phase message from this peer: first wins
        }
      }
      pending.emplace_back(sender, msg);
    }
    return;
  }
  // First write wins on every gossip slot: accepting a replacement would let
  // a server re-commit after honest ciphertexts are revealed (voiding the
  // commit-then-reveal binding of Algorithm 2 steps 3-5) or swap its
  // inventory/ciphertext/signature mid-phase.
  RoundState& st = *strp;
  if (const auto* m = std::get_if<wire::Inventory>(&msg)) {
    if (st.inventories[sender].has_value()) {
      ReofferRoundFrames(round, sender, a);
      return;
    }
    for (uint32_t id : m->clients) {
      if (id >= def_.num_clients()) {
        return;
      }
    }
    st.inventories[sender] = m->clients;
    MaybeBuildCiphertext(round, a);
  } else if (const auto* m = std::get_if<wire::Commit>(&msg)) {
    if (st.commits[sender].has_value()) {
      ReofferRoundFrames(round, sender, a);
      return;
    }
    st.commits[sender] = m->commitment;
    MaybeShareCiphertext(round, a);
  } else if (const auto* m = std::get_if<wire::ServerCiphertext>(&msg)) {
    if (st.server_cts[sender].has_value()) {
      ReofferRoundFrames(round, sender, a);
      return;
    }
    st.server_cts[sender] = m->ciphertext;
    MaybeCertify(round, a);
  } else if (const auto* m = std::get_if<wire::SignatureShare>(&msg)) {
    if (st.sigs[sender].has_value()) {
      ReofferRoundFrames(round, sender, a);
      return;
    }
    if (!SchnorrSignature::Deserialize(*def_.group, m->signature).has_value()) {
      return;
    }
    st.sigs[sender] = m->signature;
    // A sibling signature can be the release condition for a round we
    // promised to abort (every other server signed): re-check certification.
    MaybeCertify(round, a);
  }
}

ServerEngine::Actions ServerEngine::HandleTimer(uint64_t token, int64_t now_us) {
  Actions a;
  if (halted_) {
    return a;
  }
  const uint64_t id = TimerTokenId(token);
  const TimerKind kind = static_cast<TimerKind>(token & ((1ull << kTimerKindBits) - 1));
  if (kind == kRetransmit) {
    // The repeating mailbox sweep: re-send every due unacked frame; Seal
    // re-arms the timer while anything is still pending.
    retransmit_armed_ = false;
    mailbox_.Sweep(now_us, a.out);
    Seal(a, now_us);
    return a;
  }
  if (kind == kBlameCollect) {
    // Collection backstop: proceed with whoever answered (offline clients
    // never will; §3.6 silence is indistinguishable from departure).
    if (blame_.active && blame_.session == id) {
      MaybeCloseCollection(now_us, a, /*deadline=*/true);
    }
    Seal(a, now_us);
    return a;
  }
  if (kind == kBlameRebuttal) {
    // A silent accused client concedes (§3.9): expulsion by default.
    if (blame_.active && blame_.awaiting_rebuttal && blame_.session == id) {
      FinishBlame(wire::BlameVerdict::kClientExpelled, blame_.accused, now_us, a);
    }
    Seal(a, now_us);
    return a;
  }
  if (kind == kVerdictShares) {
    // Agreement backstop: a share that never arrives (crashed or silent
    // peer) downgrades the verdict — nobody is expelled on a verdict the
    // whole fleet did not provably reach.
    if (blame_.active && blame_.awaiting_shares && blame_.session == id) {
      ConcludeBlame(wire::BlameVerdict::kInconclusive, 0, false, now_us, a);
    }
    Seal(a, now_us);
    return a;
  }
  if (kind == kAbortDeadline) {
    // The round is still unresolved this long after it opened: vote to
    // abort it (the vote only carries once >= M-1 servers agree).
    if (config_.abort_agreement && config_.abort_deadline_us > 0) {
      // Two-phase path: sign and (re-)broadcast our prepare for the finish
      // frontier, and re-arm so a healed partition eventually re-exchanges
      // votes at the converged epoch — receivers dedup, so re-broadcast is
      // free when nothing changed.
      if (FindRound(id) != nullptr && !catching_up_) {
        if (id == next_round_to_finish_) {
          BroadcastOwnPrepare(id, now_us, a);
        }
        a.timers.push_back({Token(id, kAbortDeadline), config_.abort_deadline_us});
      }
    } else if (FindRound(id) != nullptr) {
      RecordAbortVote(id, static_cast<uint32_t>(index_), now_us, a);
    }
    Seal(a, now_us);
    return a;
  }
  if (kind == kServerCatchUp) {
    // Repeating catch-up retry: keep asking siblings for the missing round
    // history until one of them confirms our frontier matches the fleet's.
    catchup_timer_armed_ = false;
    if (catching_up_) {
      SendServerCatchUpRequest(a);
      catchup_timer_armed_ = true;
      a.timers.push_back({Token(0, kServerCatchUp), config_.abort_deadline_us});
    }
    Seal(a, now_us);
    return a;
  }
  RoundState* st = FindRound(id);
  if (st == nullptr || st->window_closed) {
    return a;  // stale timer: round finished or window already closed
  }
  CloseWindow(id, a);
  MaybeFinishRounds(now_us, a);
  Seal(a, now_us);
  return a;
}

void ServerEngine::Broadcast(WireMessage msg, Actions& a) {
  auto shared = std::make_shared<const WireMessage>(std::move(msg));
  for (uint32_t j = 0; j < num_servers_; ++j) {
    if (j != index_) {
      a.out.push_back({ServerPeer(j), shared});
    }
  }
}

void ServerEngine::MaybeArmWindowTimer(uint64_t round, int64_t now_us, Actions& a) {
  RoundState& st = *FindRound(round);
  if (st.window_closed || st.window_timer_armed) {
    return;
  }
  // Close once `fraction` of the expected submitters answered, after
  // multiplier * elapsed (§5.1). The expectation is the previous window's
  // observed participation when adaptive, the static attached share
  // otherwise (and for the first window, which has no observation).
  // Expelled clients (§3.9) are out of every schedule from expulsion on.
  size_t expected = config_.attached_clients.size() - expelled_attached_;
  if (config_.adaptive_window && last_window_observed_ > 0) {
    expected = std::min(last_window_observed_, expected);
  }
  size_t threshold = static_cast<size_t>(config_.window_fraction * static_cast<double>(expected));
  if (expected > 0 && logic_->SubmissionCount(round) < std::max<size_t>(threshold, 1)) {
    return;
  }
  int64_t elapsed = now_us - st.started_us;
  int64_t close_at =
      static_cast<int64_t>(static_cast<double>(elapsed) * config_.window_multiplier);
  st.window_timer_armed = true;
  const int64_t delay = std::max<int64_t>(close_at - elapsed, 0);
  st.window_close_at_us = now_us + delay;  // absolute, for snapshot re-arming
  a.timers.push_back({Token(round, kWindowPolicy), delay});
}

void ServerEngine::CloseWindow(uint64_t round, Actions& a) {
  RoundState& st = *FindRound(round);
  st.window_closed = true;
  last_window_observed_ = logic_->SubmissionCount(round);
  std::vector<uint32_t> inv = logic_->Inventory(round);
  Broadcast(wire::Inventory{round, static_cast<uint32_t>(index_), inv}, a);
  st.inventories[index_] = std::move(inv);
  MaybeBuildCiphertext(round, a);
}

void ServerEngine::MaybeBuildCiphertext(uint64_t round, Actions& a) {
  RoundState& st = *FindRound(round);
  if (st.sent_commit || !st.window_closed) {
    return;
  }
  std::vector<std::vector<uint32_t>> inventories;
  inventories.reserve(num_servers_);
  for (auto& inv : st.inventories) {
    if (!inv.has_value()) {
      return;  // still waiting
    }
    inventories.push_back(*inv);
  }
  auto trimmed = DissentServer::TrimInventories(inventories);
  std::vector<uint32_t> composite;
  for (const auto& share : trimmed) {
    composite.insert(composite.end(), share.begin(), share.end());
  }
  std::sort(composite.begin(), composite.end());
  st.participation = composite.size();
  logic_->BuildServerCiphertext(round, composite, trimmed[index_]);
  Bytes commit = logic_->CommitHash(round);
  Broadcast(wire::Commit{round, static_cast<uint32_t>(index_), commit}, a);
  st.commits[index_] = std::move(commit);
  st.sent_commit = true;
  MaybeShareCiphertext(round, a);
}

void ServerEngine::MaybeShareCiphertext(uint64_t round, Actions& a) {
  RoundState& st = *FindRound(round);
  if (!st.sent_commit || st.sent_ct || !AllPresent(st.commits)) {
    return;
  }
  // Commitment phase done: share the ciphertext (Algorithm 2 step 4).
  Bytes ct = logic_->server_ciphertext(round);
  Broadcast(wire::ServerCiphertext{round, static_cast<uint32_t>(index_), ct}, a);
  st.server_cts[index_] = std::move(ct);
  st.sent_ct = true;
  MaybeCertify(round, a);
}

void ServerEngine::MaybeCertify(uint64_t round, Actions& a) {
  RoundState& st = *FindRound(round);
  if (!st.sent_ct || st.sent_sig || !AllPresent(st.server_cts)) {
    return;
  }
  // Abort-agreement promise: once we signed a prepare for this round we
  // withhold our SignatureShare — after voting, the frames we send can feed
  // an abort certificate or nothing, never a certified output. One release:
  // if every sibling's signature is already here, at most one server (us)
  // ever prepared — below the M-1 certificate quorum — so no abort
  // certificate can ever assemble and completing is the only outcome left.
  // (Two promisers block each other forever: each needs the other's
  // signature to release, so neither signs and the round aborts instead.)
  if (config_.abort_agreement && config_.abort_deadline_us > 0 && st.promised_abort) {
    for (size_t o = 0; o < num_servers_; ++o) {
      if (o != index_ && !st.sigs[o].has_value()) {
        return;
      }
    }
  }
  std::vector<const Bytes*> cts, commits;
  cts.reserve(num_servers_);
  commits.reserve(num_servers_);
  for (size_t o = 0; o < num_servers_; ++o) {
    cts.push_back(&*st.server_cts[o]);
    commits.push_back(&*st.commits[o]);
  }
  auto cleartext = logic_->CombineAndVerify(round, cts, commits);
  if (!cleartext.has_value()) {
    // Equivocation: the round (and session) halts here with the culprit
    // identified; recovery is a group re-form, outside the engine.
    halted_ = true;
    RoundDone done;
    done.round = round;
    done.completed = false;
    done.equivocating_server = logic_->detected_equivocator();
    done.started_at_us = st.started_us;
    a.done.push_back(std::move(done));
    return;
  }
  st.cleartext = std::move(*cleartext);
  SchnorrSignature sig = logic_->SignRoundOutput(round, st.cleartext);
  Bytes sig_bytes = sig.Serialize(*def_.group);
  Broadcast(wire::SignatureShare{round, static_cast<uint32_t>(index_), sig_bytes}, a);
  st.sigs[index_] = std::move(sig_bytes);
  st.sent_sig = true;
}

void ServerEngine::ReofferRoundFrames(uint64_t round, uint32_t sender, Actions& a) {
  // An engine-visible duplicate phase frame means the sender re-ran this
  // round (the mailbox dedups same-seq retransmits before we ever see them;
  // only a fresh incarnation re-sends under a new sequence number). Our own
  // frames for the round were acked to its dead incarnation and will never
  // be retransmitted, so re-offer them — once per sender — or the restarted
  // round deadlocks waiting on frames nobody will send again.
  RoundState* strp = FindRound(round);
  if (strp == nullptr || sender >= num_servers_ || strp->reoffered[sender]) {
    return;
  }
  RoundState& st = *strp;
  st.reoffered[sender] = true;
  const auto me = static_cast<uint32_t>(index_);
  const Peer peer = ServerPeer(sender);
  if (st.inventories[index_].has_value()) {
    a.out.push_back({peer, std::make_shared<const WireMessage>(
        wire::Inventory{round, me, *st.inventories[index_]})});
  }
  if (st.commits[index_].has_value()) {
    a.out.push_back({peer, std::make_shared<const WireMessage>(
        wire::Commit{round, me, *st.commits[index_]})});
  }
  if (st.server_cts[index_].has_value()) {
    a.out.push_back({peer, std::make_shared<const WireMessage>(
        wire::ServerCiphertext{round, me, *st.server_cts[index_]})});
  }
  if (st.sigs[index_].has_value()) {
    a.out.push_back({peer, std::make_shared<const WireMessage>(
        wire::SignatureShare{round, me, *st.sigs[index_]})});
  }
}

void ServerEngine::MaybeFinishRounds(int64_t now_us, Actions& a) {
  // Rounds may certify out of order when gossip for round r+1 outpaces a
  // straggling signature for round r, but outputs are distributed strictly
  // in round order so clients advance their schedules consistently.
  while (!halted_) {
    RoundState* strp = FindRound(next_round_to_finish_);
    if (strp == nullptr || !strp->sent_sig || !AllPresent(strp->sigs)) {
      return;
    }
    RoundState& st = *strp;
    const uint64_t round = st.round;
    wire::Output out;
    out.round = round;
    out.cleartext = st.cleartext;
    out.signatures.reserve(num_servers_);
    for (auto& sig : st.sigs) {
      out.signatures.push_back(*sig);
    }
    if (config_.output_history > 0) {
      wire::RoundSummary summary;
      summary.round = round;
      summary.aborted = false;
      summary.cleartext = out.cleartext;
      summary.signatures = out.signatures;
      RetainSummary(std::move(summary));
    }
    // One broadcast envelope for the whole attachment set: the transport
    // fans it out (per machine or per client) without the engine doing
    // per-client work.
    a.out.push_back({AttachedClientsPeer(static_cast<uint32_t>(index_)),
                     std::make_shared<const WireMessage>(std::move(out))});
    auto fin = logic_->FinishRound(round, st.cleartext);
    RoundDone done;
    done.round = round;
    done.completed = true;
    done.cleartext = std::move(st.cleartext);
    done.participation = st.participation;
    done.accusation_requested = fin.accusation_requested;
    done.started_at_us = st.started_us;
    done.below_alpha =
        last_participation_ > 0 &&
        static_cast<double>(st.participation) <
            def_.policy.alpha * static_cast<double>(last_participation_);
    last_participation_ = st.participation;
    const bool flagged = done.accusation_requested;
    a.done.push_back(std::move(done));
    st.active = false;
    abort_votes_.erase(round);
    abort_prepares_.erase(round);
    pending_certs_.erase(round);
    ++next_round_to_finish_;
    ++rounds_completed_;
    // Blame sub-phase trigger (§3.9): a flagged round suspends the pipeline
    // deterministically — no new rounds open, in-flight rounds drain, and
    // the blame protocol runs once the last one finishes. The session id is
    // the first flagged round; flags seen while draining join the same
    // instance (the shuffle carries every pending accusation anyway).
    if (flagged && !blame_.pending && !blame_.active) {
      blame_.pending = true;
      blame_.session = round;
    }
    if (blame_.pending) {
      MaybeStartBlame(now_us, a);
      continue;  // do not open a replacement round while blame is pending
    }
    StartRound(next_round_to_start_, now_us, a);
  }
}

bool ServerEngine::AllPresent(const std::vector<std::optional<Bytes>>& v) const {
  for (const auto& e : v) {
    if (!e.has_value()) {
      return false;
    }
  }
  return true;
}

void ServerEngine::Seal(Actions& a, int64_t now_us) {
  if (!mailbox_.enabled()) {
    return;
  }
  mailbox_.WrapOutgoing(a.out, static_cast<uint32_t>(index_), now_us);
  if (mailbox_.HasPending() && !retransmit_armed_) {
    retransmit_armed_ = true;
    a.timers.push_back({Token(0, kRetransmit), config_.reliability.rto_us});
  }
}

void ServerEngine::RetainSummary(wire::RoundSummary summary) {
  if (config_.output_history == 0) {
    return;
  }
  recent_.push_back(std::move(summary));
  while (recent_.size() > config_.output_history) {
    recent_.pop_front();
  }
}

void ServerEngine::HandleCatchUpRequest(const Peer& from, const wire::CatchUpRequest& req,
                                        Actions& a) {
  // Only our own attached clients get history (the transport authenticated
  // the claim; a client resyncing against a foreign server gets silence).
  if (from.kind != Peer::Kind::kClient || from.index != req.client_id ||
      !IsAttached(req.client_id) || logic_->IsExpelled(req.client_id)) {
    return;
  }
  const uint64_t fin = next_round_to_finish_ - 1;
  size_t sent = 0;
  for (const auto& s : recent_) {
    if (s.round <= req.have_round) {
      continue;
    }
    if (sent == kCatchUpBatch) {
      break;  // the client asks again once these are ingested
    }
    ++sent;
    wire::RoundSummary copy = s;
    copy.final_round = fin;
    a.out.push_back(
        {ClientPeer(req.client_id), std::make_shared<const WireMessage>(std::move(copy))});
  }
  // A gap older than the retained history cannot be served: the client
  // stays stalled and a real deployment would re-admit it via a group
  // re-form. recent_ is sized (output_history) to cover every outage the
  // fault model can produce.
}

void ServerEngine::RecordAbortVote(uint64_t round, uint32_t server, int64_t now_us, Actions& a) {
  // Legacy one-shot path only: with abort agreement on, unsigned RoundAbort
  // frames (including hostile ones) are ignored entirely.
  if (config_.abort_deadline_us <= 0 || config_.abort_agreement || server >= num_servers_) {
    return;
  }
  // Votes are only meaningful for rounds still unresolved and within the
  // window any honest server could have open.
  if (round < next_round_to_finish_ ||
      round >= next_round_to_start_ + 2 * config_.pipeline_depth + 2) {
    return;
  }
  auto& votes = abort_votes_[round];
  if (votes.empty()) {
    votes.assign(num_servers_, false);
  }
  if (votes[server]) {
    return;
  }
  votes[server] = true;
  if (server == index_) {
    Broadcast(wire::RoundAbort{round, static_cast<uint32_t>(index_)}, a);
  }
  MaybeAbortRound(round, now_us, a);
}

void ServerEngine::MaybeAbortRound(uint64_t round, int64_t now_us, Actions& a) {
  // Aborts resolve strictly at the finish frontier, like outputs, so every
  // client sees one totally-ordered schedule history.
  if (round != next_round_to_finish_) {
    return;
  }
  auto it = abort_votes_.find(round);
  if (it == abort_votes_.end()) {
    return;
  }
  const std::vector<bool>& votes = it->second;
  // Never abort a round we did not give up on ourselves, and require every
  // server that could still be alive (>= M-1 of M) to agree. A server that
  // can finish the round finishes it instead of voting; the residual race —
  // one survivor certifying in the same instant its peers vote — is the
  // classic asynchronous-consensus gap and is documented as out of scope
  // (deployments re-form the group on server failure, §3.5).
  if (!votes[index_]) {
    return;
  }
  size_t n = 0;
  for (bool v : votes) {
    n += v ? 1 : 0;
  }
  if (n + 1 < num_servers_) {
    return;
  }
  ApplyAbort(round, now_us, a);
  MaybeAbortRound(next_round_to_finish_, now_us, a);
}

void ServerEngine::ApplyAbort(uint64_t round, int64_t now_us, Actions& a) {
  RoundState* st = FindRound(round);
  const int64_t started = st != nullptr ? st->started_us : now_us;
  if (st != nullptr) {
    st->active = false;
  }
  // The logic advances every schedule with an all-zero cleartext — slots
  // close, owners re-request — so clients and servers stay in lockstep
  // through the gap.
  logic_->AbortRound(round);
  abort_votes_.erase(round);
  abort_prepares_.erase(round);
  pending_certs_.erase(round);
  ++next_round_to_finish_;
  ++rounds_aborted_;
  RoundDone done;
  done.round = round;
  done.completed = false;
  done.aborted = true;
  done.started_at_us = started;
  a.done.push_back(std::move(done));
  wire::RoundSummary summary;
  summary.round = round;
  summary.aborted = true;
  RetainSummary(summary);
  if (!config_.attached_clients.empty()) {
    summary.final_round = next_round_to_finish_ - 1;
    a.out.push_back({AttachedClientsPeer(static_cast<uint32_t>(index_)),
                     std::make_shared<const WireMessage>(WireMessage(std::move(summary)))});
  }
  if (catching_up_) {
    return;  // catch-up replay: the batch handler reopens the pipeline
  }
  // Reopen the pipeline (or let a pending blame instance run now that the
  // wedged round is out of the way).
  if (blame_.pending) {
    MaybeStartBlame(now_us, a);
  } else if (!blame_.active) {
    StartRound(next_round_to_start_, now_us, a);
  }
  MaybeFinishRounds(now_us, a);
}

// ---------------------------------------------------------------------------
// ServerEngine: epoch-committed abort agreement + server catch-up
// ---------------------------------------------------------------------------

void ServerEngine::BroadcastOwnPrepare(uint64_t round, int64_t now_us, Actions& a) {
  RoundState* st = FindRound(round);
  if (st != nullptr && st->sent_sig) {
    // Our SignatureShare is on the wire: a sibling may already hold the full
    // M-signature set and have certified this round's output, so our prepare
    // must never feed an abort certificate. The round can only be stuck on a
    // missing sibling signature; if that incarnation died holding it, a
    // sibling whose frontier moved past us replays the certified round.
    SendServerCatchUpRequest(a);
    return;
  }
  if (st != nullptr) {
    st->promised_abort = true;
  }
  const uint64_t epoch = rounds_aborted_;
  auto& prepares = abort_prepares_[round];
  auto own = prepares.find(static_cast<uint32_t>(index_));
  if (own == prepares.end() || own->second.first != epoch) {
    prepares[static_cast<uint32_t>(index_)] = {epoch, logic_->SignAbortPrepare(round, epoch)};
  }
  wire::AbortPrepare msg;
  msg.round = round;
  msg.epoch = epoch;
  msg.server_id = static_cast<uint32_t>(index_);
  msg.signature = prepares[static_cast<uint32_t>(index_)].second;
  Broadcast(std::move(msg), a);
  MaybeAssembleAbortCert(round, now_us, a);
}

void ServerEngine::HandleAbortPrepare(const Peer& from, const wire::AbortPrepare& msg,
                                      int64_t now_us, Actions& a) {
  if (config_.abort_deadline_us <= 0 || !config_.abort_agreement) {
    return;
  }
  if (from.kind != Peer::Kind::kServer || from.index != msg.server_id ||
      msg.server_id >= num_servers_ || msg.server_id == index_) {
    return;
  }
  if (msg.round < next_round_to_finish_) {
    // The sender is voting on a round our frontier already resolved: it is
    // running behind (stale snapshot). Its votes are no-ops fleet-wide —
    // reliable delivery acks them, so they are never re-sent — which is
    // exactly the wedge the old one-shot path could never escape. Push the
    // missing history unprompted (idempotent; it also asks on a timer).
    wire::ServerCatchUpRequest implied;
    implied.have_round = msg.round > 0 ? msg.round - 1 : 0;
    implied.server_id = msg.server_id;
    HandleServerCatchUpRequest(from, implied, a);
    return;
  }
  if (msg.round >= next_round_to_start_ + 2 * config_.pipeline_depth + 2) {
    return;  // beyond any round an honest peer could have open
  }
  if (msg.epoch != rounds_aborted_) {
    return;  // divergent abort history; certificate replay converges it
  }
  if (!logic_->VerifyAbortPrepare(msg.round, msg.epoch, msg.server_id, msg.signature)) {
    return;  // forged
  }
  auto& prepares = abort_prepares_[msg.round];
  auto [pit, inserted] = prepares.emplace(msg.server_id, std::make_pair(msg.epoch, msg.signature));
  if (!inserted && pit->second.first != msg.epoch) {
    pit->second = {msg.epoch, msg.signature};  // re-vote at the converged epoch
  }
  MaybeAssembleAbortCert(msg.round, now_us, a);
}

void ServerEngine::MaybeAssembleAbortCert(uint64_t round, int64_t now_us, Actions& a) {
  // Certificates assemble strictly at the finish frontier, from prepares at
  // the current epoch, and only around our own vote — receiving a finished
  // certificate (HandleAbortCommit) has no own-vote requirement, which is
  // what lets a healing partition converge on the other side's decision.
  if (round != next_round_to_finish_) {
    return;
  }
  auto it = abort_prepares_.find(round);
  if (it == abort_prepares_.end()) {
    return;
  }
  const uint64_t epoch = rounds_aborted_;
  auto own = it->second.find(static_cast<uint32_t>(index_));
  if (own == it->second.end() || own->second.first != epoch) {
    return;
  }
  wire::AbortCommit cert;
  cert.round = round;
  cert.epoch = epoch;
  for (const auto& [sid, es] : it->second) {  // std::map: ids ascend, wire-canonical
    if (es.first == epoch) {
      cert.server_ids.push_back(sid);
      cert.signatures.push_back(es.second);
    }
  }
  if (cert.server_ids.size() + 1 < num_servers_) {
    return;  // quorum is all alive servers: >= M-1 of M
  }
  Broadcast(cert, a);
  CommitAbortCert(std::move(cert), now_us, a);
}

bool ServerEngine::VerifyAbortCert(const wire::AbortCommit& cert, uint64_t epoch) const {
  if (cert.epoch != epoch || cert.server_ids.size() != cert.signatures.size() ||
      cert.server_ids.size() + 1 < num_servers_) {
    return false;
  }
  for (size_t k = 0; k < cert.server_ids.size(); ++k) {
    if (cert.server_ids[k] >= num_servers_ ||
        !logic_->VerifyAbortPrepare(cert.round, cert.epoch, cert.server_ids[k],
                                    cert.signatures[k])) {
      return false;
    }
  }
  return true;
}

void ServerEngine::HandleAbortCommit(const Peer& from, const wire::AbortCommit& msg,
                                     int64_t now_us, Actions& a) {
  if (config_.abort_deadline_us <= 0 || !config_.abort_agreement) {
    return;
  }
  if (from.kind != Peer::Kind::kServer || from.index >= num_servers_ || from.index == index_) {
    return;
  }
  if (msg.round < next_round_to_finish_) {
    return;  // already resolved here: idempotent re-delivery is a no-op
  }
  if (msg.round >= next_round_to_start_ + 2 * config_.pipeline_depth + 2) {
    // A certificate beyond every round we could have open: the fleet aborted
    // past our whole window while we were gone. Catch up instead of voting.
    BeginServerCatchUp(now_us, a);
    return;
  }
  if (msg.round != next_round_to_finish_) {
    // In-window future certificate (the sender resolved rounds we have not):
    // stash for ordered application — epoch verification must wait until our
    // frontier (and thus our abort count) reaches it.
    pending_certs_.emplace(msg.round, msg);
    return;
  }
  if (!VerifyAbortCert(msg, rounds_aborted_)) {
    return;
  }
  CommitAbortCert(msg, now_us, a);
}

void ServerEngine::CommitAbortCert(wire::AbortCommit cert, int64_t now_us, Actions& a) {
  const uint64_t round = cert.round;
  abort_certs_.emplace(round, std::move(cert));
  while (abort_certs_.size() > std::max<size_t>(config_.output_history, 1)) {
    abort_certs_.erase(abort_certs_.begin());
  }
  ApplyAbort(round, now_us, a);
  // Stashed successors may now sit at the frontier; drain them in order.
  pending_certs_.erase(pending_certs_.begin(), pending_certs_.lower_bound(next_round_to_finish_));
  auto it = pending_certs_.find(next_round_to_finish_);
  while (it != pending_certs_.end()) {
    wire::AbortCommit next = std::move(it->second);
    pending_certs_.erase(it);
    if (!VerifyAbortCert(next, rounds_aborted_)) {
      break;
    }
    const uint64_t next_round = next.round;
    abort_certs_.emplace(next_round, std::move(next));
    ApplyAbort(next_round, now_us, a);
    it = pending_certs_.find(next_round_to_finish_);
  }
}

void ServerEngine::BeginServerCatchUp(int64_t now_us, Actions& a) {
  if (config_.abort_deadline_us <= 0 || !config_.abort_agreement || catching_up_) {
    return;
  }
  (void)now_us;
  catching_up_ = true;
  SendServerCatchUpRequest(a);
  if (!catchup_timer_armed_) {
    catchup_timer_armed_ = true;
    a.timers.push_back({Token(0, kServerCatchUp), config_.abort_deadline_us});
  }
}

void ServerEngine::SendServerCatchUpRequest(Actions& a) {
  wire::ServerCatchUpRequest req;
  req.have_round = next_round_to_finish_ - 1;
  req.server_id = static_cast<uint32_t>(index_);
  Broadcast(std::move(req), a);
}

void ServerEngine::HandleServerCatchUpRequest(const Peer& from,
                                              const wire::ServerCatchUpRequest& req, Actions& a) {
  if (config_.abort_deadline_us <= 0 || !config_.abort_agreement) {
    return;
  }
  if (from.kind != Peer::Kind::kServer || from.index != req.server_id ||
      req.server_id >= num_servers_ || req.server_id == index_) {
    return;
  }
  const uint64_t fin = next_round_to_finish_ - 1;
  wire::ServerCatchUpBatch batch;
  batch.server_id = static_cast<uint32_t>(index_);
  batch.first_round = req.have_round + 1;
  batch.final_round = fin;
  for (const auto& s : recent_) {
    if (s.round <= req.have_round || batch.entries.size() == kCatchUpBatch) {
      continue;
    }
    if (s.round != batch.first_round + batch.entries.size()) {
      break;  // non-consecutive history cannot be verified in order
    }
    wire::ServerCatchUpEntry e;
    e.aborted = s.aborted;
    if (s.aborted) {
      auto cit = abort_certs_.find(s.round);
      if (cit == abort_certs_.end()) {
        break;  // certificate pruned: this abort can no longer be proven
      }
      e.cert_ids = cit->second.server_ids;
      e.signatures = cit->second.signatures;
    } else {
      e.cleartext = s.cleartext;
      e.signatures = s.signatures;
    }
    batch.entries.push_back(std::move(e));
  }
  if (batch.entries.empty() && fin > req.have_round) {
    // The gap predates our retained history: stay silent (another sibling
    // may reach further back; an unserveable gap is a group re-form).
    return;
  }
  // An empty batch with final_round <= have_round is the "you are caught
  // up" confirmation.
  a.out.push_back({ServerPeer(req.server_id),
                   std::make_shared<const WireMessage>(WireMessage(std::move(batch)))});
}

void ServerEngine::HandleServerCatchUpBatch(const Peer& from, const wire::ServerCatchUpBatch& batch,
                                            int64_t now_us, Actions& a) {
  if (config_.abort_deadline_us <= 0 || !config_.abort_agreement) {
    return;
  }
  if (from.kind != Peer::Kind::kServer || from.index != batch.server_id ||
      batch.server_id >= num_servers_ || batch.server_id == index_) {
    return;
  }
  const bool was_catching_up = catching_up_;
  size_t applied = 0;
  uint64_t r = batch.first_round;
  for (const auto& e : batch.entries) {
    const uint64_t round = r++;
    if (round < next_round_to_finish_) {
      continue;  // already resolved: first resolution wins locally
    }
    if (round != next_round_to_finish_) {
      break;  // gap: schedule evolution can only be verified in order
    }
    if (e.aborted) {
      wire::AbortCommit cert;
      cert.round = round;
      cert.epoch = rounds_aborted_;  // our abort count at this frontier
      cert.server_ids = e.cert_ids;
      cert.signatures = e.signatures;
      if (!VerifyAbortCert(cert, rounds_aborted_)) {
        break;
      }
      catching_up_ = true;
      ++applied;
      ++catch_up_rounds_;
      abort_certs_.emplace(round, std::move(cert));
      ApplyAbort(round, now_us, a);
      continue;
    }
    // Completed round: all M servers signed this exact (round, cleartext).
    if (e.signatures.size() != num_servers_) {
      break;
    }
    bool ok = true;
    for (size_t j = 0; j < num_servers_; ++j) {
      auto sig = SchnorrSignature::Deserialize(*def_.group, e.signatures[j]);
      if (!sig.has_value() ||
          !SchnorrVerify(*def_.group, def_.server_pubs[j],
                         OutputSigningBytes(def_, round, e.cleartext), *sig)) {
        ok = false;
        break;
      }
    }
    if (!ok) {
      break;
    }
    catching_up_ = true;
    ++applied;
    ++catch_up_rounds_;
    if (RoundState* st = FindRound(round)) {
      st->active = false;  // stale restored round, superseded by the replay
    }
    wire::RoundSummary summary;
    summary.round = round;
    summary.aborted = false;
    summary.cleartext = e.cleartext;
    summary.signatures = e.signatures;
    RetainSummary(summary);
    auto fin = logic_->FinishRound(round, e.cleartext);
    RoundDone done;
    done.round = round;
    done.completed = true;
    done.cleartext = e.cleartext;
    done.participation = fin.participation;
    done.started_at_us = now_us;
    a.done.push_back(std::move(done));
    last_participation_ = fin.participation;
    abort_votes_.erase(round);
    abort_prepares_.erase(round);
    pending_certs_.erase(round);
    ++next_round_to_finish_;
    ++rounds_completed_;
    // A §3.9 flag in a caught-up round was already arbitrated by the fleet
    // while we were away; we deliberately do not reopen that instance.
    if (!config_.attached_clients.empty()) {
      summary.final_round = next_round_to_finish_ - 1;
      a.out.push_back({AttachedClientsPeer(static_cast<uint32_t>(index_)),
                       std::make_shared<const WireMessage>(WireMessage(std::move(summary)))});
    }
  }
  if (applied > 0 && !was_catching_up) {
    // Live frontier heal: we were not in restored-server catch-up — our
    // SignatureShare was already out (so we could not vote to abort) and a
    // sibling ahead of us replayed the certified rounds. Open rounds and
    // mailbox state are intact, so resolve the replay in place and keep
    // going: the restored-server pipeline reset below would discard sibling
    // phase frames that reliable delivery already acked and never re-sends.
    catching_up_ = false;
    if (next_round_to_start_ < next_round_to_finish_) {
      // The replay resolved rounds past our whole open window (every open
      // round was applied and marked inactive above): never re-open a round
      // below the frontier.
      next_round_to_start_ = next_round_to_finish_;
    }
    while (next_round_to_start_ < next_round_to_finish_ + config_.pipeline_depth) {
      StartRound(next_round_to_start_, now_us, a);
    }
    MaybeFinishRounds(now_us, a);
    return;
  }
  if (applied > 0 && batch.final_round >= next_round_to_finish_ + config_.pipeline_depth) {
    // Still behind by more than the pipeline window: ask for the next batch
    // immediately instead of waiting for the retry timer.
    catching_up_ = true;
    SendServerCatchUpRequest(a);
    return;
  }
  if (applied > 0) {
    // The remaining gap fits inside the live window: rejoin. Reopen depth
    // fresh rounds on the caught-up frontier and let live traffic converge
    // the rest — chasing a moving frontier by replay alone never terminates
    // while the fleet keeps resolving rounds without us.
    catching_up_ = false;
    for (RoundState& st : rounds_) {
      st.active = false;  // any remaining pre-catch-up round is stale
    }
    early_.erase(early_.begin(), early_.lower_bound(next_round_to_finish_));
    next_round_to_start_ = next_round_to_finish_;
    for (size_t k = 0; k < config_.pipeline_depth; ++k) {
      StartRound(next_round_to_start_, now_us, a);
    }
    MaybeFinishRounds(now_us, a);
  } else if (catching_up_ && batch.final_round < next_round_to_finish_) {
    catching_up_ = false;  // a sibling confirms our frontier matches the fleet
  }
}

bool ServerEngine::TimerStaleAfterRound(uint64_t token, uint64_t round, bool blame_live) {
  const uint64_t id = token >> kTimerKindBits;
  switch (static_cast<TimerKind>(token & ((1ull << kTimerKindBits) - 1))) {
    case kWindowPolicy:
    case kHardDeadline:
    case kAbortDeadline:
      return id <= round;
    case kBlameCollect:
    case kBlameRebuttal:
    case kVerdictShares:
      return !blame_live && id <= round;
    case kRetransmit:
    case kServerCatchUp:
      return false;  // repeating self-re-arming timers are never stale
  }
  return false;
}

// ---------------------------------------------------------------------------
// ServerEngine: crash-recovery snapshot
// ---------------------------------------------------------------------------

namespace {

void WriteOptionalBlob(Writer& w, const std::optional<Bytes>& v) {
  w.Bool(v.has_value());
  if (v.has_value()) {
    w.Blob(*v);
  }
}

bool ReadOptionalBlob(Reader& r, std::optional<Bytes>* v) {
  bool present = false;
  if (!r.Bool(&present)) {
    return false;
  }
  if (!present) {
    v->reset();
    return true;
  }
  Bytes b;
  if (!r.Blob(&b)) {
    return false;
  }
  *v = std::move(b);
  return true;
}

// v2 added the scheduling sub-phase (keys, or the cascade so far); a v1
// snapshot, whose transport reinstalled the keys, is refused.
constexpr char kSnapshotMagic[] = "dissent.engine.snap.v2";

// A roster (or this server's collected rows) as its canonical wire frame.
Bytes RosterFrame(uint32_t server, std::vector<wire::BlameRosterEntry> entries) {
  return SerializeWire(wire::BlameRoster{wire::kScheduleSession, server, std::move(entries)});
}

bool ParseRosterFrame(const Bytes& frame, std::vector<wire::BlameRosterEntry>* entries) {
  auto parsed = ParseWire(frame);
  if (!parsed.has_value() || !std::holds_alternative<wire::BlameRoster>(*parsed)) {
    return false;
  }
  *entries = std::get<wire::BlameRoster>(std::move(*parsed)).entries;
  return true;
}

}  // namespace

Bytes ServerEngine::SerializeSnapshot() const {
  Writer w;
  w.Str(kSnapshotMagic);
  w.Blob(logic_->SerializeState());
  w.U64(next_round_to_start_);
  w.U64(next_round_to_finish_);
  w.U64(rounds_completed_);
  w.U64(pipelined_submissions_);
  w.U64(blames_completed_);
  w.U64(rounds_aborted_);
  w.U32(static_cast<uint32_t>(last_participation_));
  w.U32(static_cast<uint32_t>(last_window_observed_));
  w.U32(static_cast<uint32_t>(expelled_attached_));
  w.Bool(halted_);
  // Of the blame machinery only the pending flag survives a crash: a crash
  // during an *active* instance degrades to the peers' deadlines and an
  // inconclusive verdict (documented limitation).
  w.Bool(blame_.pending);
  w.U64(blame_.session);
  w.U32(static_cast<uint32_t>(rounds_.size()));
  for (const RoundState& st : rounds_) {
    w.U64(st.round);
    w.Bool(st.active);
    w.U64(static_cast<uint64_t>(st.started_us));
    w.Bool(st.window_closed);
    w.Bool(st.window_timer_armed);
    w.U64(static_cast<uint64_t>(st.window_close_at_us));
    w.U32(static_cast<uint32_t>(st.participation));
    w.Blob(st.cleartext);
    w.Bool(st.sent_commit);
    w.Bool(st.sent_ct);
    w.Bool(st.sent_sig);
    w.Bool(st.promised_abort);
    for (const auto& inv : st.inventories) {
      w.Bool(inv.has_value());
      if (inv.has_value()) {
        w.U32(static_cast<uint32_t>(inv->size()));
        for (uint32_t id : *inv) {
          w.U32(id);
        }
      }
    }
    for (const auto& c : st.commits) {
      WriteOptionalBlob(w, c);
    }
    for (const auto& c : st.server_cts) {
      WriteOptionalBlob(w, c);
    }
    for (const auto& s : st.sigs) {
      WriteOptionalBlob(w, s);
    }
  }
  // Gossip buffered for rounds not yet opened: acked frames peers will
  // never retransmit, so they must ride the snapshot.
  w.U32(static_cast<uint32_t>(early_.size()));
  for (const auto& [round, msgs] : early_) {
    w.U64(round);
    w.U32(static_cast<uint32_t>(msgs.size()));
    for (const auto& [sender, m] : msgs) {
      w.U32(sender);
      w.Blob(SerializeWire(m));
    }
  }
  w.U32(static_cast<uint32_t>(recent_.size()));
  for (const auto& s : recent_) {
    w.Blob(SerializeWire(WireMessage(s)));
  }
  mailbox_.SerializeTo(w);
  // Abort-agreement durability: applied certificates (so a restored server
  // can keep serving sibling catch-up and re-deliver idempotently) and the
  // verified prepares gathered so far (so a restart mid-vote neither forgets
  // its own promise nor re-collects what peers already sent and acked).
  w.U32(static_cast<uint32_t>(abort_certs_.size()));
  for (const auto& [round, cert] : abort_certs_) {
    (void)round;
    w.Blob(SerializeWire(WireMessage(cert)));
  }
  w.U32(static_cast<uint32_t>(abort_prepares_.size()));
  for (const auto& [round, by_server] : abort_prepares_) {
    w.U64(round);
    w.U32(static_cast<uint32_t>(by_server.size()));
    for (const auto& [sid, es] : by_server) {
      w.U32(sid);
      w.U64(es.first);
      w.Blob(es.second);
    }
  }
  // Scheduling: the installed keys once live; before that the cascade so
  // far (rows, rosters and mix steps — its matrix is re-derived on restore).
  w.Bool(live_);
  if (live_) {
    w.U32(static_cast<uint32_t>(logic_->pseudonym_keys().size()));
    for (const BigInt& k : logic_->pseudonym_keys()) {
      w.Blob(def_.group->ElementToBytes(k));
    }
    return w.Take();
  }
  w.Bool(cascade_.collecting);
  std::vector<wire::BlameRosterEntry> collected;
  for (const auto& [client, row_sig] : cascade_.collected) {
    collected.push_back({client, row_sig.first, row_sig.second});
  }
  w.Blob(RosterFrame(static_cast<uint32_t>(index_), std::move(collected)));
  for (size_t j = 0; j < num_servers_; ++j) {
    const auto& roster = cascade_.rosters[j];
    WriteOptionalBlob(w, roster.has_value() ? std::optional<Bytes>(RosterFrame(
                                                  static_cast<uint32_t>(j), *roster))
                                            : std::nullopt);
    WriteOptionalBlob(w, cascade_.mix_steps[j]);
  }
  return w.Take();
}

std::optional<ServerEngine::Actions> ServerEngine::RestoreSnapshot(const Bytes& snapshot,
                                                                   int64_t now_us) {
  Reader r(snapshot);
  std::string magic;
  Bytes logic_state;
  if (!r.Str(&magic) || magic != kSnapshotMagic || !r.Blob(&logic_state) ||
      !logic_->RestoreState(logic_state)) {
    return std::nullopt;
  }
  uint32_t participation = 0, window_observed = 0, expelled = 0, n_rounds = 0;
  if (!r.U64(&next_round_to_start_) || !r.U64(&next_round_to_finish_) ||
      !r.U64(&rounds_completed_) || !r.U64(&pipelined_submissions_) ||
      !r.U64(&blames_completed_) || !r.U64(&rounds_aborted_) || !r.U32(&participation) ||
      !r.U32(&window_observed) || !r.U32(&expelled) || !r.Bool(&halted_)) {
    return std::nullopt;
  }
  last_participation_ = participation;
  last_window_observed_ = window_observed;
  expelled_attached_ = expelled;
  blame_ = BlameState{};
  blame_early_.clear();
  if (!r.Bool(&blame_.pending) || !r.U64(&blame_.session)) {
    return std::nullopt;
  }
  if (!r.U32(&n_rounds) || n_rounds != rounds_.size()) {
    return std::nullopt;
  }
  for (RoundState& st : rounds_) {
    uint64_t started = 0, close_at = 0;
    uint32_t part = 0;
    if (!r.U64(&st.round) || !r.Bool(&st.active) || !r.U64(&started) ||
        !r.Bool(&st.window_closed) || !r.Bool(&st.window_timer_armed) || !r.U64(&close_at) ||
        !r.U32(&part) || !r.Blob(&st.cleartext) || !r.Bool(&st.sent_commit) ||
        !r.Bool(&st.sent_ct) || !r.Bool(&st.sent_sig) || !r.Bool(&st.promised_abort)) {
      return std::nullopt;
    }
    st.started_us = static_cast<int64_t>(started);
    st.window_close_at_us = static_cast<int64_t>(close_at);
    st.participation = part;
    ClearGossip(st);
    for (auto& inv : st.inventories) {
      bool present = false;
      if (!r.Bool(&present)) {
        return std::nullopt;
      }
      if (present) {
        uint32_t n = 0;
        if (!r.U32(&n) || static_cast<size_t>(n) > r.remaining() / 4) {
          return std::nullopt;
        }
        std::vector<uint32_t> ids(n);
        for (uint32_t& id : ids) {
          if (!r.U32(&id)) {
            return std::nullopt;
          }
        }
        inv = std::move(ids);
      }
    }
    for (auto& c : st.commits) {
      if (!ReadOptionalBlob(r, &c)) {
        return std::nullopt;
      }
    }
    for (auto& c : st.server_cts) {
      if (!ReadOptionalBlob(r, &c)) {
        return std::nullopt;
      }
    }
    for (auto& s : st.sigs) {
      if (!ReadOptionalBlob(r, &s)) {
        return std::nullopt;
      }
    }
  }
  early_.clear();
  uint32_t n_early = 0;
  if (!r.U32(&n_early) || n_early > (1u << 16)) {
    return std::nullopt;
  }
  for (uint32_t i = 0; i < n_early; ++i) {
    uint64_t round = 0;
    uint32_t n_msgs = 0;
    if (!r.U64(&round) || !r.U32(&n_msgs) || n_msgs > (1u << 16)) {
      return std::nullopt;
    }
    auto& slot = early_[round];
    for (uint32_t k = 0; k < n_msgs; ++k) {
      uint32_t sender = 0;
      Bytes frame;
      if (!r.U32(&sender) || !r.Blob(&frame)) {
        return std::nullopt;
      }
      auto parsed = ParseWire(frame);
      if (!parsed.has_value()) {
        return std::nullopt;
      }
      slot.emplace_back(sender, std::move(*parsed));
    }
  }
  recent_.clear();
  uint32_t n_recent = 0;
  if (!r.U32(&n_recent) || n_recent > (1u << 16)) {
    return std::nullopt;
  }
  for (uint32_t i = 0; i < n_recent; ++i) {
    Bytes frame;
    if (!r.Blob(&frame)) {
      return std::nullopt;
    }
    auto parsed = ParseWire(frame);
    if (!parsed.has_value() || !std::holds_alternative<wire::RoundSummary>(*parsed)) {
      return std::nullopt;
    }
    recent_.push_back(std::get<wire::RoundSummary>(std::move(*parsed)));
  }
  if (!mailbox_.RestoreFrom(r)) {
    return std::nullopt;
  }
  abort_certs_.clear();
  abort_prepares_.clear();
  pending_certs_.clear();
  catching_up_ = false;
  catchup_timer_armed_ = false;
  uint32_t n_certs = 0;
  if (!r.U32(&n_certs) || n_certs > (1u << 16)) {
    return std::nullopt;
  }
  for (uint32_t i = 0; i < n_certs; ++i) {
    Bytes frame;
    if (!r.Blob(&frame)) {
      return std::nullopt;
    }
    auto parsed = ParseWire(frame);
    if (!parsed.has_value() || !std::holds_alternative<wire::AbortCommit>(*parsed)) {
      return std::nullopt;
    }
    auto cert = std::get<wire::AbortCommit>(std::move(*parsed));
    const uint64_t round = cert.round;
    abort_certs_.emplace(round, std::move(cert));
  }
  uint32_t n_prep = 0;
  if (!r.U32(&n_prep) || n_prep > (1u << 16)) {
    return std::nullopt;
  }
  for (uint32_t i = 0; i < n_prep; ++i) {
    uint64_t round = 0;
    uint32_t n_by = 0;
    if (!r.U64(&round) || !r.U32(&n_by) || n_by > num_servers_) {
      return std::nullopt;
    }
    auto& by_server = abort_prepares_[round];
    for (uint32_t k = 0; k < n_by; ++k) {
      uint32_t sid = 0;
      uint64_t epoch = 0;
      Bytes sig;
      if (!r.U32(&sid) || !r.U64(&epoch) || !r.Blob(&sig)) {
        return std::nullopt;
      }
      by_server[sid] = {epoch, std::move(sig)};
    }
  }
  cascade_ = Cascade{};
  if (!r.Bool(&live_)) {
    return std::nullopt;
  }
  if (live_) {
    uint32_t n_keys = 0;
    if (!r.U32(&n_keys) || n_keys != def_.num_clients()) {
      return std::nullopt;
    }
    std::vector<BigInt> keys;
    keys.reserve(n_keys);
    for (uint32_t i = 0; i < n_keys; ++i) {
      Bytes kb;
      std::optional<BigInt> k;
      if (!r.Blob(&kb) || !(k = def_.group->ElementFromBytes(kb)).has_value()) {
        return std::nullopt;
      }
      keys.push_back(std::move(*k));
    }
    logic_->SetPseudonymKeys(std::move(keys));
  } else {
    if (!sched_rng_.has_value()) {
      return std::nullopt;  // mid-scheduling: our mix layer needs the rng
    }
    OpenCascade(wire::kScheduleSession, 1);
    Bytes frame;
    std::vector<wire::BlameRosterEntry> collected;
    if (!r.Bool(&cascade_.collecting) || !r.Blob(&frame) ||
        !ParseRosterFrame(frame, &collected)) {
      return std::nullopt;
    }
    for (auto& e : collected) {
      cascade_.collected.emplace(e.client_id,
                                 std::make_pair(std::move(e.row), std::move(e.signature)));
    }
    for (size_t j = 0; j < num_servers_; ++j) {
      std::optional<Bytes> roster;
      if (!ReadOptionalBlob(r, &roster) || !ReadOptionalBlob(r, &cascade_.mix_steps[j])) {
        return std::nullopt;
      }
      if (roster.has_value()) {
        cascade_.rosters[j].emplace();
        if (!ParseRosterFrame(*roster, &*cascade_.rosters[j])) {
          return std::nullopt;
        }
      }
    }
  }
  if (!r.AtEnd()) {
    return std::nullopt;
  }
  // Re-arm every backstop the crash erased. Elapsed in-crash time counts
  // against the deadlines (a deadline already past fires immediately).
  Actions a;
  for (const RoundState& st : rounds_) {
    if (!st.active) {
      continue;
    }
    a.timers.push_back({Token(st.round, kHardDeadline),
                        std::max<int64_t>(st.started_us + config_.hard_deadline_us - now_us, 0)});
    if (st.window_timer_armed && !st.window_closed) {
      a.timers.push_back(
          {Token(st.round, kWindowPolicy), std::max<int64_t>(st.window_close_at_us - now_us, 0)});
    }
    if (config_.abort_deadline_us > 0) {
      a.timers.push_back(
          {Token(st.round, kAbortDeadline),
           std::max<int64_t>(st.started_us + config_.abort_deadline_us - now_us, 0)});
    }
  }
  retransmit_armed_ = false;
  if (!live_) {
    // Mid-scheduling: re-derive the cascade from the restored rosters and
    // steps (re-verifying each), then carry on where the crash stopped it.
    MaybeCloseCollection(now_us, a);
    MaybeAssembleMatrix(now_us, a);
  }
  MaybeStartBlame(now_us, a);
  // A snapshot can be arbitrarily stale relative to the fleet (every round
  // we missed was resolved without us, and reliable delivery acked our
  // now-stale votes long ago). Ask the siblings where the frontier is; an
  // empty batch confirms we are current, otherwise the replayed history
  // re-admits us. No-op unless abort agreement is on.
  BeginServerCatchUp(now_us, a);
  Seal(a, now_us);
  return a;
}

// ---------------------------------------------------------------------------
// ServerEngine: the shared mix cascade (scheduling §3.10, blame §3.9)
// ---------------------------------------------------------------------------

bool ServerEngine::IsAttached(uint32_t client) const {
  // attached_clients is built in increasing order by both transports.
  return std::binary_search(config_.attached_clients.begin(), config_.attached_clients.end(),
                            client);
}

size_t ServerEngine::ExpectedSubmitters() const {
  size_t expected = 0;
  for (uint32_t c : config_.attached_clients) {
    expected += logic_->IsExpelled(c) ? 0 : 1;
  }
  return expected;
}

void ServerEngine::OpenCascade(uint64_t session, size_t width) {
  cascade_ = Cascade{};
  cascade_.session = session;
  cascade_.width = width;
  cascade_.collecting = true;
  cascade_.rosters.assign(num_servers_, std::nullopt);
  cascade_.mix_steps.assign(num_servers_, std::nullopt);
}

void ServerEngine::HandleCascadeRow(const Peer& from, const wire::AccusationSubmit& row,
                                    int64_t now_us, Actions& a) {
  // Client rows are only ever meaningful to the upstream server of that
  // client, and only while its cascade collects.
  if (from.kind != Peer::Kind::kClient || from.index != row.client_id ||
      !IsAttached(row.client_id) || logic_->IsExpelled(row.client_id)) {
    return;
  }
  if (live_ && row.session == wire::kScheduleSession) {
    // The client missed the SlotKeys broadcast (or re-sent its row): the
    // one scheduling replay rule is to answer with the keys.
    a.out.push_back({ClientPeer(row.client_id), SlotKeysMessage()});
    return;
  }
  if (!cascade_.collecting || row.session != cascade_.session ||
      cascade_.collected.count(row.client_id) != 0) {
    return;  // not collecting this session, or a duplicate: first wins
  }
  // Cheap hostile-input gate: the serialized row has exactly one valid
  // length (indistinguishability requires every submission the same size).
  // Signature and element validity are checked at matrix assembly, once,
  // identically on every server.
  if (row.blame_ciphertext.size() != 4 + cascade_.width * 2 * def_.group->ElementBytes()) {
    return;
  }
  cascade_.collected.emplace(row.client_id, std::make_pair(row.blame_ciphertext, row.signature));
  MaybeCloseCollection(now_us, a);
}

void ServerEngine::MaybeCloseCollection(int64_t now_us, Actions& a, bool deadline) {
  // Closes once every expected row is in; a blame instance also closes on
  // its collection deadline (kBlameCollect), scheduling waits for all.
  if (!cascade_.collecting || (!deadline && cascade_.collected.size() < ExpectedSubmitters())) {
    return;
  }
  cascade_.collecting = false;
  // std::map iterates in increasing client id: the roster is canonical.
  std::vector<wire::BlameRosterEntry> roster;
  roster.reserve(cascade_.collected.size());
  for (const auto& [client, row_sig] : cascade_.collected) {
    roster.push_back({client, row_sig.first, row_sig.second});
  }
  Broadcast(wire::BlameRoster{cascade_.session, static_cast<uint32_t>(index_), roster}, a);
  cascade_.rosters[index_] = std::move(roster);
  MaybeAssembleMatrix(now_us, a);
}

void ServerEngine::MaybeAssembleMatrix(int64_t now_us, Actions& a) {
  if (cascade_.mixing || cascade_.collecting) {
    return;
  }
  for (const auto& r : cascade_.rosters) {
    if (!r.has_value()) {
      return;  // still gathering
    }
  }
  // Merge in server order, first server wins a contested client id. Every
  // entry must carry a valid client signature over (session, id, row) —
  // without this, a lower-indexed malicious server could substitute its own
  // row for a client attached elsewhere (choosing that client's scheduling
  // key, or shadowing a victim's genuine accusation with a forged filler).
  // Signatures, element validity, and ordering are checked identically on
  // every server, so all honest servers compute the identical
  // client-id-sorted input matrix. Each accepted row is parsed exactly once.
  std::map<uint32_t, std::vector<ElGamalCiphertext>> merged;
  for (const auto& roster : cascade_.rosters) {
    for (const auto& entry : *roster) {
      if (entry.client_id >= def_.num_clients() || logic_->IsExpelled(entry.client_id) ||
          merged.count(entry.client_id) != 0) {
        continue;
      }
      auto sig = SchnorrSignature::Deserialize(*def_.group, entry.signature);
      if (!sig.has_value() ||
          !SchnorrVerify(*def_.group, def_.client_pubs[entry.client_id],
                         BlameRowSigningBytes(cascade_.session, entry.client_id, entry.row),
                         *sig)) {
        continue;  // forged or corrupted: dropped identically everywhere
      }
      auto parsed = ParseCiphertextRow(*def_.group, entry.row, cascade_.width);
      if (parsed.has_value()) {
        merged.emplace(entry.client_id, std::move(*parsed));
      }
    }
  }
  CiphertextMatrix matrix;
  matrix.reserve(merged.size());
  for (auto& [client, row] : merged) {
    matrix.push_back(std::move(row));
  }
  if (cascade_.session == wire::kScheduleSession) {
    if (matrix.size() != def_.num_clients()) {
      return;  // every client needs a slot: without all rows, no keys
    }
  } else if (matrix.size() < 2) {
    // Nothing to shuffle anonymously over: no conclusive blame possible.
    FinishBlame(wire::BlameVerdict::kInconclusive, 0, now_us, a);
    return;
  }
  cascade_.mixing = true;
  cascade_.matrix = std::move(matrix);
  cascade_.steps_verified = 0;
  TryAdvanceCascade(now_us, a);
}

void ServerEngine::TryAdvanceCascade(int64_t now_us, Actions& a) {
  if (!cascade_.mixing) {
    return;
  }
  const bool scheduling = cascade_.session == wire::kScheduleSession;
  while (cascade_.steps_verified < num_servers_) {
    const size_t j = cascade_.steps_verified;
    if (j == index_ && !cascade_.mix_steps[index_].has_value()) {
      // Our turn in the cascade: apply our verified mix layer.
      MixStep step = logic_->MixLayer(cascade_.matrix, scheduling ? &*sched_rng_ : nullptr);
      Bytes serialized = SerializeMixStep(*def_.group, step);
      Broadcast(wire::BlameMix{cascade_.session, static_cast<uint32_t>(index_), serialized}, a);
      cascade_.mix_steps[index_] = std::move(serialized);
      cascade_.matrix = std::move(step.decrypted);
      ++cascade_.steps_verified;
      continue;
    }
    if (!cascade_.mix_steps[j].has_value()) {
      return;  // waiting for server j's layer
    }
    // A sibling's layer, or our own re-applied after a snapshot restore.
    auto step = ParseMixStep(*def_.group, *cascade_.mix_steps[j]);
    if (!step.has_value() || !VerifyMixStep(def_, j, cascade_.matrix, *step)) {
      if (scheduling) {
        // Decide nothing: drop the step and wait for an honest one.
        cascade_.mix_steps[j].reset();
        rejected_mix_steps_.push_back(static_cast<uint32_t>(j));
        return;
      }
      // The §3.10 proofs identify the cheating mixer outright.
      FinishBlame(wire::BlameVerdict::kServerExposed, static_cast<uint32_t>(j), now_us, a);
      return;
    }
    cascade_.matrix = std::move(step->decrypted);
    ++cascade_.steps_verified;
  }
  if (scheduling) {
    FinishScheduling(now_us, a);
    return;
  }
  blame_.shuffle_ran = true;
  DecodeBlameAccusation(now_us, a);
}

void ServerEngine::FinishScheduling(int64_t now_us, Actions& a) {
  // The final b components are the pseudonym keys, in shuffled order.
  std::vector<BigInt> keys;
  keys.reserve(cascade_.matrix.size());
  for (const auto& row : cascade_.matrix) {
    keys.push_back(row[0].b);
  }
  logic_->SetPseudonymKeys(std::move(keys));
  logic_->BeginSlots(def_.num_clients());
  cascade_ = Cascade{};
  live_ = true;
  // One frame for the whole attachment set, like Output.
  if (!config_.attached_clients.empty()) {
    a.out.push_back({AttachedClientsPeer(static_cast<uint32_t>(index_)), SlotKeysMessage()});
  }
  for (size_t k = 0; k < config_.pipeline_depth; ++k) {
    StartRound(next_round_to_start_, now_us, a);
  }
}

std::shared_ptr<const WireMessage> ServerEngine::SlotKeysMessage() const {
  wire::SlotKeys msg;
  msg.keys.reserve(logic_->pseudonym_keys().size());
  for (const BigInt& k : logic_->pseudonym_keys()) {
    msg.keys.push_back(def_.group->ElementToBytes(k));
  }
  return std::make_shared<const WireMessage>(std::move(msg));
}

// ---------------------------------------------------------------------------
// ServerEngine: blame sub-phase (§3.9)
// ---------------------------------------------------------------------------

void ServerEngine::MaybeStartBlame(int64_t now_us, Actions& a) {
  if (!blame_.pending || blame_.active || inflight_rounds() != 0) {
    return;
  }
  // Pipeline fully drained: run the blame instance. All servers reach this
  // point with identical session ids (flags are computed from identical
  // certified cleartexts) and identical open-round frontiers.
  blame_.pending = false;
  blame_.active = true;
  OpenCascade(blame_.session, blame_width_);
  blame_.disclosures.assign(num_servers_, std::nullopt);
  blame_.shares.assign(num_servers_, std::nullopt);
  if (!config_.attached_clients.empty()) {
    a.out.push_back({AttachedClientsPeer(static_cast<uint32_t>(index_)),
                     std::make_shared<const WireMessage>(wire::BlameStart{blame_.session})});
  }
  a.timers.push_back({Token(blame_.session, kBlameCollect), config_.hard_deadline_us});
  // Replay server gossip that outpaced our drain.
  auto early = std::move(blame_early_);
  blame_early_.clear();
  MaybeCloseCollection(now_us, a);
  for (auto& [sender, msg] : early) {
    if (BlameSessionOf(msg) == blame_.session) {
      HandleBlameMessage(ServerPeer(sender), msg, now_us, a);
    }
  }
}

void ServerEngine::BufferEarlyBlame(uint32_t sender, const WireMessage& msg) {
  // Bounded: one slot per (sender, type), sessions only within the window a
  // legitimate peer could be ahead by. The session is a round the sender has
  // already finished; we may still be up to a full pipeline window behind.
  const uint64_t session = BlameSessionOf(msg);
  const uint64_t lo =
      blame_.pending ? blame_.session
                     : (next_round_to_finish_ > config_.pipeline_depth
                            ? next_round_to_finish_ - config_.pipeline_depth
                            : 1);
  if (session < lo || session >= next_round_to_start_ + 2 * config_.pipeline_depth + 2) {
    return;
  }
  for (const auto& [held_sender, held_msg] : blame_early_) {
    if (held_sender == sender && held_msg.index() == msg.index()) {
      return;  // first wins
    }
  }
  blame_early_.emplace_back(sender, msg);
}

void ServerEngine::HandleBlameMessage(const Peer& from, const WireMessage& msg, int64_t now_us,
                                      Actions& a) {
  if (const auto* row = std::get_if<wire::AccusationSubmit>(&msg)) {
    HandleCascadeRow(from, *row, now_us, a);
    return;
  }
  if (const auto* rebuttal = std::get_if<wire::BlameRebuttal>(&msg)) {
    HandleRebuttal(*rebuttal, from, now_us, a);
    return;
  }
  // Everything else is server gossip.
  if (from.kind != Peer::Kind::kServer || from.index >= num_servers_ || from.index == index_) {
    return;
  }
  const uint64_t session = BlameSessionOf(msg);
  const auto* roster = std::get_if<wire::BlameRoster>(&msg);
  const auto* mix = std::get_if<wire::BlameMix>(&msg);
  if (roster != nullptr || mix != nullptr) {
    if (cascade_.rosters.empty() || session != cascade_.session) {
      BufferEarlyBlame(from.index, msg);
      return;
    }
    if (roster != nullptr) {
      if (roster->server_id != from.index || cascade_.rosters[from.index].has_value()) {
        return;
      }
      cascade_.rosters[from.index] = roster->entries;
      MaybeAssembleMatrix(now_us, a);
    } else {
      if (mix->server_id != from.index || cascade_.mix_steps[from.index].has_value()) {
        return;
      }
      cascade_.mix_steps[from.index] = mix->step;
      TryAdvanceCascade(now_us, a);
    }
    return;
  }
  if (!blame_.active || session != blame_.session) {
    BufferEarlyBlame(from.index, msg);
    return;
  }
  if (const auto* ev = std::get_if<wire::TraceEvidence>(&msg)) {
    if (ev->server_id != from.index || blame_.disclosures[from.index].has_value()) {
      return;
    }
    blame_.disclosures[from.index] = *ev;
    MaybeTrace(now_us, a);
  } else if (const auto* share = std::get_if<wire::VerdictShare>(&msg)) {
    HandleVerdictShare(*share, from, now_us, a);
  }
}

void ServerEngine::HandleVerdictShare(const wire::VerdictShare& share, const Peer& from,
                                      int64_t now_us, Actions& a) {
  // A faster peer's share can arrive before we reach our own verdict; it is
  // stored (signature-checked) and compared once we propose.
  if (share.server_id != from.index || blame_.shares.empty() ||
      blame_.shares[from.index].has_value()) {
    return;
  }
  if (!logic_->VerifyVerdictShare(share.session, share.server_id, share.round, share.kind,
                                  share.culprit, share.signature)) {
    return;  // forged or doctored: the deadline downgrade decides instead
  }
  blame_.shares[from.index] = share;
  MaybeAgreeVerdict(now_us, a);
}

void ServerEngine::DecodeBlameAccusation(int64_t now_us, Actions& a) {
  // The cascade's final rows are plaintext blocks: recover the real
  // accusations among the zero fillers. The instance traces the first row
  // that both decodes AND validates against the retained evidence — a
  // hostile client shipping a well-formed-but-invalid accusation must not
  // be able to shadow a genuine victim's row into an inconclusive verdict.
  for (const auto& row : cascade_.matrix) {
    auto payload = DecodeMessageBlocks(def_, row);
    if (!payload.has_value()) {
      continue;
    }
    Bytes trimmed = *payload;
    while (!trimmed.empty() && trimmed.back() == 0) {
      trimmed.pop_back();
    }
    if (trimmed.empty()) {
      continue;  // null filler from a non-accusing client
    }
    auto acc = SignedAccusation::Deserialize(*def_.group, *payload);
    if (!acc.has_value()) {
      // The serialization is self-delimiting up to the zero fill; Deserialize
      // demands AtEnd, so retry with the padding stripped.
      acc = SignedAccusation::Deserialize(*def_.group, trimmed);
    }
    if (!acc.has_value()) {
      continue;
    }
    if (!blame_.accusation_found) {
      blame_.accusation = acc;  // remember the first decodable for reporting
      blame_.accusation_found = true;
    }
    if (logic_->CheckAccusation(*acc)) {
      blame_.accusation = acc;
      blame_.accusation_valid = true;
      break;
    }
  }
  if (!blame_.accusation_found || !blame_.accusation_valid) {
    FinishBlame(wire::BlameVerdict::kInconclusive, 0, now_us, a);
    return;
  }
  // Trace phase: disclose our own §3.9 evidence and wait for every peer's.
  blame_.tracing = true;
  const uint64_t round = blame_.accusation->accusation.round;
  const uint64_t bit = blame_.accusation->accusation.bit_index;
  TraceDisclosure own = logic_->BuildTraceDisclosure(round, bit);
  wire::TraceEvidence ev;
  ev.session = blame_.session;
  ev.server_id = static_cast<uint32_t>(index_);
  ev.round = round;
  ev.bit_index = bit;
  ev.present = own.present;
  ev.own_share = own.own_share;
  ev.client_ct_bits = PackBits(own.client_ct_bits);
  ev.server_ct_bit = own.server_ct_bit ? 1 : 0;
  ev.pad_bits = PackBits(own.pad_bits);
  Broadcast(ev, a);
  blame_.disclosures[index_] = std::move(ev);
  MaybeTrace(now_us, a);
}

void ServerEngine::MaybeTrace(int64_t now_us, Actions& a) {
  if (!blame_.tracing || blame_.awaiting_rebuttal) {
    return;
  }
  for (const auto& d : blame_.disclosures) {
    if (!d.has_value()) {
      return;  // still gathering
    }
  }
  const uint64_t round = blame_.accusation->accusation.round;
  const uint64_t bit = blame_.accusation->accusation.bit_index;
  const DissentServer::RoundEvidence* own_ev = logic_->EvidenceFor(round);
  if (own_ev == nullptr) {
    // Our own evidence expired: we cannot anchor the composite list.
    FinishBlame(wire::BlameVerdict::kInconclusive, 0, now_us, a);
    return;
  }
  const std::vector<uint32_t>& composite = own_ev->composite_list;
  TraceInputs in;
  in.round = round;
  in.bit_index = bit;
  in.composite_list = composite;
  in.own_shares.resize(num_servers_);
  in.server_ct_bits.resize(num_servers_);
  in.pad_bits.resize(num_servers_);
  for (size_t j = 0; j < num_servers_; ++j) {
    const wire::TraceEvidence& d = *blame_.disclosures[j];
    if (!d.present) {
      // Evidence expired somewhere: the trace cannot conclude.
      FinishBlame(wire::BlameVerdict::kInconclusive, 0, now_us, a);
      return;
    }
    auto ct_bits = UnpackBits(d.client_ct_bits, d.own_share.size());
    auto pad_bits = UnpackBits(d.pad_bits, composite.size());
    if (!ct_bits.has_value() || !pad_bits.has_value()) {
      // A disclosure that does not cover the composite list is a failure to
      // disclose — the §3.9 case (a) analogue at the message level.
      FinishBlame(wire::BlameVerdict::kServerExposed, static_cast<uint32_t>(j), now_us, a);
      return;
    }
    in.own_shares[j] = d.own_share;
    in.server_ct_bits[j] = d.server_ct_bit != 0;
    for (size_t k = 0; k < d.own_share.size(); ++k) {
      in.client_ct_bits.emplace(d.own_share[k], (*ct_bits)[k]);
    }
    for (size_t k = 0; k < composite.size(); ++k) {
      in.pad_bits[j][composite[k]] = (*pad_bits)[k];
    }
  }
  blame_.trace = TraceDisruptor(def_, in);
  switch (blame_.trace.kind) {
    case TraceVerdict::Kind::kInconclusive:
      FinishBlame(wire::BlameVerdict::kInconclusive, 0, now_us, a);
      return;
    case TraceVerdict::Kind::kServerExposed:
      FinishBlame(wire::BlameVerdict::kServerExposed,
                  static_cast<uint32_t>(blame_.trace.culprit), now_us, a);
      return;
    case TraceVerdict::Kind::kClientAccused:
      break;
  }
  // An accusation about an old round can re-convict a client already
  // expelled by an earlier instance: no challenge to send (the member is
  // gone and would never answer) — conclude immediately and idempotently.
  if (logic_->IsExpelled(blame_.trace.culprit)) {
    FinishBlame(wire::BlameVerdict::kClientExpelled,
                static_cast<uint32_t>(blame_.trace.culprit), now_us, a);
    return;
  }
  // Rebuttal phase: the accused answers its upstream server's challenge with
  // a DLEQ reveal (exposing a lying server) or concedes.
  blame_.awaiting_rebuttal = true;
  blame_.accused = static_cast<uint32_t>(blame_.trace.culprit);
  blame_.accused_pad_bits.assign(num_servers_, false);
  for (size_t j = 0; j < num_servers_; ++j) {
    auto it = in.pad_bits[j].find(blame_.accused);
    blame_.accused_pad_bits[j] = it != in.pad_bits[j].end() && it->second;
  }
  if (IsAttached(blame_.accused)) {
    wire::BlameChallenge challenge;
    challenge.session = blame_.session;
    challenge.round = round;
    challenge.bit_index = bit;
    challenge.client_id = blame_.accused;
    challenge.pad_bits = PackBits(blame_.accused_pad_bits);
    a.out.push_back({ClientPeer(blame_.accused),
                     std::make_shared<const WireMessage>(std::move(challenge))});
  }
  a.timers.push_back({Token(blame_.session, kBlameRebuttal), config_.hard_deadline_us});
  if (blame_.pending_rebuttal.has_value()) {
    // A peer's forward arrived while we were still gathering disclosures;
    // replay it now (held forwards are always server-origin).
    wire::BlameRebuttal held = *blame_.pending_rebuttal;
    blame_.pending_rebuttal.reset();
    HandleRebuttal(held, ServerPeer(static_cast<uint32_t>(index_)), now_us, a);
  }
}

void ServerEngine::HandleRebuttal(const wire::BlameRebuttal& msg, const Peer& from,
                                  int64_t now_us, Actions& a) {
  if (!blame_.active || msg.session != blame_.session) {
    if (from.kind == Peer::Kind::kServer) {
      BufferEarlyBlame(from.index, WireMessage(msg));
    }
    return;
  }
  if (!blame_.awaiting_rebuttal) {
    // A peer's forwarded rebuttal can outpace a straggling TraceEvidence
    // that still holds our own trace back; hold it until tracing concludes.
    if (from.kind == Peer::Kind::kServer && !blame_.pending_rebuttal.has_value()) {
      blame_.pending_rebuttal = msg;
    }
    return;
  }
  if (msg.client_id != blame_.accused) {
    return;
  }
  // The answer must carry a valid signature under the accused's long-term
  // key over (session, id, the challenge context, rebuttal) — verified
  // against OUR OWN view of the context (the accusation's round/bit and the
  // pad bits every server derived from the disclosures). Without this, any
  // single malicious server could forge an empty "concession" — or doctor
  // the challenge it relays to extract a genuine-looking one — and convict
  // an honest client whose real rebuttal would expose the liar, voiding
  // §3.9's anytrust guarantee. A mismatched answer is simply ignored; the
  // legitimate one (or the rebuttal deadline) still decides.
  const uint64_t acc_round = blame_.accusation->accusation.round;
  const uint64_t acc_bit = blame_.accusation->accusation.bit_index;
  auto sig = SchnorrSignature::Deserialize(*def_.group, msg.signature);
  if (!sig.has_value() ||
      !SchnorrVerify(*def_.group, def_.client_pubs[blame_.accused],
                     BlameAnswerSigningBytes(msg.session, msg.client_id, acc_round, acc_bit,
                                             PackBits(blame_.accused_pad_bits), msg.rebuttal),
                     *sig)) {
    return;
  }
  // Two legitimate sources: the accused client itself (if attached to us —
  // we then forward the answer verbatim to every peer), or a peer server's
  // forward.
  if (from.kind == Peer::Kind::kClient) {
    if (from.index != blame_.accused || !IsAttached(blame_.accused)) {
      return;
    }
    Broadcast(wire::BlameRebuttal{msg.session, msg.client_id, msg.rebuttal, msg.signature}, a);
  } else if (from.kind != Peer::Kind::kServer || from.index >= num_servers_) {
    return;
  }
  const uint64_t round = blame_.accusation->accusation.round;
  const uint64_t bit = blame_.accusation->accusation.bit_index;
  if (!msg.rebuttal.empty()) {
    auto rebuttal = Rebuttal::Deserialize(*def_.group, msg.rebuttal);
    if (rebuttal.has_value() && rebuttal->client_index == blame_.accused &&
        rebuttal->server_index < num_servers_) {
      auto rv = EvaluateRebuttal(def_, *rebuttal, round, bit,
                                 blame_.accused_pad_bits[rebuttal->server_index]);
      if (rv.valid_proof && rv.server_lied) {
        FinishBlame(wire::BlameVerdict::kServerExposed, rebuttal->server_index, now_us, a);
        return;
      }
    }
  }
  // A signed empty/unconvincing rebuttal concedes: the accused is the
  // disruptor.
  FinishBlame(wire::BlameVerdict::kClientExpelled, blame_.accused, now_us, a);
}

void ServerEngine::FinishBlame(uint8_t kind, uint32_t culprit, int64_t now_us, Actions& a) {
  if (!config_.verdict_agreement || num_servers_ == 1) {
    ConcludeBlame(kind, culprit, true, now_us, a);
    return;
  }
  if (blame_.awaiting_shares) {
    return;  // already proposed; the share exchange or its deadline decides
  }
  // Propose: broadcast our signed share and act only when every server has
  // produced a verified share over the identical verdict context. No
  // expulsion is ever acted on from one server's local conclusion alone.
  blame_.awaiting_shares = true;
  blame_.proposed_kind = kind;
  blame_.proposed_culprit = culprit;
  blame_.proposed_round =
      blame_.accusation.has_value() ? blame_.accusation->accusation.round : blame_.session;
  wire::VerdictShare own;
  own.session = blame_.session;
  own.server_id = static_cast<uint32_t>(index_);
  own.round = blame_.proposed_round;
  own.kind = kind;
  own.culprit = culprit;
  own.signature = logic_->SignVerdictShare(blame_.session, own.round, kind, culprit);
  Broadcast(own, a);
  if (blame_.shares.empty()) {
    blame_.shares.assign(num_servers_, std::nullopt);
  }
  blame_.shares[index_] = std::move(own);
  a.timers.push_back({Token(blame_.session, kVerdictShares), config_.hard_deadline_us});
  MaybeAgreeVerdict(now_us, a);
}

void ServerEngine::MaybeAgreeVerdict(int64_t now_us, Actions& a) {
  if (!blame_.active || !blame_.awaiting_shares) {
    return;
  }
  for (const auto& s : blame_.shares) {
    if (!s.has_value()) {
      return;  // still gathering; the kVerdictShares deadline backstops
    }
  }
  bool match = true;
  for (const auto& s : blame_.shares) {
    match = match && s->session == blame_.session && s->round == blame_.proposed_round &&
            s->kind == blame_.proposed_kind && s->culprit == blame_.proposed_culprit;
  }
  if (match) {
    ConcludeBlame(blame_.proposed_kind, blame_.proposed_culprit, true, now_us, a);
  } else {
    // The fleet reached different conclusions (divergent evidence windows,
    // a lying server's doctored view): nobody acts. Deterministically the
    // same downgrade everywhere, since every server sees all M shares.
    ConcludeBlame(wire::BlameVerdict::kInconclusive, 0, false, now_us, a);
  }
}

void ServerEngine::ConcludeBlame(uint8_t kind, uint32_t culprit, bool agreed, int64_t now_us,
                                 Actions& a) {
  wire::BlameVerdict verdict;
  verdict.session = blame_.session;
  verdict.round =
      blame_.accusation.has_value() ? blame_.accusation->accusation.round : blame_.session;
  verdict.kind = kind;
  verdict.culprit = culprit;

  BlameDone done;
  done.session = blame_.session;
  done.shuffle_ran = blame_.shuffle_ran;
  done.accusation_found = blame_.accusation_found;
  done.accusation_valid = blame_.accusation_valid;
  done.trace = blame_.trace;
  done.verdict = verdict;
  done.verdict_agreed = agreed;
  a.blame.push_back(std::move(done));

  if (kind == wire::BlameVerdict::kClientExpelled && !logic_->IsExpelled(culprit)) {
    // Membership change before any post-blame round opens: the expelled
    // client is out of ingest, inventories, and window expectations — i.e.
    // out of every schedule from round session+depth on. (Idempotent: a
    // re-conviction of an already-expelled client changes nothing.)
    logic_->ExpelClient(culprit);
    if (IsAttached(culprit)) {
      ++expelled_attached_;
    }
  }
  if (!config_.attached_clients.empty()) {
    a.out.push_back({AttachedClientsPeer(static_cast<uint32_t>(index_)),
                     std::make_shared<const WireMessage>(verdict)});
  }
  ++blames_completed_;
  blame_ = BlameState{};
  cascade_ = Cascade{};
  blame_early_.clear();
  // Resume the pipeline: reopen a full window of rounds.
  for (size_t k = 0; k < config_.pipeline_depth; ++k) {
    StartRound(next_round_to_start_, now_us, a);
  }
}

// ---------------------------------------------------------------------------
// ClientEngine
// ---------------------------------------------------------------------------

ClientEngine::ClientEngine(DissentClient* logic, const GroupDef& def, Config config,
                           std::optional<SecureRng> sched_rng)
    : logic_(logic),
      def_(def),
      config_(config),
      sched_rng_(std::move(sched_rng)),
      mailbox_(config_.reliability) {
  assert(config_.pipeline_depth == logic_->pipeline_depth());
}

ClientEngine::Actions ClientEngine::StartSession(int64_t now_us) {
  Actions a;
  last_progress_us_ = now_us;
  if (sched_rng_.has_value() && !logic_->slot().has_value()) {
    SendScheduleRow(a);
  } else {
    SubmitFirstRounds(a);
  }
  if (config_.resync_timeout_us > 0 && !resync_armed_) {
    resync_armed_ = true;
    a.timers.push_back({Token(0, kClientResync), config_.resync_timeout_us});
  }
  Seal(a, now_us);
  return a;
}

void ClientEngine::Seal(Actions& a, int64_t now_us) {
  if (!mailbox_.enabled()) {
    return;
  }
  // Submissions retained for the stall re-send (see Submit) keep the sealed
  // frame the mailbox also holds until the ack, not a second copy.
  std::vector<std::pair<size_t, uint64_t>> submits;  // out index -> round
  for (size_t k = 0; k < a.out.size() && !sent_submits_.empty(); ++k) {
    if (const auto* submit = std::get_if<wire::ClientSubmit>(a.out[k].msg.get())) {
      submits.emplace_back(k, submit->round);
    }
  }
  mailbox_.WrapOutgoing(a.out, static_cast<uint32_t>(logic_->index()), now_us);
  for (const auto& [k, round] : submits) {
    auto it = sent_submits_.find(round);
    if (it != sent_submits_.end()) {
      it->second = a.out[k].msg;
    }
  }
  if (mailbox_.HasPending() && !retransmit_armed_) {
    retransmit_armed_ = true;
    a.timers.push_back({Token(0, kClientRetransmit), config_.reliability.rto_us});
  }
}

void ClientEngine::Submit(uint64_t round, Actions& a) {
  if (expelled_) {
    return;  // out of the group (§3.9): nothing to submit, ever
  }
  wire::ClientSubmit msg;
  msg.round = round;
  msg.client_id = static_cast<uint32_t>(logic_->index());
  msg.ciphertext = logic_->BuildCiphertext(round);
  auto shared = std::make_shared<const WireMessage>(std::move(msg));
  a.out.push_back({ServerPeer(config_.upstream_server), shared});
  if (config_.resync_timeout_us > 0) {
    // Retained for the stalled-resync re-send: a crashed server can lose a
    // submission it acked but had not yet snapshotted into a round.
    sent_submits_[round] = std::move(shared);
    while (sent_submits_.size() > config_.pipeline_depth + 2) {
      sent_submits_.erase(sent_submits_.begin());
    }
  }
}

void ClientEngine::SubmitFirstRounds(Actions& a) {
  for (uint64_t r = 1; r <= config_.pipeline_depth; ++r) {
    Submit(r, a);
  }
}

void ClientEngine::SendScheduleRow(Actions& a) {
  // The §3.10 submission: our pseudonym key encrypted once under the
  // combined server key, signed like a blame row (deterministic nonce) so no
  // server can substitute a key of its choosing for ours.
  awaiting_keys_ = true;
  wire::AccusationSubmit row;
  row.session = wire::kScheduleSession;
  row.client_id = static_cast<uint32_t>(logic_->index());
  row.blame_ciphertext = SerializeCiphertextRow(
      *def_.group, {EncryptPseudonymKey(def_, logic_->pseudonym().pub, *sched_rng_)});
  row.signature = logic_->SignBlameRow(row.session, row.blame_ciphertext);
  auto shared = std::make_shared<const WireMessage>(std::move(row));
  a.out.push_back({ServerPeer(config_.upstream_server), shared});
  if (config_.resync_timeout_us > 0) {
    sent_submits_[0] = std::move(shared);  // re-sent on a stall until the keys come
  }
}

void ClientEngine::AdoptSlotKeys(const wire::SlotKeys& msg, int64_t now_us, Actions& a) {
  // Our slot is the position of our own pseudonym key (compared as its
  // canonical fixed-width encoding).
  const Bytes mine = def_.group->ElementToBytes(logic_->pseudonym().pub);
  auto it = std::find(msg.keys.begin(), msg.keys.end(), mine);
  if (msg.keys.size() != def_.num_clients() || it == msg.keys.end()) {
    return;
  }
  logic_->AssignSlot(static_cast<size_t>(it - msg.keys.begin()), msg.keys.size());
  awaiting_keys_ = false;
  sent_submits_.erase(0);
  last_progress_us_ = now_us;
  if (config_.auto_submit) {
    SubmitFirstRounds(a);
  }
}

void ClientEngine::SendUpstream(WireMessage msg, Actions& a) {
  a.out.push_back({ServerPeer(config_.upstream_server),
                   std::make_shared<const WireMessage>(std::move(msg))});
}

ClientEngine::Actions ClientEngine::SubmitRound(uint64_t round, int64_t now_us) {
  Actions a;
  if (config_.resync_timeout_us > 0 && !resync_armed_) {
    // A transport-paced session never calls StartSession; its first
    // submission arms the resync heartbeat instead.
    resync_armed_ = true;
    last_progress_us_ = now_us;
    a.timers.push_back({Token(0, kClientResync), config_.resync_timeout_us});
  }
  if (blame_hold_) {
    // Transport-paced submissions respect the blame drain too: the servers
    // are not opening this round until the verdict, so hold it and flush on
    // the verdict instead of letting the submission be dropped.
    deferred_.push_back(round);
    return a;
  }
  Submit(round, a);
  Seal(a, now_us);
  return a;
}

ClientEngine::Actions ClientEngine::HandleTimer(uint64_t token, int64_t now_us) {
  Actions a;
  const TimerKind kind =
      static_cast<TimerKind>(token & ((1ull << ServerEngine::kTimerKindBits) - 1));
  if (kind == kClientRetransmit) {
    retransmit_armed_ = false;
    mailbox_.Sweep(now_us, a.out);
    Seal(a, now_us);
    return a;
  }
  if (kind == kClientResync && config_.resync_timeout_us > 0 && !expelled_) {
    const bool stalled = now_us - last_progress_us_ >= config_.resync_timeout_us;
    // A RoundSummary advertised a fleet frontier we have not reached yet:
    // keep requesting the next batch every tick even though the batches
    // themselves count as progress, or a long outage would only be worked
    // off at (batch - rounds_per_tick) rounds per interval.
    const bool backlog = catchup_final_round_ > last_output_round_;
    if ((stalled || backlog) && !blame_hold_) {
      // Ask the upstream server for everything after our frontier.
      SendUpstream(
          wire::CatchUpRequest{last_output_round_, static_cast<uint32_t>(logic_->index())}, a);
      if (stalled) {
        // Re-send the in-flight ciphertexts a crashed server may have lost,
        // each under a fresh sequence number (Seal re-wraps the parsed
        // inner): a server that received the original drops any copy
        // under its old one as a duplicate.
        for (const auto& [round, frame] : sent_submits_) {
          (void)round;
          std::shared_ptr<const WireMessage> msg = frame;
          if (const auto* rel = std::get_if<wire::Reliable>(frame.get())) {
            auto inner = ParseWire(rel->inner);
            if (!inner.has_value()) {
              continue;
            }
            msg = std::make_shared<const WireMessage>(std::move(*inner));
          }
          a.out.push_back({ServerPeer(config_.upstream_server), std::move(msg)});
        }
      }
    }
    resync_armed_ = true;
    a.timers.push_back({Token(0, kClientResync), config_.resync_timeout_us});
    Seal(a, now_us);
  }
  return a;
}

ClientEngine::Actions ClientEngine::HandleMessage(const Peer& from, const WireMessage& msg,
                                                  int64_t now_us) {
  Actions a;
  if (from.kind != Peer::Kind::kServer) {
    return a;
  }
  if (const auto* ack = std::get_if<wire::Ack>(&msg)) {
    mailbox_.OnAck(from, *ack);
    Seal(a, now_us);
    return a;
  }
  if (const auto* rel = std::get_if<wire::Reliable>(&msg)) {
    std::shared_ptr<const WireMessage> inner;
    if (mailbox_.OnReliable(from, *rel, static_cast<uint32_t>(logic_->index()), &inner,
                            a.out) == ReliableMailbox::Recv::kDeliver) {
      Dispatch(from, *inner, now_us, a);
    }
    Seal(a, now_us);
    return a;
  }
  Dispatch(from, msg, now_us, a);
  Seal(a, now_us);
  return a;
}

void ClientEngine::Dispatch(const Peer& from, const WireMessage& msg, int64_t now_us,
                            Actions& a) {
  // Blame traffic (§3.9) only ever comes from our upstream server.
  if (from.index == config_.upstream_server) {
    if (const auto* start = std::get_if<wire::BlameStart>(&msg)) {
      if (!expelled_) {
        if (SeenDrainedOutputs(start->session)) {
          AnswerBlameStart(start->session, a);
        } else {
          // The invite overtook a drained round's Output frame; answer once
          // that output has been processed, so the pending accusation we
          // ship reflects the full drained history on every transport.
          pending_blame_start_ = start->session;
        }
      }
      return;
    }
    if (const auto* challenge = std::get_if<wire::BlameChallenge>(&msg)) {
      if (challenge->client_id != logic_->index() || expelled_) {
        return;
      }
      auto claimed = UnpackBits(challenge->pad_bits, def_.num_servers());
      if (!claimed.has_value()) {
        // A malformed challenge gets no answer at all — never a blind
        // concession a doctored relay could harvest.
        return;
      }
      wire::BlameRebuttal answer;
      answer.session = challenge->session;
      answer.client_id = challenge->client_id;
      auto rebuttal =
          logic_->BuildBlameRebuttal(challenge->round, challenge->bit_index, *claimed);
      if (rebuttal.has_value()) {
        answer.rebuttal = rebuttal->Serialize(*def_.group);
      }
      // An empty rebuttal concedes: all published pad bits match our own
      // view, which is exactly what convicts a real disruptor. The signature
      // binds the challenge context we actually answered (round, bit, pad
      // bits as relayed), so a doctored challenge yields a signature honest
      // servers reject against their own view.
      answer.signature =
          logic_->SignBlameAnswer(challenge->session, challenge->round, challenge->bit_index,
                                  challenge->pad_bits, answer.rebuttal);
      SendUpstream(std::move(answer), a);
      return;
    }
    if (const auto* verdict = std::get_if<wire::BlameVerdict>(&msg)) {
      if (verdict->session <= last_verdict_session_) {
        return;  // replay guard: blame sessions only move forward
      }
      last_verdict_session_ = verdict->session;
      a.verdicts.push_back(*verdict);
      // Inconclusive instances restore a shipped accusation for a bounded
      // retry (a row lost in transit must not erase the only evidence).
      logic_->OnBlameVerdict(verdict->kind);
      blame_hold_ = false;
      if (verdict->kind == wire::BlameVerdict::kClientExpelled &&
          verdict->culprit == logic_->index()) {
        expelled_ = true;
        deferred_.clear();
        return;
      }
      // The servers reopened the pipeline; flush the submissions we held.
      for (uint64_t round : deferred_) {
        Submit(round, a);
      }
      deferred_.clear();
      return;
    }
    if (const auto* summary = std::get_if<wire::RoundSummary>(&msg)) {
      IngestRound(summary->round, summary->aborted, summary->cleartext, summary->signatures,
                  summary->final_round, now_us, a);
      return;
    }
    if (const auto* keys = std::get_if<wire::SlotKeys>(&msg)) {
      if (awaiting_keys_) {
        AdoptSlotKeys(*keys, now_us, a);
      }
      return;
    }
  }
  const auto* output = std::get_if<wire::Output>(&msg);
  if (output == nullptr) {
    return;
  }
  IngestRound(output->round, /*aborted=*/false, output->cleartext, output->signatures,
              /*final_round=*/0, now_us, a);
}

void ClientEngine::IngestRound(uint64_t round, bool aborted, const Bytes& cleartext,
                               const std::vector<Bytes>& signatures, uint64_t final_round,
                               int64_t now_us, Actions& a) {
  if (awaiting_keys_) {
    return;  // no slot yet: the outputs of a session we have not joined
  }
  // Remember the highest fleet frontier any summary has advertised — the
  // resync timer keeps requesting batches until we reach it.
  catchup_final_round_ = std::max(catchup_final_round_, final_round);
  if (round <= last_output_round_) {
    // Replay of an old (even validly certified) output would rebase the
    // slot-schedule window backwards and desynchronize us for good.
    return;
  }
  if (config_.resync_timeout_us > 0 && round != last_output_round_ + 1) {
    // Strict sequential mode: an out-of-order arrival is stashed until the
    // gap fills (via retransmission or catch-up). Far-future rounds are
    // dropped — the catch-up path re-fetches them in order.
    if (round <= last_output_round_ + 2 * config_.pipeline_depth + 4) {
      StashedRound& slot = stash_[round];
      slot.aborted = aborted;
      slot.cleartext = cleartext;
      slot.signatures = signatures;
    }
    return;
  }
  ApplyRound(round, aborted, cleartext, signatures, now_us, a);
  // Drain any stashed successors the gap was hiding.
  auto it = stash_.find(last_output_round_ + 1);
  while (it != stash_.end()) {
    uint64_t next_round = it->first;
    StashedRound next = std::move(it->second);
    stash_.erase(it);
    ApplyRound(next_round, next.aborted, next.cleartext, next.signatures, now_us, a);
    it = stash_.find(last_output_round_ + 1);
  }
  while (!stash_.empty() && stash_.begin()->first <= last_output_round_) {
    stash_.erase(stash_.begin());
  }
}

void ClientEngine::ApplyRound(uint64_t round, bool aborted, const Bytes& cleartext,
                              const std::vector<Bytes>& signatures, int64_t now_us, Actions& a) {
  if (round <= last_output_round_) {
    return;
  }
  if (aborted) {
    // Fleet-voted abort: the schedule advances with the all-zero cleartext
    // (every slot closes, owners re-request) and our staged message goes
    // back to the head of the outbox.
    logic_->AbortRound(round);
    last_output_round_ = round;
    last_progress_us_ = now_us;
    sent_submits_.erase(sent_submits_.begin(), sent_submits_.upper_bound(round));
    if (config_.auto_submit && !expelled_) {
      if (blame_hold_) {
        deferred_.push_back(round + config_.pipeline_depth);
      } else {
        Submit(round + config_.pipeline_depth, a);
      }
    }
    return;
  }
  if (signatures.size() != def_.num_servers()) {
    return;
  }
  auto result = logic_->ProcessOutput(round, cleartext, signatures);
  if (result.signatures_ok) {
    last_output_round_ = round;
    last_progress_us_ = now_us;
    sent_submits_.erase(sent_submits_.begin(), sent_submits_.upper_bound(round));
  }
  Delivery d;
  d.round = round;
  d.signatures_ok = result.signatures_ok;
  d.own_slot_disrupted = result.own_slot_disrupted;
  d.messages = std::move(result.messages);
  d.cleartext = cleartext;
  a.delivered.push_back(std::move(d));
  if (!result.signatures_ok) {
    return;  // forged output: ignore (the client would switch servers, §3.5)
  }
  if (result.accusation_requested) {
    // The same scan the servers run: this round flagged a blame shuffle, so
    // the pipeline is about to drain — hold further submissions until the
    // verdict instead of submitting into rounds the servers will not open.
    blame_hold_ = true;
  }
  if (pending_blame_start_.has_value() && SeenDrainedOutputs(*pending_blame_start_)) {
    uint64_t session = *pending_blame_start_;
    pending_blame_start_.reset();
    AnswerBlameStart(session, a);
  }
  if (blame_hold_ && !deferred_.empty() && round >= deferred_.front()) {
    // The servers certified a round they only open after a blame verdict —
    // we must have missed the verdict broadcast (offline at the time).
    // Resume; the held submissions are stale (their windows are long gone).
    blame_hold_ = false;
    deferred_.clear();
  }
  if (config_.auto_submit) {
    if (blame_hold_) {
      deferred_.push_back(round + config_.pipeline_depth);
    } else {
      Submit(round + config_.pipeline_depth, a);
    }
  }
}

void ClientEngine::AnswerBlameStart(uint64_t session, Actions& a) {
  // Duplicate invites (retransmission, replay) must not consume the pending
  // accusation — or an rng draw — a second time.
  if (session <= last_answered_blame_session_) {
    return;
  }
  last_answered_blame_session_ = session;
  // Fixed-width row whether or not we hold an accusation: accusers are
  // indistinguishable from bystanders. Signed so roster gossip cannot
  // substitute a forged row for ours.
  wire::AccusationSubmit submit;
  submit.session = session;
  submit.client_id = static_cast<uint32_t>(logic_->index());
  submit.blame_ciphertext = logic_->BuildBlameCiphertext();
  submit.signature = logic_->SignBlameRow(session, submit.blame_ciphertext);
  SendUpstream(std::move(submit), a);
}

}  // namespace dissent
