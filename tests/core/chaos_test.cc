// Hostile-network survival (PR 6): the engines must come through loss,
// duplication, reordering, corruption, partitions, and server crash/restart
// with byte-identical cleartexts — and degrade gracefully (fleet-voted
// aborts, inconclusive blame) when recovery is impossible.
#include <gtest/gtest.h>

#include "src/core/coordinator.h"
#include "src/core/net_protocol.h"
#include "src/crypto/multiexp.h"

namespace dissent {
namespace {

struct NetWorld {
  GroupDef def;
  Simulator sim;
  std::unique_ptr<NetDissent> net;
};

std::unique_ptr<NetWorld> MakeNetWorld(size_t servers, size_t clients, uint64_t seed,
                                       NetDissent::Options options = {}) {
  auto w = std::make_unique<NetWorld>();
  SecureRng rng = SecureRng::FromLabel(seed);
  std::vector<BigInt> server_privs, client_privs;
  w->def = MakeTestGroup(Group::Named(GroupId::kTesting256), servers, clients, rng,
                         &server_privs, &client_privs);
  w->net = std::make_unique<NetDissent>(w->def, server_privs, client_privs, &w->sim, options,
                                        seed);
  return w;
}

// Options shared by a chaos run and its fault-free reference: full-window
// rounds (every round waits for every client, so participation — and hence
// the cleartext — cannot depend on fault timing), reliability + resync +
// catch-up on, and a hard deadline generous enough that no round is ever
// force-closed below full participation.
NetDissent::Options RobustOptions() {
  NetDissent::Options o;
  o.direct_scheduling = true;
  o.clients_per_machine = 2;
  o.window_fraction = 1.0;
  o.hard_deadline = 60 * kSecond;
  o.reliability.enabled = true;
  o.resync_timeout = 2 * kSecond;
  o.frame_checksums = true;
  return o;
}

sim::FaultPlan FullFaultMatrix(uint64_t seed) {
  sim::FaultPlan plan;
  plan.seed = seed;
  plan.drop = 0.03;
  plan.duplicate = 0.03;
  plan.reorder = 0.10;
  plan.corrupt = 0.01;
  // Server 1 crashes mid-session and restarts from its snapshot 8 s later.
  plan.crashes.push_back({.node = 1, .down_at = 8 * kSecond, .up_at = 16 * kSecond});
  return plan;
}

TEST(ChaosTest, CoordinatorDuplicateDeliveryIsIdempotent) {
  // Every envelope delivered twice on the in-process transport: submissions,
  // gossip, outputs. Engines must shed the duplicates and produce the exact
  // cleartexts of a clean run.
  constexpr uint64_t kSeed = 9101;
  auto run = [&](bool duplicate) {
    SecureRng rng = SecureRng::FromLabel(kSeed);
    std::vector<BigInt> server_privs, client_privs;
    GroupDef def = MakeTestGroup(Group::Named(GroupId::kTesting256), 2, 6, rng, &server_privs,
                                 &client_privs);
    Coordinator coord(def, server_privs, client_privs, kSeed);
    coord.SetDuplicateDelivery(duplicate);
    EXPECT_TRUE(coord.RunSchedulingDirect());
    for (size_t i = 0; i < 6; ++i) {
      for (int m = 0; m < 8; ++m) {
        coord.client(i).QueueMessage(Bytes(20, static_cast<uint8_t>('a' + i)));
      }
    }
    std::vector<Bytes> cleartexts;
    for (int r = 0; r < 8; ++r) {
      auto outcome = coord.RunRound();
      EXPECT_TRUE(outcome.completed);
      EXPECT_EQ(outcome.participation, 6u);
      cleartexts.push_back(outcome.cleartext);
    }
    return cleartexts;
  };
  auto clean = run(false);
  auto duplicated = run(true);
  EXPECT_EQ(clean, duplicated);
}

TEST(ChaosTest, NetDuplicationAndReorderPreserveCleartexts) {
  // The network-transport half of the idempotency property: every frame
  // delivered twice and half of them reordered, reliability OFF — the raw
  // engine replay guards alone must keep the round stream byte-identical.
  constexpr uint64_t kSeed = 9102;
  NetDissent::Options opts;
  opts.direct_scheduling = true;
  opts.window_fraction = 1.0;
  opts.hard_deadline = 60 * kSecond;

  auto clean = MakeNetWorld(2, 6, kSeed, opts);
  ASSERT_TRUE(clean->net->Start());
  clean->sim.RunUntil(30 * kSecond);

  NetDissent::Options chaotic = opts;
  chaotic.fault_plan = sim::FaultPlan{};
  chaotic.fault_plan->seed = kSeed;
  chaotic.fault_plan->duplicate = 1.0;
  chaotic.fault_plan->reorder = 0.5;
  auto noisy = MakeNetWorld(2, 6, kSeed, chaotic);
  ASSERT_TRUE(noisy->net->Start());
  noisy->sim.RunUntil(30 * kSecond);

  ASSERT_GT(clean->net->rounds_completed(), 10u);
  ASSERT_GT(noisy->net->rounds_completed(), 10u);
  EXPECT_GT(noisy->net->network().messages_duplicated(), 100u);
  const auto& a = clean->net->round_cleartexts();
  const auto& b = noisy->net->round_cleartexts();
  const size_t n = std::min(a.size(), b.size());
  for (size_t r = 0; r < n; ++r) {
    ASSERT_EQ(a[r], b[r]) << "cleartexts diverged at round " << (r + 1);
  }
}

TEST(ChaosTest, FullFaultMatrixWithCrashPreservesCleartexts) {
  // The tentpole acceptance property at test scale: loss + duplication +
  // reordering + corruption + a server crash/restart, and the chaos run's
  // certified round stream is byte-identical to the fault-free reference.
  constexpr uint64_t kSeed = 9103;
  auto clean = MakeNetWorld(3, 12, kSeed, RobustOptions());
  ASSERT_TRUE(clean->net->Start());
  clean->sim.RunUntil(90 * kSecond);

  auto opts = RobustOptions();
  opts.fault_plan = FullFaultMatrix(kSeed);
  auto chaos = MakeNetWorld(3, 12, kSeed, opts);
  ASSERT_TRUE(chaos->net->Start());
  chaos->sim.RunUntil(90 * kSecond);

  // The chaos run pays for the outage in wall-clock rounds, but every round
  // it does certify matches the reference bit-for-bit.
  ASSERT_GT(clean->net->rounds_completed(), 30u);
  ASSERT_GT(chaos->net->rounds_completed(), 10u)
      << "chaos run failed to recover from the outage";
  EXPECT_EQ(chaos->net->server_restarts(), 1u);
  EXPECT_GT(chaos->net->retransmits(), 0u);
  EXPECT_GT(chaos->net->checksum_drops(), 0u) << "corruption never hit the wire";
  const auto& a = clean->net->round_cleartexts();
  const auto& b = chaos->net->round_cleartexts();
  const size_t n = std::min(a.size(), b.size());
  ASSERT_GT(n, 10u);
  for (size_t r = 0; r < n; ++r) {
    ASSERT_EQ(a[r], b[r]) << "cleartexts diverged at round " << (r + 1);
  }
}

TEST(ChaosTest, SameFaultPlanSeedReproducesIdenticalTrace) {
  // A failing chaos run must be replayable by seed alone: identical round
  // stream AND identical injected-fault counters.
  constexpr uint64_t kSeed = 9104;
  auto run = [&] {
    auto opts = RobustOptions();
    opts.fault_plan = FullFaultMatrix(kSeed);
    auto w = MakeNetWorld(3, 12, kSeed, opts);
    EXPECT_TRUE(w->net->Start());
    w->sim.RunUntil(45 * kSecond);
    return w;
  };
  auto w1 = run();
  auto w2 = run();
  EXPECT_EQ(w1->net->round_cleartexts(), w2->net->round_cleartexts());
  EXPECT_EQ(w1->net->network().messages_lost(), w2->net->network().messages_lost());
  EXPECT_EQ(w1->net->network().messages_duplicated(),
            w2->net->network().messages_duplicated());
  EXPECT_EQ(w1->net->network().messages_corrupted(),
            w2->net->network().messages_corrupted());
  EXPECT_EQ(w1->net->network().messages_reordered(),
            w2->net->network().messages_reordered());
  EXPECT_EQ(w1->net->retransmits(), w2->net->retransmits());
  EXPECT_EQ(w1->net->checksum_drops(), w2->net->checksum_drops());
}

TEST(ChaosTest, ClientCatchesUpAfterMissedOutputs) {
  // A client that vanishes misses outputs (and any slot-layout changes they
  // carry); on return, the resync timer detects the stall and fetches signed
  // RoundSummaries from its upstream server until it is back in lockstep —
  // proven by its queued message decoding correctly afterwards.
  constexpr uint64_t kSeed = 9105;
  // Unlike the byte-identity runs, rounds here must keep completing while
  // the client is away (11/12 clears the threshold), so the full-window
  // requirement is relaxed.
  auto opts = RobustOptions();
  opts.window_fraction = 0.75;
  // The outage spans ~100 rounds; the upstream server must still hold every
  // summary the returning client needs.
  opts.output_history = 256;
  auto w = MakeNetWorld(3, 12, kSeed, opts);
  ASSERT_TRUE(w->net->Start());
  for (size_t i = 0; i < 12; ++i) {
    for (int m = 0; m < 30; ++m) {
      w->net->client(i).QueueMessage(Bytes(16, static_cast<uint8_t>('a' + i)));
    }
  }
  w->sim.RunUntil(5 * kSecond);
  ASSERT_GT(w->net->rounds_completed(), 0u);
  w->net->SetClientOnline(3, false);
  w->sim.RunUntil(20 * kSecond);
  const uint64_t missed_rounds = w->net->rounds_completed();
  EXPECT_EQ(w->net->last_participation(), 11u);
  w->net->SetClientOnline(3, true);
  w->sim.RunUntil(60 * kSecond);
  EXPECT_GT(w->net->rounds_completed(), missed_rounds + 5);
  EXPECT_EQ(w->net->last_participation(), 12u) << "client 3 never resynchronized";
  EXPECT_GE(w->net->client_engine(3).last_output_round(), missed_rounds)
      << "catch-up never replayed the missed rounds";
}

TEST(ChaosTest, RetransmitOverheadBoundedAtOnePercentLoss) {
  // Acceptance bound: at 1% loss (plus light duplication/reordering) the
  // reliability layer's per-round byte cost stays within 1.15x of the same
  // configuration on a clean network.
  constexpr uint64_t kSeed = 9106;
  auto clean = MakeNetWorld(3, 12, kSeed, RobustOptions());
  ASSERT_TRUE(clean->net->Start());
  clean->sim.RunUntil(60 * kSecond);

  auto opts = RobustOptions();
  opts.fault_plan = sim::FaultPlan{};
  opts.fault_plan->seed = kSeed;
  opts.fault_plan->drop = 0.01;
  opts.fault_plan->duplicate = 0.01;
  opts.fault_plan->reorder = 0.05;
  auto lossy = MakeNetWorld(3, 12, kSeed, opts);
  ASSERT_TRUE(lossy->net->Start());
  lossy->sim.RunUntil(60 * kSecond);

  ASSERT_GT(clean->net->rounds_completed(), 20u);
  ASSERT_GT(lossy->net->rounds_completed(), 20u);
  const double clean_per_round =
      static_cast<double>(clean->net->network().bytes_sent()) /
      static_cast<double>(clean->net->rounds_completed());
  const double lossy_per_round =
      static_cast<double>(lossy->net->network().bytes_sent()) /
      static_cast<double>(lossy->net->rounds_completed());
  EXPECT_GT(lossy->net->retransmits(), 0u);
  EXPECT_LE(lossy_per_round, clean_per_round * 1.15)
      << "retransmit overhead " << lossy_per_round / clean_per_round << "x";
}

TEST(ChaosTest, FleetVotesRoundAbortsWhenServerStaysDead) {
  // Graceful degradation: a server that dies and never returns would stall
  // the pipeline forever (certification needs all M signatures). With an
  // abort deadline, the survivors vote each stuck round into a fleet-agreed
  // abort and the schedule keeps advancing deterministically.
  constexpr uint64_t kSeed = 9107;
  auto opts = RobustOptions();
  opts.abort_deadline = 5 * kSecond;
  opts.fault_plan = sim::FaultPlan{};
  opts.fault_plan->seed = kSeed;
  // Server 2 dies at 10 s and never comes back within the run.
  opts.fault_plan->crashes.push_back(
      {.node = 2, .down_at = 10 * kSecond, .up_at = 100000 * kSecond});
  auto w = MakeNetWorld(3, 12, kSeed, opts);
  ASSERT_TRUE(w->net->Start());
  w->sim.RunUntil(10 * kSecond);
  const uint64_t before_death = w->net->rounds_completed();
  ASSERT_GT(before_death, 0u);
  w->sim.RunUntil(60 * kSecond);
  EXPECT_GT(w->net->rounds_aborted(), 2u) << "survivors never voted aborts";
  // Both survivors agree on every abort (server 1 is server 0's witness).
  EXPECT_EQ(w->net->server_engine(0).rounds_aborted(),
            w->net->server_engine(1).rounds_aborted());
  // No round certified without the dead server's signature.
  EXPECT_LE(w->net->rounds_completed(), before_death + 2);
}

TEST(ChaosTest, NoExpulsionWithoutEveryServersVerdictShare) {
  // Signed verdict agreement: an expulsion may only be enacted once every
  // server's signed share over the identical verdict context has been
  // verified. Severing ALL VerdictShare traffic leaves every server with
  // only its own share, so the deadline resolves the instance as
  // inconclusive — nobody is expelled, and the pipeline reopens.
  constexpr uint64_t kSeed = 9108;
  SecureRng rng = SecureRng::FromLabel(kSeed);
  std::vector<BigInt> server_privs, client_privs;
  GroupDef def = MakeTestGroup(Group::Named(GroupId::kTesting256), 2, 6, rng, &server_privs,
                               &client_privs);
  Coordinator coord(def, server_privs, client_privs, kSeed);
  ASSERT_TRUE(coord.RunSchedulingDirect());
  for (size_t i = 0; i < 6; ++i) {
    for (int m = 0; m < 40; ++m) {
      coord.client(i).QueueMessage(Bytes(24, static_cast<uint8_t>('a' + i)));
    }
  }
  coord.SetMessageFilter([](const Peer&, const Peer&, const WireMessage& msg) {
    return !std::holds_alternative<wire::VerdictShare>(msg);
  });
  const size_t victim_bit = (coord.server(0).schedule().SlotOffset(2) + 20) * 8;
  coord.InjectDisruptor(5, victim_bit);
  for (int i = 0; i < 30 && !coord.has_blame_outcome(); ++i) {
    coord.RunRound();
  }
  ASSERT_TRUE(coord.has_blame_outcome()) << "no blame verdict within 30 rounds";
  auto outcome = coord.RunAccusationPhase();
  EXPECT_TRUE(outcome.shuffle_ran);
  EXPECT_FALSE(outcome.expelled_client.has_value())
      << "client expelled without verified shares from every server";
  EXPECT_FALSE(outcome.expelled_server.has_value());
  EXPECT_TRUE(coord.expelled_clients().empty());

  // Control: with the shares flowing, the identical scenario convicts the
  // disruptor — the agreement gate blocks unilateral verdicts, not justice.
  Coordinator coord2(def, server_privs, client_privs, kSeed);
  ASSERT_TRUE(coord2.RunSchedulingDirect());
  for (size_t i = 0; i < 6; ++i) {
    for (int m = 0; m < 40; ++m) {
      coord2.client(i).QueueMessage(Bytes(24, static_cast<uint8_t>('a' + i)));
    }
  }
  coord2.InjectDisruptor(5, (coord2.server(0).schedule().SlotOffset(2) + 20) * 8);
  for (int i = 0; i < 30 && !coord2.has_blame_outcome(); ++i) {
    coord2.RunRound();
  }
  ASSERT_TRUE(coord2.has_blame_outcome());
  auto convicted = coord2.RunAccusationPhase();
  EXPECT_EQ(convicted.expelled_client, std::optional<size_t>(5));
}

TEST(ChaosTest, PartitionAtAbortBoundaryConvergesOnSameDecision) {
  // Tentpole acceptance: a partition straddling the abort deadline must not
  // split the verdict. The majority side assembles an AbortCommit certificate
  // (all alive-server prepares at the same epoch); the minority server cannot
  // abort unilaterally and converges by certificate replay once the partition
  // heals — every server records the identical abort decision, and the
  // pipeline resumes completing rounds.
  constexpr uint64_t kSeed = 9110;
  auto opts = RobustOptions();
  opts.abort_deadline = 5 * kSecond;
  opts.fault_plan = sim::FaultPlan{};
  opts.fault_plan->seed = kSeed;
  // Server 2 is cut off from servers 0 and 1 (server nodes are sim nodes
  // 0..M-1) across several abort deadlines; clients still reach everyone.
  opts.fault_plan->partitions.push_back(
      {.a_lo = 2, .a_hi = 2, .b_lo = 0, .b_hi = 1, .from = 10 * kSecond, .until = 22 * kSecond});
  auto w = MakeNetWorld(3, 12, kSeed, opts);
  ASSERT_TRUE(w->net->Start());
  w->sim.RunUntil(10 * kSecond);
  ASSERT_GT(w->net->rounds_completed(), 0u);
  w->sim.RunUntil(22 * kSecond);
  const uint64_t completed_at_heal = w->net->rounds_completed();
  w->sim.RunUntil(70 * kSecond);
  // The stuck rounds were aborted — by certificate, not by split vote.
  EXPECT_GE(w->net->rounds_aborted(), 1u) << "no abort at the vote boundary";
  // Same decision on every server, including the partitioned minority.
  EXPECT_EQ(w->net->server_engine(0).rounds_aborted(),
            w->net->server_engine(1).rounds_aborted());
  EXPECT_EQ(w->net->server_engine(0).rounds_aborted(),
            w->net->server_engine(2).rounds_aborted())
      << "minority server diverged from the certificate history";
  // Healing re-admits the minority and certification resumes (every
  // completion carries all M signatures over the cleartext, so agreement on
  // the round stream is cryptographically enforced).
  EXPECT_GT(w->net->rounds_completed(), completed_at_heal + 3)
      << "pipeline never resumed after the partition healed";
}

TEST(ChaosTest, LegacyOneShotAbortSplitsAcrossPartition) {
  // Negative control pinning the pre-certificate failure mode: with the
  // two-phase agreement disabled the identical partition leaves the minority
  // server permanently behind the majority's abort history — votes it needed
  // were acked-then-dropped or arrive gated on its own slow deadlines, so the
  // fleet never realigns and no round completes after the heal.
  constexpr uint64_t kSeed = 9110;
  auto opts = RobustOptions();
  opts.abort_deadline = 5 * kSecond;
  opts.abort_agreement = false;
  opts.fault_plan = sim::FaultPlan{};
  opts.fault_plan->seed = kSeed;
  opts.fault_plan->partitions.push_back(
      {.a_lo = 2, .a_hi = 2, .b_lo = 0, .b_hi = 1, .from = 10 * kSecond, .until = 22 * kSecond});
  auto w = MakeNetWorld(3, 12, kSeed, opts);
  ASSERT_TRUE(w->net->Start());
  w->sim.RunUntil(22 * kSecond);
  const uint64_t completed_at_heal = w->net->rounds_completed();
  w->sim.RunUntil(70 * kSecond);
  // The majority pair stays self-consistent (they exchange votes directly)...
  const uint64_t a0 = w->net->server_engine(0).rounds_aborted();
  const uint64_t a1 = w->net->server_engine(1).rounds_aborted();
  const uint64_t a2 = w->net->server_engine(2).rounds_aborted();
  EXPECT_LE(a0 > a1 ? a0 - a1 : a1 - a0, 1u);
  // ...but the minority's abort history never catches the majority's: the
  // split verdict the certificate path exists to prevent.
  EXPECT_LT(a2 + 1, a0) << "legacy path unexpectedly converged";
  // And with the fleet permanently out of alignment, certification is dead.
  EXPECT_LE(w->net->rounds_completed(), completed_at_heal + 1)
      << "legacy path unexpectedly resumed completing rounds";
}

TEST(ChaosTest, StaleSnapshotServerRejoinsViaCatchUp) {
  // Tentpole acceptance: a server restored from a snapshot >= 2 fleet aborts
  // old re-admits itself via ServerCatchUpRequest — siblings replay signed
  // per-round summaries (abort certificates for the rounds voted away while
  // it was down) until its frontier matches the fleet, and certification
  // resumes without a group re-form.
  constexpr uint64_t kSeed = 9112;
  auto opts = RobustOptions();
  opts.abort_deadline = 5 * kSecond;
  opts.output_history = 64;
  opts.fault_plan = sim::FaultPlan{};
  opts.fault_plan->seed = kSeed;
  // Down for 25 s (~5 abort deadlines): the snapshot taken at crash time is
  // several fleet-agreed aborts stale by the time the server restarts.
  opts.fault_plan->crashes.push_back(
      {.node = 2, .down_at = 10 * kSecond, .up_at = 35 * kSecond});
  auto w = MakeNetWorld(3, 12, kSeed, opts);
  ASSERT_TRUE(w->net->Start());
  w->sim.RunUntil(10 * kSecond);
  ASSERT_GT(w->net->rounds_completed(), 0u);
  w->sim.RunUntil(36 * kSecond);
  const uint64_t completed_at_restore = w->net->rounds_completed();
  ASSERT_GE(w->net->rounds_aborted(), 2u) << "outage produced < 2 fleet aborts";
  w->sim.RunUntil(75 * kSecond);
  EXPECT_EQ(w->net->server_restarts(), 1u);
  // The restored server replayed the missed history rather than re-voting it.
  EXPECT_GE(w->net->server_engine(2).catch_up_rounds(), 2u)
      << "restored server never caught up via summary replay";
  EXPECT_FALSE(w->net->server_engine(2).catching_up());
  // All three abort histories agree after re-admission.
  EXPECT_EQ(w->net->server_engine(0).rounds_aborted(),
            w->net->server_engine(1).rounds_aborted());
  EXPECT_EQ(w->net->server_engine(0).rounds_aborted(),
            w->net->server_engine(2).rounds_aborted());
  // Completions resumed — each needs the restored server's signature over the
  // cleartext, so post-rejoin byte identity is certified, not assumed.
  EXPECT_GT(w->net->rounds_completed(), completed_at_restore + 3)
      << "fleet never resumed certifying after the restart";
}

TEST(ChaosTest, LegacyStaleSnapshotRestartCannotRejoin) {
  // Negative control pinning the pre-catch-up failure mode: without the
  // agreement/catch-up machinery, the abort votes the restored server needs
  // were consumed while it was down (acked by the mailbox, dropped outside
  // its window on redelivery) — it wedges behind the fleet, which keeps
  // voting aborts forever and never certifies another round.
  constexpr uint64_t kSeed = 9112;
  auto opts = RobustOptions();
  opts.abort_deadline = 5 * kSecond;
  opts.abort_agreement = false;
  opts.output_history = 64;
  opts.fault_plan = sim::FaultPlan{};
  opts.fault_plan->seed = kSeed;
  opts.fault_plan->crashes.push_back(
      {.node = 2, .down_at = 10 * kSecond, .up_at = 35 * kSecond});
  auto w = MakeNetWorld(3, 12, kSeed, opts);
  ASSERT_TRUE(w->net->Start());
  w->sim.RunUntil(36 * kSecond);
  const uint64_t completed_at_restore = w->net->rounds_completed();
  w->sim.RunUntil(75 * kSecond);
  EXPECT_EQ(w->net->server_restarts(), 1u);
  // The restored server's abort history stays strictly behind the fleet's...
  EXPECT_LT(w->net->server_engine(2).rounds_aborted() + 1,
            w->net->server_engine(0).rounds_aborted())
      << "legacy restart unexpectedly rejoined";
  // ...and no round ever completes again.
  EXPECT_LE(w->net->rounds_completed(), completed_at_restore + 1);
}

// A server acks a round's submission, crashes, and comes back from a
// snapshot taken before it ingested it. The client already dropped the
// acked frame from its mailbox, so only its stall re-send — the retained
// sealed frame's inner, under a fresh sequence number — can bring the round
// home, and the round must certify the reference cleartext.
TEST(ChaosTest, CoordinatorStallResendRepairsSubmissionLostToOlderSnapshot) {
  constexpr uint64_t kSeed = 9110;
  constexpr uint64_t kLost = 4;
  auto make = [&] {
    SecureRng rng = SecureRng::FromLabel(kSeed);
    std::vector<BigInt> server_privs, client_privs;
    GroupDef def = MakeTestGroup(Group::Named(GroupId::kTesting256), 2, 4, rng, &server_privs,
                                 &client_privs);
    auto coord = std::make_unique<Coordinator>(def, server_privs, client_privs, kSeed);
    ReliabilityConfig rel;
    rel.enabled = true;
    coord->EnableReliability(rel, /*resync_timeout_us=*/2 * 1000000);
    EXPECT_TRUE(coord->RunSchedulingDirect());
    for (size_t i = 0; i < 4; ++i) {
      for (int m = 0; m < 8; ++m) {
        coord->client(i).QueueMessage(Bytes(20, static_cast<uint8_t>(16 * i + m)));
      }
    }
    return coord;
  };
  auto ref = make();
  std::vector<Bytes> want;
  for (uint64_t r = 1; r <= kLost + 2; ++r) {
    auto out = ref->RunRound();
    ASSERT_TRUE(out.completed) << "reference round " << r;
    want.push_back(out.cleartext);
  }

  auto coord = make();
  for (uint64_t r = 1; r < kLost; ++r) {
    ASSERT_EQ(coord->RunRound().cleartext, want[r - 1]);
  }
  // Round kLost is open on server 1 with nothing ingested yet.
  const Bytes snapshot = coord->server_engine(1).SerializeSnapshot();
  ASSERT_EQ(coord->server_engine(1).logic().SubmissionCount(kLost), 0u);
  bool restarted = false;
  uint32_t lost_client = 0;
  uint64_t first_seq = 0;
  std::vector<uint64_t> resend_seqs;
  coord->SetMessageFilter([&](const Peer& from, const Peer& to, const WireMessage& msg) {
    if (const auto* rel = std::get_if<wire::Reliable>(&msg)) {
      auto inner = ParseWire(rel->inner);
      const auto* submit = inner.has_value() ? std::get_if<wire::ClientSubmit>(&*inner) : nullptr;
      if (submit != nullptr && submit->round == kLost && to.kind == Peer::Kind::kServer &&
          to.index == 1) {
        if (!restarted && first_seq == 0) {
          lost_client = from.index;
          first_seq = rel->seq;
        } else if (restarted && from.index == lost_client) {
          resend_seqs.push_back(rel->seq);
        }
      }
    }
    if (!restarted && first_seq != 0 && std::holds_alternative<wire::Ack>(msg) &&
        from.kind == Peer::Kind::kServer && from.index == 1 && to.index == lost_client) {
      // Acked and ingested; the crash loses it.
      restarted = true;
      coord->RestartServer(1, snapshot);
    }
    return true;
  });
  auto out = coord->RunRound();
  ASSERT_TRUE(restarted);
  ASSERT_TRUE(out.completed);
  EXPECT_EQ(out.cleartext, want[kLost - 1]);
  ASSERT_FALSE(resend_seqs.empty()) << "the lost submission was never re-sent";
  EXPECT_GT(resend_seqs.front(), first_seq) << "re-sent under its old sequence number";
  coord->SetMessageFilter(nullptr);
  EXPECT_EQ(coord->RunRound().cleartext, want[kLost]);
  EXPECT_EQ(coord->RunRound().cleartext, want[kLost + 1]);
}

TEST(ChaosTest, NetStallResendRepairsSubmissionLostToOlderSnapshot) {
  constexpr uint64_t kSeed = 9111;
  constexpr uint64_t kLost = 6;
  auto queue = [](NetWorld& w) {
    for (size_t i = 0; i < 4; ++i) {
      for (int m = 0; m < 12; ++m) {
        w.net->client(i).QueueMessage(Bytes(20, static_cast<uint8_t>(16 * i + m)));
      }
    }
  };
  auto ref = MakeNetWorld(2, 4, kSeed, RobustOptions());
  ASSERT_TRUE(ref->net->Start());
  queue(*ref);
  ref->sim.RunUntil(30 * kSecond);

  auto w = MakeNetWorld(2, 4, kSeed, RobustOptions());
  ASSERT_TRUE(w->net->Start());
  queue(*w);
  // Snapshot server 1 the moment it opens round kLost (nothing ingested)...
  SimTime t = 0;
  while (w->net->server_engine(1).rounds_completed() < kLost - 1) {
    t += kMillisecond;
    w->sim.RunUntil(t);
    ASSERT_LT(t, 20 * kSecond);
  }
  ASSERT_EQ(w->net->server(1).SubmissionCount(kLost), 0u);
  const Bytes snapshot = w->net->server_engine(1).SerializeSnapshot();
  // ...let both of its clients' submissions be ingested and acked...
  while (w->net->server(1).SubmissionCount(kLost) < 2) {
    t += kMillisecond;
    w->sim.RunUntil(t);
    ASSERT_LT(w->net->server_engine(1).rounds_completed(), kLost);
  }
  // ...then crash it back to the snapshot: both submissions are gone.
  w->net->RestartServer(1, snapshot);
  ASSERT_EQ(w->net->server(1).SubmissionCount(kLost), 0u);
  w->sim.RunUntil(30 * kSecond);

  EXPECT_EQ(w->net->server_restarts(), 1u);
  const auto& a = ref->net->round_cleartexts();
  const auto& b = w->net->round_cleartexts();
  ASSERT_GT(b.size(), kLost + 2) << "the pipeline never recovered the lost submissions";
  for (size_t r = 0; r < std::min(a.size(), b.size()); ++r) {
    ASSERT_EQ(a[r], b[r]) << "cleartexts diverged at round " << (r + 1);
  }
}

TEST(ChaosTest, BackgroundPadsAreByteIdenticalToInlineUnderFaults) {
  // The servers' composite pads run on the worker pool from round open; with
  // the fast path off they run inline on the protocol thread. Under the
  // full fault matrix (a server crash and snapshot restore included) both
  // must certify the same rounds and leave every server in the same state —
  // commits and server ciphertexts of the rounds in flight included.
  constexpr uint64_t kSeed = 9110;
  auto run = [&](bool background) {
    ScopedCryptoFastPath mode(background);
    auto opts = RobustOptions();
    opts.fault_plan = FullFaultMatrix(kSeed);
    auto w = MakeNetWorld(3, 12, kSeed, opts);
    EXPECT_TRUE(w->net->Start());
    w->sim.RunUntil(45 * kSecond);
    return w;
  };
  auto pool = run(true);
  auto inline_run = run(false);
  ASSERT_GT(pool->net->rounds_completed(), 10u);
  EXPECT_EQ(pool->net->server_restarts(), 1u);
  EXPECT_EQ(pool->net->round_cleartexts(), inline_run->net->round_cleartexts());
  EXPECT_EQ(pool->net->retransmits(), inline_run->net->retransmits());
  for (size_t j = 0; j < 3; ++j) {
    EXPECT_EQ(pool->net->server_engine(j).SerializeSnapshot(),
              inline_run->net->server_engine(j).SerializeSnapshot())
        << "server " << j;
  }
}

TEST(ChaosTest, ServerSnapshotRoundTripsInFlightState) {
  // Unit-level crash recovery: serialize a server engine mid-session,
  // restore into a fresh logic+engine pair, and the restored instance
  // resumes the identical protocol (snapshot round-trips to the same bytes).
  constexpr uint64_t kSeed = 9109;
  auto opts = RobustOptions();
  auto w = MakeNetWorld(2, 6, kSeed, opts);
  ASSERT_TRUE(w->net->Start());
  w->sim.RunUntil(10 * kSecond);
  ASSERT_GT(w->net->rounds_completed(), 0u);

  Bytes snap = w->net->server_engine(1).SerializeSnapshot();
  ASSERT_FALSE(snap.empty());

  SecureRng rng = SecureRng::FromLabel(kSeed);
  std::vector<BigInt> server_privs, client_privs;
  GroupDef def2 = MakeTestGroup(Group::Named(GroupId::kTesting256), 2, 6, rng, &server_privs,
                                &client_privs);
  // def2 == w->def (same seed/derivation); rebuild logic+engine against it.
  DissentServer restored(def2, 1, server_privs[1], SecureRng::FromLabel(1), 1);
  std::vector<BigInt> keys;
  for (size_t i = 0; i < 6; ++i) {
    keys.push_back(w->net->client(i).pseudonym().pub);
  }
  restored.SetPseudonymKeys(keys);
  restored.BeginSlots(6);
  ServerEngine::Config cfg;
  cfg.window_fraction = opts.window_fraction;
  cfg.hard_deadline_us = opts.hard_deadline;
  cfg.reliability = opts.reliability;
  cfg.output_history = opts.output_history;
  cfg.attached_clients = {2, 3};  // machine 1 (clients 2,3) attaches to server 1
  ServerEngine engine(&restored, def2, cfg);
  auto actions = engine.RestoreSnapshot(snap, w->sim.Now());
  ASSERT_TRUE(actions.has_value()) << "snapshot restore rejected";
  EXPECT_EQ(engine.SerializeSnapshot(), snap) << "restore is not a fixed point";
}

}  // namespace
}  // namespace dissent
