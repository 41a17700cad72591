// Paper-scale round engine: 1,000-client transport equivalence, the
// machine-multiplexed topology (§5.2), shared-payload vs per-client-frame
// broadcast, and the adaptive submission window under a churn ramp.
#include <gtest/gtest.h>

#include "src/core/coordinator.h"
#include "src/core/net_protocol.h"

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

TEST(EngineScaleTest, ThousandClientCoordinatorAndNetDissentMatchByteForByte) {
  // The batched/streaming hot path at 1,000 clients: the in-process
  // Coordinator and the simulated-network NetDissent must still produce
  // byte-identical cleartexts. Scheduling is direct (slot i = client i) in
  // both — the verified shuffle's cost at this N would dwarf the rounds
  // under test and is pinned elsewhere.
  constexpr uint64_t kSeed = 9001;
  constexpr size_t kServers = 2, kClients = 1000;
  constexpr int kRounds = 3;

  SecureRng rng = SecureRng::FromLabel(kSeed);
  std::vector<BigInt> server_privs, client_privs;
  GroupDef def = MakeTestGroup(Group::Named(GroupId::kTesting256), kServers, kClients, rng,
                               &server_privs, &client_privs);

  Coordinator coord(def, server_privs, client_privs, kSeed);
  ASSERT_TRUE(coord.RunSchedulingDirect());
  EXPECT_EQ(*coord.client(7).slot(), 7u);
  coord.client(7).QueueMessage(BytesOf("same bytes at scale"));
  std::vector<Bytes> coord_cleartexts;
  for (int r = 0; r < kRounds; ++r) {
    auto outcome = coord.RunRound();
    ASSERT_TRUE(outcome.completed);
    EXPECT_EQ(outcome.participation, kClients);
    coord_cleartexts.push_back(outcome.cleartext);
  }

  NetDissent::Options options;
  options.direct_scheduling = true;
  auto w = MakeNetWorld(kServers, kClients, kSeed, options);
  w->net->client(7).QueueMessage(BytesOf("same bytes at scale"));
  ASSERT_TRUE(w->net->Start());
  while (w->net->rounds_completed() < static_cast<uint64_t>(kRounds)) {
    ASSERT_GT(w->sim.pending(), 0u) << "network run stalled";
    w->sim.Step();
  }

  ASSERT_GE(w->net->round_cleartexts().size(), static_cast<size_t>(kRounds));
  for (int r = 0; r < kRounds; ++r) {
    EXPECT_EQ(w->net->round_cleartexts()[r], coord_cleartexts[r])
        << "round " << (r + 1) << " diverged between transports";
  }
  EXPECT_EQ(w->net->last_participation(), kClients);
  // O(L) round state at N = 1,000: the streaming server holds at most the
  // accumulator + built ciphertext per in-flight round, nowhere near the
  // N * L of the buffer-then-combine path.
  const size_t len = coord_cleartexts.back().size();
  EXPECT_LE(w->net->peak_round_state_bytes(), 4 * len);
}

TEST(EngineScaleTest, MachineMultiplexedTopologyPreservesCleartexts) {
  // §5.2 testbed shape: many clients per machine node, all attached to the
  // machine's upstream server. The round cleartext is attachment-invariant
  // (every pad and ciphertext cancels identically), so the multiplexed
  // topology must reproduce the one-node-per-client run byte for byte.
  constexpr uint64_t kSeed = 9002;
  auto flat = MakeNetWorld(2, 16, kSeed);
  flat->net->client(5).QueueMessage(BytesOf("machines are transparent"));
  ASSERT_TRUE(flat->net->Start());
  flat->sim.RunUntil(10 * kSecond);

  NetDissent::Options multiplexed;
  multiplexed.clients_per_machine = 4;
  auto packed = MakeNetWorld(2, 16, kSeed, multiplexed);
  packed->net->client(5).QueueMessage(BytesOf("machines are transparent"));
  ASSERT_TRUE(packed->net->Start());
  packed->sim.RunUntil(10 * kSecond);

  ASSERT_GT(flat->net->rounds_completed(), 4u);
  ASSERT_GT(packed->net->rounds_completed(), 4u);
  size_t common = std::min(flat->net->round_cleartexts().size(),
                           packed->net->round_cleartexts().size());
  for (size_t r = 0; r < common; ++r) {
    EXPECT_EQ(flat->net->round_cleartexts()[r], packed->net->round_cleartexts()[r])
        << "round " << (r + 1) << " diverged between topologies";
  }
  EXPECT_EQ(packed->net->last_participation(), 16u);
  bool found = false;
  for (auto& [slot, payload] : packed->net->delivered_messages()) {
    found |= payload == BytesOf("machines are transparent");
  }
  EXPECT_TRUE(found);
}

TEST(EngineScaleTest, SharedBroadcastMatchesPerClientFramesAtLowerWireCost) {
  // The engine's one kAttachedClients Output envelope goes out as one frame
  // per attached machine, never one per client: in steady state a round
  // sends exactly one ClientSubmit per client, four gossip frames per
  // ordered server pair, and one Output per machine.
  constexpr uint64_t kSeed = 9003;
  constexpr size_t kServers = 2, kClients = 16, kMachines = 4;
  NetDissent::Options options;
  options.clients_per_machine = kClients / kMachines;
  auto w = MakeNetWorld(kServers, kClients, kSeed, options);
  ASSERT_TRUE(w->net->Start());
  auto frames_at_round = [&](uint64_t round) {
    while (w->net->rounds_completed() < round && w->sim.pending() > 0) {
      w->sim.Step();
    }
    EXPECT_EQ(w->net->rounds_completed(), round);
    return w->net->network().messages_sent();
  };
  const uint64_t before = frames_at_round(3);
  const uint64_t after = frames_at_round(8);
  EXPECT_EQ(after - before, 5 * (kClients + 4 * kServers * (kServers - 1) + kMachines));
  EXPECT_EQ(w->net->last_participation(), kClients);
}

TEST(EngineScaleTest, ThousandClientBlameExpelsDisruptorWithoutStallingPipeline) {
  // §3.9 at paper scale: a 1,000-client sim with a persistent disruptor runs
  // the full engine-driven blame sub-phase — pipeline drain, accusation
  // shuffle over 1,000 fixed-width rows, trace, verdict — expels the culprit
  // and keeps the pipelined round path moving at N-1 without a stall.
  constexpr uint64_t kSeed = 9005;
  constexpr size_t kClients = 1000, kVictim = 0, kDisruptor = 999;
  NetDissent::Options options;
  options.direct_scheduling = true;
  options.pipeline_depth = 2;
  auto w = MakeNetWorld(2, kClients, kSeed, options);
  // The victim keeps its slot (slot 0: its offset is just the request
  // region, stable regardless of what other slots do) open with a backlog.
  for (int m = 0; m < 50; ++m) {
    w->net->client(kVictim).QueueMessage(Bytes(48, 0x5a));
  }
  ASSERT_TRUE(w->net->Start());
  const size_t victim_bit = (w->net->server(0).schedule().RequestRegionBytes() + 20) * 8;
  w->net->InjectDisruptor(kDisruptor, victim_bit);
  while (w->net->blame_outcomes().empty()) {
    ASSERT_GT(w->sim.pending(), 0u) << "sim stalled before the blame verdict";
    ASSERT_LT(w->net->rounds_completed(), 30u) << "no witness/verdict in 30 rounds";
    w->sim.Step();
  }
  const ServerEngine::BlameDone& done = w->net->blame_outcomes()[0];
  EXPECT_TRUE(done.shuffle_ran);
  EXPECT_TRUE(done.accusation_valid);
  EXPECT_EQ(done.verdict.kind, wire::BlameVerdict::kClientExpelled);
  EXPECT_EQ(done.verdict.culprit, kDisruptor);
  // The pipeline resumes and completes rounds at 999 participants.
  const uint64_t at_verdict = w->net->rounds_completed();
  while (w->net->rounds_completed() < at_verdict + 4) {
    ASSERT_GT(w->sim.pending(), 0u) << "pipeline stalled after expulsion";
    w->sim.Step();
  }
  EXPECT_EQ(w->net->last_participation(), kClients - 1);
  EXPECT_EQ(w->net->blame_outcomes().size(), 1u) << "spurious extra blame instance";
}

TEST(EngineScaleTest, AdaptiveWindowSurvivesChurnRamp) {
  // A ramp of one disconnect per server every few seconds. The adaptive
  // window re-sizes the round-r threshold from round r-1's observed
  // participation, so rounds keep closing promptly; the static policy pins
  // the threshold at 95% of the attached share and stalls into the hard
  // deadline once two clients per server are gone.
  constexpr size_t kServers = 3, kClients = 24;
  constexpr SimTime kWave = 5 * kSecond;
  auto run = [&](bool adaptive) {
    NetDissent::Options o;
    o.adaptive_window = adaptive;
    auto w = MakeNetWorld(kServers, kClients, 9004, o);
    EXPECT_TRUE(w->net->Start());
    // 4 waves; each takes one client from every server (ids i, i+3, i+6).
    for (size_t wave = 0; wave < 4; ++wave) {
      w->sim.RunUntil((wave + 1) * kWave);
      for (size_t j = 0; j < kServers; ++j) {
        w->net->SetClientOnline(wave * kServers + j, false);
      }
    }
    w->sim.RunUntil(40 * kSecond);
    return w;
  };
  auto adaptive = run(true);
  auto fixed = run(false);
  // Adaptive: still completing rounds with the 12 survivors at the end.
  EXPECT_EQ(adaptive->net->last_participation(), 12u);
  EXPECT_GT(adaptive->net->rounds_completed(), fixed->net->rounds_completed() + 20)
      << "adaptive=" << adaptive->net->rounds_completed()
      << " static=" << fixed->net->rounds_completed();
  // The static policy stopped dead once participation fell below its fixed
  // threshold (the hard deadline is beyond this horizon).
  EXPECT_LT(fixed->net->last_participation(), 24u);
}

}  // namespace
}  // namespace dissent
