// The §3.10 key shuffle as an engine sub-phase: every transport runs it on
// the same roster -> merge -> ordered mix -> verify path as the blame
// shuffle, so a seed yields one key order everywhere, hostile rosters and
// mix steps decide nothing, and a crash mid-shuffle restores exactly.
#include <algorithm>
#include <deque>

#include <gtest/gtest.h>

#include "src/core/coordinator.h"
#include "src/core/net_protocol.h"
#include "src/net/deployment.h"

namespace dissent {
namespace {

struct Roster {
  GroupDef def;
  std::vector<BigInt> server_privs, client_privs;
};

Roster MakeRoster(size_t servers, size_t clients, uint64_t seed) {
  Roster r;
  SecureRng rng = SecureRng::FromLabel(seed);
  r.def = MakeTestGroup(Group::Named(GroupId::kTesting256), servers, clients, rng,
                        &r.server_privs, &r.client_privs);
  return r;
}

// Engines wired by hand with a zero-latency FIFO (client i attaches to
// server i % M) and a hook that may rewrite or drop any frame in flight.
// Frames cross the wire codec, so a tampered frame meets every parse check.
struct MiniFleet {
  struct Frame {
    Peer from, to;
    std::shared_ptr<const WireMessage> msg;
  };
  // Returns the frame to deliver: the original, a replacement, or nullptr.
  using Tamper = std::function<std::shared_ptr<const WireMessage>(const Frame&)>;

  MiniFleet(size_t servers, size_t clients, uint64_t seed)
      : r(MakeRoster(servers, clients, seed)) {
    SecureRng rng = SecureRng::FromLabel(seed);
    for (size_t i = 0; i < clients; ++i) {
      client_logic.push_back(std::make_unique<DissentClient>(r.def, i, r.client_privs[i],
                                                             rng.Fork()));
    }
    for (size_t j = 0; j < servers; ++j) {
      server_logic.push_back(std::make_unique<DissentServer>(r.def, j, r.server_privs[j],
                                                             rng.Fork()));
      attached.emplace_back();
    }
    for (size_t i = 0; i < clients; ++i) {
      attached[i % servers].push_back(static_cast<uint32_t>(i));
      ClientEngine::Config cfg;
      cfg.upstream_server = static_cast<uint32_t>(i % servers);
      clients_.push_back(
          std::make_unique<ClientEngine>(client_logic[i].get(), r.def, cfg, rng.Fork()));
    }
    for (size_t j = 0; j < servers; ++j) {
      server_sched.push_back(rng.Fork());
      servers_.push_back(MakeServerEngine(j, *server_logic[j]));
    }
  }

  std::unique_ptr<ServerEngine> MakeServerEngine(size_t j, DissentServer& logic) {
    ServerEngine::Config cfg;
    cfg.attached_clients = attached[j];
    return std::make_unique<ServerEngine>(&logic, r.def, cfg, server_sched[j]);
  }

  void Start() {
    for (size_t i = 0; i < clients_.size(); ++i) {
      Dispatch(ClientPeer(static_cast<uint32_t>(i)), clients_[i]->StartSession(0).out);
    }
    for (size_t j = 0; j < servers_.size(); ++j) {
      Dispatch(ServerPeer(static_cast<uint32_t>(j)), servers_[j]->StartSession(0).out);
    }
  }

  void Dispatch(const Peer& from, const std::vector<Envelope>& out) {
    for (const Envelope& env : out) {
      if (env.to.kind == Peer::Kind::kAttachedClients) {
        for (uint32_t c : attached[env.to.index]) {
          queue.push_back({from, ClientPeer(c), env.msg});
        }
      } else {
        queue.push_back({from, env.to, env.msg});
      }
    }
  }

  // Delivers up to `limit` frames; returns how many were delivered.
  size_t Pump(size_t limit = SIZE_MAX) {
    size_t n = 0;
    while (!queue.empty() && n < limit) {
      Frame f = std::move(queue.front());
      queue.pop_front();
      ++n;
      auto msg = tamper ? tamper(f) : f.msg;
      if (msg == nullptr) {
        continue;
      }
      auto parsed = ParseWire(SerializeWire(*msg));
      if (!parsed.has_value()) {
        continue;
      }
      if (f.to.kind == Peer::Kind::kServer) {
        auto a = servers_[f.to.index]->HandleMessage(f.from, *parsed, 0);
        Dispatch(f.to, a.out);
        for (const auto& d : a.done) {
          decided += d.completed || d.equivocating_server.has_value() ? 1 : 0;
        }
        decided += a.blame.size();
      } else {
        Dispatch(f.to, clients_[f.to.index]->HandleMessage(f.from, *parsed, 0).out);
      }
    }
    return n;
  }

  Roster r;
  std::vector<std::unique_ptr<DissentClient>> client_logic;
  std::vector<std::unique_ptr<DissentServer>> server_logic;
  std::vector<std::vector<uint32_t>> attached;
  std::vector<std::unique_ptr<ClientEngine>> clients_;
  std::vector<SecureRng> server_sched;
  std::vector<std::unique_ptr<ServerEngine>> servers_;
  std::deque<Frame> queue;
  Tamper tamper;
  size_t decided = 0;  // rounds or blame instances resolved
};

bool IsScheduling(const WireMessage& msg) {
  if (const auto* m = std::get_if<wire::BlameRoster>(&msg)) {
    return m->session == wire::kScheduleSession;
  }
  if (const auto* m = std::get_if<wire::BlameMix>(&msg)) {
    return m->session == wire::kScheduleSession;
  }
  return false;
}

class SchedulingTransportsTest : public ::testing::TestWithParam<bool> {};

TEST_P(SchedulingTransportsTest, SameSeedSameKeysAndCleartextsOnCoordinatorAndNetDissent) {
  // One seed, one key order: the in-process and simulated-network
  // transports run the same in-engine shuffle over the same per-node
  // scheduling rngs, and both match the deployment's reference cascade.
  const bool reliable = GetParam();
  constexpr uint64_t kSeed = 7101;
  constexpr size_t kServers = 3, kClients = 7;
  constexpr int kRounds = 6;
  Roster r = MakeRoster(kServers, kClients, kSeed);
  ReliabilityConfig rel;
  rel.enabled = reliable;

  Coordinator coord(r.def, r.server_privs, r.client_privs, kSeed);
  if (reliable) {
    coord.EnableReliability(rel, 500 * 1000);
  }
  coord.client(2).QueueMessage(BytesOf("one order everywhere"));
  ASSERT_TRUE(coord.RunScheduling());
  EXPECT_GT(coord.scheduling_seconds(), 0.0);
  std::vector<Bytes> coord_cts;
  for (int k = 0; k < kRounds; ++k) {
    auto outcome = coord.RunRound();
    ASSERT_TRUE(outcome.completed);
    coord_cts.push_back(outcome.cleartext);
  }

  Simulator sim;
  NetDissent::Options opt;
  opt.window_fraction = 1.0;
  opt.reliability = rel;
  if (reliable) {
    opt.resync_timeout = 500 * kMillisecond;
  }
  NetDissent net(r.def, r.server_privs, r.client_privs, &sim, opt, kSeed);
  net.client(2).QueueMessage(BytesOf("one order everywhere"));
  ASSERT_TRUE(net.Start());
  for (size_t j = 0; j < kServers; ++j) {
    EXPECT_TRUE(net.server_engine(j).session_live());
    EXPECT_EQ(net.server(j).pseudonym_keys(), coord.pseudonym_keys()) << "server " << j;
  }
  for (size_t i = 0; i < kClients; ++i) {
    EXPECT_EQ(net.client(i).slot(), coord.client(i).slot()) << "client " << i;
  }
  while (net.rounds_completed() < static_cast<uint64_t>(kRounds) && sim.pending() > 0) {
    sim.Step();
  }
  ASSERT_GE(net.round_cleartexts().size(), static_cast<size_t>(kRounds));
  for (int k = 0; k < kRounds; ++k) {
    EXPECT_EQ(net.round_cleartexts()[k], coord_cts[k]) << "round " << k + 1;
  }

  // The deployment oracle computes the same order out of band.
  net::DeployConfig cfg;
  cfg.seed = kSeed;
  cfg.num_servers = kServers;
  cfg.num_clients = kClients;
  std::vector<BigInt> pubs;
  for (size_t i = 0; i < kClients; ++i) {
    pubs.push_back(coord.client(i).pseudonym().pub);
  }
  EXPECT_EQ(net::DistributedCascadeKeys(cfg, r.def, r.server_privs, pubs),
            coord.pseudonym_keys());
}

INSTANTIATE_TEST_SUITE_P(Reliability, SchedulingTransportsTest, ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "ReliabilityOn" : "ReliabilityOff";
                         });

TEST(SchedulingTest, ForgedAndUnsignedRosterRowsAreDroppedOnEveryServer) {
  // Server 0 gossips a roster that also claims rows for clients attached to
  // servers 1 and 2: one under a forged signature, one unsigned. It is the
  // first server, so it would win a contested id — but the merge checks
  // every row's client signature, so each server drops both rows and keeps
  // the genuine ones: the key order is the clean run's.
  constexpr uint64_t kSeed = 7102;
  MiniFleet clean(3, 6, kSeed);
  clean.Start();
  clean.Pump();

  MiniFleet hostile(3, 6, kSeed);
  hostile.tamper = [](const MiniFleet::Frame& f) -> std::shared_ptr<const WireMessage> {
    const auto* roster = std::get_if<wire::BlameRoster>(f.msg.get());
    if (roster == nullptr || roster->server_id != 0 || !IsScheduling(*f.msg)) {
      return f.msg;
    }
    wire::BlameRoster forged = *roster;
    const Bytes some_row = forged.entries[0].row;  // well-formed elements
    forged.entries.push_back({1, some_row, forged.entries[0].signature});
    forged.entries.push_back({2, some_row, Bytes{}});
    std::sort(forged.entries.begin(), forged.entries.end(),
              [](const auto& a, const auto& b) { return a.client_id < b.client_id; });
    return std::make_shared<const WireMessage>(std::move(forged));
  };
  hostile.Start();
  hostile.Pump();

  for (size_t j = 0; j < 3; ++j) {
    ASSERT_TRUE(clean.servers_[j]->session_live());
    ASSERT_TRUE(hostile.servers_[j]->session_live()) << "server " << j;
    EXPECT_EQ(hostile.server_logic[j]->pseudonym_keys(),
              clean.server_logic[j]->pseudonym_keys())
        << "server " << j;
  }
  for (size_t i = 0; i < 6; ++i) {
    EXPECT_EQ(hostile.client_logic[i]->slot(), clean.client_logic[i]->slot());
  }
}

TEST(SchedulingTest, MixStepFailingVerificationStallsWithoutDeciding) {
  // Server 0's mix step reaches its siblings corrupted. They drop it and
  // wait; nobody installs keys, opens a round, or reaches a verdict.
  MiniFleet f(3, 6, 7103);
  f.tamper = [](const MiniFleet::Frame& fr) -> std::shared_ptr<const WireMessage> {
    const auto* mix = std::get_if<wire::BlameMix>(fr.msg.get());
    if (mix == nullptr || mix->server_id != 0 || !IsScheduling(*fr.msg)) {
      return fr.msg;
    }
    wire::BlameMix bad = *mix;
    bad.step[bad.step.size() / 2] ^= 0x01;
    return std::make_shared<const WireMessage>(std::move(bad));
  };
  f.Start();
  f.Pump();
  EXPECT_TRUE(f.queue.empty());
  EXPECT_EQ(f.decided, 0u);
  for (size_t j = 0; j < 3; ++j) {
    EXPECT_FALSE(f.servers_[j]->session_live()) << "server " << j;
    EXPECT_TRUE(f.server_logic[j]->pseudonym_keys().empty());
    EXPECT_FALSE(f.servers_[j]->blame_in_progress());
  }
  EXPECT_EQ(f.servers_[1]->rejected_mix_steps(), (std::vector<uint32_t>{0}));
  EXPECT_EQ(f.servers_[2]->rejected_mix_steps(), (std::vector<uint32_t>{0}));
  for (size_t i = 0; i < 6; ++i) {
    EXPECT_FALSE(f.client_logic[i]->slot().has_value());
  }
}

TEST(SchedulingTest, SnapshotMidSchedulingIsAFixedPointAndRestoresExactly) {
  // At every step of the shuffle, server 1's snapshot restores into a fresh
  // logic + engine that re-snapshots to the same bytes; swapping in the
  // restored engine mid-shuffle still ends in the clean run's keys. A v1
  // snapshot is refused, and so is a mid-scheduling one without the rng.
  constexpr uint64_t kSeed = 7104;
  MiniFleet clean(3, 6, kSeed);
  clean.Start();
  clean.Pump();

  MiniFleet f(3, 6, kSeed);
  f.Start();
  {
    // Mid-scheduling, a restore needs the scheduling rng for our layer.
    DissentServer logic(f.r.def, 1, f.r.server_privs[1], SecureRng::FromLabel(97));
    ServerEngine::Config cfg;
    cfg.attached_clients = f.attached[1];
    ServerEngine no_rng(&logic, f.r.def, cfg);
    EXPECT_FALSE(no_rng.RestoreSnapshot(f.servers_[1]->SerializeSnapshot(), 0).has_value());
  }
  std::vector<std::unique_ptr<DissentServer>> retired;
  while (!f.queue.empty()) {
    const Bytes snap = f.servers_[1]->SerializeSnapshot();
    auto logic = std::make_unique<DissentServer>(f.r.def, 1, f.r.server_privs[1],
                                                 SecureRng::FromLabel(99));
    auto engine = f.MakeServerEngine(1, *logic);
    auto restored = engine->RestoreSnapshot(snap, 0);
    ASSERT_TRUE(restored.has_value());
    EXPECT_EQ(engine->SerializeSnapshot(), snap);
    f.Dispatch(ServerPeer(1), restored->out);  // nothing new: the state is consistent
    EXPECT_TRUE(restored->out.empty());
    retired.push_back(std::move(f.server_logic[1]));
    f.server_logic[1] = std::move(logic);
    f.servers_[1] = std::move(engine);
    f.Pump(1);
  }
  for (size_t j = 0; j < 3; ++j) {
    ASSERT_TRUE(f.servers_[j]->session_live()) << "server " << j;
    EXPECT_EQ(f.server_logic[j]->pseudonym_keys(), clean.server_logic[j]->pseudonym_keys());
  }
  Bytes v1 = f.servers_[1]->SerializeSnapshot();
  const std::string magic = "dissent.engine.snap.v2";
  auto at = std::search(v1.begin(), v1.end(), magic.begin(), magic.end());
  ASSERT_NE(at, v1.end());
  *(at + static_cast<ptrdiff_t>(magic.size()) - 1) = '1';
  DissentServer logic(f.r.def, 1, f.r.server_privs[1], SecureRng::FromLabel(98));
  EXPECT_FALSE(f.MakeServerEngine(1, logic)->RestoreSnapshot(v1, 0).has_value());
}

TEST(SchedulingTest, CrashInsideSchedulingEndsWithTheCleanRunsKeysAndCleartexts) {
  // NetDissent's crash harness snapshots server 1 at down_at — after the
  // rows are in, before the cascade completes — and restores it at up_at.
  // The reliable mailbox re-delivers what it missed; the session then
  // carries on exactly as a run that never crashed.
  constexpr uint64_t kSeed = 7105;
  constexpr int kRounds = 5;
  Roster r = MakeRoster(3, 6, kSeed);
  NetDissent::Options opt;
  opt.window_fraction = 1.0;
  opt.reliability.enabled = true;
  opt.resync_timeout = 2 * kSecond;
  auto run = [&](bool crash, std::vector<BigInt>* keys, std::vector<Bytes>* cts) {
    NetDissent::Options o = opt;
    if (crash) {
      sim::FaultPlan plan;
      plan.crashes.push_back({.node = 1, .down_at = 70 * kMillisecond, .up_at = kSecond});
      o.fault_plan = plan;
    }
    Simulator sim;
    NetDissent net(r.def, r.server_privs, r.client_privs, &sim, o, kSeed);
    net.client(4).QueueMessage(BytesOf("after the crash"));
    ASSERT_TRUE(net.Start());
    if (crash) {
      EXPECT_EQ(net.server_restarts(), 1u);
      EXPECT_GT(sim.Now(), kSecond) << "scheduling finished before the crash window";
    }
    while (net.rounds_completed() < static_cast<uint64_t>(kRounds) && sim.pending() > 0) {
      sim.Step();
    }
    *keys = net.server(1).pseudonym_keys();
    *cts = net.round_cleartexts();
    cts->resize(kRounds);
  };
  std::vector<BigInt> clean_keys, crash_keys;
  std::vector<Bytes> clean_cts, crash_cts;
  run(false, &clean_keys, &clean_cts);
  run(true, &crash_keys, &crash_cts);
  ASSERT_FALSE(clean_keys.empty());
  EXPECT_EQ(crash_keys, clean_keys);
  EXPECT_EQ(crash_cts, clean_cts);
}

TEST(SchedulingTest, LateRowIsAnsweredWithTheKeys) {
  // Client 3 misses its server's SlotKeys broadcast. Its resync tick
  // re-sends its row; the live server answers that row with the keys, and
  // the client takes the same slot as in an undisturbed run.
  constexpr uint64_t kSeed = 7106;
  Roster r = MakeRoster(2, 5, kSeed);
  ReliabilityConfig rel;
  rel.enabled = true;

  Coordinator clean(r.def, r.server_privs, r.client_privs, kSeed);
  clean.EnableReliability(rel, 500 * 1000);
  ASSERT_TRUE(clean.RunScheduling());

  Coordinator coord(r.def, r.server_privs, r.client_privs, kSeed);
  coord.EnableReliability(rel, 500 * 1000);
  int broadcasts_dropped = 0, answers = 0;
  coord.SetMessageFilter([&](const Peer&, const Peer& to, const WireMessage& msg) {
    if (to.kind != Peer::Kind::kClient || to.index != 3) {
      return true;
    }
    if (std::holds_alternative<wire::SlotKeys>(msg)) {
      ++broadcasts_dropped;
      return false;  // the unreliable kAttachedClients frame
    }
    if (const auto* rel_frame = std::get_if<wire::Reliable>(&msg)) {
      auto inner = ParseWire(rel_frame->inner);
      answers += inner.has_value() && std::holds_alternative<wire::SlotKeys>(*inner) ? 1 : 0;
    }
    return true;
  });
  ASSERT_TRUE(coord.RunScheduling());
  EXPECT_EQ(broadcasts_dropped, 1);
  EXPECT_EQ(answers, 1);
  EXPECT_EQ(coord.pseudonym_keys(), clean.pseudonym_keys());
  ASSERT_TRUE(coord.client(3).slot().has_value());
  EXPECT_EQ(coord.client(3).slot(), clean.client(3).slot());
  EXPECT_TRUE(coord.RunRound().completed);
}

}  // namespace
}  // namespace dissent
