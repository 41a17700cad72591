// Whole-protocol throughput over the simulated network.
//
// BM_ProtocolRounds: rounds/sec on the 100-client topology, sequential
// (pipeline depth 1) vs pipelined rounds (depth 2/3). The
// `rounds_per_sim_sec` counter is the cross-PR tracking metric
// (BENCH_protocol.json via bench/run_bench.sh).
//
// BM_ProtocolScale: the paper-scale cases (§5.2) — 1,000 and 5,000 clients
// multiplexed 50-per-machine onto DeterLab-style hosts with shared 100 Mbps
// NICs, every 5th client posting 64-byte microblog messages. Args are
// {clients, mode}; mode ids stay stable across recorded runs (0, the
// per-client Output frame path, is retired):
//   mode 1  shared-payload broadcast (one ref-counted frame per attached
//           machine, parsed once per frame),
//   mode 2  mode 1 on the heavy-tailed PlanetLab submission model (§5.1
//           lognormal body + Pareto tail + dropouts) with the adaptive
//           submission window absorbing the stragglers.
//   mode 3  mode 1 with REAL scheduling: the engines' §3.10 verified
//           key-shuffle sub-phase (every server proves its layer and
//           verifies every sibling's) runs through the multi-exponentiation
//           engine instead of the direct slot assignment the scale benches
//           used to need; its wall cost is reported as scheduling_seconds.
// Each benchmark iteration advances the simulation by one completed round,
// so real_time per iteration is the wall cost of simulating one round.
// Counters: rounds_per_sim_sec (deterministic: discrete-event sim),
// bytes_per_round on the wire, peak_round_state_bytes (largest combining
// state any server held — O(L), independent of N for the streaming engine),
// and participation.
//
// BM_ProtocolDisruption: the §3.9 accountability scenario at 1,000 clients —
// a disruptor corrupts the victim's slot every round until the engine-driven
// blame sub-phase (accusation shuffle over 1,000 fixed-width rows, trace,
// verdict) expels it, after which rounds continue at N-1; a fresh disruptor
// is injected after each expulsion, so sustained throughput includes the
// full blame cost. Counters: rounds_per_sim_sec (including blame stalls),
// blames_completed, clients_expelled, participation.
#include <benchmark/benchmark.h>

#include <map>
#include <memory>

#include "src/core/net_protocol.h"

namespace dissent {
namespace {

constexpr size_t kServers = 5;

struct ProtocolSim {
  GroupDef def;
  Simulator sim;
  std::unique_ptr<NetDissent> net;
};

ProtocolSim* BuildSim(size_t clients, NetDissent::Options options, uint64_t seed,
                      std::unique_ptr<ProtocolSim>& out) {
  auto ps = std::make_unique<ProtocolSim>();
  SecureRng rng = SecureRng::FromLabel(seed);
  std::vector<BigInt> server_privs, client_privs;
  ps->def = MakeTestGroup(Group::Named(GroupId::kTesting256), kServers, clients, rng,
                          &server_privs, &client_privs);
  ps->net = std::make_unique<NetDissent>(ps->def, server_privs, client_privs, &ps->sim,
                                         options, seed);
  if (!ps->net->Start()) {
    return nullptr;
  }
  out = std::move(ps);
  return out.get();
}

// The key-shuffle setup (100 ElGamal rows through a 5-server verified
// cascade) is expensive relative to rounds, so each depth's simulation is
// built once and advanced across benchmark iterations/repetitions.
ProtocolSim* GetSim(size_t depth) {
  static std::map<size_t, std::unique_ptr<ProtocolSim>> cache;
  auto it = cache.find(depth);
  if (it != cache.end()) {
    return it->second.get();
  }
  NetDissent::Options options;
  options.pipeline_depth = depth;
  return BuildSim(100, options, 1234, cache[depth]);
}

// Paper-scale topologies: built once per (clients, mode); evidence retention
// is off so the data path is strictly O(L) per round. Modes 1-2 skip the
// verified shuffle (direct slot assignment); mode 3 runs the real cascade
// through the multi-exp engine — what used to dwarf the rounds under test
// now costs seconds at 1,000 clients.
ProtocolSim* GetScaleSim(size_t clients, int mode) {
  static std::map<std::pair<size_t, int>, std::unique_ptr<ProtocolSim>> cache;
  auto key = std::make_pair(clients, mode);
  auto it = cache.find(key);
  if (it != cache.end()) {
    return it->second.get();
  }
  NetDissent::Options options;
  options.clients_per_machine = 50;
  // DeterLab §5.2: 100 Mbps shared NICs; propagation delay lives on the
  // links, serialization on the per-node uplink queues.
  options.machine_uplink = {.latency = 0, .bandwidth_bps = 12.5e6};
  options.server_uplink = {.latency = 0, .bandwidth_bps = 12.5e6};
  options.client_link = {.latency = 50 * kMillisecond, .bandwidth_bps = 0};
  options.server_link = {.latency = 10 * kMillisecond, .bandwidth_bps = 0};
  options.direct_scheduling = mode != 3;
  options.evidence_rounds = 0;
  if (mode == 2) {
    options.submit_delay = PlanetLabDelayModel{};
  }
  ProtocolSim* ps = BuildSim(clients, options, 4321 + clients + mode, cache[key]);
  if (ps == nullptr) {
    return nullptr;
  }
  ps->net->SetRecordCleartexts(false);
  // Microblog workload: every 5th client keeps its slot open with queued
  // 64-byte posts (far more than the measured rounds consume).
  for (size_t i = 0; i < clients; i += 5) {
    for (int m = 0; m < 300; ++m) {
      ps->net->client(i).QueueMessage(Bytes(64, static_cast<uint8_t>(i + m)));
    }
  }
  return ps;
}

void BM_ProtocolRounds(benchmark::State& state) {
  const size_t depth = static_cast<size_t>(state.range(0));
  ProtocolSim* ps = GetSim(depth);
  if (ps == nullptr) {
    state.SkipWithError("scheduling shuffle failed");
    return;
  }
  const uint64_t rounds_before = ps->net->rounds_completed();
  const SimTime sim_before = ps->sim.Now();
  for (auto _ : state) {
    // One simulated second of protocol execution per iteration.
    ps->sim.RunUntil(ps->sim.Now() + kSecond);
    benchmark::DoNotOptimize(ps->net->rounds_completed());
  }
  const double sim_elapsed = ToSeconds(ps->sim.Now() - sim_before);
  const double rounds = static_cast<double>(ps->net->rounds_completed() - rounds_before);
  if (sim_elapsed > 0) {
    state.counters["rounds_per_sim_sec"] = rounds / sim_elapsed;
  }
  state.counters["pipelined_submissions"] =
      static_cast<double>(ps->net->pipelined_submissions());
  state.counters["participation"] = static_cast<double>(ps->net->last_participation());
}
BENCHMARK(BM_ProtocolRounds)
    ->Arg(1)
    ->Arg(2)
    ->Arg(3)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

// Disruption scenario (§3.9): built once; evidence retention stays ON (the
// trace needs it) and the victim keeps slot 0 open with a backlog.
ProtocolSim* GetDisruptionSim(size_t clients, std::unique_ptr<ProtocolSim>& cache) {
  if (cache != nullptr) {
    return cache.get();
  }
  NetDissent::Options options;
  options.clients_per_machine = 50;
  options.machine_uplink = {.latency = 0, .bandwidth_bps = 12.5e6};
  options.server_uplink = {.latency = 0, .bandwidth_bps = 12.5e6};
  options.client_link = {.latency = 50 * kMillisecond, .bandwidth_bps = 0};
  options.server_link = {.latency = 10 * kMillisecond, .bandwidth_bps = 0};
  options.direct_scheduling = true;
  options.pipeline_depth = 2;
  ProtocolSim* ps = BuildSim(clients, options, 5150 + clients, cache);
  if (ps == nullptr) {
    return nullptr;
  }
  ps->net->SetRecordCleartexts(false);
  for (int m = 0; m < 400; ++m) {
    ps->net->client(0).QueueMessage(Bytes(64, 0x5a));
  }
  return ps;
}

void BM_ProtocolDisruption(benchmark::State& state) {
  const size_t clients = static_cast<size_t>(state.range(0));
  static std::unique_ptr<ProtocolSim> cache;
  ProtocolSim* ps = GetDisruptionSim(clients, cache);
  if (ps == nullptr) {
    state.SkipWithError("disruption setup failed");
    return;
  }
  // Victim = client 0 (slot 0 sits right after the request region, so its
  // offset is stable whatever the other slots do).
  const size_t victim_bit =
      (ps->net->server(0).schedule().RequestRegionBytes() + 20) * 8;
  size_t next_disruptor = clients - 1;
  size_t blames_seen = ps->net->blame_outcomes().size();
  ps->net->InjectDisruptor(next_disruptor--, victim_bit);
  const uint64_t rounds_before = ps->net->rounds_completed();
  const SimTime sim_before = ps->sim.Now();
  for (auto _ : state) {
    // One completed round per iteration; blame instances run inline, so an
    // iteration that spans one includes the whole shuffle+trace cost.
    const uint64_t target = ps->net->rounds_completed() + 1;
    const SimTime guard = ps->sim.Now() + 600 * kSecond;
    while (ps->net->rounds_completed() < target && ps->sim.Now() < guard) {
      ps->sim.RunUntil(ps->sim.Now() + kSecond / 20);
    }
    if (ps->net->blame_outcomes().size() > blames_seen) {
      // Culprit expelled: a fresh disruptor takes over ("1 disruptor per K
      // rounds" sustained-abuse shape).
      blames_seen = ps->net->blame_outcomes().size();
      ps->net->InjectDisruptor(next_disruptor--, victim_bit);
    }
  }
  const double sim_elapsed = ToSeconds(ps->sim.Now() - sim_before);
  const double rounds = static_cast<double>(ps->net->rounds_completed() - rounds_before);
  if (rounds <= 0) {
    state.SkipWithError("no rounds completed in the horizon");
    return;
  }
  if (sim_elapsed > 0) {
    state.counters["rounds_per_sim_sec"] = rounds / sim_elapsed;
  }
  size_t expelled = 0;
  for (const auto& done : ps->net->blame_outcomes()) {
    expelled += done.verdict.kind == wire::BlameVerdict::kClientExpelled ? 1 : 0;
  }
  state.counters["blames_completed"] = static_cast<double>(ps->net->blame_outcomes().size());
  state.counters["clients_expelled"] = static_cast<double>(expelled);
  state.counters["participation"] = static_cast<double>(ps->net->last_participation());
}
BENCHMARK(BM_ProtocolDisruption)
    ->Arg(1000)
    ->Iterations(8)
    ->Unit(benchmark::kSecond)
    ->UseRealTime();

void BM_ProtocolScale(benchmark::State& state) {
  const size_t clients = static_cast<size_t>(state.range(0));
  const int mode = static_cast<int>(state.range(1));
  ProtocolSim* ps = GetScaleSim(clients, mode);
  if (ps == nullptr) {
    state.SkipWithError("scale setup failed");
    return;
  }
  const uint64_t rounds_before = ps->net->rounds_completed();
  const SimTime sim_before = ps->sim.Now();
  const uint64_t bytes_before = ps->net->network().bytes_sent();
  for (auto _ : state) {
    // One completed round per iteration (bounded so a stalled configuration
    // cannot hang the bench).
    const uint64_t target = ps->net->rounds_completed() + 1;
    const SimTime guard = ps->sim.Now() + 120 * kSecond;
    while (ps->net->rounds_completed() < target && ps->sim.Now() < guard) {
      ps->sim.RunUntil(ps->sim.Now() + kSecond / 20);
    }
  }
  const double sim_elapsed = ToSeconds(ps->sim.Now() - sim_before);
  const double rounds = static_cast<double>(ps->net->rounds_completed() - rounds_before);
  if (rounds <= 0) {
    state.SkipWithError("no rounds completed in the horizon");
    return;
  }
  if (sim_elapsed > 0) {
    state.counters["rounds_per_sim_sec"] = rounds / sim_elapsed;
  }
  state.counters["bytes_per_round"] =
      static_cast<double>(ps->net->network().bytes_sent() - bytes_before) / rounds;
  state.counters["peak_round_state_bytes"] =
      static_cast<double>(ps->net->peak_round_state_bytes());
  state.counters["participation"] = static_cast<double>(ps->net->last_participation());
  state.counters["scheduling_seconds"] = ps->net->scheduling_seconds();
}
BENCHMARK(BM_ProtocolScale)
    ->Args({1000, 1})
    ->Args({1000, 2})
    ->Args({1000, 3})
    ->Args({5000, 1})
    ->Iterations(10)
    ->Unit(benchmark::kSecond)
    ->UseRealTime();

// Hostile-network scenario (PR 6): 1,000 clients under the fault matrix —
// 1% loss, 1% duplication, 5% reordering, and a 30 sim-second outage of
// server 1 — with the reliability layer (ack/retransmit + capped backoff),
// client resync, and crash-recovery-from-snapshot turned on. A clean
// reference sim with the identical reliability configuration but no faults
// is advanced alongside to price the overhead.
//
// Counters:
//   rounds_per_sim_sec    throughput over the whole horizon, outage included
//   rounds_recovered      rounds certified after the server restarted
//   rounds_to_recover     restart-to-first-certified-round latency, in units
//                         of the clean run's average round time
//   retransmit_overhead   faulted bytes-per-completed-round over clean, in
//                         the steady-state window before the crash (the
//                         acceptance bound: <= 1.15x at 1% loss)
//   retransmit_overhead_with_outage
//                         the same ratio over the whole horizon — dominated
//                         by backoff traffic sent while the fleet stalls
//   retransmits           reliable-frame retransmissions across all engines
struct FaultSims {
  std::unique_ptr<ProtocolSim> faulty;
  std::unique_ptr<ProtocolSim> clean;
};

constexpr SimTime kFaultCrashDown = 30 * kSecond;
constexpr SimTime kFaultCrashUp = 60 * kSecond;

FaultSims* GetFaultSims(size_t clients) {
  static std::map<size_t, std::unique_ptr<FaultSims>> cache;
  auto it = cache.find(clients);
  if (it != cache.end()) {
    return it->second.get();
  }
  NetDissent::Options options;
  options.clients_per_machine = 50;
  options.machine_uplink = {.latency = 0, .bandwidth_bps = 12.5e6};
  options.server_uplink = {.latency = 0, .bandwidth_bps = 12.5e6};
  options.client_link = {.latency = 50 * kMillisecond, .bandwidth_bps = 0};
  options.server_link = {.latency = 10 * kMillisecond, .bandwidth_bps = 0};
  options.direct_scheduling = true;
  options.evidence_rounds = 0;
  options.reliability.enabled = true;
  // Comfortably above the ~1.5 s round time: a stall-resync interval that a
  // slow-but-healthy round can cross makes every client re-send its
  // in-flight ciphertexts at once, which swamps the retransmit budget.
  options.resync_timeout = 5 * kSecond;
  // The outage is temporary, so the fleet stalls and resumes rather than
  // voting aborts — every certified round matches the clean schedule.
  auto sims = std::make_unique<FaultSims>();
  if (BuildSim(clients, options, 6006 + clients, sims->clean) == nullptr) {
    return nullptr;
  }
  options.fault_plan = sim::FaultPlan{};
  options.fault_plan->seed = 6006 + clients;
  options.fault_plan->drop = 0.01;
  options.fault_plan->duplicate = 0.01;
  options.fault_plan->reorder = 0.05;
  options.fault_plan->crashes.push_back(
      {.node = 1, .down_at = kFaultCrashDown, .up_at = kFaultCrashUp});
  if (BuildSim(clients, options, options.fault_plan->seed, sims->faulty) == nullptr) {
    return nullptr;
  }
  sims->clean->net->SetRecordCleartexts(false);
  sims->faulty->net->SetRecordCleartexts(false);
  auto& slot = cache[clients];
  slot = std::move(sims);
  return slot.get();
}

void BM_ProtocolFaults(benchmark::State& state) {
  const size_t clients = static_cast<size_t>(state.range(0));
  FaultSims* fs = GetFaultSims(clients);
  if (fs == nullptr) {
    state.SkipWithError("fault setup failed");
    return;
  }
  ProtocolSim* ps = fs->faulty.get();
  uint64_t rounds_at_restart = 0;
  uint64_t rounds_at_down = 0;
  uint64_t bytes_at_down = 0;
  SimTime recovered_at = 0;
  const uint64_t rounds_before = ps->net->rounds_completed();
  const SimTime sim_before = ps->sim.Now();
  const uint64_t bytes_before = ps->net->network().bytes_sent();
  for (auto _ : state) {
    // One simulated second per iteration, stepped finely enough to timestamp
    // the first certified round after the crashed server restarts.
    const SimTime until = ps->sim.Now() + kSecond;
    while (ps->sim.Now() < until) {
      ps->sim.RunUntil(ps->sim.Now() + kSecond / 20);
      if (ps->sim.Now() <= kFaultCrashDown) {
        rounds_at_down = ps->net->rounds_completed();
        bytes_at_down = ps->net->network().bytes_sent();
      }
      if (ps->sim.Now() <= kFaultCrashUp) {
        rounds_at_restart = ps->net->rounds_completed();
      } else if (recovered_at == 0 &&
                 ps->net->rounds_completed() > rounds_at_restart) {
        recovered_at = ps->sim.Now();
      }
    }
  }
  const double sim_elapsed = ToSeconds(ps->sim.Now() - sim_before);
  const double rounds = static_cast<double>(ps->net->rounds_completed() - rounds_before);
  if (rounds <= 0) {
    state.SkipWithError("no rounds completed under faults");
    return;
  }
  // Clean reference over the same sim horizon (advanced outside the timer),
  // sampled at the crash point for the steady-state comparison window.
  ProtocolSim* clean = fs->clean.get();
  const uint64_t clean_rounds_before = clean->net->rounds_completed();
  const uint64_t clean_bytes_before = clean->net->network().bytes_sent();
  const SimTime clean_sim_before = clean->sim.Now();
  clean->sim.RunUntil(clean->sim.Now() + kFaultCrashDown);
  const double clean_rounds_at_down =
      static_cast<double>(clean->net->rounds_completed() - clean_rounds_before);
  const double clean_bytes_at_down =
      static_cast<double>(clean->net->network().bytes_sent() - clean_bytes_before);
  clean->sim.RunUntil(clean_sim_before + (ps->sim.Now() - sim_before));
  const double clean_rounds =
      static_cast<double>(clean->net->rounds_completed() - clean_rounds_before);
  if (sim_elapsed > 0) {
    state.counters["rounds_per_sim_sec"] = rounds / sim_elapsed;
  }
  state.counters["rounds_recovered"] = static_cast<double>(
      ps->net->rounds_completed() > rounds_at_restart
          ? ps->net->rounds_completed() - rounds_at_restart
          : 0);
  if (recovered_at > 0 && clean_rounds > 0) {
    const double clean_round_time =
        ToSeconds(clean->sim.Now() - clean_sim_before) / clean_rounds;
    state.counters["rounds_to_recover"] =
        ToSeconds(recovered_at - kFaultCrashUp) / clean_round_time;
  }
  const double rounds_at_down_d = static_cast<double>(rounds_at_down - rounds_before);
  if (clean_rounds_at_down > 0 && rounds_at_down_d > 0) {
    state.counters["retransmit_overhead"] =
        (static_cast<double>(bytes_at_down - bytes_before) / rounds_at_down_d) /
        (clean_bytes_at_down / clean_rounds_at_down);
  }
  if (clean_rounds > 0 && rounds > 0) {
    const double clean_bpr =
        static_cast<double>(clean->net->network().bytes_sent() - clean_bytes_before) /
        clean_rounds;
    const double faulty_bpr =
        static_cast<double>(ps->net->network().bytes_sent() - bytes_before) / rounds;
    state.counters["retransmit_overhead_with_outage"] = faulty_bpr / clean_bpr;
  }
  state.counters["retransmits"] = static_cast<double>(ps->net->retransmits());
  state.counters["server_restarts"] = static_cast<double>(ps->net->server_restarts());
  state.counters["participation"] = static_cast<double>(ps->net->last_participation());
  // No abort deadline is armed in this plan: the outage is ridden out by
  // stall-and-resync, so any certified abort here would mean the fleet
  // diverged from the clean schedule. Pinning the zero keeps the counter in
  // the bench JSON next to the chaos-mode runs, where it is nonzero.
  state.counters["aborts_agreed"] = static_cast<double>(ps->net->rounds_aborted());
}
BENCHMARK(BM_ProtocolFaults)
    ->Arg(1000)
    ->Iterations(120)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

}  // namespace
}  // namespace dissent

BENCHMARK_MAIN();
