// Benchmark self-tests: the in-process transport is faithful to the sim
// reference, and a toy-size run of every workload reports every metric.
#include <map>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/fleet.h"
#include "src/workload.h"

namespace perfbench {
namespace {

using dissent::Bytes;
using dissent::net::DeployConfig;

std::vector<Bytes> InProcCleartexts(const DeployConfig& cfg) {
  InProcFleet fleet(cfg);
  std::map<uint64_t, Bytes> out;
  fleet.on_round = [&](const dissent::ServerEngine::RoundDone& d) {
    EXPECT_TRUE(d.completed);
    out[d.round] = d.cleartext;
  };
  EXPECT_TRUE(fleet.Setup(nullptr));
  for (size_t i = 0; i < cfg.num_clients; ++i) {
    for (size_t k = 0; k < cfg.rounds; ++k) {
      fleet.client(i).QueueMessage(dissent::net::DeployPayload(i, k));
    }
  }
  fleet.StartClients();
  while (out.size() < cfg.rounds && fleet.Step()) {
  }
  std::vector<Bytes> cleartexts;
  for (size_t r = 1; r <= cfg.rounds; ++r) {
    cleartexts.push_back(out[r]);
  }
  return cleartexts;
}

TEST(InProcFleet, ByteIdenticalToSimReference) {
  for (size_t depth : {1, 2}) {
    DeployConfig cfg;
    cfg.seed = 40 + depth;
    cfg.num_servers = 3;
    cfg.num_clients = 8;
    cfg.clients_per_host = 2;
    cfg.pipeline_depth = depth;
    cfg.rounds = 10;
    const std::vector<Bytes> ref = dissent::net::RunSimReference(cfg);
    ASSERT_EQ(ref.size(), cfg.rounds);
    const std::vector<Bytes> got = InProcCleartexts(cfg);
    for (size_t k = 0; k < cfg.rounds; ++k) {
      EXPECT_EQ(got[k], ref[k]) << "depth " << depth << " round " << k + 1;
    }
  }
}

const std::vector<std::pair<std::string, std::string>> kEndToEnd = {
    {"setup_s", "s"},          {"rounds_per_s", "1/s"},     {"round_ms_p50", "ms"},
    {"round_ms_p90", "ms"},    {"msg_ms_p50", "ms"},        {"msg_ms_p90", "ms"},
    {"goodput_kib_s", "KiB/s"}, {"cpu_ms_per_round", "ms"}, {"peak_rss_mb", "MB"},
};

const std::vector<std::pair<std::string, std::string>> kPerLayer = {
    {"engine.client_output_us", "us/round"},  {"engine.client_output_n", "1/round"},
    {"engine.server_submit_us", "us/round"},  {"engine.server_close_us", "us/round"},
    {"engine.server_combine_us", "us/round"}, {"engine.server_finish_us", "us/round"},
    {"engine.other_us", "us/round"},          {"engine.timer_us", "us/round"},
    {"engine.share", "frac"},                 {"wire.serialize_us", "us/round"},
    {"wire.parse_us", "us/round"},            {"wire.bytes_per_round", "bytes"},
    {"cert.verify_us", "us"},                 {"cert.sign_us", "us"},
    {"slot.open_slots", "count"},             {"slot.decode_us", "us"},
    {"slot.advance_us", "us"},                {"dcnet.client_pads_us", "us"},
    {"dcnet.server_pads_us", "us"},           {"dcnet.pad_gbps", "Gbit/s"},
    {"crypto.sha256_commit_us", "us"},        {"round.cleartext_bytes", "bytes"},
    {"round.participation", "count"},         {"round.useful_frac", "frac"},
    {"setup.keys_s", "s"},                    {"shuffle.submit_s", "s"},
    {"shuffle.prove_s", "s"},                 {"shuffle.verify_s", "s"},
    {"setup.install_s", "s"},                 {"net.reliable_frames_per_round", "1/round"},
    {"net.retransmit_overhead", "ratio"},     {"net.duplicates_dropped", "count"},
    {"net.max_in_flight", "count"},           {"net.overhead_ms_per_round", "ms"},
    {"proc.cpu_util", "frac"},                {"trace.overhead_frac", "frac"},
};

class ToyRun : public ::testing::TestWithParam<std::string> {};

TEST_P(ToyRun, ReportsEveryMetricCorrectly) {
  auto spec = FindWorkload(GetParam());
  ASSERT_TRUE(spec.has_value());
  spec->clients = 8;
  spec->setup_reps = 2;
  spec->warmup_rounds = 4;
  for (bool trace : {false, true}) {
    RunOptions opt;
    opt.seed = 7;
    opt.seconds = 1;
    opt.trace = trace;
    const RunResult r = RunWorkload(*spec, opt);
    for (const auto& v : r.violations) {
      ADD_FAILURE() << GetParam() << ": " << v;
    }
    EXPECT_TRUE(r.correct);
    EXPECT_GT(r.attempted, 0u);
    EXPECT_EQ(r.failed, 0u);
    const auto& want = trace ? kPerLayer : kEndToEnd;
    ASSERT_EQ(r.metrics.size(), want.size());
    for (size_t k = 0; k < want.size(); ++k) {
      EXPECT_EQ(r.metrics[k].name, want[k].first);
      EXPECT_EQ(r.metrics[k].unit, want[k].second) << want[k].first;
    }
    if (!trace) {
      for (const auto& m : r.metrics) {
        EXPECT_GT(m.value, 0) << GetParam() << " " << m.name;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Workloads, ToyRun,
                         ::testing::Values("microblog-256", "bulk-64", "tcp-fleet-100"),
                         [](const auto& info) {
                           std::string n = info.param;
                           for (char& c : n) {
                             c = (c == '-') ? '_' : c;
                           }
                           return n;
                         });

}  // namespace
}  // namespace perfbench
