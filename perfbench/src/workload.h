// Benchmark workloads: round-paced load, the correctness ledger, and the
// end-to-end and per-layer metrics of one run.
#ifndef PERFBENCH_WORKLOAD_H_
#define PERFBENCH_WORKLOAD_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace perfbench {

struct WorkloadSpec {
  std::string name;
  bool tcp = false;  // real ServerNode/ClientHostNode fleet over loopback
  size_t clients = 0;  // M = 5 servers and pipeline depth 2 for every workload
  // Microblog: after each round, a `post_prob` share of the clients (chosen
  // by the seed) each post one `message_bytes` message. Bulk (`bulk_senders` > 0): that many
  // fixed senders each keep one `message_bytes` message queued behind the
  // one in flight (closed loop per sender).
  double post_prob = 0;
  size_t bulk_senders = 0;
  size_t message_bytes = 0;
  int setup_reps = 3;     // set-ups per run; setup_s is their median
  int warmup_rounds = 8;  // certified rounds before the measurement window
};

// The benchmark's workloads by name (microblog-256, bulk-64, tcp-fleet-100).
std::optional<WorkloadSpec> FindWorkload(const std::string& name);

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

struct RunOptions {
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string trace_path;  // span CSV written at exit (traced run only)
};

struct RunResult {
  bool correct = false;
  uint64_t attempted = 0;  // messages queued
  uint64_t failed = 0;     // messages not delivered intact by the end of the drain
  std::vector<std::string> violations;
  std::vector<Metric> metrics;
  // Untraced run: latency samples behind the percentiles.
  size_t round_samples = 0;
  size_t msg_samples = 0;
};

// Untraced: the end-to-end metrics. Traced: the per-layer metrics.
RunResult RunWorkload(const WorkloadSpec& spec, const RunOptions& options);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOAD_H_
