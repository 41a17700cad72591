// perfbench: runs one benchmark workload and prints its metrics.
//
//   perfbench --workload microblog-256|bulk-64|tcp-fleet-100 --seed N
//             --seconds S --trace 0|1 [--trace-out spans.csv] [--commit ID]
//
// Prints a provenance line and an ops line, then, as the last line of
// stdout, one JSON object {"correct", "attempted", "failed", "metrics"}.
// --trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones.
// Exits nonzero on any correctness violation.
#include <sched.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "src/workload.h"

namespace {

std::string AffinityList() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) {
    return "unknown";
  }
  std::string out;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &set)) {
      out += (out.empty() ? "" : ",") + std::to_string(c);
    }
  }
  return out;
}

std::string IsaFlags() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("flags", 0) != 0) {
      continue;
    }
    std::istringstream words(line.substr(line.find(':') + 1));
    std::string w;
    std::string found;
    while (words >> w) {
      if (w == "avx2" || w == "avx512f" || w == "sha_ni" || w == "adx") {
        found += (found.empty() ? "" : ",") + w;
      }
    }
    return found;
  }
  return "unknown";
}

// JSON string escaping for the handful of characters our strings can hold.
std::string Quote(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
    }
    out += c;
  }
  return out + "\"";
}

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload microblog-256|bulk-64|tcp-fleet-100 --seed N "
               "--seconds S --trace 0|1 [--trace-out PATH] [--commit ID]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  std::string commit = "unknown";
  perfbench::RunOptions opt;
  int trace = -1;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--seed") {
      opt.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      opt.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      trace = value == "1" ? 1 : value == "0" ? 0 : -1;
    } else if (flag == "--trace-out") {
      opt.trace_path = value;
    } else if (flag == "--commit") {
      commit = value;
    } else {
      return Usage();
    }
  }
  const auto spec = perfbench::FindWorkload(workload);
  if (!spec.has_value() || trace < 0 || !(opt.seconds > 0) || argc % 2 == 0) {
    return Usage();
  }
  opt.trace = trace == 1;

  std::printf(
      "provenance {\"workload\": %s, \"seed\": %llu, \"seconds\": %g, \"trace\": %d, "
      "\"nproc\": %ld, \"affinity\": %s, \"isa\": %s, \"compiler\": %s, \"build_type\": %s, "
      "\"commit\": %s}\n",
      Quote(workload).c_str(), static_cast<unsigned long long>(opt.seed), opt.seconds, trace,
      sysconf(_SC_NPROCESSORS_ONLN), Quote(AffinityList()).c_str(), Quote(IsaFlags()).c_str(),
      Quote(PERFBENCH_COMPILER).c_str(), Quote(PERFBENCH_BUILD_TYPE).c_str(),
      Quote(commit).c_str());
  std::fflush(stdout);

  const perfbench::RunResult r = perfbench::RunWorkload(*spec, opt);
  std::printf("ops %s: attempted=%llu failed=%llu round_samples=%zu msg_samples=%zu\n",
              workload.c_str(), static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed), r.round_samples, r.msg_samples);
  for (const std::string& v : r.violations) {
    std::printf("violation %s: %s\n", workload.c_str(), v.c_str());
  }
  std::string metrics;
  for (const auto& m : r.metrics) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", m.value);
    metrics += (metrics.empty() ? "" : ", ") + Quote(m.name) + ": {\"value\": " + value +
               ", \"unit\": " + Quote(m.unit) + "}";
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {%s}}\n",
              r.correct ? "true" : "false", static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed), metrics.c_str());
  return r.correct ? 0 : 1;
}
