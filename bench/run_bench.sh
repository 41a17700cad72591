#!/usr/bin/env bash
# Configures+builds an explicit Release tree and runs the benchmark suites
# with JSON output at the repo root, so perf changes are diffable across PRs:
#  * micro_dcnet + micro_crypto  -> BENCH_dcnet.json    (data-plane)
#  * micro_protocol              -> BENCH_protocol.json (whole-protocol
#    rounds/sec: 100-client pipelining cases + the 1,000/5,000-client
#    paper-scale cases, per-message vs shared-payload broadcast)
#
# Usage: bench/run_bench.sh [--native] [--skip-build] [build_dir]
#                           [dcnet_out.json] [protocol_out.json]
#
#   --native      adds -DDISSENT_NATIVE=ON (-O3 -march=native): numbers
#                 reflect the local ISA instead of the portable baseline
#   --skip-build  use build_dir as-is (caller guarantees it is Release)
#
# The build type is pinned to Release here (and recorded in the output JSON
# as context.dissent_build) so cross-PR numbers are never silently from an
# unoptimized tree — note the system benchmark library's own
# "library_build_type" field describes libbenchmark, not this code.
set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
native=0
skip_build=0
positional=()
for arg in "$@"; do
  case "$arg" in
    --native) native=1 ;;
    --skip-build) skip_build=1 ;;
    *) positional+=("$arg") ;;
  esac
done
default_build="$repo_root/build-bench"
if [[ $native -eq 1 ]]; then
  default_build="$repo_root/build-bench-native"
fi
build_dir="${positional[0]:-$default_build}"
out="${positional[1]:-$repo_root/BENCH_dcnet.json}"
protocol_out="${positional[2]:-$repo_root/BENCH_protocol.json}"

flavor="Release"
if [[ $native -eq 1 ]]; then
  flavor="Release+native"
fi

if [[ $skip_build -eq 0 ]]; then
  cmake_flags=(-DCMAKE_BUILD_TYPE=Release)
  if [[ $native -eq 1 ]]; then
    cmake_flags+=(-DDISSENT_NATIVE=ON)
  fi
  cmake -B "$build_dir" -S "$repo_root" "${cmake_flags[@]}" >/dev/null
  cmake --build "$build_dir" -j "$(nproc)" \
    --target micro_dcnet micro_crypto micro_protocol dissentd dissent-client
fi

for bin in micro_dcnet micro_crypto micro_protocol; do
  if [[ ! -x "$build_dir/$bin" ]]; then
    echo "error: $build_dir/$bin not found; build the repo first" >&2
    exit 1
  fi
done

tmp_dcnet="$(mktemp)"
tmp_crypto="$(mktemp)"
tmp_protocol="$(mktemp)"
trap 'rm -f "$tmp_dcnet" "$tmp_crypto" "$tmp_protocol"' EXIT

"$build_dir/micro_dcnet" --benchmark_format=json \
  --benchmark_out="$tmp_dcnet" --benchmark_out_format=json
"$build_dir/micro_crypto" --benchmark_format=json \
  --benchmark_out="$tmp_crypto" --benchmark_out_format=json

# One file: micro_dcnet's context plus both benchmark arrays, stamped with
# the build flavor this script configured and the host: nproc (the CPUs this
# process may use, unlike the library's num_cpus), plus the ISA flags and the
# kernel tiers micro_dcnet recorded from the same CPUID probe that selected
# them.
nproc_host="$(nproc)"
jq -s --arg flavor "$flavor" --argjson nproc "$nproc_host" \
  '{context: (.[0].context + {dissent_build: $flavor, nproc: $nproc}),
    benchmarks: (.[0].benchmarks + .[1].benchmarks)}' \
  "$tmp_dcnet" "$tmp_crypto" > "$out"
host_json="$(jq -c '.context | {nproc, cpu_avx2, cpu_avx512f, cpu_sha_ni, cpu_adx,
                                kernel_chacha20, kernel_sha256}' "$out")"

echo "wrote $out ($(jq '.benchmarks | length' "$out") benchmarks, $flavor)"
echo "  host: $host_json"

casc_ref="$(jq '[.benchmarks[] | select(.name | contains("KeyShuffleCascade/1000/0")) | .total_sec] | first' "$out")"
casc_eng="$(jq '[.benchmarks[] | select(.name | contains("KeyShuffleCascade/1000/1")) | .total_sec] | first' "$out")"
echo "  key-shuffle cascade @1000 clients: engine ${casc_eng}s vs reference ${casc_ref}s"

"$build_dir/micro_protocol" --benchmark_format=json \
  --benchmark_out="$tmp_protocol" --benchmark_out_format=json
jq --arg flavor "$flavor" --argjson host "$host_json" \
  '.context += {dissent_build: $flavor} + $host' "$tmp_protocol" > "$protocol_out"

# Real-socket deployment wall clock (scripts/localrun.sh): 5 dissentd + 100
# single-client processes on loopback running the verified shuffle + depth-2
# pipelined rounds. Unlike rounds_per_sim_sec this IS runner-dependent — it
# is the number the paper reports (real rounds/sec), recorded alongside the
# sim-time columns rather than replacing them.
if [[ -x "$build_dir/dissentd" && -x "$build_dir/dissent-client" ]]; then
  localrun_out="$(mktemp -d)"
  if "$repo_root/scripts/localrun.sh" --build "$build_dir" --out "$localrun_out" \
       --base-port 30520 > /dev/null 2>&1; then
    wall_rps="$(jq '.wallclock_rounds_per_sec' "$localrun_out/summary.json")"
    jq --argjson rps "$wall_rps" \
      '.benchmarks += [{name: "SocketDeployment/5servers/100client_procs",
                        run_type: "deployment", iterations: 1,
                        wallclock_rounds_per_sec: $rps}]' \
      "$protocol_out" > "$protocol_out.tmp" && mv "$protocol_out.tmp" "$protocol_out"
  else
    echo "warning: socket-deployment localrun failed; wallclock column omitted" >&2
  fi
  rm -rf "$localrun_out"
fi

seq_rps="$(jq '[.benchmarks[] | select(.name | contains("ProtocolRounds/1/")) | .rounds_per_sim_sec] | first' "$protocol_out")"
pipe_rps="$(jq '[.benchmarks[] | select(.name | contains("ProtocolRounds/2/")) | .rounds_per_sim_sec] | first' "$protocol_out")"
shared_1k="$(jq '[.benchmarks[] | select(.name | contains("ProtocolScale/1000/1")) | .rounds_per_sim_sec] | first' "$protocol_out")"
real_1k="$(jq '[.benchmarks[] | select(.name | contains("ProtocolScale/1000/3")) | .rounds_per_sim_sec] | first' "$protocol_out")"
real_1k_sched="$(jq '[.benchmarks[] | select(.name | contains("ProtocolScale/1000/3")) | .scheduling_seconds] | first' "$protocol_out")"
shared_5k="$(jq '[.benchmarks[] | select(.name | contains("ProtocolScale/5000/1")) | .rounds_per_sim_sec] | first' "$protocol_out")"
disrupt_rps="$(jq '[.benchmarks[] | select(.name | contains("ProtocolDisruption/1000")) | .rounds_per_sim_sec] | first' "$protocol_out")"
disrupt_blames="$(jq '[.benchmarks[] | select(.name | contains("ProtocolDisruption/1000")) | .blames_completed] | first' "$protocol_out")"
faults_rps="$(jq '[.benchmarks[] | select(.name | contains("ProtocolFaults/1000")) | .rounds_per_sim_sec] | first' "$protocol_out")"
faults_recover="$(jq '[.benchmarks[] | select(.name | contains("ProtocolFaults/1000")) | .rounds_to_recover] | first' "$protocol_out")"
faults_overhead="$(jq '[.benchmarks[] | select(.name | contains("ProtocolFaults/1000")) | .retransmit_overhead] | first' "$protocol_out")"
faults_recovered="$(jq '[.benchmarks[] | select(.name | contains("ProtocolFaults/1000")) | .rounds_recovered] | first' "$protocol_out")"
wall_rps="$(jq '[.benchmarks[] | select(.name | contains("SocketDeployment")) | .wallclock_rounds_per_sec] | first' "$protocol_out")"
echo "wrote $protocol_out ($flavor)"
echo "  real sockets (5 servers + 100 client procs): ${wall_rps} wall-clock rounds/sec"
echo "  100 clients: sequential ${seq_rps} rounds/sim-s, pipelined-x2 ${pipe_rps}"
echo "  1000 clients: shared-broadcast ${shared_1k} rounds/sim-s"
echo "  1000 clients + REAL verified shuffle: ${real_1k} rounds/sim-s (cascade setup ${real_1k_sched}s)"
echo "  5000 clients: shared-broadcast ${shared_5k} rounds/sim-s"
echo "  1000 clients + disruptor (§3.9 blame inline): ${disrupt_rps} rounds/sim-s, ${disrupt_blames} blame(s) resolved"
echo "  1000 clients + fault matrix (1% loss/dup, 5% reorder, 30 sim-s outage):" \
     "${faults_rps} rounds/sim-s, ${faults_recovered} rounds after restart," \
     "recovery ${faults_recover} round-times, retransmit overhead ${faults_overhead}x"
