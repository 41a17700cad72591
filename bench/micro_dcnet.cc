// google-benchmark microbenchmarks of the DC-net round pipeline itself:
// client ciphertext formation and the server-side combine at various group
// shapes — the per-round data-plane costs behind Figs 7-8.
#include <benchmark/benchmark.h>

#include "src/core/coordinator.h"
#include "src/core/dcnet.h"
#include "src/crypto/kernels.h"

namespace dissent {
namespace {

void BM_ClientCiphertext(benchmark::State& state) {
  const size_t servers = static_cast<size_t>(state.range(0));
  const size_t len = static_cast<size_t>(state.range(1));
  std::vector<Bytes> keys(servers, Bytes(32, 0x11));
  Bytes cleartext(len, 0);
  uint64_t round = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(BuildClientCiphertext(keys, ++round, cleartext));
  }
  state.SetBytesProcessed(state.iterations() * static_cast<int64_t>(servers * len));
}
BENCHMARK(BM_ClientCiphertext)
    ->Args({4, 1024})
    ->Args({16, 1024})
    ->Args({32, 1024})
    ->Args({16, 128 * 1024});

void BM_ServerPadAggregation(benchmark::State& state) {
  // One server expanding + XORing pads for N participating clients.
  const size_t clients = static_cast<size_t>(state.range(0));
  const size_t len = static_cast<size_t>(state.range(1));
  std::vector<Bytes> keys(clients);
  for (size_t i = 0; i < clients; ++i) {
    keys[i].assign(32, static_cast<uint8_t>(i));
  }
  Bytes acc(len, 0);
  uint64_t round = 0;
  for (auto _ : state) {
    ++round;
    for (const auto& k : keys) {
      XorDcnetPad(k, round, acc);
    }
    benchmark::DoNotOptimize(acc.data());
  }
  state.SetBytesProcessed(state.iterations() * static_cast<int64_t>(clients * len));
}
BENCHMARK(BM_ServerPadAggregation)
    ->Args({100, 1024})
    ->Args({1000, 1024})
    ->Args({100, 128 * 1024})
    ->Unit(benchmark::kMillisecond);

void BM_ClientCiphertextCached(benchmark::State& state) {
  // The real per-round client cost: key schedules parsed once (as
  // DissentClient does), pads XORed into the cleartext in place.
  const size_t servers = static_cast<size_t>(state.range(0));
  const size_t len = static_cast<size_t>(state.range(1));
  std::vector<Bytes> keys(servers, Bytes(32, 0x11));
  PadExpander expander(keys);
  Bytes buf(len, 0);
  uint64_t round = 0;
  for (auto _ : state) {
    expander.XorAllPads(++round, buf);
    benchmark::DoNotOptimize(buf.data());
  }
  state.SetBytesProcessed(state.iterations() * static_cast<int64_t>(servers * len));
}
BENCHMARK(BM_ClientCiphertextCached)->Args({16, 1024})->Args({16, 128 * 1024});

void BM_PadExpanderAggregation(benchmark::State& state) {
  // Server-side aggregation through the precomputed-schedule expander:
  // clients x len x worker threads. The 10k-client case is the paper's
  // target operating point (Fig 7-8) at a 128 KiB round cleartext.
  const size_t clients = static_cast<size_t>(state.range(0));
  const size_t len = static_cast<size_t>(state.range(1));
  const size_t threads = static_cast<size_t>(state.range(2));
  std::vector<Bytes> keys(clients);
  for (size_t i = 0; i < clients; ++i) {
    keys[i].assign(32, static_cast<uint8_t>(i * 7 + 1));
  }
  PadExpander expander(keys);
  Bytes acc(len, 0);
  uint64_t round = 0;
  for (auto _ : state) {
    expander.XorAllPads(++round, acc, threads);
    benchmark::DoNotOptimize(acc.data());
  }
  state.SetBytesProcessed(state.iterations() * static_cast<int64_t>(clients * len));
}
BENCHMARK(BM_PadExpanderAggregation)
    ->Args({100, 128 * 1024, 1})
    ->Args({1000, 128 * 1024, 1})
    ->Args({1000, 128 * 1024, 4})
    ->Args({10000, 128 * 1024, 1})
    ->Args({10000, 128 * 1024, 8})
    // Wall clock, not main-thread CPU time: the pad expansion happens on
    // worker threads in the multi-threaded cases.
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

void BM_PadBitQuery(benchmark::State& state) {
  // Accusation tracing (§3.9): one pad bit at a deep offset; O(1) via Seek.
  Bytes key(32, 0x42);
  const size_t bit = static_cast<size_t>(state.range(0));
  uint64_t round = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(DcnetPadBit(key, ++round, bit));
  }
}
BENCHMARK(BM_PadBitQuery)->Arg(7)->Arg(8 * 128 * 1024 - 1);

void BM_FullRoundInProcess(benchmark::State& state) {
  // A complete real round (Algorithms 1+2, signatures included) through the
  // in-process coordinator.
  const size_t clients = static_cast<size_t>(state.range(0));
  const size_t servers = static_cast<size_t>(state.range(1));
  SecureRng rng = SecureRng::FromLabel(42);
  std::vector<BigInt> server_privs, client_privs;
  GroupDef def = MakeTestGroup(Group::Named(GroupId::kTesting256), servers, clients, rng,
                               &server_privs, &client_privs);
  Coordinator coord(def, server_privs, client_privs, 42);
  if (!coord.RunScheduling()) {
    state.SkipWithError("scheduling failed");
    return;
  }
  size_t sender = 0;
  for (auto _ : state) {
    coord.client(sender % clients).QueueMessage(Bytes(128, 0x33));
    ++sender;
    auto outcome = coord.RunRound();
    benchmark::DoNotOptimize(outcome.completed);
  }
}
BENCHMARK(BM_FullRoundInProcess)
    ->Args({16, 4})
    ->Args({64, 4})
    ->Args({64, 16})
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace dissent

int main(int argc, char** argv) {
  // Provenance: the host ISA flags the data-plane kernels were chosen from,
  // and the tiers chosen, recorded in the JSON output's context.
  const dissent::CpuFeatures& cpu = dissent::HostCpuFeatures();
  benchmark::AddCustomContext("cpu_avx2", cpu.avx2 ? "1" : "0");
  benchmark::AddCustomContext("cpu_avx512f", cpu.avx512f ? "1" : "0");
  benchmark::AddCustomContext("cpu_sha_ni", cpu.sha_ni ? "1" : "0");
  benchmark::AddCustomContext("cpu_adx", cpu.adx ? "1" : "0");
  benchmark::AddCustomContext("kernel_chacha20", dissent::kernels::SelectedChaChaKernel().name);
  benchmark::AddCustomContext("kernel_sha256", dissent::kernels::SelectedSha256Kernel().name);
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
