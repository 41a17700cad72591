// Shared deployment parameters for the real-socket transport.
//
// A dissent deployment is fully determined by (seed, M servers, N clients,
// clients_per_host, pipeline depth): every process independently derives
// the same group roster, the same long-term keys, and the same per-node rng
// streams from the seed, so no key distribution step is needed for the
// localhost harness. This mirrors how the in-process drivers are seeded —
// and is the whole reason socket-transport cleartexts can be pinned
// byte-identical to them:
//
//   master = SecureRng::FromLabel(seed)
//   client logic rngs   = forks 0..N-1      (Coordinator/NetDissent order)
//   server logic rngs   = forks N..N+M-1    (ditto)
//   client sched rngs   = forks N+M..2N+M-1 (key-shuffle submissions)
//   server sched rngs   = forks 2N+M..2N+2M-1 (mix-step randomness)
//
// Any process re-derives exactly the forks it needs by skipping ahead from
// scratch (forks are cheap). Coordinator and NetDissent fork their engines'
// scheduling rngs in the same order, so every transport's in-engine key
// shuffle yields DistributedCascadeKeys' order for the same seed. The sim
// reference still computes that order out of band (and presets it), which
// makes the socket fleet's byte identity against the fixture an independent
// check on the in-engine shuffle.
//
// Topology: client host h serves clients [h*k, h*k+count) and attaches to
// server h % M — the same machine-major shape as NetDissent, so the two
// transports agree on attachment (cleartexts are invariant to attachment
// anyway, but window accounting is not).
#ifndef DISSENT_NET_DEPLOYMENT_H_
#define DISSENT_NET_DEPLOYMENT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/core/engine.h"
#include "src/core/group_def.h"
#include "src/core/key_shuffle.h"

namespace dissent {
namespace net {

struct DeployConfig {
  uint64_t seed = 1;
  size_t num_servers = 2;
  size_t num_clients = 4;
  size_t clients_per_host = 1;
  size_t pipeline_depth = 1;
  // Rounds the run targets; each client queues this many payloads upfront
  // (DeployPayload) so every compared round carries deterministic data.
  size_t rounds = 10;
  std::string host = "127.0.0.1";
  // Server j listens on base_port + j.
  uint16_t base_port = 29000;
  // TCP-tuned reliability (see ROADMAP delivery-assumptions): the kernel
  // retransmits within a connection, so the mailbox's job here is purely
  // cross-connection — frames lost to a crashed/restarted peer. A short rto
  // speeds crash recovery; it cannot cause spurious traffic on a healthy
  // link because acks return in well under any plausible rto on localhost.
  ReliabilityConfig reliability{true, 300 * 1000ll, 4 * 1000000ll};
  // Client stall detector (CatchUpRequest cadence) — the recovery path for
  // Output broadcasts lost across a server restart.
  int64_t resync_timeout_us = 500 * 1000ll;
  // Submission window: full participation (fraction 1.0, adaptive off) is
  // required for byte-identity with the lossless sim reference — a window
  // that closes early on wall-clock jitter would change participation and
  // thus the cleartext.
  double window_fraction = 1.0;
  double window_multiplier = 1.0;
  int64_t hard_deadline_us = 120 * 1000000ll;
  size_t evidence_rounds = 0;  // round path only; blame needs none retained
  size_t output_history = 256;
  // Abort agreement (PR 8): with a deadline, a round stuck past it is retired
  // by an epoch-committed AbortCommit certificate (all alive-server prepares)
  // and a server restored from a stale snapshot re-admits itself via the
  // catch-up protocol. 0 keeps aborts off entirely — the byte-identity runs
  // pin the frame stream against the PR 7 fixture with this disabled.
  int64_t abort_deadline_us = 0;
  // False selects the legacy one-shot RoundAbort vote (split-brain negative
  // control); only meaningful with a nonzero deadline.
  bool abort_agreement = true;
  // Chaos harness (PR 8): when nonzero, every dial goes through the
  // fault-injecting TCP proxy (chaos-proxy binary) instead of straight to the
  // peer's listen port. Each link gets its own proxy port so the proxy can
  // drop/stall/partition per link; the proxy forwards to base_port + target.
  uint16_t chaos_base_port = 0;

  size_t num_hosts() const {
    return (num_clients + clients_per_host - 1) / clients_per_host;
  }
  size_t host_first_client(size_t h) const { return h * clients_per_host; }
  size_t host_num_clients(size_t h) const {
    const size_t first = host_first_client(h);
    return first >= num_clients ? 0
                                : std::min(clients_per_host, num_clients - first);
  }
  size_t host_upstream(size_t h) const { return h % num_servers; }
  uint16_t server_port(size_t j) const {
    return static_cast<uint16_t>(base_port + j);
  }
  // Where server i dials to reach sibling j: direct, or the link's dedicated
  // chaos-proxy port (i*M + j within the proxy's sibling block).
  uint16_t sibling_dial_port(size_t i, size_t j) const {
    return chaos_base_port == 0
               ? server_port(j)
               : static_cast<uint16_t>(chaos_base_port + i * num_servers + j);
  }
  // Where a client host dials its upstream server: direct, or the shared
  // per-server proxy port after the M*M sibling block. Client links share one
  // proxy port per server — the chaos plans partition server links, and a
  // finer per-host split would need num_hosts ports for no test we run.
  uint16_t client_dial_port(size_t upstream) const {
    return chaos_base_port == 0
               ? server_port(upstream)
               : static_cast<uint16_t>(chaos_base_port + num_servers * num_servers +
                                       upstream);
  }
};

// The deterministic group every process derives from the seed. Out params
// may be null when a process only needs the roster.
GroupDef BuildDeployGroup(const DeployConfig& cfg, std::vector<BigInt>* server_privs,
                          std::vector<BigInt>* client_privs);

enum class DeployRngKind : uint8_t {
  kClientLogic = 0,
  kServerLogic = 1,
  kClientSched = 2,
  kServerSched = 3,
};
SecureRng DeployNodeRng(const DeployConfig& cfg, DeployRngKind kind, size_t index);

// Payload `k` (0-based) for client `i`: what the harness queues and what
// every log comparison expects to read back out of slot cleartexts.
Bytes DeployPayload(size_t client, size_t k);

// Reference-side cascade under the distributed rng discipline: submissions
// from the per-client sched rngs over `pseudonym_pubs`, one mix step per
// server from its sched rng. Returns the final pseudonym-key order (empty
// on verification failure). A socket deployment computes the identical
// cascade piecewise across its processes.
std::vector<BigInt> DistributedCascadeKeys(const DeployConfig& cfg, const GroupDef& def,
                                           const std::vector<BigInt>& server_privs,
                                           const std::vector<BigInt>& pseudonym_pubs);

// Runs the deployment's sim-transport reference (NetDissent over a lossless
// simulated network, preset with the DistributedCascadeKeys order) and
// returns the cleartexts of rounds 1..cfg.rounds. This is the byte-identity
// fixture for every socket-transport comparison.
std::vector<Bytes> RunSimReference(const DeployConfig& cfg);

}  // namespace net
}  // namespace dissent

#endif  // DISSENT_NET_DEPLOYMENT_H_
