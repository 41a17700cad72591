#include "src/workload.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <functional>
#include <map>
#include <memory>

#include "src/fleet.h"
#include "src/net/socket_transport.h"
#include "src/probes.h"
#include "src/trace.h"

namespace perfbench {
namespace {

using dissent::Bytes;
using dissent::ClientEngine;
using dissent::ServerEngine;
using dissent::net::DeployConfig;

constexpr size_t kHeaderBytes = 8;  // u32 client id, u32 per-client sequence
constexpr size_t kServers = 5;
constexpr size_t kDepth = 2;

uint64_t Mix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

double CpuSeconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) * 1e-6;
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

// Linear interpolation between closest ranks; 0 for an empty sample.
double Percentile(std::vector<double> v, double q) {
  if (v.empty()) {
    return 0;
  }
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

DeployConfig MakeConfig(const WorkloadSpec& spec, uint64_t seed) {
  DeployConfig cfg;  // defaults: reliability on, resync on, full-participation window
  cfg.seed = seed;
  cfg.num_servers = kServers;
  cfg.num_clients = spec.clients;
  cfg.clients_per_host = std::max<size_t>(spec.clients / 4, 1);
  cfg.pipeline_depth = kDepth;
  return cfg;
}

// Measurements of one window of a run.
struct Window {
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  double cpu_start_s = 0;
  double cpu_end_s = 0;
  uint64_t rounds = 0;
  uint64_t participation = 0;  // summed over the window's rounds
  uint64_t delivered_bytes = 0;
  std::vector<double> round_ms;
  std::vector<double> msg_ms;

  double wall_s() const { return static_cast<double>(end_ns - start_ns) * 1e-9; }
  double rounds_per_s() const { return static_cast<double>(rounds) / wall_s(); }
};

// Load generation plus the correctness ledger, shared by both transports.
// Every queued message carries (client, sequence) and seed-derived filler;
// it must come out of exactly one certified round, byte-identical, every
// delivery must carry a verified certificate, and every client and server 0
// must see the same cleartext for every round.
class Session {
 public:
  Session(const WorkloadSpec& spec, uint64_t seed,
          std::function<dissent::DissentClient&(size_t)> client_of)
      : spec_(spec), seed_(seed), client_of_(std::move(client_of)), seq_(spec.clients, 0) {
    if (spec_.bulk_senders > 0) {
      std::vector<size_t> ids(spec_.clients);
      for (size_t i = 0; i < ids.size(); ++i) {
        ids[i] = i;
      }
      for (size_t k = 0; k < spec_.bulk_senders && k < ids.size(); ++k) {
        std::swap(ids[k], ids[k + Mix64(seed_ ^ (k << 40)) % (ids.size() - k)]);
        senders_.push_back(ids[k]);
      }
    }
  }

  // Bulk senders start with a message in flight and one queued behind it.
  void Prime() {
    for (size_t i : senders_) {
      TopUp(i);
    }
  }

  void OnRound(const ServerEngine::RoundDone& done) {
    const int64_t now = NowNs();
    if (!done.completed) {
      Violation("round " + std::to_string(done.round) + " did not complete");
      return;
    }
    if (done.round != last_round_ + 1) {
      Violation("server 0 finished round " + std::to_string(done.round) + " out of order");
    }
    last_round_ = done.round;
    cert_ns_[done.round] = now;
    if (Window* w = current()) {
      ++w->rounds;
      w->participation += done.participation;
      auto prev = cert_ns_.find(done.round - kDepth);
      if (done.round > kDepth && prev != cert_ns_.end()) {
        w->round_ms.push_back(static_cast<double>(now - prev->second) * 1e-6);
      }
    }
    if (done.round > kDepth) {
      cert_ns_.erase(cert_ns_.begin(), cert_ns_.lower_bound(done.round - kDepth));
    }
    CheckAgreement(done.round, done.cleartext, /*from_server=*/true);
    if (probes != nullptr) {
      probes->OnRound(done.round, done.cleartext, probes_timed, tracer);
    }
  }

  void OnDelivery(size_t client, const ClientEngine::Delivery& d) {
    const int64_t now = NowNs();
    if (!d.signatures_ok) {
      Violation("client " + std::to_string(client) + " got round " + std::to_string(d.round) +
                " without a valid certificate");
    }
    if (CheckAgreement(d.round, d.cleartext, /*from_server=*/false)) {
      for (const auto& [slot, payload] : d.messages) {
        Ingest(payload, now);
      }
    }
    if (!arrivals) {
      return;
    }
    if (spec_.bulk_senders > 0) {
      if (std::find(senders_.begin(), senders_.end(), client) != senders_.end()) {
        TopUp(client);
      }
    } else if (Posters(d.round)[client]) {
      Queue(client);
    }
  }

  void OpenWindow(Window* w) {
    w->start_ns = NowNs();
    w->cpu_start_s = CpuSeconds();
    windows_.push_back(w);
    open_ = true;
  }
  void CloseWindow() {
    Window* w = windows_.back();
    w->end_ns = NowNs();
    w->cpu_end_s = CpuSeconds();
    open_ = false;
  }

  uint64_t last_round() const { return last_round_; }
  bool drained() const { return outstanding_.empty(); }

  // Folds the ledger into the result: attempted/failed plus any violation.
  void Finish(RunResult* out) {
    out->attempted += attempted_;
    out->failed += corrupted_ + outstanding_.size();
    for (const auto& [round, check] : checks_) {
      // Rounds well behind the frontier must have reached every client.
      if (round + 4 * kDepth <= last_round_ &&
          (check.deliveries < spec_.clients || !check.from_server)) {
        Violation("round " + std::to_string(round) + " reached " +
                  std::to_string(check.deliveries) + " of " + std::to_string(spec_.clients) +
                  " clients");
      }
    }
    if (!outstanding_.empty()) {
      Violation(std::to_string(outstanding_.size()) + " messages never delivered");
    }
    for (auto& v : violations_) {
      out->violations.push_back(std::move(v));
    }
    violations_.clear();
  }

  bool arrivals = true;
  RoundProbes* probes = nullptr;
  bool probes_timed = false;
  Tracer* tracer = nullptr;

 private:
  struct Pending {
    Bytes payload;
    int64_t queued_ns = 0;
    Window* window = nullptr;  // window the message was queued in
  };
  struct RoundCheck {
    Bytes cleartext;
    size_t deliveries = 0;
    bool from_server = false;
  };

  Window* current() const { return open_ ? windows_.back() : nullptr; }

  void Violation(std::string what) {
    if (violations_.size() < 16) {
      violations_.push_back(std::move(what));
    }
  }

  // True for the first client delivery of `round` (the one whose decoded
  // messages the ledger ingests).
  bool CheckAgreement(uint64_t round, const Bytes& cleartext, bool from_server) {
    RoundCheck& c = checks_[round];
    if (c.deliveries == 0 && !c.from_server) {
      c.cleartext = cleartext;
    } else if (c.cleartext != cleartext) {
      Violation("cleartext disagreement in round " + std::to_string(round));
    }
    bool first_delivery = false;
    if (from_server) {
      c.from_server = true;
    } else {
      first_delivery = c.deliveries++ == 0;
    }
    if (c.from_server && c.deliveries == spec_.clients) {
      checks_.erase(round);
    }
    return first_delivery;
  }

  // Microblog arrivals for round r: exactly round(post_prob * N) clients,
  // the seed's choice, post after receiving r. A fixed count per round keeps
  // the per-round load (open slots, cleartext length) from varying by seed.
  const std::vector<bool>& Posters(uint64_t round) {
    auto it = posters_.find(round);
    if (it != posters_.end()) {
      return it->second;
    }
    std::vector<std::pair<uint64_t, size_t>> draw(spec_.clients);
    for (size_t i = 0; i < draw.size(); ++i) {
      draw[i] = {Mix64(seed_ ^ Mix64((static_cast<uint64_t>(i) << 32) ^ round)), i};
    }
    const size_t k = static_cast<size_t>(spec_.post_prob * static_cast<double>(draw.size()) + 0.5);
    std::nth_element(draw.begin(), draw.begin() + static_cast<std::ptrdiff_t>(k), draw.end());
    std::vector<bool> chosen(spec_.clients, false);
    for (size_t j = 0; j < k; ++j) {
      chosen[draw[j].second] = true;
    }
    while (!posters_.empty() && posters_.begin()->first + 4 * kDepth < round) {
      posters_.erase(posters_.begin());
    }
    return posters_[round] = std::move(chosen);
  }

  Bytes MakePayload(size_t client, uint32_t seq) const {
    Bytes p(spec_.message_bytes);
    const uint32_t id = static_cast<uint32_t>(client);
    std::memcpy(p.data(), &id, 4);
    std::memcpy(p.data() + 4, &seq, 4);
    uint64_t state = Mix64(seed_ ^ Mix64((static_cast<uint64_t>(client) << 32) | seq));
    for (size_t k = kHeaderBytes; k < p.size(); k += 8) {
      state = Mix64(state);
      std::memcpy(p.data() + k, &state, std::min<size_t>(8, p.size() - k));
    }
    return p;
  }

  static uint64_t Key(size_t client, uint32_t seq) {
    return (static_cast<uint64_t>(client) << 32) | seq;
  }

  void Queue(size_t client) {
    const uint32_t seq = seq_[client]++;
    Bytes payload = MakePayload(client, seq);
    client_of_(client).QueueMessage(payload);
    outstanding_[Key(client, seq)] = Pending{std::move(payload), NowNs(), current()};
    ++attempted_;
  }

  void TopUp(size_t client) {
    while (client_of_(client).PendingMessages() < 2) {
      Queue(client);
    }
  }

  void Ingest(const Bytes& payload, int64_t now) {
    if (payload.empty()) {
      return;  // an open slot whose owner had nothing to send
    }
    uint32_t id = 0;
    uint32_t seq = 0;
    if (payload.size() >= kHeaderBytes) {
      std::memcpy(&id, payload.data(), 4);
      std::memcpy(&seq, payload.data() + 4, 4);
    }
    auto it = outstanding_.find(Key(id, seq));
    if (payload.size() < kHeaderBytes || it == outstanding_.end()) {
      Violation("unknown or duplicate message in a certified round");
      return;
    }
    if (it->second.payload != payload) {
      ++corrupted_;
      Violation("message from client " + std::to_string(id) + " decoded corrupted");
    } else {
      if (it->second.window != nullptr) {
        it->second.window->msg_ms.push_back(static_cast<double>(now - it->second.queued_ns) *
                                            1e-6);
      }
      if (Window* w = current()) {
        w->delivered_bytes += payload.size();
      }
    }
    outstanding_.erase(it);
  }

  const WorkloadSpec& spec_;
  uint64_t seed_;
  std::function<dissent::DissentClient&(size_t)> client_of_;
  std::vector<uint32_t> seq_;
  std::vector<size_t> senders_;
  std::map<uint64_t, Pending> outstanding_;
  std::map<uint64_t, RoundCheck> checks_;
  std::map<uint64_t, std::vector<bool>> posters_;
  std::map<uint64_t, int64_t> cert_ns_;
  std::vector<Window*> windows_;
  bool open_ = false;
  uint64_t last_round_ = 0;
  uint64_t attempted_ = 0;
  uint64_t corrupted_ = 0;
  std::vector<std::string> violations_;
};

// Pumps a fleet until done() holds; false on stall or timeout.
using RunUntil = std::function<bool(const std::function<bool()>& done, double timeout_s)>;

RunUntil InProcRunner(InProcFleet& fleet) {
  return [&fleet](const std::function<bool()>& done, double timeout_s) {
    const int64_t deadline = NowNs() + static_cast<int64_t>(timeout_s * 1e9);
    while (!done()) {
      if (!fleet.Step() || NowNs() > deadline) {
        return false;
      }
    }
    return true;
  };
}

struct WindowPlan {
  double seconds = 0;
  bool traced = false;
  Window* out = nullptr;
};

// Warm-up rounds, the measurement windows in order, then the drain: no new
// arrivals, run until every queued message came out.
void Drive(const RunUntil& run, Session& session, const WorkloadSpec& spec,
           const std::vector<WindowPlan>& plan, const std::function<void(bool)>& set_traced,
           RunResult* out) {
  const uint64_t warm = static_cast<uint64_t>(spec.warmup_rounds);
  bool ok = run([&] { return session.last_round() >= warm; }, 120);
  for (const WindowPlan& w : plan) {
    if (!ok) {
      break;
    }
    set_traced(w.traced);
    session.OpenWindow(w.out);
    const int64_t end = NowNs() + static_cast<int64_t>(w.seconds * 1e9);
    ok = run([&] { return NowNs() >= end; }, w.seconds + 120);
    session.CloseWindow();
  }
  set_traced(false);
  session.arrivals = false;
  if (!ok) {
    out->violations.push_back("fleet stalled");
  } else if (!run([&] { return session.drained(); }, 60)) {
    out->violations.push_back("drain did not finish");
  }
  session.Finish(out);
}

// A whole dissentd-shaped fleet (M ServerNodes, H ClientHostNodes) on one
// EventLoop over loopback.
struct TcpFleet {
  dissent::net::EventLoop loop;
  std::vector<std::unique_ptr<dissent::net::ServerNode>> servers;
  std::vector<std::unique_ptr<dissent::net::ClientHostNode>> hosts;

  explicit TcpFleet(const DeployConfig& cfg) {
    for (size_t j = 0; j < cfg.num_servers; ++j) {
      servers.push_back(std::make_unique<dissent::net::ServerNode>(&loop, cfg, j));
    }
    for (size_t h = 0; h < cfg.num_hosts(); ++h) {
      hosts.push_back(std::make_unique<dissent::net::ClientHostNode>(&loop, cfg, h));
    }
  }
  ~TcpFleet() {
    hosts.clear();
    servers.clear();
  }

  // Listen, dial, run the scheduling phase; true once every server opened
  // round 1.
  bool Launch() {
    for (auto& s : servers) {
      if (!s->Listen()) {
        return false;
      }
    }
    for (auto& s : servers) {
      s->Start();
    }
    for (auto& h : hosts) {
      h->Start();
    }
    return loop.RunUntil(
        [this] {
          return std::all_of(servers.begin(), servers.end(),
                             [](const auto& s) { return s->session_started(); });
        },
        120 * 1000000ll);
  }

  dissent::DissentClient& client(size_t i) {
    const size_t per_host = hosts[0]->num_clients();
    return hosts[i / per_host]->client_logic(i % per_host);
  }

  RunUntil Runner() {
    return [this](const std::function<bool()>& done, double timeout_s) {
      return loop.RunUntil(done, static_cast<int64_t>(timeout_s * 1e6));
    };
  }
};

// First base port with num_servers consecutive free loopback ports.
uint16_t FreeBasePort(size_t count, uint64_t salt) {
  for (int attempt = 0; attempt < 200; ++attempt) {
    const uint16_t base = static_cast<uint16_t>(
        20000 + (Mix64(salt + static_cast<uint64_t>(attempt) + static_cast<uint64_t>(getpid())) %
                 750) * 16);
    bool free_run = true;
    for (size_t j = 0; j < count && free_run; ++j) {
      const int fd = socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
      int one = 1;
      setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
      sockaddr_in addr{};
      addr.sin_family = AF_INET;
      addr.sin_port = htons(static_cast<uint16_t>(base + j));
      addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
      free_run = fd >= 0 && bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0;
      if (fd >= 0) {
        close(fd);
      }
    }
    if (free_run) {
      return base;
    }
  }
  return 0;
}

// Builds, launches and times one TCP fleet; null (with a violation) on
// failure. `hook` runs between construction and launch.
std::unique_ptr<TcpFleet> SetupTcp(DeployConfig cfg, uint64_t salt, double* seconds,
                                   const std::function<void(TcpFleet&)>& hook,
                                   RunResult* out) {
  cfg.base_port = FreeBasePort(cfg.num_servers, salt);
  if (cfg.base_port == 0) {
    out->violations.push_back("no free loopback ports");
    return nullptr;
  }
  const int64_t t0 = NowNs();
  auto fleet = std::make_unique<TcpFleet>(cfg);
  if (hook) {
    hook(*fleet);
  }
  if (!fleet->Launch()) {
    out->violations.push_back("tcp fleet failed to start");
    return nullptr;
  }
  *seconds = static_cast<double>(NowNs() - t0) * 1e-9;
  return fleet;
}

std::unique_ptr<InProcFleet> SetupInProc(const DeployConfig& cfg, SetupPhases* phases,
                                         RunResult* out) {
  auto fleet = std::make_unique<InProcFleet>(cfg);
  if (!fleet->Setup(phases)) {
    out->violations.push_back("key shuffle failed verification");
    return nullptr;
  }
  return fleet;
}

void Add(RunResult* out, const char* name, double value, const char* unit) {
  out->metrics.push_back(Metric{name, value, unit});
}

void EndToEnd(const std::vector<double>& setups, const Window& w, RunResult* out) {
  Add(out, "setup_s", Percentile(setups, 0.5), "s");
  Add(out, "rounds_per_s", w.rounds_per_s(), "1/s");
  Add(out, "round_ms_p50", Percentile(w.round_ms, 0.5), "ms");
  Add(out, "round_ms_p90", Percentile(w.round_ms, 0.9), "ms");
  Add(out, "msg_ms_p50", Percentile(w.msg_ms, 0.5), "ms");
  Add(out, "msg_ms_p90", Percentile(w.msg_ms, 0.9), "ms");
  Add(out, "goodput_kib_s", static_cast<double>(w.delivered_bytes) / 1024.0 / w.wall_s(),
      "KiB/s");
  Add(out, "cpu_ms_per_round",
      w.rounds > 0 ? (w.cpu_end_s - w.cpu_start_s) * 1e3 / static_cast<double>(w.rounds) : 0,
      "ms");
  Add(out, "peak_rss_mb", PeakRssMb(), "MB");
  out->round_samples = w.round_ms.size();
  out->msg_samples = w.msg_ms.size();
}

RunResult RunUntraced(const WorkloadSpec& spec, const RunOptions& opt) {
  RunResult res;
  const DeployConfig cfg = MakeConfig(spec, opt.seed);
  std::vector<double> setups;
  Window window;
  const std::vector<WindowPlan> plan = {{opt.seconds, false, &window}};
  const auto no_trace = [](bool) {};
  if (!spec.tcp) {
    std::unique_ptr<InProcFleet> fleet;
    for (int rep = 0; rep < spec.setup_reps; ++rep) {
      fleet.reset();
      SetupPhases phases;
      fleet = SetupInProc(cfg, &phases, &res);
      if (fleet == nullptr) {
        return res;
      }
      setups.push_back(phases.total_s);
    }
    Session session(spec, opt.seed, [&](size_t i) -> dissent::DissentClient& {
      return fleet->client(i);
    });
    fleet->on_round = [&](const ServerEngine::RoundDone& d) { session.OnRound(d); };
    fleet->on_delivery = [&](size_t i, const ClientEngine::Delivery& d) {
      session.OnDelivery(i, d);
    };
    session.Prime();
    fleet->StartClients();
    Drive(InProcRunner(*fleet), session, spec, plan, no_trace, &res);
  } else {
    // Declared before the fleet, whose callbacks point at it.
    std::unique_ptr<Session> session;
    std::unique_ptr<TcpFleet> fleet;
    for (int rep = 0; rep < spec.setup_reps; ++rep) {
      fleet.reset();
      const bool last = rep + 1 == spec.setup_reps;
      double seconds = 0;
      fleet = SetupTcp(cfg, opt.seed * 131 + static_cast<uint64_t>(rep), &seconds,
                       [&](TcpFleet& f) {
                         if (!last) {
                           return;
                         }
                         session = std::make_unique<Session>(
                             spec, opt.seed,
                             [&f](size_t i) -> dissent::DissentClient& { return f.client(i); });
                         f.servers[0]->on_round = [&](const ServerEngine::RoundDone& d) {
                           session->OnRound(d);
                         };
                         for (auto& h : f.hosts) {
                           h->on_delivery = [&](size_t i, const ClientEngine::Delivery& d) {
                             session->OnDelivery(i, d);
                           };
                         }
                         session->Prime();
                       },
                       &res);
      if (fleet == nullptr) {
        return res;
      }
      setups.push_back(seconds);
    }
    Drive(fleet->Runner(), *session, spec, plan, no_trace, &res);
  }
  EndToEnd(setups, window, &res);
  return res;
}

// Per-layer metrics of the in-process engine spans over `w`.
void EngineLayers(const std::map<std::string, Tracer::NameStats>& spans, const Window& w,
                  double tcp_round_us, uint64_t wire_bytes, RunResult* out) {
  const double rounds = static_cast<double>(std::max<uint64_t>(w.rounds, 1));
  auto self_us = [&](const char* name) {
    auto it = spans.find(name);
    return it == spans.end() ? 0.0 : it->second.self_s * 1e6 / rounds;
  };
  auto count = [&](const char* name) {
    auto it = spans.find(name);
    return it == spans.end() ? 0.0 : static_cast<double>(it->second.count) / rounds;
  };
  Add(out, "engine.client_output_us", self_us("engine.client_output"), "us/round");
  Add(out, "engine.client_output_n", count("engine.client_output"), "1/round");
  Add(out, "engine.server_submit_us", self_us("engine.server_submit"), "us/round");
  Add(out, "engine.server_close_us", self_us("engine.server_close"), "us/round");
  Add(out, "engine.server_combine_us", self_us("engine.server_combine"), "us/round");
  Add(out, "engine.server_finish_us", self_us("engine.server_finish"), "us/round");
  Add(out, "engine.other_us", self_us("engine.server_other") + self_us("engine.client_other"),
      "us/round");
  Add(out, "engine.timer_us", self_us("engine.timer"), "us/round");
  double engine_us = 0;
  double probe_us = 0;
  for (const auto& [name, st] : spans) {
    (name.rfind("engine.", 0) == 0 ? engine_us : probe_us) += st.self_s * 1e6 / rounds;
  }
  // In process: engine self time over the wall time the probes did not
  // take. Over TCP: the same engine work per round over the TCP round period.
  const double denominator =
      tcp_round_us > 0 ? tcp_round_us : w.wall_s() * 1e6 / rounds - probe_us;
  Add(out, "engine.share", denominator > 0 ? engine_us / denominator : 0, "frac");
  Add(out, "wire.serialize_us", self_us("wire.serialize"), "us/round");
  Add(out, "wire.parse_us", self_us("wire.parse"), "us/round");
  Add(out, "wire.bytes_per_round", static_cast<double>(wire_bytes) / rounds, "bytes");
}

void ProbeLayers(const std::map<std::string, Tracer::NameStats>& spans,
                 const RoundProbes::Totals& t, const Window& w, RunResult* out) {
  const double n = static_cast<double>(std::max<uint64_t>(t.rounds, 1));
  auto us = [&](const char* name) {
    auto it = spans.find(name);
    return it == spans.end() ? 0.0 : it->second.self_s * 1e6 / n;
  };
  Add(out, "cert.verify_us", us("cert.verify"), "us");
  Add(out, "cert.sign_us", us("cert.sign"), "us");
  Add(out, "slot.open_slots", static_cast<double>(t.open_slots) / n, "count");
  Add(out, "slot.decode_us", us("slot.decode"), "us");
  Add(out, "slot.advance_us", us("slot.advance"), "us");
  Add(out, "dcnet.client_pads_us", us("dcnet.client_pads"), "us");
  Add(out, "dcnet.server_pads_us", us("dcnet.server_pads"), "us");
  const double pad_us = us("dcnet.client_pads") + us("dcnet.server_pads");
  Add(out, "dcnet.pad_gbps",
      pad_us > 0 ? static_cast<double>(t.pad_bytes) / n * 8 / (pad_us * 1e3) : 0, "Gbit/s");
  Add(out, "crypto.sha256_commit_us", us("crypto.sha256_commit"), "us");
  Add(out, "round.cleartext_bytes", static_cast<double>(t.cleartext_bytes) / n, "bytes");
  Add(out, "round.participation",
      static_cast<double>(w.participation) / static_cast<double>(std::max<uint64_t>(w.rounds, 1)),
      "count");
  Add(out, "round.useful_frac",
      t.cleartext_bytes > 0
          ? static_cast<double>(t.payload_bytes) / static_cast<double>(t.cleartext_bytes)
          : 0,
      "frac");
}

// Cumulative counters sampled at the edges of a traced window.
struct FleetCounters {
  uint64_t wire_bytes = 0;  // in-process wire probes
  uint64_t reliable_sent = 0;
  uint64_t retransmits = 0;
  uint64_t duplicates_dropped = 0;
  uint64_t max_in_flight = 0;
};

FleetCounters ServerCounters(
    const std::vector<std::unique_ptr<dissent::net::ServerNode>>& servers) {
  FleetCounters c;
  for (const auto& s : servers) {
    c.reliable_sent += s->reliable_sent();
    c.retransmits += s->retransmits();
    c.duplicates_dropped += s->duplicates_dropped();
    c.max_in_flight = std::max<uint64_t>(c.max_in_flight, s->max_in_flight());
  }
  return c;
}

void NetLayers(const FleetCounters& before, const FleetCounters& after, const Window& w,
               double overhead_ms, RunResult* out) {
  const uint64_t sent = after.reliable_sent - before.reliable_sent;
  Add(out, "net.reliable_frames_per_round",
      static_cast<double>(sent) / static_cast<double>(std::max<uint64_t>(w.rounds, 1)),
      "1/round");
  Add(out, "net.retransmit_overhead",
      sent > 0 ? 1.0 + static_cast<double>(after.retransmits - before.retransmits) /
                           static_cast<double>(sent)
               : 1.0,
      "ratio");
  Add(out, "net.duplicates_dropped",
      static_cast<double>(after.duplicates_dropped - before.duplicates_dropped), "count");
  Add(out, "net.max_in_flight", static_cast<double>(after.max_in_flight), "count");
  Add(out, "net.overhead_ms_per_round", overhead_ms, "ms");
}

void SetupLayers(const SetupPhases& p, RunResult* out) {
  Add(out, "setup.keys_s", p.keys_s, "s");
  Add(out, "shuffle.submit_s", p.submit_s, "s");
  Add(out, "shuffle.prove_s", p.prove_s, "s");
  Add(out, "shuffle.verify_s", p.verify_s, "s");
  Add(out, "setup.install_s", p.install_s, "s");
}

void ProcLayers(const Window& untraced, const Window& traced, RunResult* out) {
  Add(out, "proc.cpu_util", (untraced.cpu_end_s - untraced.cpu_start_s) / untraced.wall_s(),
      "frac");
  Add(out, "trace.overhead_frac", 1.0 - traced.rounds_per_s() / untraced.rounds_per_s(), "frac");
}

// One fleet's traced measurement: warm-up, an untraced window, a traced
// window (spans on, per-round probes timed), drain.
struct TracedPhase {
  Window untraced;
  Window traced;
  FleetCounters before;  // at the start of the traced window
  FleetCounters after;   // at its end
  std::map<std::string, Tracer::NameStats> spans;
  RoundProbes::Totals probes;
};

void DriveTraced(const RunUntil& run, Session& session, const WorkloadSpec& spec,
                 const DeployConfig& cfg, double window_s, Tracer* tracer,
                 const std::function<FleetCounters()>& counters, TracedPhase* r, RunResult* res) {
  RoundProbes probes(cfg);
  session.probes = &probes;
  session.tracer = tracer;
  const size_t first_span = tracer->spans().size();
  Drive(run, session, spec, {{window_s, false, &r->untraced}, {window_s, true, &r->traced}},
        [&](bool on) {
          if (on) {
            r->before = counters();
          } else if (tracer->enabled()) {
            r->after = counters();
          }
          tracer->set_enabled(on);
          session.probes_timed = on;
        },
        res);
  session.probes = nullptr;
  r->spans = tracer->StatsByName(first_span);
  r->probes = probes.totals();
  if (r->probes.cert_failures > 0 || r->probes.layout_failures > 0) {
    res->violations.push_back("a probe saw an invalid certificate or slot layout");
  }
}

// Every traced run measures the workload's DeployConfig on both transports:
// the in-process fleet (engine spans, wire probes, set-up phases) and the
// TCP fleet (socket counters, transport overhead). The round probes and the
// tracing cost come from the workload's own transport.
RunResult RunTraced(const WorkloadSpec& spec, const RunOptions& opt) {
  RunResult res;
  const DeployConfig cfg = MakeConfig(spec, opt.seed);
  const double window_s = opt.seconds / 4;
  Tracer tracer;

  TracedPhase ip;
  SetupPhases phases;
  {
    auto fleet = SetupInProc(cfg, &phases, &res);
    if (fleet == nullptr) {
      return res;
    }
    Session session(spec, opt.seed,
                    [&](size_t i) -> dissent::DissentClient& { return fleet->client(i); });
    fleet->set_tracer(&tracer);
    fleet->on_round = [&](const ServerEngine::RoundDone& d) { session.OnRound(d); };
    fleet->on_delivery = [&](size_t i, const ClientEngine::Delivery& d) {
      session.OnDelivery(i, d);
    };
    session.Prime();
    fleet->StartClients();
    DriveTraced(InProcRunner(*fleet), session, spec, cfg, window_s, &tracer,
                [&] {
                  FleetCounters c;
                  c.wire_bytes = fleet->wire_bytes();
                  return c;
                },
                &ip, &res);
    if (fleet->wire_parse_failures() > 0) {
      res.violations.push_back("a probed wire message did not parse back");
    }
  }

  TracedPhase tcp;
  {
    std::unique_ptr<Session> session;
    double seconds = 0;
    auto fleet = SetupTcp(cfg, opt.seed * 131 + 7, &seconds,
                          [&](TcpFleet& f) {
                            session = std::make_unique<Session>(
                                spec, opt.seed,
                                [&f](size_t i) -> dissent::DissentClient& { return f.client(i); });
                            f.servers[0]->on_round = [&](const ServerEngine::RoundDone& d) {
                              session->OnRound(d);
                            };
                            for (auto& h : f.hosts) {
                              h->on_delivery = [&](size_t i, const ClientEngine::Delivery& d) {
                                session->OnDelivery(i, d);
                              };
                            }
                            session->Prime();
                          },
                          &res);
    if (fleet == nullptr) {
      return res;
    }
    DriveTraced(fleet->Runner(), *session, spec, cfg, window_s, &tracer,
                [&] { return ServerCounters(fleet->servers); }, &tcp, &res);
  }

  const TracedPhase& own = spec.tcp ? tcp : ip;
  EngineLayers(ip.spans, ip.traced, spec.tcp ? 1e6 / tcp.untraced.rounds_per_s() : 0,
               ip.after.wire_bytes - ip.before.wire_bytes, &res);
  ProbeLayers(own.spans, own.probes, own.traced, &res);
  SetupLayers(phases, &res);
  NetLayers(tcp.before, tcp.after, tcp.traced,
            Percentile(tcp.untraced.round_ms, 0.5) - Percentile(ip.untraced.round_ms, 0.5), &res);
  ProcLayers(own.untraced, own.traced, &res);
  if (!opt.trace_path.empty() && !tracer.WriteCsv(opt.trace_path)) {
    res.violations.push_back("could not write " + opt.trace_path);
  }
  return res;
}

}  // namespace

std::optional<WorkloadSpec> FindWorkload(const std::string& name) {
  WorkloadSpec s;
  s.name = name;
  if (name == "microblog-256") {
    s.clients = 256;
    s.post_prob = 0.2;
    s.message_bytes = 64;
    s.setup_reps = 5;
  } else if (name == "bulk-64") {
    s.clients = 64;
    s.bulk_senders = 4;
    s.message_bytes = 32 * 1024;
    s.setup_reps = 9;  // a 0.2 s set-up swings with vCPU contention
  } else if (name == "tcp-fleet-100") {
    s.tcp = true;
    s.clients = 100;
    s.post_prob = 0.2;
    s.message_bytes = 64;
    s.warmup_rounds = 30;
  } else {
    return std::nullopt;
  }
  return s;
}

RunResult RunWorkload(const WorkloadSpec& spec, const RunOptions& options) {
  RunResult res = options.trace ? RunTraced(spec, options) : RunUntraced(spec, options);
  res.correct = res.violations.empty() && res.failed == 0;
  return res;
}

}  // namespace perfbench
