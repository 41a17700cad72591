// dissentd: one Dissent server over real TCP sockets.
//
// Listens on base_port + index for sibling and client-host connections and
// drives a ServerEngine — the distributed key shuffle, then rounds — until
// killed.
//
// Crash discipline: SIGTERM/SIGINT snapshot the full session (the engine
// state, pseudonym keys or scheduling progress included) to --snapshot via
// tmp+rename, then exit 0. On startup, an existing non-empty snapshot file
// resumes that session instead of starting one — kill -TERM + relaunch with
// identical flags is the supported restart path, and the ReliableMailbox
// heals the frames the dead incarnation lost.
//
// Observability: --log appends "<round> <hex-cleartext>" per finished round
// (the harness's byte-identity input); --stats rewrites a small JSON blob
// (rounds, elapsed seconds, wall-clock rounds/sec) when the round target is
// reached and again on shutdown.
#include <fcntl.h>
#include <signal.h>
#include <sys/epoll.h>
#include <sys/signalfd.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <string>

#include "src/bin/deploy_flags.h"
#include "src/net/socket_transport.h"

namespace dissent {
namespace net {
namespace {

Bytes ReadFileBytes(const std::string& path) {
  FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    return {};
  }
  Bytes out;
  uint8_t buf[65536];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) {
    out.insert(out.end(), buf, buf + n);
  }
  std::fclose(f);
  return out;
}

bool WriteFileAtomic(const std::string& path, const Bytes& data) {
  const std::string tmp = path + ".tmp";
  FILE* f = std::fopen(tmp.c_str(), "wb");
  if (f == nullptr) {
    return false;
  }
  const bool ok = data.empty() || std::fwrite(data.data(), 1, data.size(), f) == data.size();
  std::fclose(f);
  return ok && std::rename(tmp.c_str(), path.c_str()) == 0;
}

void WriteStats(const std::string& path, const ServerNode& node, size_t index) {
  if (path.empty()) {
    return;
  }
  const double secs = node.elapsed_seconds();
  const double rps = secs > 0 ? static_cast<double>(node.rounds_completed()) / secs : 0.0;
  // Retransmit overhead: reliable wraps re-sent per first-time wrap. 1.0
  // means no frame ever needed a second send.
  const double overhead =
      node.reliable_sent() > 0
          ? 1.0 + static_cast<double>(node.retransmits()) /
                      static_cast<double>(node.reliable_sent())
          : 1.0;
  char buf[1024];
  std::snprintf(buf, sizeof(buf),
                "{\"index\": %zu, \"rounds\": %" PRIu64
                ", \"seconds\": %.3f, \"wallclock_rounds_per_sec\": %.3f, "
                "\"restored\": %s, \"retransmits\": %" PRIu64
                ", \"pipelined_submissions\": %" PRIu64 ", \"halted\": %s, "
                "\"reliable_sent\": %" PRIu64 ", \"duplicates_dropped\": %" PRIu64
                ", \"max_in_flight\": %" PRIu64 ", \"retransmit_overhead\": %.4f, "
                "\"aborts_agreed\": %" PRIu64 ", \"catch_up_rounds\": %" PRIu64 "}\n",
                index, node.rounds_completed(), secs, rps,
                node.restored() ? "true" : "false", node.retransmits(),
                node.pipelined_submissions(), node.halted() ? "true" : "false",
                node.reliable_sent(), node.duplicates_dropped(), node.max_in_flight(),
                overhead, node.rounds_aborted(), node.catch_up_rounds());
  Bytes b(buf, buf + std::strlen(buf));
  WriteFileAtomic(path, b);
}

int Main(int argc, char** argv) {
  DeployConfig cfg;
  size_t index = SIZE_MAX;
  std::string snapshot_path, log_path, stats_path;
  for (int i = 1; i < argc; ++i) {
    std::string v;
    if (FlagValue(argc, argv, &i, "--index", &v)) {
      index = std::strtoul(v.c_str(), nullptr, 10);
    } else if (FlagValue(argc, argv, &i, "--snapshot", &v)) {
      snapshot_path = v;
    } else if (FlagValue(argc, argv, &i, "--log", &v)) {
      log_path = v;
    } else if (FlagValue(argc, argv, &i, "--stats", &v)) {
      stats_path = v;
    } else if (ParseDeployFlag(argc, argv, &i, &cfg)) {
      // consumed
    } else {
      std::fprintf(stderr, "dissentd: unknown flag %s\n", argv[i]);
      return 2;
    }
  }
  if (index >= cfg.num_servers) {
    std::fprintf(stderr, "dissentd: --index required (< --servers)\n");
    return 2;
  }

  // Block SIGTERM/SIGINT and take them over a signalfd on the loop, so the
  // snapshot is written from loop context with no async-signal gymnastics.
  sigset_t mask;
  sigemptyset(&mask);
  sigaddset(&mask, SIGTERM);
  sigaddset(&mask, SIGINT);
  sigprocmask(SIG_BLOCK, &mask, nullptr);
  signal(SIGPIPE, SIG_IGN);
  const int sfd = signalfd(-1, &mask, SFD_NONBLOCK | SFD_CLOEXEC);

  EventLoop loop;
  ServerNode node(&loop, cfg, index);
  if (!node.Listen()) {
    std::fprintf(stderr, "dissentd %zu: bind %s:%u failed\n", index, cfg.host.c_str(),
                 cfg.server_port(index));
    return 1;
  }

  if (!snapshot_path.empty()) {
    Bytes snap = ReadFileBytes(snapshot_path);
    if (!snap.empty()) {
      if (!node.RestoreFromSnapshot(snap)) {
        std::fprintf(stderr, "dissentd %zu: snapshot restore failed\n", index);
        return 1;
      }
      std::fprintf(stderr, "dissentd %zu: restored from snapshot\n", index);
    }
  }

  FILE* log = nullptr;
  if (!log_path.empty()) {
    log = std::fopen(log_path.c_str(), "ae");
    if (log == nullptr) {
      std::fprintf(stderr, "dissentd %zu: cannot open log %s\n", index, log_path.c_str());
      return 1;
    }
  }
  node.on_round = [&](const ServerEngine::RoundDone& done) {
    // Rounds past the target carry empty client queues (auto-submit keeps
    // the pipeline running); the comparison fixture stops at the target.
    if (log != nullptr && done.completed && done.round <= cfg.rounds) {
      std::fprintf(log, "%" PRIu64 " %s\n", done.round, ToHex(done.cleartext).c_str());
      std::fflush(log);
    }
  };
  node.on_target_rounds = [&] { WriteStats(stats_path, node, index); };

  if (sfd >= 0) {
    loop.AddFd(sfd, EPOLLIN, [&](uint32_t) {
      signalfd_siginfo si;
      while (read(sfd, &si, sizeof(si)) == sizeof(si)) {
      }
      loop.Stop();
    });
  }

  node.Start();
  loop.Run();

  if (!snapshot_path.empty()) {
    const Bytes snap = node.SnapshotBytes();
    if (!snap.empty() && !WriteFileAtomic(snapshot_path, snap)) {
      std::fprintf(stderr, "dissentd %zu: snapshot write failed\n", index);
      return 1;
    }
  }
  WriteStats(stats_path, node, index);
  if (log != nullptr) {
    std::fclose(log);
  }
  return 0;
}

}  // namespace
}  // namespace net
}  // namespace dissent

int main(int argc, char** argv) { return dissent::net::Main(argc, argv); }
