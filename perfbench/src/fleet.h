// Zero-latency in-process transport over the public engine API.
//
// InProcFleet owns one ServerEngine per server and one ClientEngine per
// client of a DeployConfig and delivers their envelopes the way Coordinator
// does: one FIFO queue, zero latency, and a virtual clock that advances only
// when the queue is empty and the earliest timer fires. Unlike Coordinator
// the client engines auto-submit (the event-driven shape every real
// transport runs), and the group is built with the deployment discipline of
// src/net/deployment.h (BuildDeployGroup, DeployNodeRng, the per-node
// scheduling cascade), so for the same DeployConfig the cleartexts are
// byte-identical to RunSimReference and to a dissentd fleet.
//
// With a tracer attached, every engine call runs inside a span named by the
// call's protocol role, and every distinct outgoing message is serialized
// and parsed once inside wire.* spans (what a socket transport pays).
#ifndef PERFBENCH_FLEET_H_
#define PERFBENCH_FLEET_H_

#include <deque>
#include <functional>
#include <memory>
#include <vector>

#include "src/core/engine.h"
#include "src/net/deployment.h"
#include "src/trace.h"

namespace perfbench {

// Wall-clock seconds of each setup phase.
struct SetupPhases {
  double keys_s = 0;     // group roster + client/server logic (DH key derivation)
  double submit_s = 0;   // EncryptPseudonymKey x N
  double prove_s = 0;    // KeyShuffleMixStep x M
  double verify_s = 0;   // VerifyMixStep x M
  double install_s = 0;  // slot install, engine construction, server StartSession
  double total_s = 0;
};

class InProcFleet {
 public:
  explicit InProcFleet(dissent::net::DeployConfig cfg);
  ~InProcFleet();
  InProcFleet(const InProcFleet&) = delete;
  InProcFleet& operator=(const InProcFleet&) = delete;

  // Keys, verified shuffle, slot install, and round 1 opened on every
  // server. False if a mix step fails verification.
  bool Setup(SetupPhases* phases);
  // Client engines submit their first pipeline_depth rounds.
  void StartClients();
  // Delivers the oldest queued envelope, or fires the earliest timer when
  // nothing is queued. False when there is nothing left to do.
  bool Step();

  // Server 0's finished rounds, in order.
  std::function<void(const dissent::ServerEngine::RoundDone&)> on_round;
  // Every client delivery (client id, delivery), after the engine call.
  std::function<void(size_t, const dissent::ClientEngine::Delivery&)> on_delivery;
  void set_tracer(Tracer* tracer) { tracer_ = tracer; }
  // Bytes serialized by the wire probes since construction.
  uint64_t wire_bytes() const { return wire_bytes_; }
  // Probed messages that failed to parse back (must stay 0).
  uint64_t wire_parse_failures() const { return wire_parse_failures_; }

  dissent::DissentClient& client(size_t i) { return *clients_[i]; }

 private:
  struct Queued {
    dissent::Peer from;
    dissent::Peer to;
    std::shared_ptr<const dissent::WireMessage> msg;
  };
  struct Timer {
    int64_t due_us;
    uint64_t seq;
    uint32_t owner;
    bool client_owned;
    uint64_t token;
  };
  struct TimerLater {
    bool operator()(const Timer& a, const Timer& b) const {
      return a.due_us != b.due_us ? a.due_us > b.due_us : a.seq > b.seq;
    }
  };

  void DispatchServer(uint32_t j, dissent::ServerEngine::Actions actions);
  void DispatchClient(uint32_t i, dissent::ClientEngine::Actions actions);
  void PushTimers(const std::vector<dissent::TimerRequest>& timers, uint32_t owner,
                  bool client_owned);
  void ProbeWire(const std::shared_ptr<const dissent::WireMessage>& msg);
  const char* ServerSpanName(const dissent::WireMessage& msg) const;

  dissent::net::DeployConfig cfg_;
  dissent::GroupDef def_;
  std::vector<dissent::BigInt> server_privs_;
  std::vector<std::unique_ptr<dissent::DissentClient>> clients_;
  std::vector<std::unique_ptr<dissent::DissentServer>> servers_;
  std::vector<std::unique_ptr<dissent::ClientEngine>> client_engines_;
  std::vector<std::unique_ptr<dissent::ServerEngine>> server_engines_;
  std::vector<std::vector<uint32_t>> attached_;  // per server
  std::vector<uint32_t> upstream_;               // per client

  std::deque<Queued> queue_;
  std::vector<Timer> timers_;
  int64_t vnow_us_ = 0;
  uint64_t frontier_ = 1;  // oldest round server 0 has not finished; tags spans
  uint64_t timer_seq_ = 0;

  Tracer* tracer_ = nullptr;
  std::shared_ptr<const dissent::WireMessage> last_probed_;
  uint64_t wire_bytes_ = 0;
  uint64_t wire_parse_failures_ = 0;
  // Serialized type tag -> span name, for peeking inside Reliable frames.
  const char* tag_span_[256] = {};
};

}  // namespace perfbench

#endif  // PERFBENCH_FLEET_H_
