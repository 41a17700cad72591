// Per-round layer probes for the traced run.
//
// Once per certified round, on that round's real cleartext, the probes time
// one call into each data-plane layer through its public function:
//   cert.sign / cert.verify  SignOutput x M, VerifyOutputCertificate
//   slot.decode              DecodeSlot(ExtractSlot) over every open slot
//   slot.advance             SlotSchedule::Advance on a copy of the layout
//   dcnet.client_pads        PadExpander::XorAllPads over one client's M keys
//   dcnet.server_pads        PadExpander::XorPads over server 0's N keys
//   crypto.sha256_commit     Sha256 over L bytes (the commitment hash)
// The probe keeps its own lagged slot-schedule window (layout of round r is
// the layout of r-depth advanced by output r-depth), so it must see every
// round in order even while untimed.
#ifndef PERFBENCH_PROBES_H_
#define PERFBENCH_PROBES_H_

#include <cstdint>
#include <deque>
#include <vector>

#include "src/core/dcnet.h"
#include "src/core/group_def.h"
#include "src/core/slot_schedule.h"
#include "src/net/deployment.h"
#include "src/trace.h"

namespace perfbench {

class RoundProbes {
 public:
  explicit RoundProbes(const dissent::net::DeployConfig& cfg);

  struct Totals {
    uint64_t rounds = 0;           // timed rounds
    uint64_t open_slots = 0;
    uint64_t cleartext_bytes = 0;  // L summed over timed rounds
    uint64_t payload_bytes = 0;    // decoded application payload
    uint64_t pad_bytes = 0;        // pad bytes expanded by the dcnet probes
    uint64_t cert_failures = 0;
    uint64_t layout_failures = 0;  // cleartext length != expected layout
  };

  // Feeds certified round `round` (strictly in order). With `timed`, runs
  // every probe inside spans on `tracer`.
  void OnRound(uint64_t round, const dissent::Bytes& cleartext, bool timed, Tracer* tracer);
  const Totals& totals() const { return totals_; }

 private:
  size_t depth_;
  dissent::GroupDef def_;
  std::vector<dissent::BigInt> server_privs_;
  dissent::PadExpander client_pads_;  // client 0's M server keys
  dissent::PadExpander server_pads_;  // server 0's N client keys
  std::vector<uint32_t> all_clients_;
  size_t server_threads_ = 1;
  std::deque<dissent::SlotSchedule> window_;
  uint64_t next_round_ = 1;
  dissent::SecureRng rng_;
  Totals totals_;
};

}  // namespace perfbench

#endif  // PERFBENCH_PROBES_H_
