// Certified-output acceptance shared by the clients of one process.
//
// Every client checks the all-server certificate on each round output and
// decodes its open slots (Algorithm 1 step 3). When many clients share a
// process (a `dissent-client --clients-per-host` host, a NetDissent
// machine, an in-process fleet), they all receive the *same* certified
// bytes, so the multi-verify and the decode are done once per process and
// the result is shared.
//
// Ownership and thread safety: the memo is process-wide, bounded to
// kAcceptedOutputMemoCapacity entries (oldest evicted first), and guarded by
// one mutex held only for lookup and insertion — verification and decoding
// run outside it. Entries are immutable once inserted and handed out as
// shared_ptr<const ...>, so a caller may keep using a decode after its
// entry is evicted. Only outputs whose certificate verified are ever
// inserted. An entry is reused only when the GroupDef (compared by value:
// group parameters, both rosters, policy), the round, the exact cleartext
// bytes, and the exact raw signature bytes all match — never by address or
// by hash — so a forged output can never ride an earlier acceptance. Its
// decode is reused only for a caller whose layout for that round is equal;
// any other caller decodes against its own layout.
#ifndef DISSENT_CORE_OUTPUT_VIEW_H_
#define DISSENT_CORE_OUTPUT_VIEW_H_

#include <memory>
#include <vector>

#include "src/core/group_def.h"
#include "src/core/slot_schedule.h"

namespace dissent {

constexpr size_t kAcceptedOutputMemoCapacity = 8;

// Verifies `signatures` (raw wire bytes, roster order) as the certificate of
// (round, cleartext) under `def` and returns the output decoded under
// `layout`, or nullptr when the certificate does not parse or verify.
std::shared_ptr<const DecodedOutput> AcceptCertifiedOutput(const GroupDef& def, uint64_t round,
                                                           const Bytes& cleartext,
                                                           const std::vector<Bytes>& signatures,
                                                           const SlotSchedule& layout);

// Entries currently held by the process-wide memo (tests).
size_t AcceptedOutputMemoSize();

}  // namespace dissent

#endif  // DISSENT_CORE_OUTPUT_VIEW_H_
