#include "src/core/output_view.h"

#include <deque>
#include <mutex>

#include "src/core/output_cert.h"

namespace dissent {

namespace {

struct AcceptedOutput {
  GroupDef def;
  uint64_t round = 0;
  Bytes cleartext;
  std::vector<Bytes> signatures;
  SlotSchedule layout;
  std::shared_ptr<const DecodedOutput> decoded;
};

bool SamePolicy(const Policy& a, const Policy& b) {
  return a.alpha == b.alpha && a.hard_deadline == b.hard_deadline &&
         a.window_fraction == b.window_fraction && a.window_multiplier == b.window_multiplier &&
         a.shuffle_request_bits == b.shuffle_request_bits &&
         a.default_slot_length == b.default_slot_length;
}

bool SameGroupDef(const GroupDef& a, const GroupDef& b) {
  return a.group->p() == b.group->p() && a.group->q() == b.group->q() &&
         a.group->g() == b.group->g() && a.server_pubs == b.server_pubs &&
         a.client_pubs == b.client_pubs && SamePolicy(a.policy, b.policy);
}

// Cheapest comparisons first; the roster comparison runs only for an entry
// whose round, signatures, and cleartext already match.
bool Matches(const AcceptedOutput& e, const GroupDef& def, uint64_t round,
             const Bytes& cleartext, const std::vector<Bytes>& signatures) {
  return e.round == round && e.signatures == signatures && e.cleartext == cleartext &&
         SameGroupDef(e.def, def);
}

class AcceptedOutputMemo {
 public:
  std::shared_ptr<const AcceptedOutput> Find(const GroupDef& def, uint64_t round,
                                             const Bytes& cleartext,
                                             const std::vector<Bytes>& signatures) const {
    std::lock_guard<std::mutex> lock(mu_);
    for (auto it = entries_.rbegin(); it != entries_.rend(); ++it) {
      if (Matches(**it, def, round, cleartext, signatures)) {
        return *it;
      }
    }
    return nullptr;
  }

  void Insert(std::shared_ptr<const AcceptedOutput> entry) {
    std::lock_guard<std::mutex> lock(mu_);
    entries_.push_back(std::move(entry));
    while (entries_.size() > kAcceptedOutputMemoCapacity) {
      entries_.pop_front();
    }
  }

  size_t size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return entries_.size();
  }

 private:
  mutable std::mutex mu_;
  std::deque<std::shared_ptr<const AcceptedOutput>> entries_;
};

AcceptedOutputMemo& Memo() {
  static AcceptedOutputMemo memo;
  return memo;
}

}  // namespace

std::shared_ptr<const DecodedOutput> AcceptCertifiedOutput(const GroupDef& def, uint64_t round,
                                                           const Bytes& cleartext,
                                                           const std::vector<Bytes>& signatures,
                                                           const SlotSchedule& layout) {
  if (auto hit = Memo().Find(def, round, cleartext, signatures)) {
    if (hit->layout == layout) {
      return hit->decoded;
    }
    return std::make_shared<const DecodedOutput>(layout.Decode(cleartext));
  }
  if (signatures.size() != def.num_servers()) {
    return nullptr;
  }
  std::vector<SchnorrSignature> sigs;
  sigs.reserve(signatures.size());
  for (const Bytes& bytes : signatures) {
    auto sig = SchnorrSignature::Deserialize(*def.group, bytes);
    if (!sig.has_value()) {
      return nullptr;
    }
    sigs.push_back(std::move(*sig));
  }
  if (!VerifyOutputCertificate(def, round, cleartext, sigs)) {
    return nullptr;
  }
  auto entry = std::make_shared<AcceptedOutput>(
      AcceptedOutput{def, round, cleartext, signatures, layout,
                     std::make_shared<const DecodedOutput>(layout.Decode(cleartext))});
  std::shared_ptr<const DecodedOutput> decoded = entry->decoded;
  Memo().Insert(std::move(entry));
  return decoded;
}

size_t AcceptedOutputMemoSize() { return Memo().size(); }

}  // namespace dissent
