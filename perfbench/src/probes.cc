#include "src/probes.h"

#include <algorithm>
#include <thread>

#include "src/core/cleartext.h"
#include "src/core/output_cert.h"
#include "src/crypto/dh.h"
#include "src/crypto/sha256.h"

namespace perfbench {

namespace {
constexpr char kPadContext[] = "dissent.dcnet";
}  // namespace

RoundProbes::RoundProbes(const dissent::net::DeployConfig& cfg)
    : depth_(std::max<size_t>(cfg.pipeline_depth, 1)),
      rng_(dissent::SecureRng::FromLabel(cfg.seed ^ 0x70726f6265ull)) {
  std::vector<dissent::BigInt> client_privs;
  def_ = dissent::net::BuildDeployGroup(cfg, &server_privs_, &client_privs);
  const dissent::Group& g = *def_.group;
  std::vector<dissent::Bytes> client_keys;
  for (const auto& server_pub : def_.server_pubs) {
    client_keys.push_back(dissent::DeriveSharedKey(g, client_privs[0], server_pub, kPadContext));
  }
  client_pads_ = dissent::PadExpander(client_keys);
  std::vector<dissent::Bytes> server_keys;
  for (size_t i = 0; i < def_.num_clients(); ++i) {
    server_keys.push_back(
        dissent::DeriveSharedKey(g, server_privs_[0], def_.client_pubs[i], kPadContext));
    all_clients_.push_back(static_cast<uint32_t>(i));
  }
  server_pads_ = dissent::PadExpander(server_keys);
  // DissentServer's rule: fan the remaining pads out across hardware
  // threads once 256 or more clients remain.
  if (all_clients_.size() >= 256) {
    server_threads_ = std::max<size_t>(std::min<size_t>(std::thread::hardware_concurrency(), 8), 1);
  }
  const dissent::SlotSchedule initial(def_.num_clients(), def_.policy.default_slot_length);
  window_.assign(depth_, initial);
}

void RoundProbes::OnRound(uint64_t round, const dissent::Bytes& cleartext, bool timed,
                          Tracer* tracer) {
  if (round != next_round_) {
    ++totals_.layout_failures;  // a gap would desynchronize the layout window
    return;
  }
  ++next_round_;
  const dissent::SlotSchedule& layout = window_.front();
  if (cleartext.size() != layout.TotalLength()) {
    ++totals_.layout_failures;
  }
  if (!timed || tracer == nullptr || !tracer->enabled()) {
    dissent::SlotSchedule next = layout;
    next.Advance(cleartext);
    window_.push_back(std::move(next));
    window_.pop_front();
    return;
  }

  ScopedSpan root(tracer, "probe.round", round);
  ++totals_.rounds;
  totals_.cleartext_bytes += cleartext.size();
  {
    std::vector<dissent::SchnorrSignature> sigs;
    {
      ScopedSpan span(tracer, "cert.sign", round);
      for (const auto& priv : server_privs_) {
        sigs.push_back(dissent::SignOutput(def_, round, cleartext, priv, rng_));
      }
    }
    ScopedSpan span(tracer, "cert.verify", round);
    if (!dissent::VerifyOutputCertificate(def_, round, cleartext, sigs)) {
      ++totals_.cert_failures;
    }
  }
  {
    ScopedSpan span(tracer, "slot.decode", round);
    for (size_t i = 0; i < layout.num_slots(); ++i) {
      if (!layout.is_open(i)) {
        continue;
      }
      ++totals_.open_slots;
      auto decoded = dissent::DecodeSlot(layout.ExtractSlot(cleartext, i));
      if (decoded.has_value()) {
        totals_.payload_bytes += decoded->payload.size();
      }
    }
  }
  {
    ScopedSpan span(tracer, "slot.advance", round);
    dissent::SlotSchedule next = layout;
    next.Advance(cleartext);
    window_.push_back(std::move(next));
  }
  window_.pop_front();
  dissent::Bytes buf(cleartext.size(), 0);
  {
    ScopedSpan span(tracer, "dcnet.client_pads", round);
    client_pads_.XorAllPads(round, buf);
  }
  {
    ScopedSpan span(tracer, "dcnet.server_pads", round);
    server_pads_.XorPads(all_clients_, round, buf, server_threads_);
  }
  totals_.pad_bytes += (client_pads_.num_keys() + all_clients_.size()) * buf.size();
  ScopedSpan span(tracer, "crypto.sha256_commit", round);
  dissent::Sha256::Hash(buf);
}

}  // namespace perfbench
