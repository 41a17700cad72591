#include "src/core/wire.h"

#include "src/util/serialize.h"

namespace dissent {

namespace {

enum class Tag : uint8_t {
  kClientSubmit = 1,
  kInventory = 2,
  kCommit = 3,
  kServerCiphertext = 4,
  kSignatureShare = 5,
  kOutput = 6,
  kAccusationSubmit = 7,
  kBlameVerdict = 8,
  kBlameStart = 9,
  kBlameRoster = 10,
  kBlameMix = 11,
  kTraceEvidence = 12,
  kBlameChallenge = 13,
  kBlameRebuttal = 14,
  kAck = 15,
  kReliable = 16,
  kCatchUpRequest = 17,
  kRoundSummary = 18,
  kVerdictShare = 19,
  kRoundAbort = 20,
  kAbortPrepare = 21,
  kAbortCommit = 22,
  kServerCatchUpRequest = 23,
  kServerCatchUpBatch = 24,
  kSlotKeys = 25,
};

}  // namespace

// IsBlamePhaseMessage relies on the blame messages occupying a contiguous
// variant range [6, 13]; the reliability/recovery frames and SlotKeys are
// appended after so existing index-based dispatch never shifts.
static_assert(std::is_same_v<std::variant_alternative_t<6, WireMessage>, wire::BlameStart>,
              "blame messages must start at variant index 6");
static_assert(std::is_same_v<std::variant_alternative_t<13, WireMessage>, wire::BlameVerdict>,
              "BlameVerdict must close the blame range at variant index 13");
static_assert(std::is_same_v<std::variant_alternative_t<std::variant_size_v<WireMessage> - 1,
                                                        WireMessage>,
              wire::SlotKeys>,
              "new frames must stay appended after the blame range");

bool BitmapCanonical(const Bytes& bitmap, size_t bits) {
  if (bitmap.size() != (bits + 7) / 8) {
    return false;
  }
  if (bits % 8 != 0 && !bitmap.empty() &&
      (bitmap.back() & static_cast<uint8_t>(0xff << (bits % 8))) != 0) {
    return false;
  }
  return true;
}

Bytes SerializeWire(const WireMessage& msg) {
  Writer w;
  SerializeWireTo(msg, w);
  return w.Take();
}

void SerializeWireTo(const WireMessage& msg, Writer& w) {
  std::visit(
      [&w](const auto& m) {
        using T = std::decay_t<decltype(m)>;
        if constexpr (std::is_same_v<T, wire::ClientSubmit>) {
          w.U8(static_cast<uint8_t>(Tag::kClientSubmit));
          w.U64(m.round);
          w.U32(m.client_id);
          w.Blob(m.ciphertext);
        } else if constexpr (std::is_same_v<T, wire::Inventory>) {
          w.U8(static_cast<uint8_t>(Tag::kInventory));
          w.U64(m.round);
          w.U32(m.server_id);
          w.U32(static_cast<uint32_t>(m.clients.size()));
          for (uint32_t id : m.clients) {
            w.U32(id);
          }
        } else if constexpr (std::is_same_v<T, wire::Commit>) {
          w.U8(static_cast<uint8_t>(Tag::kCommit));
          w.U64(m.round);
          w.U32(m.server_id);
          w.Blob(m.commitment);
        } else if constexpr (std::is_same_v<T, wire::ServerCiphertext>) {
          w.U8(static_cast<uint8_t>(Tag::kServerCiphertext));
          w.U64(m.round);
          w.U32(m.server_id);
          w.Blob(m.ciphertext);
        } else if constexpr (std::is_same_v<T, wire::SignatureShare>) {
          w.U8(static_cast<uint8_t>(Tag::kSignatureShare));
          w.U64(m.round);
          w.U32(m.server_id);
          w.Blob(m.signature);
        } else if constexpr (std::is_same_v<T, wire::Output>) {
          w.U8(static_cast<uint8_t>(Tag::kOutput));
          w.U64(m.round);
          w.Blob(m.cleartext);
          w.U32(static_cast<uint32_t>(m.signatures.size()));
          for (const Bytes& sig : m.signatures) {
            w.Blob(sig);
          }
        } else if constexpr (std::is_same_v<T, wire::BlameStart>) {
          w.U8(static_cast<uint8_t>(Tag::kBlameStart));
          w.U64(m.session);
        } else if constexpr (std::is_same_v<T, wire::AccusationSubmit>) {
          w.U8(static_cast<uint8_t>(Tag::kAccusationSubmit));
          w.U64(m.session);
          w.U32(m.client_id);
          w.Blob(m.blame_ciphertext);
          w.Blob(m.signature);
        } else if constexpr (std::is_same_v<T, wire::BlameRoster>) {
          w.U8(static_cast<uint8_t>(Tag::kBlameRoster));
          w.U64(m.session);
          w.U32(m.server_id);
          w.U32(static_cast<uint32_t>(m.entries.size()));
          for (const auto& entry : m.entries) {
            w.U32(entry.client_id);
            w.Blob(entry.row);
            w.Blob(entry.signature);
          }
        } else if constexpr (std::is_same_v<T, wire::BlameMix>) {
          w.U8(static_cast<uint8_t>(Tag::kBlameMix));
          w.U64(m.session);
          w.U32(m.server_id);
          w.Blob(m.step);
        } else if constexpr (std::is_same_v<T, wire::TraceEvidence>) {
          w.U8(static_cast<uint8_t>(Tag::kTraceEvidence));
          w.U64(m.session);
          w.U32(m.server_id);
          w.U64(m.round);
          w.U64(m.bit_index);
          w.Bool(m.present);
          w.U32(static_cast<uint32_t>(m.own_share.size()));
          for (uint32_t id : m.own_share) {
            w.U32(id);
          }
          w.Blob(m.client_ct_bits);
          w.U8(m.server_ct_bit);
          w.Blob(m.pad_bits);
        } else if constexpr (std::is_same_v<T, wire::BlameChallenge>) {
          w.U8(static_cast<uint8_t>(Tag::kBlameChallenge));
          w.U64(m.session);
          w.U64(m.round);
          w.U64(m.bit_index);
          w.U32(m.client_id);
          w.Blob(m.pad_bits);
        } else if constexpr (std::is_same_v<T, wire::BlameRebuttal>) {
          w.U8(static_cast<uint8_t>(Tag::kBlameRebuttal));
          w.U64(m.session);
          w.U32(m.client_id);
          w.Blob(m.rebuttal);
          w.Blob(m.signature);
        } else if constexpr (std::is_same_v<T, wire::BlameVerdict>) {
          w.U8(static_cast<uint8_t>(Tag::kBlameVerdict));
          w.U64(m.session);
          w.U64(m.round);
          w.U8(m.kind);
          w.U32(m.culprit);
        } else if constexpr (std::is_same_v<T, wire::Ack>) {
          w.U8(static_cast<uint8_t>(Tag::kAck));
          w.U64(m.seq);
          w.U32(m.from_id);
          w.U32(m.to_id);
          w.Blob(m.sack);
        } else if constexpr (std::is_same_v<T, wire::Reliable>) {
          w.U8(static_cast<uint8_t>(Tag::kReliable));
          w.U64(m.seq);
          w.U32(m.from_id);
          w.U32(m.to_id);
          w.Blob(m.inner);
        } else if constexpr (std::is_same_v<T, wire::CatchUpRequest>) {
          w.U8(static_cast<uint8_t>(Tag::kCatchUpRequest));
          w.U64(m.have_round);
          w.U32(m.client_id);
        } else if constexpr (std::is_same_v<T, wire::RoundSummary>) {
          w.U8(static_cast<uint8_t>(Tag::kRoundSummary));
          w.U64(m.round);
          w.Bool(m.aborted);
          w.Blob(m.cleartext);
          w.U32(static_cast<uint32_t>(m.signatures.size()));
          for (const Bytes& sig : m.signatures) {
            w.Blob(sig);
          }
          w.U64(m.final_round);
        } else if constexpr (std::is_same_v<T, wire::VerdictShare>) {
          w.U8(static_cast<uint8_t>(Tag::kVerdictShare));
          w.U64(m.session);
          w.U32(m.server_id);
          w.U64(m.round);
          w.U8(m.kind);
          w.U32(m.culprit);
          w.Blob(m.signature);
        } else if constexpr (std::is_same_v<T, wire::RoundAbort>) {
          w.U8(static_cast<uint8_t>(Tag::kRoundAbort));
          w.U64(m.round);
          w.U32(m.server_id);
        } else if constexpr (std::is_same_v<T, wire::AbortPrepare>) {
          w.U8(static_cast<uint8_t>(Tag::kAbortPrepare));
          w.U64(m.round);
          w.U64(m.epoch);
          w.U32(m.server_id);
          w.Blob(m.signature);
        } else if constexpr (std::is_same_v<T, wire::AbortCommit>) {
          w.U8(static_cast<uint8_t>(Tag::kAbortCommit));
          w.U64(m.round);
          w.U64(m.epoch);
          w.U32(static_cast<uint32_t>(m.server_ids.size()));
          for (uint32_t id : m.server_ids) {
            w.U32(id);
          }
          for (const Bytes& sig : m.signatures) {
            w.Blob(sig);
          }
        } else if constexpr (std::is_same_v<T, wire::ServerCatchUpRequest>) {
          w.U8(static_cast<uint8_t>(Tag::kServerCatchUpRequest));
          w.U64(m.have_round);
          w.U32(m.server_id);
        } else if constexpr (std::is_same_v<T, wire::ServerCatchUpBatch>) {
          w.U8(static_cast<uint8_t>(Tag::kServerCatchUpBatch));
          w.U32(m.server_id);
          w.U64(m.first_round);
          w.U64(m.final_round);
          w.U32(static_cast<uint32_t>(m.entries.size()));
          for (const auto& entry : m.entries) {
            w.Bool(entry.aborted);
            w.Blob(entry.cleartext);
            w.U32(static_cast<uint32_t>(entry.cert_ids.size()));
            for (uint32_t id : entry.cert_ids) {
              w.U32(id);
            }
            w.U32(static_cast<uint32_t>(entry.signatures.size()));
            for (const Bytes& sig : entry.signatures) {
              w.Blob(sig);
            }
          }
        } else if constexpr (std::is_same_v<T, wire::SlotKeys>) {
          w.U8(static_cast<uint8_t>(Tag::kSlotKeys));
          w.U32(static_cast<uint32_t>(m.keys.size()));
          for (const Bytes& key : m.keys) {
            w.Blob(key);
          }
        }
      },
      msg);
}

std::optional<WireMessage> ParseWire(const Bytes& data) {
  Reader r(data);
  uint8_t tag;
  if (!r.U8(&tag)) {
    return std::nullopt;
  }
  switch (static_cast<Tag>(tag)) {
    case Tag::kClientSubmit: {
      wire::ClientSubmit m;
      if (!r.U64(&m.round) || !r.U32(&m.client_id) || !r.Blob(&m.ciphertext) || !r.AtEnd()) {
        return std::nullopt;
      }
      return WireMessage(std::move(m));
    }
    case Tag::kInventory: {
      wire::Inventory m;
      uint32_t count;
      if (!r.U64(&m.round) || !r.U32(&m.server_id) || !r.U32(&count)) {
        return std::nullopt;
      }
      // Hostile-count guard: every entry takes 4 bytes, so a count larger
      // than the remaining input is malformed — reject before allocating.
      if (static_cast<size_t>(count) > r.remaining() / 4) {
        return std::nullopt;
      }
      m.clients.reserve(count);
      for (uint32_t k = 0; k < count; ++k) {
        uint32_t id;
        if (!r.U32(&id)) {
          return std::nullopt;
        }
        // Canonical: strictly increasing (inventories are sorted sets).
        if (!m.clients.empty() && id <= m.clients.back()) {
          return std::nullopt;
        }
        m.clients.push_back(id);
      }
      if (!r.AtEnd()) {
        return std::nullopt;
      }
      return WireMessage(std::move(m));
    }
    case Tag::kCommit: {
      wire::Commit m;
      if (!r.U64(&m.round) || !r.U32(&m.server_id) || !r.Blob(&m.commitment) || !r.AtEnd()) {
        return std::nullopt;
      }
      return WireMessage(std::move(m));
    }
    case Tag::kServerCiphertext: {
      wire::ServerCiphertext m;
      if (!r.U64(&m.round) || !r.U32(&m.server_id) || !r.Blob(&m.ciphertext) || !r.AtEnd()) {
        return std::nullopt;
      }
      return WireMessage(std::move(m));
    }
    case Tag::kSignatureShare: {
      wire::SignatureShare m;
      if (!r.U64(&m.round) || !r.U32(&m.server_id) || !r.Blob(&m.signature) || !r.AtEnd()) {
        return std::nullopt;
      }
      return WireMessage(std::move(m));
    }
    case Tag::kOutput: {
      wire::Output m;
      uint32_t count;
      if (!r.U64(&m.round) || !r.Blob(&m.cleartext) || !r.U32(&count)) {
        return std::nullopt;
      }
      // Each signature blob carries at least its 4-byte length prefix.
      if (static_cast<size_t>(count) > r.remaining() / 4) {
        return std::nullopt;
      }
      m.signatures.reserve(count);
      for (uint32_t k = 0; k < count; ++k) {
        Bytes sig;
        if (!r.Blob(&sig)) {
          return std::nullopt;
        }
        m.signatures.push_back(std::move(sig));
      }
      if (!r.AtEnd()) {
        return std::nullopt;
      }
      return WireMessage(std::move(m));
    }
    case Tag::kBlameStart: {
      wire::BlameStart m;
      if (!r.U64(&m.session) || !r.AtEnd()) {
        return std::nullopt;
      }
      return WireMessage(std::move(m));
    }
    case Tag::kAccusationSubmit: {
      wire::AccusationSubmit m;
      if (!r.U64(&m.session) || !r.U32(&m.client_id) || !r.Blob(&m.blame_ciphertext) ||
          !r.Blob(&m.signature) || !r.AtEnd()) {
        return std::nullopt;
      }
      return WireMessage(std::move(m));
    }
    case Tag::kBlameRoster: {
      wire::BlameRoster m;
      uint32_t count;
      if (!r.U64(&m.session) || !r.U32(&m.server_id) || !r.U32(&count)) {
        return std::nullopt;
      }
      // Each entry carries at least an id plus two blob length prefixes.
      if (static_cast<size_t>(count) > r.remaining() / 12) {
        return std::nullopt;
      }
      m.entries.reserve(count);
      for (uint32_t k = 0; k < count; ++k) {
        wire::BlameRosterEntry entry;
        if (!r.U32(&entry.client_id) || !r.Blob(&entry.row) || !r.Blob(&entry.signature)) {
          return std::nullopt;
        }
        // Canonical: strictly increasing client ids (rosters are sorted
        // sets, and the merged shuffle input must be identical everywhere).
        if (!m.entries.empty() && entry.client_id <= m.entries.back().client_id) {
          return std::nullopt;
        }
        m.entries.push_back(std::move(entry));
      }
      if (!r.AtEnd()) {
        return std::nullopt;
      }
      return WireMessage(std::move(m));
    }
    case Tag::kBlameMix: {
      wire::BlameMix m;
      if (!r.U64(&m.session) || !r.U32(&m.server_id) || !r.Blob(&m.step) || !r.AtEnd()) {
        return std::nullopt;
      }
      return WireMessage(std::move(m));
    }
    case Tag::kTraceEvidence: {
      wire::TraceEvidence m;
      uint32_t count;
      if (!r.U64(&m.session) || !r.U32(&m.server_id) || !r.U64(&m.round) ||
          !r.U64(&m.bit_index) || !r.Bool(&m.present) || !r.U32(&count)) {
        return std::nullopt;
      }
      if (static_cast<size_t>(count) > r.remaining() / 4) {
        return std::nullopt;
      }
      m.own_share.reserve(count);
      for (uint32_t k = 0; k < count; ++k) {
        uint32_t id;
        if (!r.U32(&id)) {
          return std::nullopt;
        }
        if (!m.own_share.empty() && id <= m.own_share.back()) {
          return std::nullopt;  // canonical: strictly increasing
        }
        m.own_share.push_back(id);
      }
      if (!r.Blob(&m.client_ct_bits) || !r.U8(&m.server_ct_bit) || !r.Blob(&m.pad_bits) ||
          !r.AtEnd()) {
        return std::nullopt;
      }
      if (m.server_ct_bit > 1) {
        return std::nullopt;
      }
      // client_ct_bits covers exactly the own_share list; pad_bits covers the
      // composite list, whose size only the engine knows — its stray-bit
      // check happens there.
      if (!BitmapCanonical(m.client_ct_bits, m.own_share.size())) {
        return std::nullopt;
      }
      return WireMessage(std::move(m));
    }
    case Tag::kBlameChallenge: {
      wire::BlameChallenge m;
      if (!r.U64(&m.session) || !r.U64(&m.round) || !r.U64(&m.bit_index) ||
          !r.U32(&m.client_id) || !r.Blob(&m.pad_bits) || !r.AtEnd()) {
        return std::nullopt;
      }
      return WireMessage(std::move(m));
    }
    case Tag::kBlameRebuttal: {
      wire::BlameRebuttal m;
      if (!r.U64(&m.session) || !r.U32(&m.client_id) || !r.Blob(&m.rebuttal) ||
          !r.Blob(&m.signature) || !r.AtEnd()) {
        return std::nullopt;
      }
      return WireMessage(std::move(m));
    }
    case Tag::kBlameVerdict: {
      wire::BlameVerdict m;
      if (!r.U64(&m.session) || !r.U64(&m.round) || !r.U8(&m.kind) || !r.U32(&m.culprit) ||
          !r.AtEnd()) {
        return std::nullopt;
      }
      if (m.kind > wire::BlameVerdict::kServerExposed) {
        return std::nullopt;
      }
      return WireMessage(std::move(m));
    }
    case Tag::kAck: {
      wire::Ack m;
      if (!r.U64(&m.seq) || !r.U32(&m.from_id) || !r.U32(&m.to_id) ||
          !r.Blob(&m.sack) || !r.AtEnd()) {
        return std::nullopt;
      }
      // A sack bitmap wider than any sane retransmission window is hostile;
      // canonical form also forbids a trailing all-zero byte (one encoding
      // per acknowledgement set).
      if (m.sack.size() > 1024 || (!m.sack.empty() && m.sack.back() == 0)) {
        return std::nullopt;
      }
      return WireMessage(std::move(m));
    }
    case Tag::kReliable: {
      wire::Reliable m;
      if (!r.U64(&m.seq) || !r.U32(&m.from_id) || !r.U32(&m.to_id) ||
          !r.Blob(&m.inner) || !r.AtEnd()) {
        return std::nullopt;
      }
      // The inner frame is itself a WireMessage, so it carries at least a
      // tag byte. Nesting (Reliable-in-Reliable, acked Acks) is rejected
      // here so a hostile peer cannot build recursive towers.
      if (m.inner.empty() || m.inner[0] == static_cast<uint8_t>(Tag::kReliable) ||
          m.inner[0] == static_cast<uint8_t>(Tag::kAck)) {
        return std::nullopt;
      }
      return WireMessage(std::move(m));
    }
    case Tag::kCatchUpRequest: {
      wire::CatchUpRequest m;
      if (!r.U64(&m.have_round) || !r.U32(&m.client_id) || !r.AtEnd()) {
        return std::nullopt;
      }
      return WireMessage(std::move(m));
    }
    case Tag::kRoundSummary: {
      wire::RoundSummary m;
      uint32_t count;
      if (!r.U64(&m.round) || !r.Bool(&m.aborted) || !r.Blob(&m.cleartext) || !r.U32(&count)) {
        return std::nullopt;
      }
      if (static_cast<size_t>(count) > r.remaining() / 4) {
        return std::nullopt;
      }
      m.signatures.reserve(count);
      for (uint32_t k = 0; k < count; ++k) {
        Bytes sig;
        if (!r.Blob(&sig)) {
          return std::nullopt;
        }
        m.signatures.push_back(std::move(sig));
      }
      if (!r.U64(&m.final_round) || !r.AtEnd()) {
        return std::nullopt;
      }
      // Canonical: an aborted round has no cleartext and no signatures.
      if (m.aborted && (!m.cleartext.empty() || !m.signatures.empty())) {
        return std::nullopt;
      }
      return WireMessage(std::move(m));
    }
    case Tag::kVerdictShare: {
      wire::VerdictShare m;
      if (!r.U64(&m.session) || !r.U32(&m.server_id) || !r.U64(&m.round) || !r.U8(&m.kind) ||
          !r.U32(&m.culprit) || !r.Blob(&m.signature) || !r.AtEnd()) {
        return std::nullopt;
      }
      if (m.kind > wire::BlameVerdict::kServerExposed) {
        return std::nullopt;
      }
      return WireMessage(std::move(m));
    }
    case Tag::kRoundAbort: {
      wire::RoundAbort m;
      if (!r.U64(&m.round) || !r.U32(&m.server_id) || !r.AtEnd()) {
        return std::nullopt;
      }
      return WireMessage(std::move(m));
    }
    case Tag::kAbortPrepare: {
      wire::AbortPrepare m;
      if (!r.U64(&m.round) || !r.U64(&m.epoch) || !r.U32(&m.server_id) ||
          !r.Blob(&m.signature) || !r.AtEnd()) {
        return std::nullopt;
      }
      // A prepare is a signed vote; an unsigned one can never validate, so
      // reject it here and keep the engine's signature path total.
      if (m.signature.empty()) {
        return std::nullopt;
      }
      return WireMessage(std::move(m));
    }
    case Tag::kAbortCommit: {
      wire::AbortCommit m;
      uint32_t count;
      if (!r.U64(&m.round) || !r.U64(&m.epoch) || !r.U32(&count)) {
        return std::nullopt;
      }
      // Each certificate member carries a 4-byte id plus at least a 4-byte
      // signature length prefix.
      if (count == 0 || static_cast<size_t>(count) > r.remaining() / 8) {
        return std::nullopt;
      }
      m.server_ids.reserve(count);
      for (uint32_t k = 0; k < count; ++k) {
        uint32_t id;
        if (!r.U32(&id)) {
          return std::nullopt;
        }
        // Canonical: strictly increasing signer set — one encoding per
        // certificate, and duplicate signers can never pad the quorum.
        if (!m.server_ids.empty() && id <= m.server_ids.back()) {
          return std::nullopt;
        }
        m.server_ids.push_back(id);
      }
      m.signatures.reserve(count);
      for (uint32_t k = 0; k < count; ++k) {
        Bytes sig;
        if (!r.Blob(&sig) || sig.empty()) {
          return std::nullopt;
        }
        m.signatures.push_back(std::move(sig));
      }
      if (!r.AtEnd()) {
        return std::nullopt;
      }
      return WireMessage(std::move(m));
    }
    case Tag::kServerCatchUpRequest: {
      wire::ServerCatchUpRequest m;
      if (!r.U64(&m.have_round) || !r.U32(&m.server_id) || !r.AtEnd()) {
        return std::nullopt;
      }
      return WireMessage(std::move(m));
    }
    case Tag::kServerCatchUpBatch: {
      wire::ServerCatchUpBatch m;
      uint32_t count;
      if (!r.U32(&m.server_id) || !r.U64(&m.first_round) || !r.U64(&m.final_round) ||
          !r.U32(&count)) {
        return std::nullopt;
      }
      // Each entry carries at least a flag byte plus three 4-byte length /
      // count prefixes.
      if (static_cast<size_t>(count) > r.remaining() / 13) {
        return std::nullopt;
      }
      m.entries.reserve(count);
      for (uint32_t k = 0; k < count; ++k) {
        wire::ServerCatchUpEntry entry;
        uint32_t ids;
        if (!r.Bool(&entry.aborted) || !r.Blob(&entry.cleartext) || !r.U32(&ids)) {
          return std::nullopt;
        }
        if (static_cast<size_t>(ids) > r.remaining() / 4) {
          return std::nullopt;
        }
        entry.cert_ids.reserve(ids);
        for (uint32_t j = 0; j < ids; ++j) {
          uint32_t id;
          if (!r.U32(&id)) {
            return std::nullopt;
          }
          if (!entry.cert_ids.empty() && id <= entry.cert_ids.back()) {
            return std::nullopt;  // canonical: strictly increasing
          }
          entry.cert_ids.push_back(id);
        }
        uint32_t sigs;
        if (!r.U32(&sigs)) {
          return std::nullopt;
        }
        if (static_cast<size_t>(sigs) > r.remaining() / 4) {
          return std::nullopt;
        }
        entry.signatures.reserve(sigs);
        for (uint32_t j = 0; j < sigs; ++j) {
          Bytes sig;
          if (!r.Blob(&sig) || sig.empty()) {
            return std::nullopt;
          }
          entry.signatures.push_back(std::move(sig));
        }
        // Canonical: an aborted entry replays a certificate (no cleartext,
        // signer ids parallel to signatures); a completed entry replays the
        // certified output (no signer list — the full fleet signed it).
        if (entry.aborted) {
          if (!entry.cleartext.empty() || entry.cert_ids.size() != entry.signatures.size() ||
              entry.signatures.empty()) {
            return std::nullopt;
          }
        } else if (!entry.cert_ids.empty() || entry.signatures.empty()) {
          return std::nullopt;
        }
        m.entries.push_back(std::move(entry));
      }
      if (!r.AtEnd()) {
        return std::nullopt;
      }
      return WireMessage(std::move(m));
    }
    case Tag::kSlotKeys: {
      wire::SlotKeys m;
      uint32_t count;
      // Each key blob carries at least its 4-byte length prefix.
      if (!r.U32(&count) || static_cast<size_t>(count) > r.remaining() / 4) {
        return std::nullopt;
      }
      m.keys.reserve(count);
      for (uint32_t k = 0; k < count; ++k) {
        Bytes key;
        if (!r.Blob(&key)) {
          return std::nullopt;
        }
        m.keys.push_back(std::move(key));
      }
      if (!r.AtEnd()) {
        return std::nullopt;
      }
      return WireMessage(std::move(m));
    }
    default:
      return std::nullopt;
  }
}

std::shared_ptr<const Bytes> SerializeWireShared(const WireMessage& msg) {
  return std::make_shared<const Bytes>(SerializeWire(msg));
}

std::shared_ptr<const WireMessage> ParseWireShared(const Bytes& data) {
  auto msg = ParseWire(data);
  if (!msg.has_value()) {
    return nullptr;
  }
  return std::make_shared<const WireMessage>(std::move(*msg));
}

const char* WireTypeName(const WireMessage& msg) {
  return std::visit(
      [](const auto& m) -> const char* {
        using T = std::decay_t<decltype(m)>;
        if constexpr (std::is_same_v<T, wire::ClientSubmit>) {
          return "ClientSubmit";
        } else if constexpr (std::is_same_v<T, wire::Inventory>) {
          return "Inventory";
        } else if constexpr (std::is_same_v<T, wire::Commit>) {
          return "Commit";
        } else if constexpr (std::is_same_v<T, wire::ServerCiphertext>) {
          return "ServerCiphertext";
        } else if constexpr (std::is_same_v<T, wire::SignatureShare>) {
          return "SignatureShare";
        } else if constexpr (std::is_same_v<T, wire::Output>) {
          return "Output";
        } else if constexpr (std::is_same_v<T, wire::BlameStart>) {
          return "BlameStart";
        } else if constexpr (std::is_same_v<T, wire::AccusationSubmit>) {
          return "AccusationSubmit";
        } else if constexpr (std::is_same_v<T, wire::BlameRoster>) {
          return "BlameRoster";
        } else if constexpr (std::is_same_v<T, wire::BlameMix>) {
          return "BlameMix";
        } else if constexpr (std::is_same_v<T, wire::TraceEvidence>) {
          return "TraceEvidence";
        } else if constexpr (std::is_same_v<T, wire::BlameChallenge>) {
          return "BlameChallenge";
        } else if constexpr (std::is_same_v<T, wire::BlameRebuttal>) {
          return "BlameRebuttal";
        } else if constexpr (std::is_same_v<T, wire::BlameVerdict>) {
          return "BlameVerdict";
        } else if constexpr (std::is_same_v<T, wire::Ack>) {
          return "Ack";
        } else if constexpr (std::is_same_v<T, wire::Reliable>) {
          return "Reliable";
        } else if constexpr (std::is_same_v<T, wire::CatchUpRequest>) {
          return "CatchUpRequest";
        } else if constexpr (std::is_same_v<T, wire::RoundSummary>) {
          return "RoundSummary";
        } else if constexpr (std::is_same_v<T, wire::VerdictShare>) {
          return "VerdictShare";
        } else if constexpr (std::is_same_v<T, wire::RoundAbort>) {
          return "RoundAbort";
        } else if constexpr (std::is_same_v<T, wire::AbortPrepare>) {
          return "AbortPrepare";
        } else if constexpr (std::is_same_v<T, wire::AbortCommit>) {
          return "AbortCommit";
        } else if constexpr (std::is_same_v<T, wire::ServerCatchUpRequest>) {
          return "ServerCatchUpRequest";
        } else if constexpr (std::is_same_v<T, wire::ServerCatchUpBatch>) {
          return "ServerCatchUpBatch";
        } else {
          return "SlotKeys";
        }
      },
      msg);
}

}  // namespace dissent
