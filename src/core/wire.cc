#include "src/core/wire.h"

#include <array>

namespace dissent {

namespace {

// The tag table: one row per WireMessage alternative, in variant order.
// A frame's tag byte and its log name live here and nowhere else.
struct TagRow {
  uint8_t tag;
  const char* name;
};
constexpr TagRow kTags[] = {
    {1, "ClientSubmit"},      {2, "Inventory"},         {3, "Commit"},
    {4, "ServerCiphertext"},  {5, "SignatureShare"},    {6, "Output"},
    {9, "BlameStart"},        {7, "AccusationSubmit"},  {10, "BlameRoster"},
    {11, "BlameMix"},         {12, "TraceEvidence"},    {13, "BlameChallenge"},
    {14, "BlameRebuttal"},    {8, "BlameVerdict"},      {15, "Ack"},
    {16, "Reliable"},         {17, "CatchUpRequest"},   {18, "RoundSummary"},
    {19, "VerdictShare"},     {20, "RoundAbort"},       {21, "AbortPrepare"},
    {22, "AbortCommit"},      {23, "ServerCatchUpRequest"},
    {24, "ServerCatchUpBatch"},
    {25, "SlotKeys"},
};
static_assert(std::size(kTags) == std::variant_size_v<WireMessage>,
              "every WireMessage alternative needs exactly one tag-table row");

template <class T, size_t I = 0>
constexpr size_t IndexOf() {
  if constexpr (std::is_same_v<std::variant_alternative_t<I, WireMessage>, T>) {
    return I;
  } else {
    return IndexOf<T, I + 1>();
  }
}
template <class T>
constexpr uint8_t kTagOf = kTags[IndexOf<T>()].tag;

// tag byte -> variant index, -1 for unknown tags.
constexpr std::array<int, 256> MakeIndexOfTag() {
  std::array<int, 256> index{};
  for (int& i : index) {
    i = -1;
  }
  for (size_t i = 0; i < std::size(kTags); ++i) {
    index[kTags[i].tag] = static_cast<int>(i);
  }
  return index;
}
constexpr std::array<int, 256> kIndexOfTag = MakeIndexOfTag();

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

namespace wire {

// --- field lists: each frame body after its tag byte ---

template <class Io>
bool Fields(Io& io, ClientSubmit& m) {
  return io.U64(m.round) && io.U32(m.client_id) && io.Blob(m.ciphertext);
}
template <class Io>
bool Fields(Io& io, Inventory& m) {
  return io.U64(m.round) && io.U32(m.server_id) && io.SortedU32s(m.clients);
}
template <class Io>
bool Fields(Io& io, Commit& m) {
  return io.U64(m.round) && io.U32(m.server_id) && io.Blob(m.commitment);
}
template <class Io>
bool Fields(Io& io, ServerCiphertext& m) {
  return io.U64(m.round) && io.U32(m.server_id) && io.Blob(m.ciphertext);
}
template <class Io>
bool Fields(Io& io, SignatureShare& m) {
  return io.U64(m.round) && io.U32(m.server_id) && io.Blob(m.signature);
}
template <class Io>
bool Fields(Io& io, Output& m) {
  return io.U64(m.round) && io.Blob(m.cleartext) && io.Blobs(m.signatures);
}
template <class Io>
bool Fields(Io& io, BlameStart& m) {
  return io.U64(m.session);
}
template <class Io>
bool Fields(Io& io, AccusationSubmit& m) {
  return io.U64(m.session) && io.U32(m.client_id) && io.Blob(m.blame_ciphertext) &&
         io.Blob(m.signature);
}
template <class Io>
bool Fields(Io& io, BlameRoster& m) {
  // Each entry carries at least an id plus two blob length prefixes.
  return io.U64(m.session) && io.U32(m.server_id) &&
         io.Seq(m.entries, 12, [&io](BlameRosterEntry& e) {
           return io.U32(e.client_id) && io.Blob(e.row) && io.Blob(e.signature);
         });
}
template <class Io>
bool Fields(Io& io, BlameMix& m) {
  return io.U64(m.session) && io.U32(m.server_id) && io.Blob(m.step);
}
template <class Io>
bool Fields(Io& io, TraceEvidence& m) {
  return io.U64(m.session) && io.U32(m.server_id) && io.U64(m.round) && io.U64(m.bit_index) &&
         io.Bool(m.present) && io.SortedU32s(m.own_share) && io.Blob(m.client_ct_bits) &&
         io.U8(m.server_ct_bit) && io.Blob(m.pad_bits);
}
template <class Io>
bool Fields(Io& io, BlameChallenge& m) {
  return io.U64(m.session) && io.U64(m.round) && io.U64(m.bit_index) && io.U32(m.client_id) &&
         io.Blob(m.pad_bits);
}
template <class Io>
bool Fields(Io& io, BlameRebuttal& m) {
  return io.U64(m.session) && io.U32(m.client_id) && io.Blob(m.rebuttal) &&
         io.Blob(m.signature);
}
template <class Io>
bool Fields(Io& io, BlameVerdict& m) {
  return io.U64(m.session) && io.U64(m.round) && io.U8(m.kind) && io.U32(m.culprit);
}
template <class Io>
bool Fields(Io& io, Ack& m) {
  return io.U64(m.seq) && io.U32(m.from_id) && io.U32(m.to_id) && io.Blob(m.sack);
}
template <class Io>
bool Fields(Io& io, Reliable& m) {
  return io.U64(m.seq) && io.U32(m.from_id) && io.U32(m.to_id) && io.Blob(m.inner);
}
template <class Io>
bool Fields(Io& io, CatchUpRequest& m) {
  return io.U64(m.have_round) && io.U32(m.client_id);
}
template <class Io>
bool Fields(Io& io, RoundSummary& m) {
  return io.U64(m.round) && io.Bool(m.aborted) && io.Blob(m.cleartext) &&
         io.Blobs(m.signatures) && io.U64(m.final_round);
}
template <class Io>
bool Fields(Io& io, VerdictShare& m) {
  return io.U64(m.session) && io.U32(m.server_id) && io.U64(m.round) && io.U8(m.kind) &&
         io.U32(m.culprit) && io.Blob(m.signature);
}
template <class Io>
bool Fields(Io& io, RoundAbort& m) {
  return io.U64(m.round) && io.U32(m.server_id);
}
template <class Io>
bool Fields(Io& io, AbortPrepare& m) {
  return io.U64(m.round) && io.U64(m.epoch) && io.U32(m.server_id) && io.Blob(m.signature);
}
template <class Io>
bool Fields(Io& io, AbortCommit& m) {
  // One count for both lists: each member is a 4-byte id plus at least a
  // 4-byte signature length prefix, and the signatures follow the ids.
  return io.U64(m.round) && io.U64(m.epoch) && io.SortedU32s(m.server_ids, 8) &&
         io.Each(m.signatures, m.server_ids.size(), [&io](Bytes& s) { return io.Blob(s); });
}
template <class Io>
bool Fields(Io& io, ServerCatchUpRequest& m) {
  return io.U64(m.have_round) && io.U32(m.server_id);
}
template <class Io>
bool Fields(Io& io, ServerCatchUpBatch& m) {
  // Each entry carries at least a flag byte plus three 4-byte length /
  // count prefixes.
  return io.U32(m.server_id) && io.U64(m.first_round) && io.U64(m.final_round) &&
         io.Seq(m.entries, 13, [&io](ServerCatchUpEntry& e) {
           return io.Bool(e.aborted) && io.Blob(e.cleartext) && io.SortedU32s(e.cert_ids) &&
                  io.Blobs(e.signatures);
         });
}
template <class Io>
bool Fields(Io& io, SlotKeys& m) {
  return io.Blobs(m.keys);
}

// --- read-side validity: the canonical forms a field list cannot express ---

template <class T>
bool Valid(const T&) {
  return true;
}
bool Valid(const BlameRoster& m) {
  // Rosters are sorted sets: the merged shuffle input must be identical on
  // every server.
  for (size_t k = 1; k < m.entries.size(); ++k) {
    if (m.entries[k].client_id <= m.entries[k - 1].client_id) {
      return false;
    }
  }
  return true;
}
bool Valid(const TraceEvidence& m) {
  // client_ct_bits covers exactly the own_share list; pad_bits covers the
  // composite list, whose size only the engine knows, so its stray-bit
  // check happens there.
  return m.server_ct_bit <= 1 && BitmapCanonical(m.client_ct_bits, m.own_share.size());
}
bool Valid(const BlameVerdict& m) { return m.kind <= BlameVerdict::kServerExposed; }
bool Valid(const VerdictShare& m) { return m.kind <= BlameVerdict::kServerExposed; }
bool Valid(const Ack& m) {
  // A sack bitmap wider than any sane retransmission window is hostile; the
  // canonical form also forbids a trailing all-zero byte (one encoding per
  // acknowledgement set).
  return m.sack.size() <= 1024 && (m.sack.empty() || m.sack.back() != 0);
}
bool Valid(const Reliable& m) {
  // The inner frame is itself a WireMessage, so it carries at least a tag
  // byte. Nesting (Reliable-in-Reliable, acked Acks) is refused so a hostile
  // peer cannot build recursive towers.
  return !m.inner.empty() && m.inner[0] != kTagOf<Reliable> && m.inner[0] != kTagOf<Ack>;
}
bool Valid(const RoundSummary& m) {
  // An aborted round has no cleartext and no signatures.
  return !m.aborted || (m.cleartext.empty() && m.signatures.empty());
}
bool Valid(const AbortPrepare& m) {
  // A prepare is a signed vote; an unsigned one can never validate, so
  // refuse it here and keep the engine's signature path total.
  return !m.signature.empty();
}
bool NoEmptySignature(const std::vector<Bytes>& sigs) {
  for (const Bytes& s : sigs) {
    if (s.empty()) {
      return false;
    }
  }
  return true;
}
bool Valid(const AbortCommit& m) {
  // The strictly increasing signer set gives one encoding per certificate,
  // and duplicate signers can never pad the quorum.
  return !m.server_ids.empty() && NoEmptySignature(m.signatures);
}
bool Valid(const ServerCatchUpBatch& m) {
  // An aborted entry replays a certificate: no cleartext, signer ids
  // parallel to signatures. A completed entry replays the certified output:
  // no signer list, since the full fleet signed it.
  for (const ServerCatchUpEntry& e : m.entries) {
    if (!NoEmptySignature(e.signatures) || e.signatures.empty()) {
      return false;
    }
    if (e.aborted ? !e.cleartext.empty() || e.cert_ids.size() != e.signatures.size()
                  : !e.cert_ids.empty()) {
      return false;
    }
  }
  return true;
}

}  // namespace wire

namespace {

template <size_t I>
std::optional<WireMessage> ParseAs(Reader& r) {
  std::variant_alternative_t<I, WireMessage> m;
  if (!DecodeFrom(r, m) || !r.AtEnd() || !wire::Valid(m)) {
    return std::nullopt;
  }
  return WireMessage(std::in_place_index<I>, std::move(m));
}

using Parser = std::optional<WireMessage> (*)(Reader&);
template <size_t... I>
constexpr std::array<Parser, sizeof...(I)> MakeParsers(std::index_sequence<I...>) {
  return {&ParseAs<I>...};
}
constexpr auto kParsers = MakeParsers(std::make_index_sequence<std::size(kTags)>());

}  // namespace

Bytes SerializeWire(const WireMessage& msg) {
  Writer w;
  SerializeWireTo(msg, w);
  return w.Take();
}

void SerializeWireTo(const WireMessage& msg, Writer& w) {
  w.U8(kTags[msg.index()].tag);
  std::visit([&w](const auto& m) { EncodeTo(w, m); }, msg);
}

std::optional<WireMessage> ParseWire(const Bytes& data) {
  Reader r(data);
  uint8_t tag;
  if (!r.U8(&tag) || kIndexOfTag[tag] < 0) {
    return std::nullopt;
  }
  return kParsers[kIndexOfTag[tag]](r);
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

const char* WireTypeName(const WireMessage& msg) { return kTags[msg.index()].name; }

}  // namespace dissent
