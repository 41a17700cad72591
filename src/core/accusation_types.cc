#include "src/core/accusation_types.h"

#include "src/util/serialize.h"

namespace dissent {

Bytes Accusation::Canonical() const {
  Writer w;
  w.Str("dissent.accusation.v1");
  w.U64(round);
  w.U32(slot);
  w.U64(bit_index);
  return w.Take();
}

template <class Io>
bool Fields(Io& io, SignedAccusation& m, const Group& g) {
  return io.U64(m.accusation.round) && io.U32(m.accusation.slot) &&
         io.U64(m.accusation.bit_index) &&
         io.BlobOf(
             m.signature, [&g](const SchnorrSignature& s) { return s.Serialize(g); },
             [&g](const Bytes& b) { return SchnorrSignature::Deserialize(g, b); });
}

template <class Io>
bool Fields(Io& io, Rebuttal& m, const Group& g) {
  return io.U32(m.client_index) && io.U32(m.server_index) &&
         io.BlobOf(
             m.shared_element, [&g](const BigInt& e) { return g.ElementToBytes(e); },
             [&g](const Bytes& b) { return g.ElementFromBytes(b); }) &&
         io.BlobOf(
             m.proof, [&g](const DleqProof& p) { return p.Serialize(g); },
             [&g](const Bytes& b) { return DleqProof::Deserialize(g, b); });
}

Bytes SignedAccusation::Serialize(const Group& group) const { return Encode(*this, group); }

std::optional<SignedAccusation> SignedAccusation::Deserialize(const Group& group,
                                                              const Bytes& data) {
  return Decode<SignedAccusation>(data, group);
}

Bytes Rebuttal::Serialize(const Group& group) const { return Encode(*this, group); }

std::optional<Rebuttal> Rebuttal::Deserialize(const Group& group, const Bytes& data) {
  return Decode<Rebuttal>(data, group);
}

Bytes BlameAnswerSigningBytes(uint64_t session, uint32_t client_index, uint64_t round,
                              uint64_t bit_index, const Bytes& pad_bits,
                              const Bytes& rebuttal) {
  Writer w;
  w.Str("dissent.blame.answer.v1");
  w.U64(session);
  w.U32(client_index);
  w.U64(round);
  w.U64(bit_index);
  w.Blob(pad_bits);
  w.Blob(rebuttal);
  return w.Take();
}

Bytes BlameRowSigningBytes(uint64_t session, uint32_t client_index, const Bytes& row) {
  Writer w;
  w.Str("dissent.blame.row.v1");
  w.U64(session);
  w.U32(client_index);
  w.Blob(row);
  return w.Take();
}

Bytes VerdictSigningBytes(uint64_t session, uint32_t server_index, uint64_t round,
                          uint8_t kind, uint32_t culprit) {
  Writer w;
  w.Str("dissent.blame.verdict.v1");
  w.U64(session);
  w.U32(server_index);
  w.U64(round);
  w.U8(kind);
  w.U32(culprit);
  return w.Take();
}

}  // namespace dissent
