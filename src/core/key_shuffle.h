// Scheduling via verifiable shuffles (§3.10).
//
// Clients ElGamal-encrypt fresh pseudonym public keys under the product of
// all server keys. Each server in turn:
//   1. re-encrypts + permutes the batch, with a Neff shuffle proof,
//   2. strips its own encryption layer, with one Chaum-Pedersen (DLEQ) proof
//      per ciphertext.
// After the last server, the b-components are the pseudonym keys in an order
// no proper subset of servers knows. Every party verifies the whole cascade.
//
// The same machinery runs the *accusation shuffle*: general messages are
// split across several group elements (EncodeMessageBlocks) since an
// accusation does not fit one element.
#ifndef DISSENT_CORE_KEY_SHUFFLE_H_
#define DISSENT_CORE_KEY_SHUFFLE_H_

#include <optional>
#include <vector>

#include "src/core/group_def.h"
#include "src/crypto/chaum_pedersen.h"
#include "src/crypto/shuffle.h"

namespace dissent {

// One server's contribution to the cascade.
struct MixStep {
  CiphertextMatrix shuffled;       // after re-encrypt + permute
  ShuffleProof shuffle_proof;
  CiphertextMatrix decrypted;      // after stripping this server's layer
  std::vector<std::vector<DleqProof>> decrypt_proofs;  // [row][col]
};

// Combined key of servers j..M-1 (the layers still present when server j
// receives the batch).
BigInt RemainingKey(const GroupDef& def, size_t first_server);

// Executes server j's mix: shuffle under the remaining key (including its
// own layer), then strip its layer with proofs.
MixStep KeyShuffleMixStep(const GroupDef& def, size_t server_index, const BigInt& server_priv,
                          const CiphertextMatrix& inputs, SecureRng& rng);

// Verifies one mix step against its inputs. `server_index` selects the
// expected remaining key and the decryption statement.
bool VerifyMixStep(const GroupDef& def, size_t server_index, const CiphertextMatrix& inputs,
                   const MixStep& step);

// --- client side ---

// Encrypts a pseudonym key (single group element, width 1).
CiphertextMatrix::value_type EncryptPseudonymKey(const GroupDef& def, const BigInt& pseudonym_pub,
                                                 SecureRng& rng);

// Splits an arbitrary byte message into `width` encrypted group elements
// (general message shuffle, §3.10). Fails if the message doesn't fit.
std::optional<std::vector<ElGamalCiphertext>> EncryptMessageBlocks(const GroupDef& def,
                                                                   const Bytes& message,
                                                                   size_t width,
                                                                   SecureRng& rng);
// Width needed for a message of `len` bytes.
size_t MessageBlockWidth(const GroupDef& def, size_t len);
// Inverse of EncryptMessageBlocks applied to fully-decrypted rows.
std::optional<Bytes> DecodeMessageBlocks(const GroupDef& def,
                                         const std::vector<ElGamalCiphertext>& row);

// --- full cascade (reference oracle for tests and benches; the engines run
// the same cascade piecewise as their scheduling and blame sub-phases) ---

struct ShuffleCascadeResult {
  // Final decrypted rows (b components are the plaintext elements).
  CiphertextMatrix final_rows;
  // Per-server steps, so any party can re-verify the whole cascade.
  std::vector<MixStep> steps;
};

// Runs the cascade across all servers given their private keys.
ShuffleCascadeResult RunShuffleCascade(const GroupDef& def,
                                       const std::vector<BigInt>& server_privs,
                                       const CiphertextMatrix& submissions, SecureRng& rng);

// Re-verifies a full cascade from the submissions to the final rows.
bool VerifyShuffleCascade(const GroupDef& def, const CiphertextMatrix& submissions,
                          const ShuffleCascadeResult& result);

// --- wire codecs (engine-driven shuffles: scheduling §3.10, blame §3.9) ---
//
// The engines run both shuffles *over the wire*: clients ship encrypted
// fixed-width rows (a pseudonym key, or accusation blocks), and each server
// ships its MixStep to every peer for verification. These codecs are the canonical,
// hostile-input-hardened byte forms those messages carry — counts are bounded
// by the remaining input before any allocation, and every group element is
// subgroup-membership-checked on parse.

// One logical message: `width` ElGamal pairs as fixed-width element bytes.
// Parse enforces the exact expected width (fixed-size blame rows keep
// accusers indistinguishable).
Bytes SerializeCiphertextRow(const Group& group, const std::vector<ElGamalCiphertext>& row);
std::optional<std::vector<ElGamalCiphertext>> ParseCiphertextRow(const Group& group,
                                                                 const Bytes& data,
                                                                 size_t expected_width);

// One server's full mix contribution (shuffled matrix + shuffle proof +
// decrypted matrix + per-ciphertext DLEQ proofs). Parse checks shape
// consistency; cryptographic validity is the caller's VerifyMixStep.
Bytes SerializeMixStep(const Group& group, const MixStep& step);
std::optional<MixStep> ParseMixStep(const Group& group, const Bytes& data);

}  // namespace dissent

#endif  // DISSENT_CORE_KEY_SHUFFLE_H_
