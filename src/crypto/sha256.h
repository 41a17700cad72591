// FIPS 180-4 SHA-256, implemented from scratch.
//
// Used for: self-certifying group ids, Fiat-Shamir transcripts, server
// ciphertext commitments (Algorithm 2 step 3), key derivation, and the
// OAEP-style slot padding PRG seed expansion.
//
// Update hands every whole 64-byte block of its input to the compression
// kernel in one call. The kernel is the SHA-NI one where the host has the
// SHA extensions and the portable FIPS 180-4 function otherwise, chosen
// once per process by CPUID (src/crypto/kernels.h). Both produce identical
// digests; the portable one is the fallback and the test oracle.
#ifndef DISSENT_CRYPTO_SHA256_H_
#define DISSENT_CRYPTO_SHA256_H_

#include <array>
#include <cstdint>

#include "src/util/bytes.h"

namespace dissent {

namespace kernels {
struct Sha256Kernel;
}  // namespace kernels

class Sha256 {
 public:
  static constexpr size_t kDigestSize = 32;

  Sha256();
  // Pinned to one compression tier instead of the selected one: the seam
  // through which the equivalence tests reach every tier.
  explicit Sha256(const kernels::Sha256Kernel& kernel);

  Sha256& Update(const uint8_t* data, size_t len);
  Sha256& Update(const Bytes& data);

  // Finalizes and returns the digest; the object must not be reused after.
  Bytes Finish();

  // One-shot convenience.
  static Bytes Hash(const Bytes& data);
  // Hash of the concatenation of length-prefixed parts (unambiguous framing).
  static Bytes HashParts(std::initializer_list<const Bytes*> parts);

 private:
  const kernels::Sha256Kernel* kernel_;
  std::array<uint32_t, 8> state_;
  uint64_t total_len_ = 0;
  uint8_t buf_[64];
  size_t buf_len_ = 0;
};

}  // namespace dissent

#endif  // DISSENT_CRYPTO_SHA256_H_
