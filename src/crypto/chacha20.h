// RFC 8439 ChaCha20 block function and a keyed deterministic PRNG.
//
// This is the PRNG of Dissent's DC-net data plane: every client/server pair
// (i, j) expands its shared secret K_ij into the per-round pad s_ij (§3.3).
// It is also the PRG behind the OAEP-style slot padding (§3.9).
//
// The data plane is the system's hottest loop (one pad per client per server
// per round), so the keystream pipeline is built around three ideas:
//  * SIMD block kernels: bulk keystream comes from a 16-lane AVX-512F or an
//    8-lane AVX2 core that transposes its rows into whole blocks in
//    registers and stores (or XORs) them straight into the destination.
//    The widest tier the host supports is chosen once per process by CPUID
//    (src/crypto/kernels.h); every tier is bit-exact to the scalar
//    one-block function, which stays as the fallback and the test oracle;
//  * word-wise XOR: partial blocks are combined 8 bytes at a time (see
//    XorWords in util/bytes.h), never byte-at-a-time;
//  * O(1) seeking: the counter-based construction lets a stream jump to any
//    byte offset without generating the prefix (`Seek`), which is what makes
//    column-parallel pad aggregation and single-bit pad queries cheap.
#ifndef DISSENT_CRYPTO_CHACHA20_H_
#define DISSENT_CRYPTO_CHACHA20_H_

#include <cstdint>

#include "src/util/bytes.h"

namespace dissent {

namespace kernels {
struct ChaChaKernel;
}  // namespace kernels

// Raw ChaCha20 block: 32-byte key, 12-byte nonce, 32-bit counter -> 64 bytes.
void ChaCha20Block(const uint8_t key[32], const uint8_t nonce[12], uint32_t counter,
                   uint8_t out[64]);

// Multi-block API: writes `nblocks` consecutive blocks (counters `counter`,
// `counter + 1`, ...) into the caller-owned buffer `out` (nblocks * 64
// bytes). Bit-identical to calling ChaCha20Block in a loop, but runs on the
// selected SIMD kernel.
void ChaCha20Blocks(const uint8_t key[32], const uint8_t nonce[12], uint32_t counter,
                    size_t nblocks, uint8_t* out);

// Parses a 32-byte key into the 8 little-endian state words. A cached key
// schedule: PadExpander stores these per client so per-round re-keying never
// re-reads the key bytes.
void ParseChaCha20Key(const Bytes& key, uint32_t key_words[8]);

// Stream generator. Deterministic: (key, nonce) fully determine the stream.
class ChaCha20Stream {
 public:
  // Key must be 32 bytes; nonce 12 bytes. The constructor expands key and
  // nonce into the 16-word initial state once; no per-block re-parsing.
  ChaCha20Stream(const Bytes& key, const Bytes& nonce);
  // From a pre-parsed key schedule (see ParseChaCha20Key).
  ChaCha20Stream(const uint32_t key_words[8], const uint8_t nonce[12]);
  // Pinned to one kernel tier instead of the selected one: the seam through
  // which the equivalence tests reach every tier.
  ChaCha20Stream(const Bytes& key, const Bytes& nonce, const kernels::ChaChaKernel& kernel);

  // Appends `n` pseudo-random bytes into out (resizing it).
  void Generate(size_t n, Bytes* out);
  Bytes Generate(size_t n);
  // Writes `n` pseudo-random bytes into a caller-owned buffer.
  void GenerateRaw(uint8_t* out, size_t n);

  // XORs `n` stream bytes into dst starting at dst[offset].
  void XorStream(Bytes& dst, size_t offset, size_t n);
  // Same on a raw buffer (hot path; no container bookkeeping).
  void XorStreamRaw(uint8_t* dst, size_t n);

  // Repositions the stream so the next byte produced is stream byte
  // `byte_offset`. O(1): jumps the block counter; at most one block is
  // recomputed (when the offset lands mid-block).
  void Seek(uint64_t byte_offset);

  // Uniform scalar below `bound_bits` bits (rejection handled by caller).
  uint64_t NextU64();

 private:
  void Refill();

  const kernels::ChaChaKernel* kernel_;
  uint32_t state_[16];  // expanded initial state (counter word ignored)
  uint32_t counter_ = 0;
  uint8_t block_[64];
  size_t block_pos_ = 64;
};

}  // namespace dissent

#endif  // DISSENT_CRYPTO_CHACHA20_H_
