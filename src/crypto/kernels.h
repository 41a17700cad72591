// Data-plane kernel tiers and the CPU feature probe that picks them.
//
// ChaCha20 keystream expansion and SHA-256 compression each come as a
// portable reference kernel plus SIMD kernels built with per-function
// `target(...)` attributes (no ifunc), so portable, -march=native and
// sanitizer builds all contain and run the same kernels. Each primitive
// selects the widest kernel the host supports once per process, from CPUID
// alone: there is no flag, config field or environment switch. Every kernel
// is bit-exact to the portable one, so the choice changes cost only.
//
// Production code never names a tier; it goes through ChaCha20Stream and
// Sha256. This header is the internal seam through which the equivalence
// tests reach each tier (see ChaCha20Stream / Sha256 constructors taking a
// kernel).
#ifndef DISSENT_CRYPTO_KERNELS_H_
#define DISSENT_CRYPTO_KERNELS_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace dissent {

// The host ISA extensions the kernels care about. A vector extension counts
// only when the OS also saves its register state (XGETBV).
struct CpuFeatures {
  bool avx2 = false;
  bool avx512f = false;
  bool sha_ni = false;  // SHA extensions together with SSE4.1
  bool adx = false;
};

// Probed once per process.
const CpuFeatures& HostCpuFeatures();

namespace kernels {

// Writes (or XORs into `out`) `nblocks` consecutive 64-byte ChaCha20 blocks
// from an expanded 16-word state, with counters `counter`, `counter + 1`, ...
using ChaChaBlocksFn = void (*)(const uint32_t state[16], uint32_t counter, size_t nblocks,
                                uint8_t* out);

struct ChaChaKernel {
  const char* name;  // "avx512", "avx2" or "scalar"
  bool supported;    // the host can run it
  ChaChaBlocksFn blocks;
  ChaChaBlocksFn xor_blocks;
};

// Every ChaCha20 tier this build contains, widest first. The last entry is
// the scalar reference and is always supported.
const std::vector<ChaChaKernel>& ChaChaKernels();
// The widest supported tier; chosen on first use.
const ChaChaKernel& SelectedChaChaKernel();

// Runs the SHA-256 compression function over `nblocks` whole 64-byte blocks.
using Sha256CompressFn = void (*)(uint32_t state[8], const uint8_t* blocks, size_t nblocks);

struct Sha256Kernel {
  const char* name;  // "sha_ni" or "portable"
  bool supported;
  Sha256CompressFn compress;
};

// Every SHA-256 tier this build contains, fastest first; the last is the
// portable reference.
const std::vector<Sha256Kernel>& Sha256Kernels();
const Sha256Kernel& SelectedSha256Kernel();

// First supported entry of a tier list (lists always end in a portable one).
template <typename Kernel>
const Kernel& FirstSupported(const std::vector<Kernel>& tiers) {
  for (const Kernel& k : tiers) {
    if (k.supported) {
      return k;
    }
  }
  return tiers.back();
}

}  // namespace kernels
}  // namespace dissent

#endif  // DISSENT_CRYPTO_KERNELS_H_
