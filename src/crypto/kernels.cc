#include "src/crypto/kernels.h"

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#include <cpuid.h>
#define DISSENT_X86_CPUID 1
#endif

namespace dissent {

namespace {

#ifdef DISSENT_X86_CPUID
uint64_t Xcr0() {
  uint32_t lo, hi;
  __asm__ volatile("xgetbv" : "=a"(lo), "=d"(hi) : "c"(0));
  return (static_cast<uint64_t>(hi) << 32) | lo;
}
#endif

CpuFeatures Probe() {
  CpuFeatures f;
#ifdef DISSENT_X86_CPUID
  unsigned a, b, c, d;
  if (!__get_cpuid(1, &a, &b, &c, &d)) {
    return f;
  }
  const bool sse41 = c & (1u << 19);
  const bool osxsave = c & (1u << 27);
  const bool avx = c & (1u << 28);
  if (!__get_cpuid_count(7, 0, &a, &b, &c, &d)) {
    return f;
  }
  const uint64_t xcr0 = osxsave ? Xcr0() : 0;
  const bool ymm_state = (xcr0 & 0x6) == 0x6;    // XMM + YMM
  const bool zmm_state = (xcr0 & 0xe6) == 0xe6;  // + opmask, ZMM0-15 upper, ZMM16-31
  f.avx2 = avx && ymm_state && (b & (1u << 5));
  // The 16-lane ChaCha20 kernel hands its remainder to the 8-lane one, so
  // AVX-512F counts only alongside AVX2.
  f.avx512f = f.avx2 && zmm_state && (b & (1u << 16));
  f.adx = b & (1u << 19);
  f.sha_ni = sse41 && (b & (1u << 29));
#endif
  return f;
}

}  // namespace

const CpuFeatures& HostCpuFeatures() {
  static const CpuFeatures features = Probe();
  return features;
}

}  // namespace dissent
