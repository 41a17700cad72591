#include "src/crypto/chacha20.h"

#include <cassert>
#include <cstring>

#include "src/crypto/kernels.h"

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#include <immintrin.h>
#define DISSENT_CHACHA_SIMD 1
#endif

namespace dissent {

namespace {

constexpr uint32_t kSigma0 = 0x61707865;
constexpr uint32_t kSigma1 = 0x3320646e;
constexpr uint32_t kSigma2 = 0x79622d32;
constexpr uint32_t kSigma3 = 0x6b206574;

uint32_t Rotl(uint32_t x, int n) { return (x << n) | (x >> (32 - n)); }

void QuarterRound(uint32_t& a, uint32_t& b, uint32_t& c, uint32_t& d) {
  a += b;
  d ^= a;
  d = Rotl(d, 16);
  c += d;
  b ^= c;
  b = Rotl(b, 12);
  a += b;
  d ^= a;
  d = Rotl(d, 8);
  c += d;
  b ^= c;
  b = Rotl(b, 7);
}

uint32_t LoadLE32(const uint8_t* p) {
  return static_cast<uint32_t>(p[0]) | static_cast<uint32_t>(p[1]) << 8 |
         static_cast<uint32_t>(p[2]) << 16 | static_cast<uint32_t>(p[3]) << 24;
}

void StoreLE32(uint8_t* p, uint32_t v) {
  p[0] = static_cast<uint8_t>(v);
  p[1] = static_cast<uint8_t>(v >> 8);
  p[2] = static_cast<uint8_t>(v >> 16);
  p[3] = static_cast<uint8_t>(v >> 24);
}

// Expands key + nonce into the 16-word initial state. The counter word
// (state[12]) is left as 0; block cores override it per block.
void ExpandState(const uint8_t key[32], const uint8_t nonce[12], uint32_t state[16]) {
  state[0] = kSigma0;
  state[1] = kSigma1;
  state[2] = kSigma2;
  state[3] = kSigma3;
  for (int i = 0; i < 8; ++i) {
    state[4 + i] = LoadLE32(key + 4 * i);
  }
  state[12] = 0;
  for (int i = 0; i < 3; ++i) {
    state[13 + i] = LoadLE32(nonce + 4 * i);
  }
}

// One block from a pre-expanded state with the counter overridden.
void BlockFromState(const uint32_t state[16], uint32_t counter, uint8_t out[64]) {
  uint32_t x[16];
  std::memcpy(x, state, sizeof(x));
  x[12] = counter;
  for (int round = 0; round < 10; ++round) {
    QuarterRound(x[0], x[4], x[8], x[12]);
    QuarterRound(x[1], x[5], x[9], x[13]);
    QuarterRound(x[2], x[6], x[10], x[14]);
    QuarterRound(x[3], x[7], x[11], x[15]);
    QuarterRound(x[0], x[5], x[10], x[15]);
    QuarterRound(x[1], x[6], x[11], x[12]);
    QuarterRound(x[2], x[7], x[8], x[13]);
    QuarterRound(x[3], x[4], x[9], x[14]);
  }
  for (int i = 0; i < 16; ++i) {
    uint32_t init = i == 12 ? counter : state[i];
    StoreLE32(out + 4 * i, x[i] + init);
  }
}

// Scalar reference tier: one block at a time. Also the tail of the SIMD
// tiers and the oracle of their equivalence tests.
template <bool kXor>
void RunScalar(const uint32_t state[16], uint32_t counter, size_t nblocks, uint8_t* out) {
  uint8_t block[64];
  for (size_t b = 0; b < nblocks; ++b, out += 64) {
    const uint32_t c = counter + static_cast<uint32_t>(b);
    if (kXor) {
      BlockFromState(state, c, block);
      XorWords(out, block, 64);
    } else {
      BlockFromState(state, c, out);
    }
  }
}

#ifdef DISSENT_CHACHA_SIMD

// SIMD tiers. Lane l of row register x[i] holds state word i of block
// `counter + l`, so each quarter-round step is one instruction across the
// whole batch. After the feed-forward, an in-register transpose turns the
// rows into whole 64-byte blocks, which are stored (or XORed into the
// destination) directly, with no scratch buffer:
//  1. unpack the 32-bit words of row pairs (2j, 2j+1);
//  2. unpack 64-bit pairs of those, after which register 4g+k holds words
//     4g..4g+3 of block 4L+k in its 128-bit lane L;
//  3. regroup 128-bit lanes so that each block's four word groups sit
//     together in one (AVX-512) or two (AVX2) registers.
// A remainder smaller than a batch drops to the next narrower tier.

#define DISSENT_AVX2 __attribute__((target("avx2")))
#define DISSENT_AVX2_INLINE __attribute__((target("avx2"), always_inline)) inline
#define DISSENT_AVX512 __attribute__((target("avx512f,avx2")))
#define DISSENT_AVX512_INLINE __attribute__((target("avx512f,avx2"), always_inline)) inline

// --- AVX2: 8 blocks per batch in ymm registers ---

DISSENT_AVX2_INLINE void QuarterRound8(__m256i& a, __m256i& b, __m256i& c, __m256i& d) {
  // Byte shuffles rotate each 32-bit word left by 16 and by 8.
  const __m256i rot16 = _mm256_setr_epi8(2, 3, 0, 1, 6, 7, 4, 5, 10, 11, 8, 9, 14, 15, 12, 13,
                                         2, 3, 0, 1, 6, 7, 4, 5, 10, 11, 8, 9, 14, 15, 12, 13);
  const __m256i rot8 = _mm256_setr_epi8(3, 0, 1, 2, 7, 4, 5, 6, 11, 8, 9, 10, 15, 12, 13, 14,
                                        3, 0, 1, 2, 7, 4, 5, 6, 11, 8, 9, 10, 15, 12, 13, 14);
  a = _mm256_add_epi32(a, b);
  d = _mm256_shuffle_epi8(_mm256_xor_si256(d, a), rot16);
  c = _mm256_add_epi32(c, d);
  b = _mm256_xor_si256(b, c);
  b = _mm256_or_si256(_mm256_slli_epi32(b, 12), _mm256_srli_epi32(b, 20));
  a = _mm256_add_epi32(a, b);
  d = _mm256_shuffle_epi8(_mm256_xor_si256(d, a), rot8);
  c = _mm256_add_epi32(c, d);
  b = _mm256_xor_si256(b, c);
  b = _mm256_or_si256(_mm256_slli_epi32(b, 7), _mm256_srli_epi32(b, 25));
}

template <bool kXor>
DISSENT_AVX2_INLINE void Emit8(uint8_t* p, __m256i v) {
  if (kXor) {
    v = _mm256_xor_si256(v, _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p)));
  }
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(p), v);
}

template <bool kXor>
DISSENT_AVX2 void Batch8(const uint32_t state[16], uint32_t counter, uint8_t* out) {
  __m256i x[16];
#pragma GCC unroll 16
  for (int i = 0; i < 16; ++i) {
    x[i] = _mm256_set1_epi32(static_cast<int>(state[i]));
  }
  const __m256i ctr = _mm256_add_epi32(_mm256_set1_epi32(static_cast<int>(counter)),
                                       _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7));
  x[12] = ctr;
  for (int round = 0; round < 10; ++round) {
    QuarterRound8(x[0], x[4], x[8], x[12]);
    QuarterRound8(x[1], x[5], x[9], x[13]);
    QuarterRound8(x[2], x[6], x[10], x[14]);
    QuarterRound8(x[3], x[7], x[11], x[15]);
    QuarterRound8(x[0], x[5], x[10], x[15]);
    QuarterRound8(x[1], x[6], x[11], x[12]);
    QuarterRound8(x[2], x[7], x[8], x[13]);
    QuarterRound8(x[3], x[4], x[9], x[14]);
  }
#pragma GCC unroll 16
  for (int i = 0; i < 16; ++i) {
    x[i] = _mm256_add_epi32(x[i], i == 12 ? ctr : _mm256_set1_epi32(static_cast<int>(state[i])));
  }
  __m256i t[16];
#pragma GCC unroll 8
  for (int i = 0; i < 16; i += 2) {
    t[i] = _mm256_unpacklo_epi32(x[i], x[i + 1]);
    t[i + 1] = _mm256_unpackhi_epi32(x[i], x[i + 1]);
  }
#pragma GCC unroll 4
  for (int g = 0; g < 16; g += 4) {
    x[g] = _mm256_unpacklo_epi64(t[g], t[g + 2]);
    x[g + 1] = _mm256_unpackhi_epi64(t[g], t[g + 2]);
    x[g + 2] = _mm256_unpacklo_epi64(t[g + 1], t[g + 3]);
    x[g + 3] = _mm256_unpackhi_epi64(t[g + 1], t[g + 3]);
  }
  // Block k takes lane 0 of x[k], x[4+k], x[8+k], x[12+k]; block 4+k lane 1.
#pragma GCC unroll 4
  for (int k = 0; k < 4; ++k) {
    Emit8<kXor>(out + 64 * k, _mm256_permute2x128_si256(x[k], x[4 + k], 0x20));
    Emit8<kXor>(out + 64 * k + 32, _mm256_permute2x128_si256(x[8 + k], x[12 + k], 0x20));
    Emit8<kXor>(out + 64 * (4 + k), _mm256_permute2x128_si256(x[k], x[4 + k], 0x31));
    Emit8<kXor>(out + 64 * (4 + k) + 32, _mm256_permute2x128_si256(x[8 + k], x[12 + k], 0x31));
  }
}

template <bool kXor>
DISSENT_AVX2 void RunAvx2(const uint32_t state[16], uint32_t counter, size_t nblocks,
                          uint8_t* out) {
  for (; nblocks >= 8; nblocks -= 8, counter += 8, out += 8 * 64) {
    Batch8<kXor>(state, counter, out);
  }
  RunScalar<kXor>(state, counter, nblocks, out);
}

// --- AVX-512F: 16 blocks per batch in zmm registers, vprold rotates ---

// GCC 12's avx512fintrin.h seeds unmasked intrinsics with a self-initialized
// `_mm512_undefined_epi32()`, which -Wuninitialized reports once inlined.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wuninitialized"

DISSENT_AVX512_INLINE void QuarterRound16(__m512i& a, __m512i& b, __m512i& c, __m512i& d) {
  a = _mm512_add_epi32(a, b);
  d = _mm512_rol_epi32(_mm512_xor_si512(d, a), 16);
  c = _mm512_add_epi32(c, d);
  b = _mm512_rol_epi32(_mm512_xor_si512(b, c), 12);
  a = _mm512_add_epi32(a, b);
  d = _mm512_rol_epi32(_mm512_xor_si512(d, a), 8);
  c = _mm512_add_epi32(c, d);
  b = _mm512_rol_epi32(_mm512_xor_si512(b, c), 7);
}

template <bool kXor>
DISSENT_AVX512_INLINE void Emit16(uint8_t* p, __m512i v) {
  if (kXor) {
    v = _mm512_xor_si512(v, _mm512_loadu_si512(p));
  }
  _mm512_storeu_si512(p, v);
}

template <bool kXor>
DISSENT_AVX512 void Batch16(const uint32_t state[16], uint32_t counter, uint8_t* out) {
  __m512i x[16];
#pragma GCC unroll 16
  for (int i = 0; i < 16; ++i) {
    x[i] = _mm512_set1_epi32(static_cast<int>(state[i]));
  }
  const __m512i ctr =
      _mm512_add_epi32(_mm512_set1_epi32(static_cast<int>(counter)),
                       _mm512_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15));
  x[12] = ctr;
  for (int round = 0; round < 10; ++round) {
    QuarterRound16(x[0], x[4], x[8], x[12]);
    QuarterRound16(x[1], x[5], x[9], x[13]);
    QuarterRound16(x[2], x[6], x[10], x[14]);
    QuarterRound16(x[3], x[7], x[11], x[15]);
    QuarterRound16(x[0], x[5], x[10], x[15]);
    QuarterRound16(x[1], x[6], x[11], x[12]);
    QuarterRound16(x[2], x[7], x[8], x[13]);
    QuarterRound16(x[3], x[4], x[9], x[14]);
  }
#pragma GCC unroll 16
  for (int i = 0; i < 16; ++i) {
    x[i] = _mm512_add_epi32(x[i], i == 12 ? ctr : _mm512_set1_epi32(static_cast<int>(state[i])));
  }
  __m512i t[16];
#pragma GCC unroll 8
  for (int i = 0; i < 16; i += 2) {
    t[i] = _mm512_unpacklo_epi32(x[i], x[i + 1]);
    t[i + 1] = _mm512_unpackhi_epi32(x[i], x[i + 1]);
  }
#pragma GCC unroll 4
  for (int g = 0; g < 16; g += 4) {
    x[g] = _mm512_unpacklo_epi64(t[g], t[g + 2]);
    x[g + 1] = _mm512_unpackhi_epi64(t[g], t[g + 2]);
    x[g + 2] = _mm512_unpacklo_epi64(t[g + 1], t[g + 3]);
    x[g + 3] = _mm512_unpackhi_epi64(t[g + 1], t[g + 3]);
  }
  // 4x4 transpose of 128-bit lanes across x[k], x[4+k], x[8+k], x[12+k]:
  // block 4L+k is lane L of each, in that order.
#pragma GCC unroll 4
  for (int k = 0; k < 4; ++k) {
    const __m512i a = _mm512_shuffle_i32x4(x[k], x[4 + k], 0x44);       // lanes 0,1 | 0,1
    const __m512i b = _mm512_shuffle_i32x4(x[k], x[4 + k], 0xee);       // lanes 2,3 | 2,3
    const __m512i c = _mm512_shuffle_i32x4(x[8 + k], x[12 + k], 0x44);
    const __m512i d = _mm512_shuffle_i32x4(x[8 + k], x[12 + k], 0xee);
    Emit16<kXor>(out + 64 * k, _mm512_shuffle_i32x4(a, c, 0x88));         // lane 0
    Emit16<kXor>(out + 64 * (4 + k), _mm512_shuffle_i32x4(a, c, 0xdd));   // lane 1
    Emit16<kXor>(out + 64 * (8 + k), _mm512_shuffle_i32x4(b, d, 0x88));   // lane 2
    Emit16<kXor>(out + 64 * (12 + k), _mm512_shuffle_i32x4(b, d, 0xdd));  // lane 3
  }
}

template <bool kXor>
DISSENT_AVX512 void RunAvx512(const uint32_t state[16], uint32_t counter, size_t nblocks,
                              uint8_t* out) {
  for (; nblocks >= 16; nblocks -= 16, counter += 16, out += 16 * 64) {
    Batch16<kXor>(state, counter, out);
  }
  RunAvx2<kXor>(state, counter, nblocks, out);
}

#pragma GCC diagnostic pop

#endif  // DISSENT_CHACHA_SIMD

}  // namespace

namespace kernels {

const std::vector<ChaChaKernel>& ChaChaKernels() {
  static const std::vector<ChaChaKernel> tiers = {
#ifdef DISSENT_CHACHA_SIMD
      {"avx512", HostCpuFeatures().avx512f, RunAvx512<false>, RunAvx512<true>},
      {"avx2", HostCpuFeatures().avx2, RunAvx2<false>, RunAvx2<true>},
#endif
      {"scalar", true, RunScalar<false>, RunScalar<true>},
  };
  return tiers;
}

const ChaChaKernel& SelectedChaChaKernel() {
  static const ChaChaKernel& selected = FirstSupported(ChaChaKernels());
  return selected;
}

}  // namespace kernels

void ChaCha20Block(const uint8_t key[32], const uint8_t nonce[12], uint32_t counter,
                   uint8_t out[64]) {
  uint32_t state[16];
  ExpandState(key, nonce, state);
  BlockFromState(state, counter, out);
}

void ChaCha20Blocks(const uint8_t key[32], const uint8_t nonce[12], uint32_t counter,
                    size_t nblocks, uint8_t* out) {
  uint32_t state[16];
  ExpandState(key, nonce, state);
  kernels::SelectedChaChaKernel().blocks(state, counter, nblocks, out);
}

void ParseChaCha20Key(const Bytes& key, uint32_t key_words[8]) {
  assert(key.size() == 32);
  for (int i = 0; i < 8; ++i) {
    key_words[i] = LoadLE32(key.data() + 4 * i);
  }
}

ChaCha20Stream::ChaCha20Stream(const Bytes& key, const Bytes& nonce)
    : ChaCha20Stream(key, nonce, kernels::SelectedChaChaKernel()) {}

ChaCha20Stream::ChaCha20Stream(const Bytes& key, const Bytes& nonce,
                               const kernels::ChaChaKernel& kernel)
    : kernel_(&kernel) {
  assert(key.size() == 32);
  assert(nonce.size() == 12);
  ExpandState(key.data(), nonce.data(), state_);
}

ChaCha20Stream::ChaCha20Stream(const uint32_t key_words[8], const uint8_t nonce[12])
    : kernel_(&kernels::SelectedChaChaKernel()) {
  state_[0] = kSigma0;
  state_[1] = kSigma1;
  state_[2] = kSigma2;
  state_[3] = kSigma3;
  std::memcpy(state_ + 4, key_words, 8 * sizeof(uint32_t));
  state_[12] = 0;
  for (int i = 0; i < 3; ++i) {
    state_[13 + i] = LoadLE32(nonce + 4 * i);
  }
}

void ChaCha20Stream::Refill() {
  BlockFromState(state_, counter_, block_);
  ++counter_;
  block_pos_ = 0;
}

void ChaCha20Stream::Seek(uint64_t byte_offset) {
  counter_ = static_cast<uint32_t>(byte_offset / 64);
  size_t rem = static_cast<size_t>(byte_offset % 64);
  if (rem == 0) {
    block_pos_ = 64;  // next use generates the block lazily
  } else {
    Refill();
    block_pos_ = rem;
  }
}

void ChaCha20Stream::GenerateRaw(uint8_t* out, size_t n) {
  // Drain the partial block first.
  if (block_pos_ < 64 && n > 0) {
    size_t take = 64 - block_pos_;
    if (take > n) {
      take = n;
    }
    std::memcpy(out, block_ + block_pos_, take);
    block_pos_ += take;
    out += take;
    n -= take;
  }
  // Bulk: full blocks straight into the destination, no bounce buffer.
  size_t blocks = n / 64;
  if (blocks > 0) {
    kernel_->blocks(state_, counter_, blocks, out);
    counter_ += static_cast<uint32_t>(blocks);
    out += 64 * blocks;
    n -= 64 * blocks;
  }
  // Tail: materialize one block and keep the remainder for the next call.
  if (n > 0) {
    Refill();
    std::memcpy(out, block_, n);
    block_pos_ = n;
  }
}

void ChaCha20Stream::Generate(size_t n, Bytes* out) {
  size_t start = out->size();
  out->resize(start + n);
  GenerateRaw(out->data() + start, n);
}

Bytes ChaCha20Stream::Generate(size_t n) {
  Bytes out;
  Generate(n, &out);
  return out;
}

void ChaCha20Stream::XorStreamRaw(uint8_t* dst, size_t n) {
  if (block_pos_ < 64 && n > 0) {
    size_t take = 64 - block_pos_;
    if (take > n) {
      take = n;
    }
    XorWords(dst, block_ + block_pos_, take);
    block_pos_ += take;
    dst += take;
    n -= take;
  }
  size_t blocks = n / 64;
  if (blocks > 0) {
    kernel_->xor_blocks(state_, counter_, blocks, dst);
    counter_ += static_cast<uint32_t>(blocks);
    dst += 64 * blocks;
    n -= 64 * blocks;
  }
  if (n > 0) {
    Refill();
    XorWords(dst, block_, n);
    block_pos_ = n;
  }
}

void ChaCha20Stream::XorStream(Bytes& dst, size_t offset, size_t n) {
  assert(offset + n <= dst.size());
  XorStreamRaw(dst.data() + offset, n);
}

uint64_t ChaCha20Stream::NextU64() {
  // Fast path: eight contiguous bytes available in the current block.
  if (block_pos_ + 8 <= 64) {
    uint64_t v;
    std::memcpy(&v, block_ + block_pos_, 8);
    block_pos_ += 8;
#if defined(__BYTE_ORDER__) && __BYTE_ORDER__ == __ORDER_BIG_ENDIAN__
    v = __builtin_bswap64(v);
#endif
    return v;
  }
  // Slow path (block boundary): same byte order as sequential generation.
  uint8_t b[8];
  GenerateRaw(b, 8);
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<uint64_t>(b[i]) << (8 * i);
  }
  return v;
}

}  // namespace dissent
