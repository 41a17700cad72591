#include "src/crypto/sha256.h"

#include <cstring>

#include "src/crypto/kernels.h"
#include "src/util/serialize.h"

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#include <immintrin.h>
#define DISSENT_SHA_NI 1
#endif

namespace dissent {

namespace {

constexpr uint32_t kK[64] = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4,
    0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe,
    0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f,
    0x4a7484aa, 0x5cb0a9dc, 0x76f988da, 0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7,
    0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc,
    0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070, 0x19a4c116,
    0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7,
    0xc67178f2};

uint32_t Rotr(uint32_t x, int n) { return (x >> n) | (x << (32 - n)); }

// Portable reference compression: FIPS 180-4 §6.2.2, one block at a time.
void CompressPortable(uint32_t state[8], const uint8_t* blocks, size_t nblocks) {
  for (; nblocks > 0; --nblocks, blocks += 64) {
    uint32_t w[64];
    for (int i = 0; i < 16; ++i) {
      w[i] = static_cast<uint32_t>(blocks[4 * i]) << 24 |
             static_cast<uint32_t>(blocks[4 * i + 1]) << 16 |
             static_cast<uint32_t>(blocks[4 * i + 2]) << 8 |
             static_cast<uint32_t>(blocks[4 * i + 3]);
    }
    for (int i = 16; i < 64; ++i) {
      uint32_t s0 = Rotr(w[i - 15], 7) ^ Rotr(w[i - 15], 18) ^ (w[i - 15] >> 3);
      uint32_t s1 = Rotr(w[i - 2], 17) ^ Rotr(w[i - 2], 19) ^ (w[i - 2] >> 10);
      w[i] = w[i - 16] + s0 + w[i - 7] + s1;
    }
    uint32_t a = state[0], b = state[1], c = state[2], d = state[3];
    uint32_t e = state[4], f = state[5], g = state[6], h = state[7];
    for (int i = 0; i < 64; ++i) {
      uint32_t s1 = Rotr(e, 6) ^ Rotr(e, 11) ^ Rotr(e, 25);
      uint32_t ch = (e & f) ^ (~e & g);
      uint32_t t1 = h + s1 + ch + kK[i] + w[i];
      uint32_t s0 = Rotr(a, 2) ^ Rotr(a, 13) ^ Rotr(a, 22);
      uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
      uint32_t t2 = s0 + maj;
      h = g;
      g = f;
      f = e;
      e = d + t1;
      d = c;
      c = b;
      b = a;
      a = t1 + t2;
    }
    state[0] += a;
    state[1] += b;
    state[2] += c;
    state[3] += d;
    state[4] += e;
    state[5] += f;
    state[6] += g;
    state[7] += h;
  }
}

#ifdef DISSENT_SHA_NI

// SHA-NI compression. The state lives in two registers in the order the
// instructions expect, ABEF and CDGH. Each sha256rnds2 runs two rounds, so
// a quad of four message words costs two of them; sha256msg1/msg2 extend
// the message schedule four words at a time, with the W[t-7] term added in
// between through an alignr of the two previous quads.
__attribute__((target("sha,sse4.1"))) void CompressShaNi(uint32_t state[8],
                                                         const uint8_t* blocks, size_t nblocks) {
  // Big-endian message words: byte-reverse each 32-bit lane.
  const __m128i bswap = _mm_set_epi64x(0x0c0d0e0f08090a0bULL, 0x0405060700010203ULL);
  __m128i tmp = _mm_loadu_si128(reinterpret_cast<const __m128i*>(state));         // DCBA
  __m128i state1 = _mm_loadu_si128(reinterpret_cast<const __m128i*>(state + 4));  // HGFE
  tmp = _mm_shuffle_epi32(tmp, 0xb1);                                              // CDAB
  state1 = _mm_shuffle_epi32(state1, 0x1b);                                        // EFGH
  __m128i state0 = _mm_alignr_epi8(tmp, state1, 8);                                // ABEF
  state1 = _mm_blend_epi16(state1, tmp, 0xf0);                                     // CDGH

  for (; nblocks > 0; --nblocks, blocks += 64) {
    const __m128i abef = state0;
    const __m128i cdgh = state1;
    __m128i m[4];
#pragma GCC unroll 16
    for (int q = 0; q < 16; ++q) {
      if (q < 4) {
        m[q] = _mm_shuffle_epi8(
            _mm_loadu_si128(reinterpret_cast<const __m128i*>(blocks + 16 * q)), bswap);
      }
      const __m128i wk =
          _mm_add_epi32(m[q % 4], _mm_loadu_si128(reinterpret_cast<const __m128i*>(kK + 4 * q)));
      state1 = _mm_sha256rnds2_epu32(state1, state0, wk);
      state0 = _mm_sha256rnds2_epu32(state0, state1, _mm_shuffle_epi32(wk, 0x0e));
      // Finish quad q+1 (started by msg1 three quads ago), then start q+3.
      if (q >= 3 && q <= 14) {
        __m128i& next = m[(q + 1) % 4];
        next = _mm_add_epi32(next, _mm_alignr_epi8(m[q % 4], m[(q + 3) % 4], 4));
        next = _mm_sha256msg2_epu32(next, m[q % 4]);
      }
      if (q >= 1 && q <= 12) {
        m[(q + 3) % 4] = _mm_sha256msg1_epu32(m[(q + 3) % 4], m[q % 4]);
      }
    }
    state0 = _mm_add_epi32(state0, abef);
    state1 = _mm_add_epi32(state1, cdgh);
  }

  tmp = _mm_shuffle_epi32(state0, 0x1b);                                          // FEBA
  state1 = _mm_shuffle_epi32(state1, 0xb1);                                       // DCHG
  state0 = _mm_blend_epi16(tmp, state1, 0xf0);                                    // DCBA
  state1 = _mm_alignr_epi8(state1, tmp, 8);                                       // HGFE
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state), state0);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state + 4), state1);
}

#endif  // DISSENT_SHA_NI

}  // namespace

namespace kernels {

const std::vector<Sha256Kernel>& Sha256Kernels() {
  static const std::vector<Sha256Kernel> tiers = {
#ifdef DISSENT_SHA_NI
      {"sha_ni", HostCpuFeatures().sha_ni, CompressShaNi},
#endif
      {"portable", true, CompressPortable},
  };
  return tiers;
}

const Sha256Kernel& SelectedSha256Kernel() {
  static const Sha256Kernel& selected = FirstSupported(Sha256Kernels());
  return selected;
}

}  // namespace kernels

Sha256::Sha256() : Sha256(kernels::SelectedSha256Kernel()) {}

Sha256::Sha256(const kernels::Sha256Kernel& kernel)
    : kernel_(&kernel),
      state_{0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
             0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19} {}

Sha256& Sha256::Update(const uint8_t* data, size_t len) {
  total_len_ += len;
  if (buf_len_ > 0) {
    size_t need = 64 - buf_len_;
    size_t take = len < need ? len : need;
    std::memcpy(buf_ + buf_len_, data, take);
    buf_len_ += take;
    data += take;
    len -= take;
    if (buf_len_ == 64) {
      kernel_->compress(state_.data(), buf_, 1);
      buf_len_ = 0;
    }
  }
  if (len >= 64) {
    const size_t nblocks = len / 64;
    kernel_->compress(state_.data(), data, nblocks);
    data += 64 * nblocks;
    len -= 64 * nblocks;
  }
  if (len > 0) {
    std::memcpy(buf_, data, len);
    buf_len_ = len;
  }
  return *this;
}

Sha256& Sha256::Update(const Bytes& data) { return Update(data.data(), data.size()); }

Bytes Sha256::Finish() {
  // Pad in place: 0x80, zeros to byte 56 of the last block (spilling into
  // one more block when fewer than 8 bytes remain), then the bit length.
  const uint64_t bit_len = total_len_ * 8;
  buf_[buf_len_++] = 0x80;
  if (buf_len_ > 56) {
    std::memset(buf_ + buf_len_, 0, 64 - buf_len_);
    kernel_->compress(state_.data(), buf_, 1);
    buf_len_ = 0;
  }
  std::memset(buf_ + buf_len_, 0, 56 - buf_len_);
  for (int i = 0; i < 8; ++i) {
    buf_[56 + i] = static_cast<uint8_t>(bit_len >> (56 - 8 * i));
  }
  kernel_->compress(state_.data(), buf_, 1);
  buf_len_ = 0;
  Bytes out(kDigestSize);
  for (int i = 0; i < 8; ++i) {
    out[4 * i] = static_cast<uint8_t>(state_[i] >> 24);
    out[4 * i + 1] = static_cast<uint8_t>(state_[i] >> 16);
    out[4 * i + 2] = static_cast<uint8_t>(state_[i] >> 8);
    out[4 * i + 3] = static_cast<uint8_t>(state_[i]);
  }
  return out;
}

Bytes Sha256::Hash(const Bytes& data) { return Sha256().Update(data).Finish(); }

Bytes Sha256::HashParts(std::initializer_list<const Bytes*> parts) {
  Writer w;
  for (const Bytes* p : parts) {
    w.Blob(*p);
  }
  return Hash(w.data());
}

}  // namespace dissent
