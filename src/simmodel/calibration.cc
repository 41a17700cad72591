#include "src/simmodel/calibration.h"

#include <chrono>

#include "src/core/dcnet.h"
#include "src/core/output_cert.h"
#include "src/crypto/group.h"
#include "src/crypto/schnorr.h"
#include "src/crypto/sha256.h"

namespace dissent {

namespace {

double SecondsSince(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
}

// Seconds per call of fn: the minimum over `batches` timed batches of
// `iters` calls each.
template <typename Fn>
double BestPerCall(int batches, int iters, Fn fn) {
  double best = 0;
  for (int b = 0; b < batches; ++b) {
    auto t0 = std::chrono::steady_clock::now();
    for (int i = 0; i < iters; ++i) {
      fn();
    }
    double per_call = SecondsSince(t0) / iters;
    if (b == 0 || per_call < best) {
      best = per_call;
    }
  }
  return best;
}

}  // namespace

Calibration Calibration::Measure() {
  Calibration c;
  Bytes key(32, 0x42);

  {  // ChaCha pad expansion.
    constexpr size_t kBytes = 1 << 22;
    Bytes buf(kBytes, 0);
    auto t0 = std::chrono::steady_clock::now();
    XorDcnetPad(key, 1, buf);
    c.prng_bytes_per_sec = kBytes / SecondsSince(t0);
  }
  {  // XOR combining.
    constexpr size_t kBytes = 1 << 22;
    Bytes a(kBytes, 1), b(kBytes, 2);
    auto t0 = std::chrono::steady_clock::now();
    for (int i = 0; i < 8; ++i) {
      XorInto(a, b);
    }
    c.xor_bytes_per_sec = 8.0 * kBytes / SecondsSince(t0);
  }
  {  // SHA-256.
    constexpr size_t kBytes = 1 << 22;
    Bytes buf(kBytes, 3);
    auto t0 = std::chrono::steady_clock::now();
    Bytes digest = Sha256::Hash(buf);
    c.hash_bytes_per_sec = kBytes / SecondsSince(t0);
  }
  {  // Schnorr sign/verify and raw modexp on the test group.
    auto g = Group::Named(GroupId::kTesting256);
    SecureRng rng = SecureRng::FromLabel(777);
    SchnorrKeyPair kp = SchnorrKeyPair::Generate(*g, rng);
    Bytes msg(64, 9);
    constexpr int kIters = 20;
    // Sign and verify each take the fastest of several batches, so one
    // scheduler stall inside a ~1 ms batch cannot skew the ratio.
    constexpr int kBatches = 5;
    SchnorrSignature sig;
    c.sign_sec = BestPerCall(kBatches, kIters, [&] {
      sig = SchnorrSign(*g, kp.priv, msg, rng);
    });
    c.verify_sec = BestPerCall(kBatches, kIters, [&] {
      SchnorrVerify(*g, kp.pub, msg, sig);
    });
    BigInt e = g->RandomScalar(rng);
    auto t0 = std::chrono::steady_clock::now();
    BigInt acc = g->g();
    for (int i = 0; i < kIters; ++i) {
      acc = g->Exp(acc, e);
    }
    c.modexp_sec = SecondsSince(t0) / kIters;
  }
  return c;
}

}  // namespace dissent
