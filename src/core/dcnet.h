// DC-net pad plane (§3.3-3.4): expansion of the pairwise client/server
// secrets K_ij into per-round pseudo-random strings, and the XOR algebra of
// ciphertext formation.
//
// Invariant (tested exhaustively in tests/core/dcnet_test.cc): for any client
// subset L,
//   XOR_{i in L} c_i  XOR  XOR_j s_j  ==  XOR_{i in L} m_i
// where c_i = m_i ^ PAD(i,0) ^ ... ^ PAD(i,M-1) and server j's ciphertext
// s_j = XOR_{i in L} PAD(i,j) ^ (client ciphertexts j received directly) —
// every pad appears exactly twice and cancels.
//
// A server's composite pad XOR_{i in L} PAD(i,j) depends only on the keys,
// the round and the length, never on what clients send, so servers expand
// it in the background from round open (CompositePadJob, on the shared
// worker pool of util/parallel.h) and only patch in the difference between
// the predicted and the actual client list at window close (server.h).
#ifndef DISSENT_CORE_DCNET_H_
#define DISSENT_CORE_DCNET_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "src/util/bytes.h"
#include "src/util/parallel.h"

namespace dissent {

// Expands the 32-byte pairwise secret into `len` pad bytes for `round`.
// Deterministic; both endpoints of the pair produce identical bytes.
Bytes DcnetPad(const Bytes& shared_key, uint64_t round, size_t len);

// XORs the round pad directly into an existing buffer (server hot path —
// avoids materializing per-client pads).
void XorDcnetPad(const Bytes& shared_key, uint64_t round, Bytes& inout);

// Client side (Algorithm 1 step 2): cleartext XOR all M server pads.
// `cleartext` must be the full round-cleartext length; silent clients pass
// all zeros.
Bytes BuildClientCiphertext(const std::vector<Bytes>& server_keys, uint64_t round,
                            const Bytes& cleartext);

// Extracts one pad bit (for accusation tracing, §3.9) in O(1): seeks the
// keystream straight to the containing 64-byte block instead of generating
// the whole prefix.
bool DcnetPadBit(const Bytes& shared_key, uint64_t round, size_t bit_index);

// Holds precomputed ChaCha20 key schedules for a fixed set of pairwise
// secrets, so the per-round hot path never re-parses key bytes and never
// allocates per-client temporaries: pads are expanded directly into the
// caller's accumulator.
//
// This is the server's per-round workhorse (Algorithm 2 step 3): one
// DissentServer builds a PadExpander over all N client keys once, then each
// round XORs the pads of the participating subset into its ciphertext
// accumulator. Clients hold one over their M server keys (Algorithm 1
// step 2).
class PadExpander {
 public:
  PadExpander() = default;
  // Copies the 8-word key schedule out of each 32-byte key.
  explicit PadExpander(const std::vector<Bytes>& keys);
  explicit PadExpander(const std::vector<const Bytes*>& keys);

  size_t num_keys() const { return schedules_.size(); }

  // XORs PAD(keys[i], round) for every i in `indices` into `inout`
  // (full-buffer-length pads). Fans the work out on the worker pool
  // (util/parallel.h) into up to `num_threads` *columns*: each column is a
  // contiguous byte range of the accumulator, for which every client's
  // keystream is expanded via an O(1) counter seek. Columns write disjoint
  // ranges of `inout` directly — no per-worker full-length buffers, no final
  // fold pass.
  void XorPads(const std::vector<uint32_t>& indices, uint64_t round, Bytes& inout,
               size_t num_threads) const;

  // All keys (the common client path: every server pad, single buffer).
  void XorAllPads(uint64_t round, Bytes& inout, size_t num_threads = 1) const;

  // Pad bit for key `index` (accusation tracing); O(1) via seek.
  bool PadBit(size_t index, uint64_t round, size_t bit_index) const;

 private:
  struct KeySchedule {
    uint32_t words[8];
  };

  // Expands every indexed key's pad for stream bytes [begin, end) and XORs
  // into acc + begin. `begin` must be 64-byte aligned (block boundary).
  void XorColumn(const std::vector<uint32_t>& indices, uint64_t round, size_t begin,
                 size_t end, uint8_t* acc) const;

  std::vector<KeySchedule> schedules_;
  std::vector<uint32_t> all_indices_;  // 0..N-1, so XorAllPads never allocates
};

// The server's composite-pad rule (Algorithm 2 step 3): XORs PAD(i, round)
// for every i in `indices` into `inout`, fanning the columns out on the
// worker pool once there are more than kParallelPadKeys keys (§3.4: "these
// computations are parallelizable"). Up to that one thread per server round
// is the better use of the pool: other servers' rounds and the protocol
// thread share it, and narrow columns cost CPU in per-column kernel tails.
inline constexpr size_t kParallelPadKeys = 256;
void XorCompositePads(const PadExpander& expander, const std::vector<uint32_t>& indices,
                      uint64_t round, Bytes& inout);

// One server round's composite pad, XOR_{i in expected} PAD(i, round) over
// `len` bytes, expanded in the background: construction posts it to the
// shared worker pool, Take() joins it (running it on the caller if no worker
// has started it yet) and hands over the accumulator. Destroying an
// unfinished job cancels it if it has not started; a running one finishes
// into state only it still owns, so the owner never waits on a drop.
class CompositePadJob {
 public:
  // `buffer` donates its capacity to the accumulator.
  CompositePadJob(std::shared_ptr<const PadExpander> expander, std::vector<uint32_t> expected,
                  uint64_t round, size_t len, Bytes buffer);
  ~CompositePadJob();
  CompositePadJob(const CompositePadJob&) = delete;
  CompositePadJob& operator=(const CompositePadJob&) = delete;

  const std::vector<uint32_t>& expected() const { return state_->expected; }
  size_t length() const { return state_->len; }
  Bytes Take();

 private:
  struct State {
    std::shared_ptr<const PadExpander> expander;
    std::vector<uint32_t> expected;
    uint64_t round;
    size_t len;
    Bytes acc;
  };
  std::shared_ptr<State> state_;
  std::shared_ptr<WorkerPool::Task> task_;
};

// Server side (Algorithm 2 step 3): XORs the pads for many clients into
// `inout`, fanning the PRNG expansion across `num_threads` workers. §3.4:
// "these computations are parallelizable, and Dissent assumes that the
// servers are provisioned with enough computing capacity". XOR commutes, so
// the result is bit-identical to the serial loop.
void XorDcnetPadsParallel(const std::vector<const Bytes*>& shared_keys, uint64_t round,
                          Bytes& inout, size_t num_threads);

}  // namespace dissent

#endif  // DISSENT_CORE_DCNET_H_
