#include "src/core/dcnet.h"

#include <algorithm>
#include <cassert>

#include "src/crypto/chacha20.h"

namespace dissent {

namespace {

struct Nonce12 {
  uint8_t b[12];
};

Nonce12 RoundNonce(uint64_t round) {
  Nonce12 nonce{};
  for (int i = 0; i < 8; ++i) {
    nonce.b[i] = static_cast<uint8_t>(round >> (8 * i));
  }
  nonce.b[8] = 'd';  // domain tag: dcnet pads
  nonce.b[9] = 'c';
  nonce.b[10] = 0;
  nonce.b[11] = 0;
  return nonce;
}

// Below this many bytes per column, the hand-off to a worker beats the win.
constexpr size_t kMinColumnBytes = 4096;

}  // namespace

namespace {
ChaCha20Stream RoundStream(const Bytes& shared_key, uint64_t round) {
  uint32_t key_words[8];
  ParseChaCha20Key(shared_key, key_words);
  return ChaCha20Stream(key_words, RoundNonce(round).b);
}
}  // namespace

Bytes DcnetPad(const Bytes& shared_key, uint64_t round, size_t len) {
  return RoundStream(shared_key, round).Generate(len);
}

void XorDcnetPad(const Bytes& shared_key, uint64_t round, Bytes& inout) {
  RoundStream(shared_key, round).XorStreamRaw(inout.data(), inout.size());
}

Bytes BuildClientCiphertext(const std::vector<Bytes>& server_keys, uint64_t round,
                            const Bytes& cleartext) {
  Bytes ct = cleartext;
  for (const Bytes& key : server_keys) {
    XorDcnetPad(key, round, ct);
  }
  return ct;
}

namespace {
// Shared by DcnetPadBit and PadExpander::PadBit so the seek logic and the
// MSB-first bit convention (util/bytes.h GetBit) can never diverge between
// the two accusation-tracing entry points.
bool StreamPadBit(ChaCha20Stream& stream, size_t bit_index) {
  stream.Seek(bit_index / 8);
  uint8_t byte;
  stream.GenerateRaw(&byte, 1);
  return (byte >> (7 - bit_index % 8)) & 1;
}
}  // namespace

bool DcnetPadBit(const Bytes& shared_key, uint64_t round, size_t bit_index) {
  ChaCha20Stream stream = RoundStream(shared_key, round);
  return StreamPadBit(stream, bit_index);
}

PadExpander::PadExpander(const std::vector<Bytes>& keys) {
  schedules_.resize(keys.size());
  all_indices_.resize(keys.size());
  for (size_t i = 0; i < keys.size(); ++i) {
    ParseChaCha20Key(keys[i], schedules_[i].words);
    all_indices_[i] = static_cast<uint32_t>(i);
  }
}

PadExpander::PadExpander(const std::vector<const Bytes*>& keys) {
  schedules_.resize(keys.size());
  all_indices_.resize(keys.size());
  for (size_t i = 0; i < keys.size(); ++i) {
    ParseChaCha20Key(*keys[i], schedules_[i].words);
    all_indices_[i] = static_cast<uint32_t>(i);
  }
}

void PadExpander::XorColumn(const std::vector<uint32_t>& indices, uint64_t round,
                            size_t begin, size_t end, uint8_t* acc) const {
  assert(begin % 64 == 0);
  const Nonce12 nonce = RoundNonce(round);
  for (uint32_t idx : indices) {
    ChaCha20Stream stream(schedules_[idx].words, nonce.b);
    stream.Seek(begin);
    stream.XorStreamRaw(acc + begin, end - begin);
  }
}

void PadExpander::XorPads(const std::vector<uint32_t>& indices, uint64_t round,
                          Bytes& inout, size_t num_threads) const {
  const size_t len = inout.size();
  if (len == 0 || indices.empty()) {
    return;
  }
  // Column width per worker, rounded up to whole 16-block (1 KiB) batches
  // of the widest ChaCha20 kernel, so only the last column ends in the
  // slower narrow-kernel tail, and every column seeks to a block boundary.
  size_t columns = std::max<size_t>(num_threads, 1);
  columns = std::min(columns, (len + kMinColumnBytes - 1) / kMinColumnBytes);
  if (columns <= 1) {
    XorColumn(indices, round, 0, len, inout.data());
    return;
  }
  const size_t width = ((len + columns - 1) / columns + 1023) & ~size_t{1023};
  columns = (len + width - 1) / width;
  uint8_t* acc = inout.data();
  ParallelFor(columns, columns, [&](size_t first, size_t last) {
    for (size_t c = first; c < last; ++c) {
      XorColumn(indices, round, c * width, std::min(len, (c + 1) * width), acc);
    }
  });
}

void PadExpander::XorAllPads(uint64_t round, Bytes& inout, size_t num_threads) const {
  XorPads(all_indices_, round, inout, num_threads);
}

bool PadExpander::PadBit(size_t index, uint64_t round, size_t bit_index) const {
  assert(index < schedules_.size());
  ChaCha20Stream stream(schedules_[index].words, RoundNonce(round).b);
  return StreamPadBit(stream, bit_index);
}

void XorCompositePads(const PadExpander& expander, const std::vector<uint32_t>& indices,
                      uint64_t round, Bytes& inout) {
  const size_t threads = indices.size() > kParallelPadKeys ? DefaultCryptoThreads() : 1;
  expander.XorPads(indices, round, inout, threads);
}

CompositePadJob::CompositePadJob(std::shared_ptr<const PadExpander> expander,
                                 std::vector<uint32_t> expected, uint64_t round, size_t len,
                                 Bytes buffer)
    : state_(std::make_shared<State>(
          State{std::move(expander), std::move(expected), round, len, std::move(buffer)})) {
  task_ = std::make_shared<WorkerPool::Task>([st = state_] {
    st->acc.assign(st->len, 0);
    XorCompositePads(*st->expander, st->expected, st->round, st->acc);
  });
  WorkerPool::Shared().Post(task_);
}

CompositePadJob::~CompositePadJob() { task_->Cancel(); }

Bytes CompositePadJob::Take() {
  task_->Join();
  return std::move(state_->acc);
}

void XorDcnetPadsParallel(const std::vector<const Bytes*>& shared_keys, uint64_t round,
                          Bytes& inout, size_t num_threads) {
  PadExpander expander(shared_keys);
  expander.XorAllPads(round, inout, num_threads);
}

}  // namespace dissent
