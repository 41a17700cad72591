#include "src/util/parallel.h"

#include <algorithm>
#include <atomic>

#include "src/crypto/multiexp.h"

namespace dissent {

namespace {

thread_local bool t_in_parallel_region = false;

// Probed once: hardware_concurrency() reads sysfs on every call, and this
// sits on the per-round post path.
size_t HardwareCryptoThreads() {
  static const size_t threads =
      std::max<size_t>(std::min<size_t>(std::thread::hardware_concurrency(), 8), 1);
  return threads;
}

// One ParallelFor call's chunk ledger. Shared with the helper items it
// posts, which may start after the call returned: by then every chunk is
// claimed, so a late helper claims nothing and never touches `fn`.
struct ForState {
  ForState(size_t n, size_t chunks, const std::function<void(size_t, size_t)>* fn)
      : n(n), chunks(chunks), chunk((n + chunks - 1) / chunks), fn(fn) {}

  // Claims and runs chunks until none are left.
  void Drain() {
    for (;;) {
      const size_t c = next.fetch_add(1, std::memory_order_relaxed);
      if (c >= chunks) {
        return;
      }
      const size_t begin = c * chunk;
      const bool outer = t_in_parallel_region;
      t_in_parallel_region = true;
      if (begin < n) {
        (*fn)(begin, std::min(n, begin + chunk));
      }
      t_in_parallel_region = outer;
      std::lock_guard<std::mutex> lock(mu);
      if (++finished == chunks) {
        cv.notify_all();
      }
    }
  }

  const size_t n, chunks, chunk;
  const std::function<void(size_t, size_t)>* fn;
  std::atomic<size_t> next{0};
  std::mutex mu;
  std::condition_variable cv;
  size_t finished = 0;
};

}  // namespace

size_t DefaultCryptoThreads() {
  return CryptoFastPathEnabled() ? HardwareCryptoThreads() : 1;
}

bool WorkerPool::Task::TryRun() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (state_ != State::kQueued) {
      return false;
    }
    state_ = State::kRunning;
  }
  fn_();
  std::lock_guard<std::mutex> lock(mu_);
  state_ = State::kDone;
  fn_ = nullptr;  // release captures on the running thread, not the last owner
  cv_.notify_all();
  return true;
}

void WorkerPool::Task::Join() {
  if (TryRun()) {
    return;
  }
  std::unique_lock<std::mutex> lock(mu_);
  cv_.wait(lock, [this] { return state_ != State::kRunning; });
}

void WorkerPool::Task::Cancel() {
  std::lock_guard<std::mutex> lock(mu_);
  if (state_ == State::kQueued) {
    state_ = State::kCanceled;
    fn_ = nullptr;
  }
}

bool WorkerPool::Task::done() const {
  std::lock_guard<std::mutex> lock(mu_);
  return state_ == State::kDone;
}

WorkerPool::WorkerPool(size_t workers) {
  threads_.reserve(workers);
  for (size_t w = 0; w < workers; ++w) {
    threads_.emplace_back([this] { WorkerLoop(); });
  }
}

WorkerPool::~WorkerPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  for (auto& t : threads_) {
    t.join();
  }
}

WorkerPool& WorkerPool::Shared() {
  static WorkerPool pool(HardwareCryptoThreads() - 1);
  return pool;
}

void WorkerPool::WorkerLoop() {
  for (;;) {
    std::function<void()> item;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (stop_) {
        return;
      }
      item = std::move(queue_.front());
      queue_.pop_front();
    }
    item();
  }
}

void WorkerPool::Enqueue(std::function<void()> item) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    queue_.push_back(std::move(item));
  }
  cv_.notify_one();
}

void WorkerPool::Post(std::shared_ptr<Task> task) {
  if (threads_.empty() || DefaultCryptoThreads() <= 1) {
    return;  // inline mode: the joiner runs it
  }
  Enqueue([task = std::move(task)] { task->TryRun(); });
}

void WorkerPool::ParallelFor(size_t n, size_t num_threads,
                             const std::function<void(size_t, size_t)>& fn) {
  if (n == 0) {
    return;
  }
  const size_t threads = std::min(std::max<size_t>(num_threads, 1), n);
  if (threads <= 1 || t_in_parallel_region || DefaultCryptoThreads() <= 1) {
    fn(0, n);
    return;
  }
  // More chunks than threads: a parked worker can take far longer to wake
  // than a chunk takes to run (hundreds of microseconds on a VM), so a
  // helper that starts late should find small pieces left, and the caller
  // should never wait long on one it claimed.
  constexpr size_t kChunksPerThread = 4;
  const size_t chunks = std::min(n, threads * kChunksPerThread);
  auto state = std::make_shared<ForState>(n, chunks, &fn);
  const size_t helpers = std::min(threads - 1, threads_.size());
  for (size_t h = 0; h < helpers; ++h) {
    Enqueue([state] { state->Drain(); });
  }
  state->Drain();
  // Every chunk is claimed now; wait only for those other threads run.
  std::unique_lock<std::mutex> lock(state->mu);
  state->cv.wait(lock, [&] { return state->finished == chunks; });
}

void ParallelFor(size_t n, size_t num_threads,
                 const std::function<void(size_t, size_t)>& fn) {
  WorkerPool::Shared().ParallelFor(n, num_threads, fn);
}

}  // namespace dissent
