// One process-wide worker pool for the crypto hot paths: the public-key
// proof stack's ParallelFor fan-out and the DC-net pad plane (core/dcnet.cc,
// core/server.cc) both run on it, so no hot path constructs a thread.
//
// The shuffle cascade's unit of work is an independent row (re-encryption,
// DLEQ proof, ILMPP commitment) or an independent mix step; the pad plane's
// is a byte column of an accumulator, or a whole server round's composite
// pad expansion (a Task posted at round open, joined at window close).
// Results must be deterministic: callers draw all randomness serially up
// front, workers only perform pure arithmetic, so the output is
// bit-identical for any worker count (including none).
//
// Nothing ever waits on work no thread has started: a ParallelFor caller
// claims chunks itself and waits only for chunks another thread already
// runs, and Task::Join runs a task that no worker has picked up yet on the
// joining thread. So a pool with zero (or busy, or absent) workers degrades
// to inline execution instead of deadlocking, and pool threads may
// themselves call ParallelFor.
//
// Nested calls run inline on the calling thread — a ParallelFor inside a
// ParallelFor body never over-subscribes (e.g. a MultiExp partition inside
// a parallel-across-steps cascade verification).
#ifndef DISSENT_UTIL_PARALLEL_H_
#define DISSENT_UTIL_PARALLEL_H_

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace dissent {

// Worker budget for crypto hot paths: hardware_concurrency capped at 8, and
// 1 when the crypto fast path is disabled so the reference benchmark
// columns stay faithfully serial. With a budget of 1 everything (ParallelFor
// chunks and posted tasks alike) runs inline on the caller.
size_t DefaultCryptoThreads();

class WorkerPool {
 public:
  // Work that runs exactly once: on a pool worker, or on the first thread
  // that joins it, whichever claims it first.
  class Task {
   public:
    explicit Task(std::function<void()> fn) : fn_(std::move(fn)) {}
    Task(const Task&) = delete;
    Task& operator=(const Task&) = delete;

    // Runs the work here if no thread has started it, else waits for the
    // thread that did. No-op after a Cancel that won.
    void Join();
    // Drops the work if no thread has started it yet (it will never run);
    // otherwise lets the running or finished work be. Never waits.
    void Cancel();
    bool done() const;

   private:
    friend class WorkerPool;
    enum class State { kQueued, kRunning, kDone, kCanceled };
    bool TryRun();  // claims and runs; false if another thread claimed it

    std::function<void()> fn_;
    mutable std::mutex mu_;
    std::condition_variable cv_;
    State state_ = State::kQueued;
  };

  // Starts `workers` threads (0 is valid: every task then runs on its
  // joiner). Destruction stops the threads after they finish their current
  // item; queued work is left to its joiners.
  explicit WorkerPool(size_t workers);
  ~WorkerPool();
  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  // The process-wide pool: DefaultCryptoThreads() - 1 workers on the
  // hardware's budget, started on first use.
  static WorkerPool& Shared();

  size_t workers() const { return threads_.size(); }

  // Queues `task` for a worker. Inline mode (no workers, or
  // DefaultCryptoThreads() == 1) leaves it for Task::Join.
  void Post(std::shared_ptr<Task> task);

  // Invokes fn(begin, end) over a partition of [0, n) into contiguous
  // chunks; the caller and up to num_threads - 1 workers claim chunks until
  // none are left, so at most num_threads calls run at once. fn must be
  // safe to call concurrently on disjoint ranges.
  void ParallelFor(size_t n, size_t num_threads,
                   const std::function<void(size_t, size_t)>& fn);

 private:
  void Enqueue(std::function<void()> item);
  void WorkerLoop();

  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<std::function<void()>> queue_;
  bool stop_ = false;
  std::vector<std::thread> threads_;
};

// WorkerPool::Shared().ParallelFor. num_threads <= 1, n <= 1, a nested call
// or DefaultCryptoThreads() == 1 degenerate to a single inline fn(0, n).
void ParallelFor(size_t n, size_t num_threads,
                 const std::function<void(size_t, size_t)>& fn);

}  // namespace dissent

#endif  // DISSENT_UTIL_PARALLEL_H_
