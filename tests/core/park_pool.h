// Test helper: parks every worker of the shared pool, so work posted
// afterwards stays queued until Release() — the deterministic way to reach
// the "job still queued" states of the background pad jobs.
#ifndef DISSENT_TESTS_CORE_PARK_POOL_H_
#define DISSENT_TESTS_CORE_PARK_POOL_H_

#include <atomic>
#include <chrono>
#include <future>
#include <memory>
#include <thread>

#include "src/util/parallel.h"

namespace dissent {

class ParkedPool {
 public:
  ParkedPool() {
    WorkerPool& pool = WorkerPool::Shared();
    std::shared_future<void> opened = open_.get_future().share();
    for (size_t w = 0; w < pool.workers(); ++w) {
      pool.Post(std::make_shared<WorkerPool::Task>([opened, parked = parked_] {
        parked->fetch_add(1);
        opened.wait();
      }));
    }
    // With the fast path off Post queues nothing, so wait only for what ran.
    const size_t want = DefaultCryptoThreads() > 1 ? pool.workers() : 0;
    for (int i = 0; i < 10000 && parked_->load() < want; ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
  ~ParkedPool() { Release(); }

  void Release() {
    if (!released_) {
      released_ = true;
      open_.set_value();
    }
  }

 private:
  std::promise<void> open_;
  std::shared_ptr<std::atomic<size_t>> parked_ = std::make_shared<std::atomic<size_t>>(0);
  bool released_ = false;
};

}  // namespace dissent

#endif  // DISSENT_TESTS_CORE_PARK_POOL_H_
