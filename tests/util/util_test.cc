// util: bytes/hex/bit helpers, canonical serialization, simulation RNG, and
// the worker pool behind ParallelFor and the background pad jobs.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <future>

#include "src/crypto/multiexp.h"
#include "src/util/bytes.h"
#include "src/util/parallel.h"
#include "src/util/rng.h"
#include "src/util/serialize.h"

namespace dissent {
namespace {

TEST(BytesTest, XorSemantics) {
  Bytes a = FromHex("00ff55aa1234");
  Bytes b = FromHex("ff00aa554321");
  EXPECT_EQ(ToHex(XorBytes(a, b)), "ffffffff5115");
  Bytes c = a;
  XorInto(c, b);
  XorInto(c, b);
  EXPECT_EQ(c, a) << "xor is an involution";
}

TEST(BytesTest, XorLongBuffers) {
  // Exercise the word-at-a-time path plus tail.
  Rng rng(3);
  for (size_t n : {1u, 7u, 8u, 9u, 63u, 64u, 65u, 1000u}) {
    Bytes a(n), b(n);
    for (size_t i = 0; i < n; ++i) {
      a[i] = static_cast<uint8_t>(rng.Next());
      b[i] = static_cast<uint8_t>(rng.Next());
    }
    Bytes c = XorBytes(a, b);
    for (size_t i = 0; i < n; ++i) {
      EXPECT_EQ(c[i], a[i] ^ b[i]);
    }
  }
}

TEST(BytesTest, HexRoundTrip) {
  Bytes b = {0x00, 0x01, 0xab, 0xff};
  EXPECT_EQ(ToHex(b), "0001abff");
  EXPECT_EQ(FromHex("0001abff"), b);
  EXPECT_EQ(FromHex(""), Bytes{});
}

TEST(BytesTest, ConstantTimeEq) {
  EXPECT_TRUE(ConstantTimeEq(FromHex("abcd"), FromHex("abcd")));
  EXPECT_FALSE(ConstantTimeEq(FromHex("abcd"), FromHex("abce")));
  EXPECT_FALSE(ConstantTimeEq(FromHex("abcd"), FromHex("abcdef")));
  EXPECT_TRUE(ConstantTimeEq(Bytes{}, Bytes{}));
}

TEST(BytesTest, BitAccessorsMsbFirst) {
  Bytes b = {0x80, 0x01};
  EXPECT_TRUE(GetBit(b, 0));
  EXPECT_FALSE(GetBit(b, 1));
  EXPECT_FALSE(GetBit(b, 8));
  EXPECT_TRUE(GetBit(b, 15));
  SetBit(b, 1, true);
  EXPECT_EQ(b[0], 0xc0);
  SetBit(b, 0, false);
  EXPECT_EQ(b[0], 0x40);
}

TEST(SerializeTest, RoundTripAllTypes) {
  Writer w;
  w.U8(7);
  w.U16(0x1234);
  w.U32(0xdeadbeef);
  w.U64(0x0123456789abcdefull);
  w.Bool(true);
  w.Blob(FromHex("a1b2c3"));
  w.Str("hello");
  Bytes data = w.Take();

  Reader r(data);
  uint8_t u8;
  uint16_t u16;
  uint32_t u32;
  uint64_t u64;
  bool flag;
  Bytes blob;
  std::string s;
  ASSERT_TRUE(r.U8(&u8));
  ASSERT_TRUE(r.U16(&u16));
  ASSERT_TRUE(r.U32(&u32));
  ASSERT_TRUE(r.U64(&u64));
  ASSERT_TRUE(r.Bool(&flag));
  ASSERT_TRUE(r.Blob(&blob));
  ASSERT_TRUE(r.Str(&s));
  EXPECT_TRUE(r.AtEnd());
  EXPECT_EQ(u8, 7);
  EXPECT_EQ(u16, 0x1234);
  EXPECT_EQ(u32, 0xdeadbeefu);
  EXPECT_EQ(u64, 0x0123456789abcdefull);
  EXPECT_TRUE(flag);
  EXPECT_EQ(ToHex(blob), "a1b2c3");
  EXPECT_EQ(s, "hello");
}

TEST(SerializeTest, TruncationIsRejectedNotCrash) {
  Writer w;
  w.U64(42);
  w.Blob(Bytes(100, 1));
  Bytes data = w.Take();
  for (size_t cut = 0; cut < data.size(); ++cut) {
    Bytes truncated(data.begin(), data.begin() + cut);
    Reader r(truncated);
    uint64_t v;
    Bytes blob;
    bool ok = r.U64(&v) && r.Blob(&blob);
    EXPECT_FALSE(ok && truncated.size() < data.size());
  }
}

TEST(SerializeTest, BlobLengthOverflowRejected) {
  // A length prefix larger than remaining bytes must fail cleanly.
  Writer w;
  w.U32(0xffffffffu);
  Reader r(w.data());
  Bytes blob;
  EXPECT_FALSE(r.Blob(&blob));
}

TEST(SerializeTest, BoolStrictness) {
  Writer w;
  w.U8(2);  // not a canonical bool
  Reader r(w.data());
  bool b;
  EXPECT_FALSE(r.Bool(&b));
}

TEST(RngTest, DeterministicBySeed) {
  Rng a(42), b(42), c(43);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.Next(), b.Next());
  }
  bool differs = false;
  Rng a2(42);
  for (int i = 0; i < 100; ++i) {
    differs |= a2.Next() != c.Next();
  }
  EXPECT_TRUE(differs);
}

TEST(RngTest, BelowIsInRangeAndCoversValues) {
  Rng rng(7);
  std::vector<int> seen(10, 0);
  for (int i = 0; i < 1000; ++i) {
    uint64_t v = rng.Below(10);
    ASSERT_LT(v, 10u);
    seen[v]++;
  }
  for (int count : seen) {
    EXPECT_GT(count, 50) << "grossly non-uniform";
  }
}

TEST(RngTest, DistributionsSane) {
  Rng rng(11);
  double sum = 0;
  constexpr int kN = 20000;
  for (int i = 0; i < kN; ++i) {
    sum += rng.Exponential(5.0);
  }
  EXPECT_NEAR(sum / kN, 5.0, 0.3);
  sum = 0;
  for (int i = 0; i < kN; ++i) {
    sum += rng.Normal();
  }
  EXPECT_NEAR(sum / kN, 0.0, 0.05);
  // Pareto minimum respected.
  for (int i = 0; i < 100; ++i) {
    EXPECT_GE(rng.Pareto(2.0, 1.5), 2.0);
  }
  // LogNormal median ~ exp(mu).
  std::vector<double> vals;
  for (int i = 0; i < kN; ++i) {
    vals.push_back(rng.LogNormal(1.0, 0.5));
  }
  std::nth_element(vals.begin(), vals.begin() + kN / 2, vals.end());
  EXPECT_NEAR(vals[kN / 2], std::exp(1.0), 0.15);
}

TEST(RngTest, ForkIndependence) {
  Rng parent(5);
  Rng child = parent.Fork();
  // Child and parent produce different streams.
  bool differs = false;
  for (int i = 0; i < 10; ++i) {
    differs |= parent.Next() != child.Next();
  }
  EXPECT_TRUE(differs);
}

// Polls `pred` for up to 10 s; the pool tests use it to wait for a worker
// without adding any hook to the pool itself.
template <typename Pred>
bool Eventually(Pred pred) {
  for (int i = 0; i < 10000; ++i) {
    if (pred()) {
      return true;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return pred();
}

// A task that parks a worker until the returned promise is set.
std::shared_ptr<WorkerPool::Task> Gate(std::shared_future<void> open,
                                       std::atomic<int>* parked) {
  return std::make_shared<WorkerPool::Task>([open, parked] {
    parked->fetch_add(1);
    open.wait();
  });
}

TEST(ParallelForTest, CoversEveryIndexExactlyOnce) {
  for (size_t n : {0u, 1u, 2u, 7u, 1000u}) {
    for (size_t threads : {1u, 2u, 4u, 16u}) {
      std::vector<std::atomic<int>> hits(n);
      std::atomic<int> calls{0};
      ParallelFor(n, threads, [&](size_t begin, size_t end) {
        ASSERT_LT(begin, end);
        ASSERT_LE(end, n);
        calls.fetch_add(1);
        for (size_t i = begin; i < end; ++i) {
          hits[i].fetch_add(1);
        }
      });
      for (size_t i = 0; i < n; ++i) {
        EXPECT_EQ(hits[i].load(), 1) << "n=" << n << " threads=" << threads << " i=" << i;
      }
      EXPECT_LE(calls.load(), static_cast<int>(n));
    }
  }
}

TEST(ParallelForTest, InlineWhenFastPathIsOff) {
  ScopedCryptoFastPath off(false);
  EXPECT_EQ(DefaultCryptoThreads(), 1u);
  const auto caller = std::this_thread::get_id();
  int calls = 0;
  ParallelFor(100, 8, [&](size_t begin, size_t end) {
    EXPECT_EQ(std::this_thread::get_id(), caller);
    EXPECT_EQ(begin, 0u);
    EXPECT_EQ(end, 100u);
    ++calls;
  });
  EXPECT_EQ(calls, 1);
}

TEST(ParallelForTest, NestedCallsRunInline) {
  std::atomic<int> inner_calls{0};
  std::atomic<bool> inline_ok{true};
  ParallelFor(8, 4, [&](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) {
      const auto outer = std::this_thread::get_id();
      ParallelFor(50, 4, [&](size_t b, size_t e) {
        inner_calls.fetch_add(1);
        if (std::this_thread::get_id() != outer || b != 0 || e != 50) {
          inline_ok = false;
        }
      });
    }
  });
  EXPECT_EQ(inner_calls.load(), 8);
  EXPECT_TRUE(inline_ok.load());
}

TEST(ParallelForTest, ConcurrentCallersDoNotDeadlock) {
  // Two threads (workers of a private pool) fan out on the shared pool at
  // the same time, many times over; each must see its own full coverage.
  WorkerPool callers(2);
  std::atomic<long> sums[2] = {0, 0};
  std::vector<std::shared_ptr<WorkerPool::Task>> tasks;
  for (int c = 0; c < 2; ++c) {
    tasks.push_back(std::make_shared<WorkerPool::Task>([&sums, c] {
      for (int rep = 0; rep < 200; ++rep) {
        ParallelFor(64, 4, [&](size_t begin, size_t end) {
          for (size_t i = begin; i < end; ++i) {
            sums[c].fetch_add(static_cast<long>(i));
          }
        });
      }
    }));
    callers.Post(tasks.back());
  }
  for (auto& t : tasks) {
    t->Join();
  }
  EXPECT_EQ(sums[0].load(), 200L * (63 * 64 / 2));
  EXPECT_EQ(sums[1].load(), 200L * (63 * 64 / 2));
}

TEST(WorkerPoolTest, ParallelForProgressesWithParkedWorkers) {
  // Every worker is parked: the caller claims all chunks itself instead of
  // waiting on helpers that cannot start.
  WorkerPool pool(2);
  std::promise<void> open;
  std::shared_future<void> opened = open.get_future().share();
  std::atomic<int> parked{0};
  pool.Post(Gate(opened, &parked));
  pool.Post(Gate(opened, &parked));
  ASSERT_TRUE(Eventually([&] { return parked.load() == 2; }));
  const auto caller = std::this_thread::get_id();
  std::vector<int> hits(100, 0);
  pool.ParallelFor(100, 3, [&](size_t begin, size_t end) {
    EXPECT_EQ(std::this_thread::get_id(), caller);
    for (size_t i = begin; i < end; ++i) {
      ++hits[i];
    }
  });
  EXPECT_EQ(hits, std::vector<int>(100, 1));
  open.set_value();
}

TEST(WorkerPoolTest, TaskJoinedBeforeAWorkerRunsItRunsOnTheJoiner) {
  WorkerPool pool(1);
  std::promise<void> open;
  std::atomic<int> parked{0};
  auto gate = Gate(open.get_future().share(), &parked);
  pool.Post(gate);
  ASSERT_TRUE(Eventually([&] { return parked.load() == 1; }));
  std::atomic<int> runs{0};
  std::thread::id ran_on;
  auto task = std::make_shared<WorkerPool::Task>([&] {
    runs.fetch_add(1);
    ran_on = std::this_thread::get_id();
  });
  pool.Post(task);  // queued behind the parked gate
  task->Join();
  EXPECT_EQ(runs.load(), 1);
  EXPECT_EQ(ran_on, std::this_thread::get_id());
  EXPECT_TRUE(task->done());
  // Once released, the worker dequeues the already-run task and skips it.
  auto sentinel = std::make_shared<WorkerPool::Task>([] {});
  pool.Post(sentinel);
  open.set_value();
  ASSERT_TRUE(Eventually([&] { return sentinel->done(); }));
  EXPECT_EQ(runs.load(), 1);
}

TEST(WorkerPoolTest, TaskJoinedWhileAWorkerRunsItWaits) {
  WorkerPool pool(1);
  std::atomic<int> runs{0};
  std::atomic<bool> started{false};
  std::thread::id ran_on;
  auto task = std::make_shared<WorkerPool::Task>([&] {
    ran_on = std::this_thread::get_id();
    started = true;
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    runs.fetch_add(1);
  });
  pool.Post(task);
  ASSERT_TRUE(Eventually([&] { return started.load(); }));
  task->Join();  // must wait for the worker, not run it again
  EXPECT_EQ(runs.load(), 1);
  EXPECT_NE(ran_on, std::this_thread::get_id());
  EXPECT_TRUE(task->done());
}

TEST(WorkerPoolTest, TaskJoinedAfterAWorkerRanItIsANoOp) {
  WorkerPool pool(1);
  std::atomic<int> runs{0};
  auto task = std::make_shared<WorkerPool::Task>([&] { runs.fetch_add(1); });
  pool.Post(task);
  ASSERT_TRUE(Eventually([&] { return task->done(); }));
  task->Join();
  task->Join();
  EXPECT_EQ(runs.load(), 1);
}

TEST(WorkerPoolTest, CanceledQueuedTaskNeverRuns) {
  WorkerPool pool(1);
  std::promise<void> open;
  std::atomic<int> parked{0};
  pool.Post(Gate(open.get_future().share(), &parked));
  ASSERT_TRUE(Eventually([&] { return parked.load() == 1; }));
  std::atomic<int> runs{0};
  auto task = std::make_shared<WorkerPool::Task>([&] { runs.fetch_add(1); });
  pool.Post(task);
  task->Cancel();
  auto sentinel = std::make_shared<WorkerPool::Task>([] {});
  pool.Post(sentinel);
  open.set_value();
  ASSERT_TRUE(Eventually([&] { return sentinel->done(); }));
  task->Join();  // a canceled task is never run, not even by its joiner
  EXPECT_EQ(runs.load(), 0);
  EXPECT_FALSE(task->done());
}

TEST(WorkerPoolTest, ZeroWorkersRunEverythingOnTheCaller) {
  WorkerPool pool(0);
  EXPECT_EQ(pool.workers(), 0u);
  int runs = 0;
  auto task = std::make_shared<WorkerPool::Task>([&] { ++runs; });
  pool.Post(task);
  EXPECT_FALSE(task->done());
  task->Join();
  EXPECT_EQ(runs, 1);
  std::vector<int> hits(10, 0);
  pool.ParallelFor(10, 4, [&](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) {
      ++hits[i];
    }
  });
  EXPECT_EQ(hits, std::vector<int>(10, 1));
}

}  // namespace
}  // namespace dissent
