// Optimistic versioned-gate read path (ISSUE 4).
//
// Dual-labeled unit+concurrent (tests/CMakeLists.txt): the unit pass
// covers the scalar/AVX2 kernels under CPMA_DISABLE_AVX2, the
// concurrent pass runs the same hammers under TSan, where the tagged
// accesses (common/tagged.h) must keep the seqlock races expressed as
// atomics — any missed tagging fails the tsan preset, no suppressions.
//
//  - GateVersionParity: the seqlock word is even exactly when no
//    writer/rebalancer owns the chunk, across every state-machine edge
//    including the WRITE -> REBAL hand-off.
//  - TornReadHammer: writers mutate one hot gate while readers
//    Find/Scan through it; every observed value must be the writer
//    invariant (a torn-but-validated window would surface garbage).
//  - ScanDuringFenceMovingRebalance: ascending inserts drive local and
//    global rebalances plus resizes under running scans; scans must
//    stay sorted, duplicate-free and value-consistent while fences
//    move beneath them.
//  - ShortScansUnderTailAppendsStartAtTheirKey: short scans from keys
//    near the top of a dense preload, while one client appends above
//    it, must start exactly at their key and stay consecutive; a scan
//    that trusted a stale index hit skipped the keys in between.
//  - ScanCallbackMayWriteTheSameMap*: a callback that inserts into and
//    reads the map it scans completes, in both read modes, and the scan
//    still delivers every key that existed throughout.
//  - ScanStopsWhenTheCallbackReturnsFalse: no call after the `false`.
//  - ForcedFallback*: CPMA_OPTIMISTIC_RETRIES=0 disables the optimistic
//    path; the blocking latch protocol must pass the same checks, and
//    the fallback counter proves which path served the reads.
//  - QuiescentReadsNeverFallBack: with no writers, every read must be
//    served optimistically (fallback counter stays zero).

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "common/latches.h"
#include "concurrent/concurrent_pma.h"
#include "concurrent/gate.h"

namespace cpma {
namespace {

GateOp Ins(Key k) { return GateOp{GateOp::Type::kInsert, k, k}; }

/// Writer invariant: the only value ever stored for `k`. Readers that
/// observe anything else caught a torn read escaping validation.
Value ValueFor(Key k) { return k * 0x9E3779B97F4A7C15ull + 1; }

ConcurrentConfig SmallGateConfig(ConcurrentConfig::AsyncMode mode) {
  ConcurrentConfig cfg;
  cfg.pma.segment_capacity = 32;  // small segments: frequent rebalances
  cfg.segments_per_gate = 4;
  cfg.rebalancer_workers = 2;
  cfg.async_mode = mode;
  cfg.t_delay_ms = 5;
  return cfg;
}

class ScopedEnv {
 public:
  ScopedEnv(const char* name, const char* value) : name_(name) {
    setenv(name, value, /*overwrite=*/1);
  }
  ~ScopedEnv() { unsetenv(name_.c_str()); }

 private:
  std::string name_;
};

TEST(OptimisticRead, GateVersionParity) {
  Gate g(0, 0, 8);
  auto stable = [&] { return SeqVersion::Stable(g.version().ReadBegin()); };
  EXPECT_TRUE(stable());

  // Writer acquire/release brackets one mutation window.
  ASSERT_EQ(g.WriterAccess(Ins(5), /*allow_queue=*/false), GateAccess::kOwner);
  EXPECT_FALSE(stable());
  EXPECT_TRUE(g.WriterRelease());
  EXPECT_TRUE(stable());

  // Readers never open a window.
  Key k = 5;
  ASSERT_EQ(g.ReaderAccess(&k), GateAccess::kOwner);
  EXPECT_TRUE(stable());
  g.ReaderRelease();
  EXPECT_TRUE(stable());

  // Master acquire/release brackets one window.
  g.MasterAcquire();
  EXPECT_FALSE(stable());
  g.MasterRelease();
  EXPECT_TRUE(stable());

  // WRITE -> REBAL hand-off keeps the same window open end to end.
  ASSERT_EQ(g.WriterAccess(Ins(6), false), GateAccess::kOwner);
  const uint64_t during_write = g.version().ReadBegin();
  g.TransferToRebalancer();
  EXPECT_EQ(g.version().ReadBegin(), during_write);  // still odd, no bump
  g.MasterAcquire();  // takes over the transferred window
  EXPECT_EQ(g.version().ReadBegin(), during_write);
  g.MasterRelease();
  EXPECT_TRUE(stable());
  ASSERT_TRUE(g.WriterReacquireAfterRebal());
  EXPECT_FALSE(stable());
  EXPECT_TRUE(g.WriterRelease());
  EXPECT_TRUE(stable());

  // A validated window rejects any intervening mutation.
  const uint64_t v = g.version().ReadBegin();
  ASSERT_TRUE(g.version().Validate(v));
  ASSERT_EQ(g.WriterAccess(Ins(7), false), GateAccess::kOwner);
  EXPECT_FALSE(g.version().Validate(v));
  g.WriterRelease();
  EXPECT_FALSE(g.version().Validate(v));  // exact equality, not parity
}

// Shared hammer body: writers churn a small hot key set (upsert/remove
// with the ValueFor invariant) while readers point-read and scan it.
// Checks hold in both the optimistic and the forced-fallback mode.
void RunTornReadHammer(ConcurrentPMA* pma, int num_writers, int num_readers,
                       int rounds) {
  constexpr Key kHotKeys = 512;  // spans a handful of small gates
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> torn_values{0};
  std::atomic<uint64_t> order_violations{0};

  std::vector<std::thread> writers;
  for (int w = 0; w < num_writers; ++w) {
    writers.emplace_back([&, w] {
      for (int r = 0; r < rounds; ++r) {
        // Each writer owns the keys congruent to it; overwrites and
        // removals keep gates mutating (odd version windows) all along.
        for (Key k = static_cast<Key>(w) + 1; k <= kHotKeys;
             k += static_cast<Key>(num_writers)) {
          pma->Insert(k, ValueFor(k));
          if ((k + static_cast<Key>(r)) % 3 == 0) pma->Remove(k);
        }
      }
      stop.store(true, std::memory_order_relaxed);
    });
  }
  std::vector<std::thread> readers;
  for (int t = 0; t < num_readers; ++t) {
    readers.emplace_back([&, t] {
      uint64_t it = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        const Key k = 1 + (it * 31 + static_cast<uint64_t>(t)) % kHotKeys;
        Value v = 0;
        if (pma->Find(k, &v) && v != ValueFor(k)) {
          torn_values.fetch_add(1, std::memory_order_relaxed);
        }
        if (++it % 64 == 0) {
          Key prev = 0;
          bool have_prev = false;
          pma->Scan(1, kHotKeys, [&](Key key, Value value) {
            if (have_prev && key <= prev) {
              order_violations.fetch_add(1, std::memory_order_relaxed);
            }
            if (value != ValueFor(key)) {
              torn_values.fetch_add(1, std::memory_order_relaxed);
            }
            prev = key;
            have_prev = true;
            return true;
          });
        }
      }
    });
  }
  for (auto& th : writers) th.join();
  for (auto& th : readers) th.join();

  EXPECT_EQ(torn_values.load(), 0u);
  EXPECT_EQ(order_violations.load(), 0u);
  pma->Flush();
  std::string err;
  EXPECT_TRUE(pma->CheckInvariants(&err)) << err;
}

TEST(OptimisticRead, TornReadHammer) {
  ConcurrentPMA pma(SmallGateConfig(ConcurrentConfig::AsyncMode::kSync));
  RunTornReadHammer(&pma, /*num_writers=*/2, /*num_readers=*/2,
                    /*rounds=*/200);
  // Reads raced with writers on hot gates; some scans should still have
  // validated latch-free (not a hard guarantee, but a budget of 8
  // windows across this workload failing every single time would mean
  // the optimistic path is broken).
  EXPECT_GT(pma.num_optimistic_gate_reads(), 0u);
}

TEST(OptimisticRead, ScanDuringFenceMovingRebalance) {
  ConcurrentPMA pma(SmallGateConfig(ConcurrentConfig::AsyncMode::kOneByOne));
  constexpr Key kTotal = 50000;
  constexpr int kWriters = 2;
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> bad{0};

  // Ascending interleaved inserts: grows through many local and global
  // rebalances and several resizes, so fences move constantly.
  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&, w] {
      for (Key k = static_cast<Key>(w) + 1; k <= kTotal; k += kWriters) {
        pma.Insert(k, ValueFor(k));
      }
    });
  }
  std::vector<std::thread> scanners;
  for (int t = 0; t < 2; ++t) {
    scanners.emplace_back([&] {
      while (!stop.load(std::memory_order_relaxed)) {
        Key prev = 0;
        bool have_prev = false;
        pma.Scan(kKeyMin, kKeyMax, [&](Key key, Value value) {
          if ((have_prev && key <= prev) || value != ValueFor(key)) {
            bad.fetch_add(1, std::memory_order_relaxed);
          }
          prev = key;
          have_prev = true;
          return true;
        });
        // SumAll shares the per-gate validation; just exercise it.
        volatile uint64_t sink = pma.SumAll();
        (void)sink;
      }
    });
  }
  for (auto& th : writers) th.join();
  stop.store(true, std::memory_order_relaxed);
  for (auto& th : scanners) th.join();
  EXPECT_EQ(bad.load(), 0u);

  pma.Flush();
  std::string err;
  ASSERT_TRUE(pma.CheckInvariants(&err)) << err;
  ASSERT_EQ(pma.Size(), static_cast<size_t>(kTotal));
  uint64_t expect_sum = 0;
  for (Key k = 1; k <= kTotal; ++k) expect_sum += ValueFor(k);
  EXPECT_EQ(pma.SumAll(), expect_sum);
  // The array grew through resizes; the global rebalance machinery must
  // actually have run for this test to mean anything.
  EXPECT_GT(pma.num_resizes() + pma.num_global_rebalances(), 0u);
}

TEST(OptimisticRead, ShortScansUnderTailAppendsStartAtTheirKey) {
  ConcurrentPMA pma(SmallGateConfig(ConcurrentConfig::AsyncMode::kSync));
  constexpr Key kTop = Key{1} << 16;  // dense preload 1..kTop
  constexpr Key kAppends = 20000;
  constexpr int kScanners = 3;
  for (Key k = 1; k <= kTop; ++k) pma.Insert(k, ValueFor(k));
  pma.Flush();

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> scans{0};
  std::atomic<uint64_t> bad_start{0};
  std::atomic<uint64_t> bad_run{0};
  // One client appends above the preload: every append lands in the
  // tail gates, whose rebalances keep moving their fences.
  std::thread appender([&] {
    for (Key k = kTop + 1; k <= kTop + kAppends; ++k) {
      pma.Insert(k, ValueFor(k));
    }
    stop.store(true, std::memory_order_relaxed);
  });
  std::vector<std::thread> scanners;
  for (int t = 0; t < kScanners; ++t) {
    scanners.emplace_back([&, t] {
      uint64_t x = 0x2545F4914F6CDD1Dull * static_cast<uint64_t>(t + 1);
      while (!stop.load(std::memory_order_relaxed)) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        const Key start = kTop - (x % 2048);
        const size_t len = 1 + (x >> 32) % 100;
        std::vector<Key> got;
        pma.Scan(start, kKeyMax, [&](Key key, Value value) {
          if (value != ValueFor(key)) bad_run.fetch_add(1);
          got.push_back(key);
          return got.size() < len;
        });
        scans.fetch_add(1, std::memory_order_relaxed);
        if (got.empty() || got[0] != start) {
          bad_start.fetch_add(1, std::memory_order_relaxed);
          continue;
        }
        for (size_t i = 1; i < got.size(); ++i) {
          // Consecutive inside the preload; ascending past it.
          if (got[i] <= kTop ? got[i] != got[i - 1] + 1
                             : got[i] <= got[i - 1]) {
            bad_run.fetch_add(1, std::memory_order_relaxed);
            break;
          }
        }
      }
    });
  }
  appender.join();
  for (auto& th : scanners) th.join();
  EXPECT_EQ(bad_start.load(), 0u) << "of " << scans.load() << " scans";
  EXPECT_EQ(bad_run.load(), 0u) << "of " << scans.load() << " scans";
  EXPECT_GT(scans.load(), 0u);
  pma.Flush();
  std::string err;
  EXPECT_TRUE(pma.CheckInvariants(&err)) << err;
}

// Preload the even keys, then scan everything with a callback that
// reads its key back and inserts the odd key after it. The inserts grow
// the map through rebalances and resizes beneath the scan, which must
// neither deadlock nor drop an even key.
void RunScanCallbackThatWrites(ConcurrentPMA* pma) {
  constexpr Key kEvens = 4096;
  for (Key k = 2; k <= 2 * kEvens; k += 2) pma->Insert(k, ValueFor(k));
  pma->Flush();
  const uint64_t resizes_before = pma->num_resizes();
  Key prev = 0;
  uint64_t evens = 0, misses = 0, order = 0;
  pma->Scan(kKeyMin, kKeyMax, [&](Key key, Value value) {
    if (key <= prev || value != ValueFor(key)) ++order;
    prev = key;
    if (key % 2 == 0) {
      ++evens;
      Value v = 0;
      if (!pma->Find(key, &v) || v != ValueFor(key)) ++misses;
      pma->Insert(key + 1, ValueFor(key + 1));
    }
    return true;
  });
  EXPECT_EQ(order, 0u);
  EXPECT_EQ(misses, 0u);
  EXPECT_EQ(evens, kEvens);
  pma->Flush();
  EXPECT_EQ(pma->Size(), static_cast<size_t>(2 * kEvens));
  EXPECT_GT(pma->num_resizes(), resizes_before)
      << "the callback's inserts never resized the map under the scan";
  std::string err;
  EXPECT_TRUE(pma->CheckInvariants(&err)) << err;
}

TEST(OptimisticRead, ScanCallbackMayWriteTheSameMap) {
  ConcurrentPMA pma(SmallGateConfig(ConcurrentConfig::AsyncMode::kSync));
  RunScanCallbackThatWrites(&pma);
}

TEST(OptimisticRead, ScanCallbackMayWriteTheSameMapLatched) {
  ScopedEnv env("CPMA_OPTIMISTIC_RETRIES", "0");  // every window latches
  ConcurrentPMA pma(SmallGateConfig(ConcurrentConfig::AsyncMode::kSync));
  ASSERT_EQ(pma.optimistic_retries(), 0);
  RunScanCallbackThatWrites(&pma);
  EXPECT_GT(pma.num_read_fallbacks(), 0u);
}

TEST(OptimisticRead, ScanStopsWhenTheCallbackReturnsFalse) {
  ConcurrentPMA pma(SmallGateConfig(ConcurrentConfig::AsyncMode::kSync));
  for (Key k = 1; k <= 1000; ++k) pma.Insert(k, ValueFor(k));
  pma.Flush();
  // Stop points inside the first window, on window boundaries and
  // across several segments and gates.
  for (size_t stop_after : {1, 2, 31, 32, 33, 63, 64, 65, 129, 700}) {
    size_t calls = 0;
    pma.Scan(1, kKeyMax, [&](Key key, Value) {
      ++calls;
      EXPECT_EQ(key, calls);
      return calls < stop_after;
    });
    EXPECT_EQ(calls, stop_after);
  }
}

TEST(OptimisticRead, ForcedFallbackMatchesBlocking) {
  ScopedEnv env("CPMA_OPTIMISTIC_RETRIES", "0");
  ConcurrentPMA pma(SmallGateConfig(ConcurrentConfig::AsyncMode::kSync));
  ASSERT_EQ(pma.optimistic_retries(), 0);
  RunTornReadHammer(&pma, /*num_writers=*/2, /*num_readers=*/2,
                    /*rounds=*/120);
  // Every read took the blocking latch; none validated optimistically.
  EXPECT_GT(pma.num_read_fallbacks(), 0u);
  EXPECT_EQ(pma.num_optimistic_gate_reads(), 0u);
}

TEST(OptimisticRead, QuiescentReadsNeverFallBack) {
  ConcurrentPMA pma(SmallGateConfig(ConcurrentConfig::AsyncMode::kSync));
  constexpr Key kN = 4096;
  for (Key k = 1; k <= kN; ++k) pma.Insert(k, ValueFor(k));
  pma.Flush();

  std::vector<std::thread> readers;
  std::atomic<uint64_t> misses{0};
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&, t] {
      for (Key k = static_cast<Key>(t) + 1; k <= kN; k += 4) {
        Value v = 0;
        if (!pma.Find(k, &v) || v != ValueFor(k)) {
          misses.fetch_add(1, std::memory_order_relaxed);
        }
      }
      uint64_t count = 0;
      pma.Scan(1, kN, [&](Key, Value) {
        ++count;
        return true;
      });
      if (count != kN) misses.fetch_add(1, std::memory_order_relaxed);
    });
  }
  for (auto& th : readers) th.join();
  EXPECT_EQ(misses.load(), 0u);
  // No mutators: every window validates on the first attempt, so the
  // blocking path must never have been taken.
  EXPECT_EQ(pma.num_read_fallbacks(), 0u);
  EXPECT_GT(pma.num_optimistic_gate_reads(), 0u);
}

TEST(OptimisticRead, EnvKnobOverridesConfig) {
  {
    ScopedEnv env("CPMA_OPTIMISTIC_RETRIES", "3");
    ConcurrentPMA pma;
    EXPECT_EQ(pma.optimistic_retries(), 3);
  }
  ConcurrentConfig cfg;
  EXPECT_EQ(cfg.optimistic_retries, 8);
  cfg.optimistic_retries = 2;
  ConcurrentPMA pma(cfg);
  EXPECT_EQ(pma.optimistic_retries(), 2);
}

}  // namespace
}  // namespace cpma
