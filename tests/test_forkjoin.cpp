// Unit tests: forkjoin/ — pool execution, fork-join semantics, analytic
// work/span accounting.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

#include "forkjoin/api.hpp"
#include "forkjoin/pool.hpp"
#include "sim/session.hpp"
#include "util/bits.hpp"
#include "util/rng.hpp"

namespace dopar {
namespace {

uint64_t parallel_sum(const std::vector<uint64_t>& v, size_t lo, size_t hi) {
  if (hi - lo <= 64) {
    uint64_t s = 0;
    for (size_t i = lo; i < hi; ++i) s += v[i];
    return s;
  }
  uint64_t a = 0, b = 0;
  const size_t mid = lo + (hi - lo) / 2;
  fj::invoke([&] { a = parallel_sum(v, lo, mid); },
             [&] { b = parallel_sum(v, mid, hi); });
  return a + b;
}

TEST(ForkJoin, SerialFallbackComputesCorrectly) {
  std::vector<uint64_t> v(10000);
  std::iota(v.begin(), v.end(), 1);
  EXPECT_EQ(parallel_sum(v, 0, v.size()), 10000ull * 10001 / 2);
}

TEST(ForkJoin, PoolComputesCorrectly) {
  std::vector<uint64_t> v(100000);
  std::iota(v.begin(), v.end(), 1);
  fj::WithPool wp(3);
  uint64_t result = 0;
  wp.run([&] { result = parallel_sum(v, 0, v.size()); });
  EXPECT_EQ(result, 100000ull * 100001 / 2);
}

TEST(ForkJoin, PoolRunsManyForksWithoutLoss) {
  fj::WithPool wp(4);
  std::atomic<uint64_t> count{0};
  wp.run([&] {
    fj::for_range(0, 100000, 16, [&](size_t) {
      count.fetch_add(1, std::memory_order_relaxed);
    });
  });
  EXPECT_EQ(count.load(), 100000u);
}

TEST(ForkJoin, ExceptionsPropagateFromForkedBranchesAndPoolSurvives) {
  // The oblivious primitives throw retryable overflow events from inside
  // forked branches; a throw on a stolen branch must reach the forker's
  // join (not unwind the worker loop), and the pool must stay usable.
  fj::WithPool wp(3);
  for (int round = 0; round < 25; ++round) {
    bool caught = false;
    try {
      wp.run([&] {
        fj::for_range(0, 50000, 16, [&](size_t i) {
          if (i == 49999) throw std::runtime_error("overflow-event");
        });
      });
    } catch (const std::runtime_error&) {
      caught = true;
    }
    EXPECT_TRUE(caught);
    std::atomic<uint64_t> count{0};
    wp.run([&] {
      fj::for_range(0, 4096, 16, [&](size_t) {
        count.fetch_add(1, std::memory_order_relaxed);
      });
    });
    EXPECT_EQ(count.load(), 4096u);
  }
}

/// Sum of [lo, hi) with a fork at every level down to single leaves:
/// hi - lo - 1 forks.
uint64_t fork_every_index(uint64_t lo, uint64_t hi) {
  if (hi - lo == 1) return lo;
  uint64_t a = 0, b = 0;
  const uint64_t mid = lo + (hi - lo) / 2;
  fj::invoke([&] { a = fork_every_index(lo, mid); },
             [&] { b = fork_every_index(mid, hi); });
  return a + b;
}

TEST(ForkJoin, SlicedPoolUnderRetaggingLosesNoTask) {
  // Two roots in their own slices of a hard-partitioned pool while another
  // thread flips the cross-slice rule and re-tags every worker at random:
  // each root's queue-size hints go stale all the time, and still every
  // one of its forks must run (exact sums) and every join must return.
  constexpr uint64_t kLeaves = uint64_t{1} << 17;  // 131071 forks a round
  constexpr uint64_t kWant = kLeaves * (kLeaves - 1) / 2;
  fj::Pool pool(3, 2, /*share_idle=*/false);
  std::atomic<bool> done{false};
  std::thread chaos([&] {
    util::Rng rng(5);
    while (!done.load(std::memory_order_relaxed)) {
      pool.set_share_idle(rng.below(2) == 0);
      pool.assign_worker_slice(static_cast<unsigned>(rng.below(3)),
                               static_cast<uint32_t>(rng.below(3)));
      std::this_thread::yield();
    }
  });
  auto client = [&](uint32_t slice, std::vector<uint64_t>& sums) {
    const int slot = pool.try_acquire_external_slot(slice);
    ASSERT_GE(slot, 0);
    fj::ScopedPool scoped(pool);
    fj::PoolView view(&pool, slot, slice);
    for (uint64_t& s : sums) {
      view.run([&] { s = fork_every_index(0, kLeaves); });
    }
    pool.release_external_slot(slot);
  };
  std::vector<uint64_t> sums1(4), sums2(4);
  std::thread second([&] { client(2, sums2); });
  client(1, sums1);
  second.join();
  done.store(true, std::memory_order_relaxed);
  chaos.join();
  for (uint64_t s : sums1) EXPECT_EQ(s, kWant);
  for (uint64_t s : sums2) EXPECT_EQ(s, kWant);
}

TEST(ForkJoin, NestedPoolsForksAreReentrant) {
  fj::WithPool wp(2);
  std::atomic<int> hits{0};
  wp.run([&] {
    fj::invoke(
        [&] {
          fj::invoke([&] { hits++; }, [&] { hits++; });
        },
        [&] {
          fj::invoke([&] { hits++; }, [&] { hits++; });
        });
  });
  EXPECT_EQ(hits.load(), 4);
}

TEST(Analytic, SpanOfBalancedReduceIsLogarithmic) {
  // A balanced binary reduction over n leaves with one tick per leaf and
  // unit fork cost has span exactly log2(n) * 2 + 1-ish; check O(log n).
  auto measure = [](size_t n) {
    sim::Session s = sim::Session::analytic();
    sim::ScopedSession guard(s);
    fj::for_range(0, n, 1, [&](size_t) { sim::tick(1); });
    return s.cost();
  };
  const sim::Cost c1k = measure(1024);
  const sim::Cost c4k = measure(4096);
  EXPECT_EQ(c1k.work, 1024u + 1023u);  // n ticks + n-1 fork costs
  EXPECT_EQ(c4k.work, 4096u + 4095u);
  EXPECT_EQ(c1k.span, 1u + 10u);  // leaf tick + one fork cost per level
  EXPECT_EQ(c4k.span, 1u + 12u);
}

TEST(Analytic, SpanOfSequentialLoopIsLinear) {
  sim::Session s = sim::Session::analytic();
  {
    sim::ScopedSession guard(s);
    for (int i = 0; i < 100; ++i) sim::tick(1);
  }
  EXPECT_EQ(s.cost().span, 100u);
}

TEST(Analytic, UnbalancedForkTakesMaxBranch) {
  sim::Session s = sim::Session::analytic();
  {
    sim::ScopedSession guard(s);
    fj::invoke([] { sim::tick(100); }, [] { sim::tick(5); });
  }
  EXPECT_EQ(s.cost().work, 106u);
  EXPECT_EQ(s.cost().span, 101u);
}

TEST(Analytic, SequentialCompositionAddsSpans) {
  sim::Session s = sim::Session::analytic();
  {
    sim::ScopedSession guard(s);
    fj::invoke([] { sim::tick(10); }, [] { sim::tick(10); });
    fj::invoke([] { sim::tick(20); }, [] { sim::tick(20); });
  }
  EXPECT_EQ(s.cost().span, 11u + 21u);
  EXPECT_EQ(s.cost().work, 20u + 40u + 2u);
}

}  // namespace
}  // namespace dopar
