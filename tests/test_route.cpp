// Direct tests of obl/route.hpp: recorded bitonic networks and their exact
// inversion, the recorded tape's slot layout, and the monotone compaction /
// distribution routers against plain oracles. Every property runs twice:
// natively on a 4-worker fork-join pool (tiled serial leaves, forked
// levels) and under an analytic measurement session (full fork-join
// recursion with tracked touches). The obliviousness pin compares address
// trace digests across different contents of one shape.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "forkjoin/pool.hpp"
#include "obl/elem.hpp"
#include "obl/route.hpp"
#include "sim/session.hpp"
#include "sim/tracked.hpp"
#include "util/rng.hpp"

namespace {

using namespace dopar;
using obl::Elem;

/// Total (key, aux) order: inputs carry unique aux = input index, so the
/// sorted order is std::stable_sort's by key.
struct ByKeyAux {
  bool operator()(const Elem& a, const Elem& b) const {
    return (a.key < b.key) | ((a.key == b.key) & (a.aux < b.aux));
  }
};

enum class Mode { Pool, Analytic };
const char* name_of(Mode m) { return m == Mode::Pool ? "pool" : "analytic"; }

/// Run `f` natively on a 4-worker pool, or serially under an analytic
/// session.
template <class F>
void run_in(Mode mode, F&& f) {
  if (mode == Mode::Pool) {
    fj::WithPool wp(3);
    wp.run(f);
    return;
  }
  sim::Session s = sim::Session::analytic();
  sim::ScopedSession guard(s);
  f();
}

std::vector<Elem> random_rows(size_t m, uint64_t seed, uint64_t domain) {
  util::Rng rng(seed);
  std::vector<Elem> v(m);
  for (size_t i = 0; i < m; ++i) {
    v[i].key = rng.below(domain);
    v[i].payload = rng();
    v[i].aux = i;
    v[i].extra = static_cast<uint32_t>(i);
  }
  return v;
}

bool same_bytes(const std::vector<Elem>& a, const std::vector<Elem>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].key != b[i].key || a[i].payload != b[i].payload ||
        a[i].aux != b[i].aux || a[i].flags != b[i].flags ||
        a[i].extra != b[i].extra) {
      return false;
    }
  }
  return true;
}

/// The flat round-by-round recorded bitonic sort the tape layout is defined
/// by: round r owns tape[r*m/2, (r+1)*m/2), comparators in left-index order.
std::vector<uint8_t> flat_sort_tape(std::vector<Elem> v) {
  const size_t m = v.size();
  std::vector<uint8_t> tape;
  for (size_t k = 2; k <= m; k <<= 1) {
    for (size_t d = k >> 1; d >= 1; d >>= 1) {
      for (size_t i = 0; i < m; ++i) {
        if (i & d) continue;
        const bool up = (i & k) == 0;
        const bool sw = up ? ByKeyAux{}(v[i + d], v[i])
                           : ByKeyAux{}(v[i], v[i + d]);
        tape.push_back(static_cast<uint8_t>(sw));
        if (sw) std::swap(v[i], v[i + d]);
      }
    }
  }
  return tape;
}

constexpr Mode kModes[] = {Mode::Pool, Mode::Analytic};

TEST(Route, SortRecordUnreplayIsIdentity) {
  for (Mode mode : kModes) {
    for (size_t m = 2; m <= (size_t{1} << 14); m <<= 1) {
      SCOPED_TRACE(std::string(name_of(mode)) + " m=" + std::to_string(m));
      const std::vector<Elem> in = random_rows(m, 11 + m, m / 2 + 1);
      std::vector<Elem> want = in;
      std::stable_sort(want.begin(), want.end(),
                       [](const Elem& a, const Elem& b) {
                         return a.key < b.key;
                       });
      std::vector<Elem> sorted, back;
      std::vector<uint8_t> tape_bytes;
      run_in(mode, [&] {
        vec<Elem> a(in);
        vec<uint8_t> tape;
        obl::bitonic_sort_record(a.s(), tape, ByKeyAux{});
        sorted = a.underlying();
        tape_bytes = tape.underlying();
        obl::bitonic_sort_unreplay(a.s(), tape);
        back = a.underlying();
      });
      EXPECT_TRUE(same_bytes(sorted, want));
      EXPECT_TRUE(same_bytes(back, in));
      if (m <= 4096) {
        EXPECT_EQ(tape_bytes, flat_sort_tape(in));
      }
    }
  }
}

TEST(Route, MergeOfBitonicInputs) {
  for (Mode mode : kModes) {
    for (size_t m = 2; m <= (size_t{1} << 14); m <<= 1) {
      SCOPED_TRACE(std::string(name_of(mode)) + " m=" + std::to_string(m));
      std::vector<Elem> in = random_rows(m, 23 + m, 64);
      const auto by = [](const Elem& a, const Elem& b) {
        return ByKeyAux{}(a, b);
      };
      // Ascending first half, descending second half (split point varies
      // with m so both halves are exercised unevenly).
      const size_t cut = (m / 3) | 1;
      std::sort(in.begin(), in.begin() + cut, by);
      std::sort(in.begin() + cut, in.end(),
                [&](const Elem& a, const Elem& b) { return by(b, a); });
      std::vector<Elem> want = in;
      std::sort(want.begin(), want.end(), by);
      std::vector<Elem> merged, back;
      run_in(mode, [&] {
        vec<Elem> a(in);
        vec<uint8_t> tape;
        obl::bitonic_merge_record(a.s(), tape, ByKeyAux{});
        merged = a.underlying();
        obl::bitonic_merge_unreplay(a.s(), tape);
        back = a.underlying();
      });
      EXPECT_TRUE(same_bytes(merged, want));
      EXPECT_TRUE(same_bytes(back, in));
    }
  }
}

/// Rows for the routers: live iff mask bit i, payload = i.
std::vector<Elem> masked_rows(size_t m, const std::vector<bool>& live) {
  std::vector<Elem> v(m);
  for (size_t i = 0; i < m; ++i) {
    v[i].key = 1000 + i;
    v[i].payload = i;
    v[i].flags = live[i] ? Elem::kTemp : 0u;
  }
  return v;
}

/// compact_monotone oracle: the live rows in input order, then no row
/// carrying the live flag.
void expect_compacted(const std::vector<Elem>& in,
                      const std::vector<Elem>& got) {
  size_t j = 0;
  for (const Elem& e : in) {
    if (!(e.flags & Elem::kTemp)) continue;
    ASSERT_LT(j, got.size());
    EXPECT_EQ(got[j].payload, e.payload);
    EXPECT_EQ(got[j].key, e.key);
    EXPECT_TRUE(got[j].flags & Elem::kTemp);
    ++j;
  }
  for (; j < got.size(); ++j) EXPECT_FALSE(got[j].flags & Elem::kTemp);
}

/// distribute_monotone input: the live rows' targets are the set positions
/// of `live`, packed into a prefix; oracle checks every target got its
/// row and no other position is live.
void check_distribute(const std::vector<bool>& live) {
  const size_t m = live.size();
  std::vector<Elem> in(m);
  std::vector<size_t> targets;
  for (size_t i = 0; i < m; ++i) {
    if (live[i]) targets.push_back(i);
  }
  for (size_t k = 0; k < m; ++k) {
    in[k].payload = 5000 + k;
    if (k < targets.size()) {
      in[k].key = targets[k];
      in[k].flags = Elem::kTemp;
    }
  }
  vec<Elem> a(in);
  obl::distribute_monotone(a.s(), Elem::kTemp);
  const std::vector<Elem>& got = a.underlying();
  for (size_t i = 0, k = 0; i < m; ++i) {
    if (live[i]) {
      EXPECT_TRUE(got[i].flags & Elem::kTemp) << "i=" << i;
      EXPECT_EQ(got[i].payload, 5000 + k) << "i=" << i;
      EXPECT_EQ(got[i].key, i);
      ++k;
    } else {
      EXPECT_FALSE(got[i].flags & Elem::kTemp) << "i=" << i;
    }
  }
}

void check_compact(const std::vector<bool>& live) {
  const std::vector<Elem> in = masked_rows(live.size(), live);
  vec<Elem> a(in);
  obl::compact_monotone(a.s(), Elem::kTemp);
  expect_compacted(in, a.underlying());
}

TEST(Route, MonotoneRoutersAllMasksAtSixteen) {
  constexpr size_t m = 16;
  for (Mode mode : kModes) {
    SCOPED_TRACE(name_of(mode));
    run_in(mode, [&] {
      for (uint32_t mask = 0; mask < (1u << m); ++mask) {
        std::vector<bool> live(m);
        for (size_t i = 0; i < m; ++i) live[i] = (mask >> i) & 1;
        check_compact(live);
        check_distribute(live);
        if (HasFailure()) {
          ADD_FAILURE() << "mask=" << mask;
          return;
        }
      }
    });
  }
}

TEST(Route, MonotoneRoutersRandomMasks) {
  constexpr size_t m = size_t{1} << 12;
  for (Mode mode : kModes) {
    for (uint64_t seed = 1; seed <= 6; ++seed) {
      SCOPED_TRACE(std::string(name_of(mode)) + " seed=" +
                   std::to_string(seed));
      util::Rng rng(seed);
      // Densities from sparse to nearly full.
      const uint64_t per16 = 2 * seed + 1;
      std::vector<bool> live(m);
      for (size_t i = 0; i < m; ++i) live[i] = rng.below(16) < per16;
      run_in(mode, [&] {
        check_compact(live);
        check_distribute(live);
      });
    }
  }
}

/// Address-trace digest of every route primitive on one input.
uint64_t route_digest(const std::vector<Elem>& in) {
  const size_t m = in.size();
  sim::Session s = sim::Session::analytic().with_trace();
  {
    sim::ScopedSession guard(s);
    vec<Elem> a(in);
    vec<uint8_t> ts, tm;
    obl::bitonic_sort_record(a.s().sub(0, m / 2), ts, ByKeyAux{});
    obl::bitonic_merge_record(a.s(), tm, ByKeyAux{});
    obl::bitonic_merge_unreplay(a.s(), tm);
    obl::bitonic_sort_unreplay(a.s().sub(0, m / 2), ts);
    obl::compact_monotone(a.s(), Elem::kTemp);
    // Distribution input contract: the live prefix (compacted above) must
    // target increasing positions >= its own; use targets 2j.
    vec<Elem> b(m);
    for (size_t i = 0; i < m; ++i) {
      Elem e = a.underlying()[i];
      e.key = 2 * i;
      if (2 * i >= m) e.flags &= ~Elem::kTemp;
      b.underlying()[i] = e;
    }
    obl::distribute_monotone(b.s(), Elem::kTemp);
  }
  return s.log()->digest();
}

TEST(Route, TraceDigestIndependentOfContents) {
  constexpr size_t m = 512;
  std::vector<Elem> random = random_rows(m, 3, 1000);
  for (size_t i = 0; i < m; ++i) {
    random[i].flags = (random[i].payload & 1) ? Elem::kTemp : 0u;
  }
  std::vector<Elem> equal(m), sorted = random;
  for (size_t i = 0; i < m; ++i) {
    equal[i].key = 7;
    equal[i].aux = i;
    equal[i].flags = Elem::kTemp;
  }
  std::sort(sorted.begin(), sorted.end(), ByKeyAux{});
  for (Elem& e : sorted) e.flags = 0;
  const uint64_t d0 = route_digest(random);
  EXPECT_NE(d0, 0u);
  EXPECT_EQ(d0, route_digest(equal));
  EXPECT_EQ(d0, route_digest(sorted));
}

}  // namespace
