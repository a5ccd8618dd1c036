// Differential conformance suite for the relational operators (src/rel/):
// equi-join, band join and group-by fuzzed against a naive insecure
// nested-loop/hash oracle across sizes, adversarial key distributions and
// every registered backend — plus the obliviousness pins: trace-digest
// replay on identically built Runtimes, and digest equality across tables
// with different *contents* but equal sizes (comparator-network backends,
// whose schedule is a pure function of the sizes; the randomized full-sort
// backends are oblivious in distribution and pinned by replay instead).
// The compact/propagate facade methods are covered at the end.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <numeric>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "dopar.hpp"
#include "testutil.hpp"

namespace {

using namespace dopar;

struct LRow {
  uint64_t key = 0;
  uint64_t id = 0;
};
struct RRow {
  uint64_t key = 0;
  uint64_t id = 0;
};

using Pairs = std::vector<std::pair<uint64_t, uint64_t>>;

std::vector<LRow> make_left(size_t n, uint64_t domain, uint64_t seed) {
  util::Rng rng(seed);
  std::vector<LRow> v(n);
  for (size_t i = 0; i < n; ++i) {
    v[i] = LRow{domain ? rng.below(domain) : 0, 1'000'000 + i};
  }
  return v;
}

std::vector<RRow> make_right(size_t n, uint64_t domain, uint64_t seed) {
  util::Rng rng(seed);
  std::vector<RRow> v(n);
  for (size_t i = 0; i < n; ++i) {
    v[i] = RRow{domain ? rng.below(domain) : 0, 2'000'000 + i};
  }
  return v;
}

/// The insecure nested-loop oracle, emitting pairs in the engines' output
/// order contract: grouped by left row in input order, each group's right
/// rows ascending by (key, input index).
Pairs oracle_join(const std::vector<LRow>& L, const std::vector<RRow>& R,
                  bool banded, uint64_t band) {
  std::vector<size_t> order(R.size());
  std::iota(order.begin(), order.end(), size_t{0});
  std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return R[a].key < R[b].key;
  });
  Pairs out;
  for (const LRow& l : L) {
    for (size_t ri : order) {
      const RRow& r = R[ri];
      const uint64_t diff = l.key > r.key ? l.key - r.key : r.key - l.key;
      if (banded ? diff <= band : l.key == r.key) {
        out.emplace_back(l.id, r.id);
      }
    }
  }
  return out;
}

Pairs ids_of(const rel::JoinResult<LRow, RRow>& res) {
  Pairs out;
  out.reserve(res.rows.size());
  for (const auto& [l, r] : res.rows) out.emplace_back(l.id, r.id);
  return out;
}

constexpr auto kLKey = [](const LRow& l) { return l.key; };
constexpr auto kRKey = [](const RRow& r) { return r.key; };

rel::JoinResult<LRow, RRow> run_equi(Runtime& rt, const std::vector<LRow>& L,
                                     const std::vector<RRow>& R,
                                     size_t bound) {
  return rt.equi_join(std::span<const LRow>(L), kLKey,
                      std::span<const RRow>(R), kRKey,
                      rel::JoinOptions{.output_bound = bound, .sort = {}});
}

rel::JoinResult<LRow, RRow> run_band(Runtime& rt, const std::vector<LRow>& L,
                                     const std::vector<RRow>& R,
                                     uint64_t band, size_t bound) {
  return rt.band_join(std::span<const LRow>(L), kLKey,
                      std::span<const RRow>(R), kRKey, band,
                      rel::JoinOptions{.output_bound = bound, .sort = {}});
}

/// Hash-aggregation oracle for group-by (std::map: ascending key order,
/// matching the engine's output contract).
std::map<uint64_t, rel::GroupRow> oracle_group(const std::vector<RRow>& rows,
                                               rel::Agg agg) {
  std::map<uint64_t, rel::GroupRow> m;
  for (const RRow& r : rows) {
    const uint64_t v = r.id;
    auto [it, fresh] = m.try_emplace(r.key, rel::GroupRow{r.key, v, 1});
    if (fresh) {
      if (agg == rel::Agg::Count) it->second.value = 1;
      continue;
    }
    it->second.count += 1;
    switch (agg) {
      case rel::Agg::Sum: it->second.value += v; break;
      case rel::Agg::Count: it->second.value += 1; break;
      case rel::Agg::Min:
        it->second.value = std::min(it->second.value, v);
        break;
      case rel::Agg::Max:
        it->second.value = std::max(it->second.value, v);
        break;
    }
  }
  return m;
}

void expect_groups_match(const rel::GroupByResult& got,
                         const std::map<uint64_t, rel::GroupRow>& want) {
  ASSERT_EQ(got.groups.size(), want.size());
  EXPECT_EQ(got.groups_total, want.size());
  size_t i = 0;
  for (const auto& [key, row] : want) {
    EXPECT_EQ(got.groups[i].key, key);
    EXPECT_EQ(got.groups[i].value, row.value);
    EXPECT_EQ(got.groups[i].count, row.count);
    ++i;
  }
}

// ---- differential fuzz: sizes ------------------------------------------

TEST(RelJoin, EquiMatchesOracleAcrossSizes) {
  auto rt = Runtime::builder().seed(11).build();
  for (size_t n : {size_t{0}, size_t{1}, size_t{2}, size_t{7}, size_t{700},
                   size_t{4096}}) {
    SCOPED_TRACE("n=" + std::to_string(n));
    const auto L = make_left(n, std::max<uint64_t>(1, n), 100 + n);
    const auto R = make_right(n, std::max<uint64_t>(1, n), 200 + n);
    const Pairs want = oracle_join(L, R, false, 0);
    const auto res = run_equi(rt, L, R, want.size() + 1);
    EXPECT_EQ(res.matched, want.size());
    EXPECT_FALSE(res.truncated());
    EXPECT_EQ(ids_of(res), want);
  }
}

TEST(RelJoin, BandMatchesOracleAcrossSizes) {
  auto rt = Runtime::builder().seed(12).build();
  for (size_t n : {size_t{0}, size_t{1}, size_t{2}, size_t{7}, size_t{700}}) {
    SCOPED_TRACE("n=" + std::to_string(n));
    const auto L = make_left(n, std::max<uint64_t>(1, 2 * n), 300 + n);
    const auto R = make_right(n, std::max<uint64_t>(1, 2 * n), 400 + n);
    const Pairs want = oracle_join(L, R, true, 3);
    const auto res = run_band(rt, L, R, 3, want.size() + 1);
    EXPECT_EQ(res.matched, want.size());
    EXPECT_EQ(ids_of(res), want);
  }
}

// ---- differential fuzz: every registered backend -----------------------

TEST(RelJoin, AllBackendsMatchOracle) {
  for (const std::string& name : backend_names()) {
    auto rt = Runtime::builder().seed(13).backend(name).build();
    for (size_t n :
         {size_t{0}, size_t{1}, size_t{2}, size_t{7}, size_t{64},
          size_t{300}}) {
      SCOPED_TRACE("backend=" + name + " n=" + std::to_string(n));
      const auto L = make_left(n, std::max<uint64_t>(1, n), 500 + n);
      const auto R = make_right(n, std::max<uint64_t>(1, n), 600 + n);
      const Pairs want_eq = oracle_join(L, R, false, 0);
      const auto eq = run_equi(rt, L, R, want_eq.size() + 1);
      EXPECT_EQ(eq.matched, want_eq.size());
      EXPECT_EQ(ids_of(eq), want_eq);

      const Pairs want_bd = oracle_join(L, R, true, 2);
      const auto bd = run_band(rt, L, R, 2, want_bd.size() + 1);
      EXPECT_EQ(bd.matched, want_bd.size());
      EXPECT_EQ(ids_of(bd), want_bd);

      const auto rows = make_right(n, std::max<uint64_t>(1, n / 4), 700 + n);
      for (rel::Agg agg : {rel::Agg::Sum, rel::Agg::Count, rel::Agg::Min,
                           rel::Agg::Max}) {
        const auto got = rt.group_by_aggregate(
            std::span<const RRow>(rows), kRKey,
            [](const RRow& r) { return r.id; }, agg);
        expect_groups_match(got, oracle_group(rows, agg));
      }
    }
  }
}

TEST(RelJoin, BothVariantsMatchOracle) {
  // Variant selects the full sort's comparison phase — only the full-sort
  // backends ("osort", "spms") run it; exercise both under each.
  for (const std::string& name : {std::string("osort"), std::string("spms")}) {
    for (core::Variant v :
         {core::Variant::Practical, core::Variant::Theoretical}) {
      SCOPED_TRACE("backend=" + name);
      auto rt = Runtime::builder().seed(14).backend(name).variant(v).build();
      const auto L = make_left(64, 64, 801);
      const auto R = make_right(64, 64, 802);
      const Pairs want = oracle_join(L, R, false, 0);
      const auto res = run_equi(rt, L, R, want.size() + 1);
      EXPECT_EQ(ids_of(res), want);
      const Pairs want_bd = oracle_join(L, R, true, 1);
      const auto bd = run_band(rt, L, R, 1, want_bd.size() + 1);
      EXPECT_EQ(ids_of(bd), want_bd);
    }
  }
}

// ---- adversarial key distributions -------------------------------------

TEST(RelJoin, AdversarialDistributions) {
  auto rt = Runtime::builder().seed(15).build();

  {  // all keys equal: the maximal-multiplicity worst case, m = |L|*|R|
    SCOPED_TRACE("all-equal");
    std::vector<LRow> L(64);
    std::vector<RRow> R(64);
    for (size_t i = 0; i < 64; ++i) {
      L[i] = LRow{7, 1'000'000 + i};
      R[i] = RRow{7, 2'000'000 + i};
    }
    const Pairs want = oracle_join(L, R, false, 0);
    ASSERT_EQ(want.size(), 64u * 64u);
    const auto res = run_equi(rt, L, R, want.size());
    EXPECT_EQ(res.matched, want.size());
    EXPECT_EQ(ids_of(res), want);
  }

  {  // quadratic foreign-key skew: few hot keys carry most multiplicity
    SCOPED_TRACE("skewed");
    std::vector<LRow> L(128);
    for (size_t i = 0; i < 128; ++i) L[i] = LRow{i, 1'000'000 + i};
    util::Rng rng(99);
    std::vector<RRow> R(512);
    for (size_t i = 0; i < 512; ++i) {
      const uint64_t r = rng.below(128);
      R[i] = RRow{r * r / 128, 2'000'000 + i};
    }
    const Pairs want = oracle_join(L, R, false, 0);
    const auto res = run_equi(rt, L, R, want.size() + 5);
    EXPECT_EQ(res.matched, want.size());
    EXPECT_EQ(ids_of(res), want);
  }

  {  // disjoint key ranges: every probe misses
    SCOPED_TRACE("empty-match");
    const auto L = make_left(100, 50, 41);
    auto R = make_right(100, 50, 42);
    for (auto& r : R) r.key += 1000;
    const Pairs want_eq = oracle_join(L, R, false, 0);
    ASSERT_TRUE(want_eq.empty());
    const auto res = run_equi(rt, L, R, 32);
    EXPECT_EQ(res.matched, 0u);
    EXPECT_TRUE(res.rows.empty());
    const auto bd = run_band(rt, L, R, 5, 32);
    EXPECT_EQ(bd.matched, 0u);
    EXPECT_TRUE(bd.rows.empty());
  }
}

// ---- output-bound (padding/truncation) contract ------------------------

TEST(RelJoin, OutputBoundContract) {
  auto rt = Runtime::builder().seed(16).build();
  const auto L = make_left(80, 20, 51);
  const auto R = make_right(80, 20, 52);
  const Pairs want = oracle_join(L, R, false, 0);
  ASSERT_GT(want.size(), 10u);

  {  // bound below the true count: prefix in output order, truncated()
    const auto res = run_equi(rt, L, R, 10);
    EXPECT_EQ(res.matched, want.size());
    EXPECT_TRUE(res.truncated());
    EXPECT_EQ(ids_of(res), Pairs(want.begin(), want.begin() + 10));
  }
  {  // exact bound
    const auto res = run_equi(rt, L, R, want.size());
    EXPECT_FALSE(res.truncated());
    EXPECT_EQ(ids_of(res), want);
  }
  {  // padded bound: same rows, padding stripped
    const auto res = run_equi(rt, L, R, want.size() + 37);
    EXPECT_FALSE(res.truncated());
    EXPECT_EQ(ids_of(res), want);
  }
}

TEST(RelJoin, BandZeroEqualsEqui) {
  auto rt = Runtime::builder().seed(17).build();
  const auto L = make_left(100, 40, 61);
  const auto R = make_right(100, 40, 62);
  const auto eq = run_equi(rt, L, R, 512);
  const auto bd = run_band(rt, L, R, 0, 512);
  EXPECT_EQ(eq.matched, bd.matched);
  EXPECT_EQ(ids_of(eq), ids_of(bd));
}

// ---- group-by ----------------------------------------------------------

TEST(RelGroupBy, MatchesOracleAcrossSizes) {
  auto rt = Runtime::builder().seed(18).build();
  for (size_t n :
       {size_t{0}, size_t{1}, size_t{2}, size_t{7}, size_t{700}}) {
    SCOPED_TRACE("n=" + std::to_string(n));
    const auto rows = make_right(n, std::max<uint64_t>(1, n / 4), 900 + n);
    for (rel::Agg agg : {rel::Agg::Sum, rel::Agg::Count, rel::Agg::Min,
                         rel::Agg::Max}) {
      const auto got = rt.group_by_aggregate(
          std::span<const RRow>(rows), kRKey,
          [](const RRow& r) { return r.id; }, agg);
      expect_groups_match(got, oracle_group(rows, agg));
    }
  }
}

TEST(RelGroupBy, AllEqualKeysCollapseToOneGroup) {
  auto rt = Runtime::builder().seed(19).build();
  std::vector<RRow> rows(100);
  for (size_t i = 0; i < 100; ++i) rows[i] = RRow{5, i + 1};
  const auto got = rt.group_by_aggregate(
      std::span<const RRow>(rows), kRKey,
      [](const RRow& r) { return r.id; }, rel::Agg::Sum);
  ASSERT_EQ(got.groups.size(), 1u);
  EXPECT_EQ(got.groups[0].key, 5u);
  EXPECT_EQ(got.groups[0].value, 100u * 101u / 2);
  EXPECT_EQ(got.groups[0].count, 100u);
}

TEST(RelGroupBy, GroupBoundTruncates) {
  auto rt = Runtime::builder().seed(20).build();
  const auto rows = make_right(200, 40, 71);
  const auto want = oracle_group(rows, rel::Agg::Sum);
  ASSERT_GT(want.size(), 5u);
  const auto got = rt.group_by_aggregate(
      std::span<const RRow>(rows), kRKey,
      [](const RRow& r) { return r.id; }, rel::Agg::Sum,
      rel::GroupByOptions{.group_bound = 5, .sort = {}});
  ASSERT_EQ(got.groups.size(), 5u);
  EXPECT_EQ(got.groups_total, want.size());
  EXPECT_TRUE(got.truncated());
  size_t i = 0;  // truncation keeps the lowest keys (ascending order)
  for (const auto& [key, row] : want) {
    if (i >= 5) break;
    EXPECT_EQ(got.groups[i].key, key);
    EXPECT_EQ(got.groups[i].value, row.value);
    ++i;
  }
}

// ---- key contract ------------------------------------------------------

TEST(RelContract, KeyLimitEnforcedOnEveryEntryPointBeforeAnySeed) {
  // Keys at and around rel::kKeyLimit (2^62) and the filler sentinel, in
  // every build type: a call with a key >= 2^62 throws, any other call
  // matches the oracle. Every call overrides the backend, so it draws a
  // seed once past the checks; a rejection that came after the draw would
  // break the replay against `twin`, which makes only the accepted calls.
  const rel::JoinOptions jopts{.output_bound = 16,
                               .sort = SortOptions{.backend = "odd_even"}};
  const rel::GroupByOptions gopts{.group_bound = 0, .sort = jopts.sort};
  const auto val = [](const RRow& r) { return r.id; };
  auto sweep = [&](Runtime& rt, bool with_rejected) {
    for (uint64_t k : {uint64_t{0}, rel::kKeyLimit - 1, rel::kKeyLimit,
                       ~uint64_t{0} - 1, ~uint64_t{0}}) {
      SCOPED_TRACE("key=" + std::to_string(k));
      const std::vector<LRow> L{{k, 1}, {3, 2}, {k, 3}};
      const std::vector<RRow> R{{k, 5}, {2, 6}, {k, 7}, {9, 8}};
      const std::span<const LRow> ls(L);
      const std::span<const RRow> rs(R);
      if (k >= rel::kKeyLimit) {
        if (!with_rejected) continue;
        EXPECT_THROW(rt.equi_join(ls, kLKey, rs, kRKey, jopts),
                     std::invalid_argument);
        EXPECT_THROW(rt.band_join(ls, kLKey, rs, kRKey, 1, jopts),
                     std::invalid_argument);
        EXPECT_THROW(rt.group_by_aggregate(rs, kRKey, val, rel::Agg::Sum,
                                           gopts),
                     std::invalid_argument);
        continue;
      }
      EXPECT_EQ(ids_of(rt.equi_join(ls, kLKey, rs, kRKey, jopts)),
                oracle_join(L, R, false, 0));
      EXPECT_EQ(ids_of(rt.band_join(ls, kLKey, rs, kRKey, 1, jopts)),
                oracle_join(L, R, true, 1));
      expect_groups_match(
          rt.group_by_aggregate(rs, kRKey, val, rel::Agg::Sum, gopts),
          oracle_group(R, rel::Agg::Sum));
    }
  };
  auto permuted = [](Runtime& rt) {
    const auto in = test::random_elems(256, 9);
    vec<obl::Elem> v(in), out(in.size());
    rt.permute(v.s(), out.s());
    std::vector<uint64_t> keys(in.size());
    for (size_t i = 0; i < keys.size(); ++i) keys[i] = out.underlying()[i].key;
    return keys;
  };
  auto rt = Runtime::builder().seed(23).build();
  auto twin = Runtime::builder().seed(23).build();
  sweep(rt, true);
  sweep(twin, false);
  EXPECT_EQ(permuted(rt), permuted(twin));
}

// ---- obliviousness pins ------------------------------------------------

/// Run the full operator battery on one traced Runtime and return the
/// digest. `variant` of the data: 0/1 = different random contents, 2 =
/// adversarial (all-equal keys). Sizes and bounds are identical across
/// variants — only contents differ.
uint64_t traced_battery_digest(const std::string& backend, int variant) {
  auto rt = Runtime::builder().seed(7).trace().backend(backend).build();
  std::vector<LRow> L;
  std::vector<RRow> R;
  if (variant == 2) {
    L.assign(48, LRow{3, 1});
    R.assign(48, RRow{3, 2});
    for (size_t i = 0; i < 48; ++i) L[i].id = i, R[i].id = i;
  } else {
    L = make_left(48, 48, 1000 + variant);
    R = make_right(48, 48, 2000 + variant);
  }
  (void)run_equi(rt, L, R, 96);
  (void)run_band(rt, L, R, 4, 96);
  (void)rt.group_by_aggregate(std::span<const RRow>(R), kRKey,
                              [](const RRow& r) { return r.id; },
                              rel::Agg::Sum,
                              rel::GroupByOptions{.group_bound = 16,
                                                  .sort = {}});
  return rt.trace_digest();
}

TEST(RelOblivious, NetworkScheduleIndependentOfContents) {
  // Comparator-network backends: the schedule is a pure function of the
  // (public) sizes and bounds, so the digest must not move when only the
  // table contents change — including to an adversarial distribution.
  for (const std::string& name : backend_names()) {
    if (name == "osort" || name == "spms") continue;  // randomized full sorts
    SCOPED_TRACE("backend=" + name);
    const uint64_t d0 = traced_battery_digest(name, 0);
    EXPECT_EQ(d0, traced_battery_digest(name, 1));
    EXPECT_EQ(d0, traced_battery_digest(name, 2));
  }
}

TEST(RelOblivious, DigestReplaysOnEveryBackend) {
  // Identically built Runtimes replay identical schedules *and* identical
  // results — the per-call seed-stream contract, covering the randomized
  // full-sort backends the content-independence pin cannot.
  for (const std::string& name : backend_names()) {
    SCOPED_TRACE("backend=" + name);
    const auto L = make_left(48, 16, 3001);
    const auto R = make_right(48, 16, 3002);
    auto run = [&](Runtime& rt) {
      auto eq = run_equi(rt, L, R, 64);
      auto bd = run_band(rt, L, R, 2, 64);
      return std::make_pair(ids_of(eq), ids_of(bd));
    };
    auto rt1 = Runtime::builder().seed(7).trace().backend(name).build();
    auto rt2 = Runtime::builder().seed(7).trace().backend(name).build();
    const auto out1 = run(rt1);
    const auto out2 = run(rt2);
    EXPECT_EQ(rt1.trace_digest(), rt2.trace_digest());
    EXPECT_EQ(out1, out2);
  }
}

// ---- compact / propagate facade ----------------------------------------

TEST(RelFacade, CompactStableAnySize) {
  auto rt = Runtime::builder().seed(21).build();
  for (size_t n : {size_t{5}, size_t{64}, size_t{300}}) {
    SCOPED_TRACE("n=" + std::to_string(n));
    auto in = test::random_elems(n, 80 + n);
    util::Rng flip(n);
    for (auto& e : in) {
      if (flip.below(3) == 0) e.flags |= obl::Elem::kFiller;
    }
    std::vector<obl::Elem> want_live;
    size_t fillers = 0;
    for (const auto& e : in) {
      if (e.flags & obl::Elem::kFiller) {
        ++fillers;
      } else {
        want_live.push_back(e);
      }
    }
    auto v = rt.make_vec<obl::Elem>(std::vector<obl::Elem>(in));
    rt.compact(v.s());
    for (size_t i = 0; i < want_live.size(); ++i) {
      EXPECT_EQ(v.s()[i].key, want_live[i].key);
      EXPECT_EQ(v.s()[i].payload, want_live[i].payload);
      EXPECT_EQ(v.s()[i].aux, want_live[i].aux);
      EXPECT_FALSE(v.s()[i].flags & obl::Elem::kFiller);
    }
    for (size_t i = want_live.size(); i < n; ++i) {
      EXPECT_TRUE(v.s()[i].flags & obl::Elem::kFiller);
    }
  }
}

TEST(RelFacade, CompactScheduleIndependentOfFillerPattern) {
  auto digest = [](uint64_t flip_seed) {
    auto rt = Runtime::builder().seed(22).trace().build();
    auto in = test::random_elems(100, 90);
    util::Rng flip(flip_seed);
    for (auto& e : in) {
      if (flip.below(2) == 0) e.flags |= obl::Elem::kFiller;
    }
    auto v = rt.make_vec<obl::Elem>(std::move(in));
    rt.compact(v.s());
    return rt.trace_digest();
  };
  EXPECT_EQ(digest(1), digest(2));
}

TEST(RelFacade, PropagateLeftmostPerGroup) {
  auto rt = Runtime::builder().seed(23).build();
  const size_t n = 100;
  std::vector<obl::Elem> in(n);
  for (size_t i = 0; i < n; ++i) {
    in[i].key = i / 7;  // sorted groups of 7
    const bool head = i % 7 == 0;
    in[i].payload = head ? 500 + i : 9999;  // non-head values are junk
    in[i].aux = head ? 800 + i : 9999;
  }
  auto v = rt.make_vec<obl::Elem>(std::vector<obl::Elem>(in));
  rt.propagate(v.s());
  for (size_t i = 0; i < n; ++i) {
    const size_t head = i - i % 7;
    EXPECT_EQ(v.s()[i].payload, 500 + head);
    EXPECT_EQ(v.s()[i].aux, 800 + head);
  }
}

}  // namespace
