// Unit tests: oblivious bin placement (Chan–Shi, paper Section C.1).

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <tuple>
#include <vector>

#include "core/routed.hpp"
#include "obl/binplace.hpp"
#include "sim/session.hpp"
#include "testutil.hpp"
#include "util/rng.hpp"

namespace dopar {
namespace {

using obl::Elem;

// Destination bin lives in e.extra for these tests.
struct GroupFromExtra {
  uint64_t operator()(const Elem& e) const { return e.extra; }
};

TEST(BinPlacement, RoutesEveryRealElementToItsBin) {
  constexpr size_t beta = 8, Z = 16;
  util::Rng rng(11);
  std::vector<Elem> in(beta * Z / 2);
  for (size_t i = 0; i < in.size(); ++i) {
    in[i].key = i;
    in[i].payload = 1000 + i;
    in[i].extra = static_cast<uint32_t>(rng.below(beta));
  }
  vec<Elem> inv(in);
  vec<Elem> out(beta * Z);
  obl::bin_placement(inv.s(), out.s(), beta, Z, GroupFromExtra{});

  std::map<uint64_t, size_t> expected;
  for (const Elem& e : in) expected[e.extra]++;
  for (size_t b = 0; b < beta; ++b) {
    size_t reals = 0;
    for (size_t k = 0; k < Z; ++k) {
      const Elem& e = out.underlying()[b * Z + k];
      if (!e.is_filler()) {
        EXPECT_EQ(e.extra, b) << "element in wrong bin";
        ++reals;
      }
    }
    EXPECT_EQ(reals, expected[b]) << "bin " << b;
  }
}

TEST(BinPlacement, PadsEveryBinToCapacity) {
  constexpr size_t beta = 4, Z = 8;
  std::vector<Elem> in(4);
  for (size_t i = 0; i < in.size(); ++i) in[i].extra = 2;  // all to bin 2
  vec<Elem> inv(in);
  vec<Elem> out(beta * Z);
  obl::bin_placement(inv.s(), out.s(), beta, Z, GroupFromExtra{});
  for (size_t b = 0; b < beta; ++b) {
    size_t reals = 0;
    for (size_t k = 0; k < Z; ++k) {
      reals += !out.underlying()[b * Z + k].is_filler();
    }
    EXPECT_EQ(reals, b == 2 ? 4u : 0u);
  }
}

TEST(BinPlacement, InputFillersAreDiscarded) {
  constexpr size_t beta = 2, Z = 4;
  std::vector<Elem> in(6, Elem::filler());
  in[1] = Elem{};
  in[1].key = 7;
  in[1].extra = 1;
  vec<Elem> inv(in);
  vec<Elem> out(beta * Z);
  obl::bin_placement(inv.s(), out.s(), beta, Z, GroupFromExtra{});
  size_t reals = 0;
  for (const Elem& e : out.underlying()) reals += !e.is_filler();
  EXPECT_EQ(reals, 1u);
  EXPECT_FALSE(out.underlying()[Z].is_filler());  // head of bin 1
  EXPECT_EQ(out.underlying()[Z].key, 7u);
}

TEST(BinPlacement, ThrowsOnOverflow) {
  constexpr size_t beta = 4, Z = 4;
  std::vector<Elem> in(Z + 1);
  for (auto& e : in) e.extra = 0;  // Z+1 elements into one Z-capacity bin
  vec<Elem> inv(in);
  vec<Elem> out(beta * Z);
  EXPECT_THROW(
      obl::bin_placement(inv.s(), out.s(), beta, Z, GroupFromExtra{}),
      obl::BinOverflow);
}

TEST(BinPlacement, ExactlyFullBinIsFine) {
  constexpr size_t beta = 4, Z = 4;
  std::vector<Elem> in(Z);
  for (size_t i = 0; i < in.size(); ++i) {
    in[i].extra = 3;
    in[i].key = i;
  }
  vec<Elem> inv(in);
  vec<Elem> out(beta * Z);
  obl::bin_placement(inv.s(), out.s(), beta, Z, GroupFromExtra{});
  for (size_t k = 0; k < Z; ++k) {
    EXPECT_FALSE(out.underlying()[3 * Z + k].is_filler());
  }
}

TEST(BinPlacement, TraceIndependentOfBinChoices) {
  auto digest_of = [](uint64_t seed) {
    sim::Session s = sim::Session::analytic().with_trace();
    sim::ScopedSession guard(s);
    constexpr size_t beta = 8, Z = 32;  // Z comfortably above the mean load
    util::Rng rng(seed);
    std::vector<Elem> in(beta * Z / 2);
    for (auto& e : in) e.extra = static_cast<uint32_t>(rng.below(beta));
    vec<Elem> inv(in);
    vec<Elem> out(beta * Z);
    obl::bin_placement(inv.s(), out.s(), beta, Z, GroupFromExtra{});
    return s.log()->digest();
  };
  EXPECT_EQ(digest_of(1), digest_of(2));
  EXPECT_EQ(digest_of(2), digest_of(3));
}

// Insecure oracle: the (key, payload) multiset each bin must receive.
std::vector<std::vector<std::pair<uint64_t, uint64_t>>> oracle_bins(
    const std::vector<Elem>& in, size_t beta) {
  std::vector<std::vector<std::pair<uint64_t, uint64_t>>> bins(beta);
  for (const Elem& e : in) {
    if (!e.is_filler()) bins[e.extra].emplace_back(e.key, e.payload);
  }
  for (auto& b : bins) std::sort(b.begin(), b.end());
  return bins;
}

std::vector<std::vector<std::pair<uint64_t, uint64_t>>> placed_bins(
    const std::vector<Elem>& out, size_t beta, size_t Z) {
  std::vector<std::vector<std::pair<uint64_t, uint64_t>>> bins(beta);
  for (size_t b = 0; b < beta; ++b) {
    for (size_t k = 0; k < Z; ++k) {
      const Elem& e = out[b * Z + k];
      if (!e.is_filler()) bins[b].emplace_back(e.key, e.payload);
    }
    std::sort(bins[b].begin(), bins[b].end());
  }
  return bins;
}

TEST(BinPlacement, MatchesOracleAcrossSizesAndBackends) {
  constexpr size_t beta = 8, Z = 16;  // beta*Z = 128
  // |in| below, equal to and above beta*Z, including non-powers of two;
  // `reals` caps how many inputs are real so no bin can overflow.
  const std::vector<std::tuple<size_t, size_t>> shapes = {
      {1, 1},     {37, 37},   {64, 64},  {100, 80}, {128, 64},
      {128, 100}, {129, 90},  {200, 70}, {256, 64}, {300, 0},
  };
  for (const std::string& name : backend_names()) {
    const auto sorter = make_backend(name);
    for (const auto& [size, reals] : shapes) {
      util::Rng rng(size * 31 + reals);
      std::vector<Elem> in(size, Elem::filler());
      size_t placed = 0;
      std::vector<size_t> load(beta, 0);
      for (size_t i = 0; i < size && placed < reals; ++i) {
        if (rng.below(size) >= reals) continue;  // scatter the fillers
        size_t g = rng.below(beta);
        while (load[g] == Z) g = (g + 1) % beta;
        ++load[g];
        ++placed;
        in[i] = Elem{};
        in[i].key = rng.below(50);  // duplicate-heavy keys
        in[i].payload = i;
        in[i].extra = static_cast<uint32_t>(g);
      }
      vec<Elem> inv(in);
      vec<Elem> out(beta * Z);
      obl::bin_placement(inv.s(), out.s(), beta, Z, GroupFromExtra{},
                         *sorter);
      EXPECT_EQ(placed_bins(out.underlying(), beta, Z),
                oracle_bins(in, beta))
          << "backend " << name << " |in|=" << size << " reals=" << placed;
    }
  }
}

TEST(BinPlacement, MiddleBinOverflowsOnlyPastCapacity) {
  constexpr size_t beta = 4, Z = 8;
  for (size_t reals : {Z, Z + 1}) {
    // Reals bound for bin 2, interleaved with input fillers.
    std::vector<Elem> in(3 * Z, Elem::filler());
    for (size_t k = 0; k < reals; ++k) {
      in[2 * k] = Elem{};
      in[2 * k].key = k;
      in[2 * k].extra = 2;
    }
    vec<Elem> inv(in);
    vec<Elem> out(beta * Z);
    if (reals == Z) {
      obl::bin_placement(inv.s(), out.s(), beta, Z, GroupFromExtra{});
      for (size_t i = 0; i < beta * Z; ++i) {
        EXPECT_EQ(out.underlying()[i].is_filler(), i / Z != 2) << i;
      }
    } else {
      EXPECT_THROW(
          obl::bin_placement(inv.s(), out.s(), beta, Z, GroupFromExtra{}),
          obl::BinOverflow);
    }
  }
}

TEST(BinPlacement, PackingSendsEveryLiveRecordToItsRank) {
  // Exhaustive over 2H = 16: every live mask, live records keyed by rank.
  using Item = obl::BinItem<Elem>;
  constexpr size_t m = 16;
  for (uint32_t mask = 0; mask < (1u << m); ++mask) {
    vec<Item> wv(m);
    uint64_t rank = 0;
    for (size_t i = 0; i < m; ++i) {
      Item& it = wv.underlying()[i];
      it.r.key = i;
      const bool live = (mask >> i) & 1u;
      it.skey = live ? rank++ : Item::kSinkKey;
    }
    obl::detail::pack_to_slots(wv.s());
    rank = 0;
    for (size_t i = 0; i < m; ++i) {
      if (!((mask >> i) & 1u)) continue;
      const Item& it = wv.underlying()[rank];
      ASSERT_EQ(it.skey, rank) << "mask " << mask;
      ASSERT_EQ(it.r.key, i) << "mask " << mask;
      ++rank;
    }
  }
}

TEST(BinPlacement, RoutedTraceSameForFullBinAndUniformSpread) {
  // Different contents, not a replay: one bin filled to capacity versus the
  // same number of reals spread evenly over every bin.
  constexpr size_t beta = 8, Z = 16;
  auto digest_of = [&](bool one_bin) {
    sim::Session s = sim::Session::analytic().with_trace();
    sim::ScopedSession guard(s);
    std::vector<core::Routed> in(beta * Z / 2, core::Routed::filler());
    for (size_t k = 0; k < Z; ++k) {
      const size_t i = one_bin ? k : k * (in.size() / Z);
      in[i].e = Elem{};
      in[i].e.key = k;
      in[i].label = one_bin ? 5 : k % beta;
    }
    vec<core::Routed> inv(in);
    vec<core::Routed> out(beta * Z);
    obl::bin_placement<core::Routed>(
        inv.s(), out.s(), beta, Z,
        [](const core::Routed& r) { return r.label; });
    return s.log()->digest();
  };
  EXPECT_EQ(digest_of(true), digest_of(false));
}

}  // namespace
}  // namespace dopar
