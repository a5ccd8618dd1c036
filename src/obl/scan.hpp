#pragma once
// Oblivious parallel scans (prefix / suffix folds) in the fork-join model.
//
// Scans are the workhorse behind the paper's aggregation and propagation
// primitives (Section F): both reduce to segmented scans, which run in
// O(n) work, O(log n) span and O(n/B) cache misses with an access pattern
// that is a fixed function of n (a static binary tree walk).
//
// The implementation is the classic two-pass tree scan expressed with
// binary forks: an upsweep computes subtree folds into a segment tree, the
// downsweep pushes carries to the leaves. No identity element is required
// (carries track an explicit "empty" state), so any associative combine
// works, including the non-commutative segmented operators. Instrumented
// runs always take the tree (the analytic model's schedule); native runs
// take a blocked scan with the same values and no tree.

#include <cassert>
#include <cstddef>
#include <vector>

#include "forkjoin/api.hpp"
#include "sim/session.hpp"
#include "sim/tracked.hpp"

namespace dopar::obl {

namespace detail {

template <class T, class Combine>
void scan_up(const slice<T>& a, const slice<T>& tree, size_t node, size_t lo,
             size_t hi, const Combine& comb) {
  if (hi - lo == 1) {
    sim::tick(1);
    tree[node] = a[lo];
    return;
  }
  const size_t mid = lo + (hi - lo) / 2;
  fj::invoke([&] { scan_up(a, tree, 2 * node, lo, mid, comb); },
             [&] { scan_up(a, tree, 2 * node + 1, mid, hi, comb); });
  sim::tick(1);
  tree[node] = comb(tree[2 * node], tree[2 * node + 1]);
}

// Forward inclusive: a[i] <- a[0] + ... + a[i]  (in array order).
template <class T, class Combine>
void scan_down_fwd(const slice<T>& a, const slice<T>& tree, size_t node,
                   size_t lo, size_t hi, const T& carry, bool has_carry,
                   const Combine& comb) {
  if (hi - lo == 1) {
    sim::tick(1);
    if (has_carry) a[lo] = comb(carry, a[lo]);
    return;
  }
  const size_t mid = lo + (hi - lo) / 2;
  sim::tick(1);
  const T left_fold = tree[2 * node];
  const T right_carry = has_carry ? comb(carry, left_fold) : left_fold;
  fj::invoke(
      [&] { scan_down_fwd(a, tree, 2 * node, lo, mid, carry, has_carry,
                          comb); },
      [&] { scan_down_fwd(a, tree, 2 * node + 1, mid, hi, right_carry, true,
                          comb); });
}

// Reverse inclusive: a[i] <- a[i] + ... + a[n-1]  (combine keeps array
// order: comb(earlier, later)).
template <class T, class Combine>
void scan_down_rev(const slice<T>& a, const slice<T>& tree, size_t node,
                   size_t lo, size_t hi, const T& carry, bool has_carry,
                   const Combine& comb) {
  if (hi - lo == 1) {
    sim::tick(1);
    if (has_carry) a[lo] = comb(a[lo], carry);
    return;
  }
  const size_t mid = lo + (hi - lo) / 2;
  sim::tick(1);
  const T right_fold = tree[2 * node + 1];
  const T left_carry = has_carry ? comb(right_fold, carry) : right_fold;
  fj::invoke(
      [&] { scan_down_rev(a, tree, 2 * node, lo, mid, left_carry, true,
                          comb); },
      [&] { scan_down_rev(a, tree, 2 * node + 1, mid, hi, carry, has_carry,
                          comb); });
}

/// Native blocks of this many elements scan serially; only the per-block
/// totals are scanned across blocks.
inline constexpr size_t kScanBlock = 4096;

/// Native (uninstrumented) scan: every block scans itself in parallel, one
/// serial pass folds the block totals into per-block carries, and every
/// block folds its carry in — O(n) work, no tree, the same values as the
/// tree scan for any associative combine. `rev` scans suffixes.
template <class T, class Combine>
void scan_native(const slice<T>& a, const Combine& comb, bool rev) {
  T* p = a.data();
  const size_t n = a.size();
  const size_t nb = (n + kScanBlock - 1) / kScanBlock;
  const auto lo_of = [&](size_t b) { return b * kScanBlock; };
  const auto hi_of = [&](size_t b) {
    return (b + 1) * kScanBlock < n ? (b + 1) * kScanBlock : n;
  };
  fj::for_range(0, nb, 1, [&](size_t b) {
    const size_t lo = lo_of(b), hi = hi_of(b);
    if (rev) {
      for (size_t i = hi - 1; i-- > lo;) p[i] = comb(p[i], p[i + 1]);
    } else {
      for (size_t i = lo + 1; i < hi; ++i) p[i] = comb(p[i - 1], p[i]);
    }
  });
  if (nb == 1) return;
  // carry[b] = fold of every block before b (after b when reversed); a
  // scanned block's total sits at its last (first) element.
  std::vector<T> carry(nb);
  for (size_t k = 1; k < nb; ++k) {
    const size_t b = rev ? nb - 1 - k : k;
    const size_t prev = rev ? b + 1 : b - 1;
    const T& total = rev ? p[lo_of(prev)] : p[hi_of(prev) - 1];
    carry[b] = k == 1 ? total
                      : (rev ? comb(total, carry[prev])
                             : comb(carry[prev], total));
  }
  fj::for_range(0, nb, 1, [&](size_t b) {
    if (b == (rev ? nb - 1 : 0)) return;
    for (size_t i = lo_of(b); i < hi_of(b); ++i) {
      p[i] = rev ? comb(p[i], carry[b]) : comb(carry[b], p[i]);
    }
  });
}

}  // namespace detail

/// In-place inclusive prefix fold: a[i] = comb(a[0], ..., a[i]).
template <class T, class Combine>
void scan_inclusive(const slice<T>& a, const Combine& comb) {
  const size_t n = a.size();
  if (n <= 1) return;
  if (!sim::current_session()) {
    detail::scan_native(a, comb, /*rev=*/false);
    return;
  }
  vec<T> tree(4 * n);
  detail::scan_up(a, tree.s(), 1, 0, n, comb);
  detail::scan_down_fwd(a, tree.s(), 1, 0, n, T{}, false, comb);
}

/// In-place inclusive suffix fold: a[i] = comb(a[i], ..., a[n-1]).
template <class T, class Combine>
void scan_inclusive_reverse(const slice<T>& a, const Combine& comb) {
  const size_t n = a.size();
  if (n <= 1) return;
  if (!sim::current_session()) {
    detail::scan_native(a, comb, /*rev=*/true);
    return;
  }
  vec<T> tree(4 * n);
  detail::scan_up(a, tree.s(), 1, 0, n, comb);
  detail::scan_down_rev(a, tree.s(), 1, 0, n, T{}, false, comb);
}

/// Exclusive prefix sums of uint64 values extracted from a user array,
/// returning the total; out[i] = sum of get(a[j]) for j < i. A building
/// block for (non-oblivious-output) compaction and index assignment; the
/// access pattern is still fixed.
template <class T, class Get>
uint64_t prefix_sum_exclusive(const slice<T>& a, const slice<uint64_t>& out,
                              const Get& get) {
  const size_t n = a.size();
  assert(out.size() == n);
  if (n == 0) return 0;
  fj::for_range(0, n, fj::kDefaultGrain,
                [&](size_t i) { out[i] = get(a[i]); });
  struct Add {
    uint64_t operator()(uint64_t x, uint64_t y) const { return x + y; }
  };
  scan_inclusive(out, Add{});
  const uint64_t total = out[n - 1];
  // Shift right by one (through a scratch buffer) to make it exclusive.
  vec<uint64_t> tmp(n);
  fj::for_range(0, n, fj::kDefaultGrain, [&](size_t i) { tmp[i] = out[i]; });
  fj::for_range(0, n, fj::kDefaultGrain,
                [&](size_t i) { out[i] = i == 0 ? 0 : tmp[i - 1]; });
  return total;
}

}  // namespace dopar::obl
