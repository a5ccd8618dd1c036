#pragma once
// Oblivious propagation in a sorted array (paper Section F, Table 2).
//
// Input: an Elem array sorted so equal keys are consecutive. The leftmost
// element of each key-group is the group's representative; afterwards every
// element's (payload, aux) equals its representative's. Realized as a
// segmented inclusive prefix scan — O(n) work, O(log n) span, O(n/B) cache,
// fixed access pattern.

#include <cstdint>

#include "forkjoin/api.hpp"
#include "obl/elem.hpp"
#include "obl/kernel/kernel.hpp"
#include "obl/oswap.hpp"
#include "obl/scan.hpp"
#include "sim/tracked.hpp"

namespace dopar::obl {

namespace detail {

struct PropSeg {
  uint64_t payload = 0;
  uint64_t aux = 0;
  uint64_t head = 0;  // 1 iff this position starts a key-group
};

struct PropCombine {
  // comb(earlier, later): a later head blocks values from the left.
  PropSeg operator()(const PropSeg& x, const PropSeg& y) const {
    PropSeg out = y;
    // If y does not start a group, the fold's value comes from x.
    oassign(y.head == 0, out.payload, x.payload);
    oassign(y.head == 0, out.aux, x.aux);
    out.head = x.head | y.head;
    return out;
  }
};

/// Every element takes the (payload, aux) of the nearest element at or
/// before it that heads a run (is_head(i, a[i])); elements before the
/// first head keep their own.
template <class IsHead>
void propagate_heads(const slice<Elem>& a, const IsHead& is_head) {
  const size_t n = a.size();
  if (n <= 1) return;
  vec<PropSeg> segs(n);
  const slice<PropSeg> sg = segs.s();
  kernel::generate_range(
      sg, 0, n, kernel::Tick::PerElem, [&](PropSeg& v, size_t i) {
        const Elem e = a[i];
        v = PropSeg{e.payload, e.aux, is_head(i, e) ? 1u : 0u};
      });
  scan_inclusive(sg, PropCombine{});
  kernel::transform_range(a, 0, n, kernel::Tick::PerElem,
                          [&](Elem& e, size_t i) {
                            e.payload = sg[i].payload;
                            e.aux = sg[i].aux;
                          });
}

}  // namespace detail

/// Propagate the leftmost (payload, aux) of each key-group to the whole
/// group. Fillers form their own groups (key = 2^64-1) and are unaffected
/// in practice.
inline void propagate_leftmost(const slice<Elem>& a) {
  detail::propagate_heads(a, [&](size_t i, const Elem& e) {
    // Short-circuit preserved: position 0 never touches a[-1].
    return (i == 0) || (a[i - 1].key != e.key);
  });
}

/// Propagate from marked heads: every element takes the (payload, aux) of
/// the nearest element at or before it for which head(element) holds;
/// elements before the first head keep their own.
template <class Head>
void propagate_marked(const slice<Elem>& a, const Head& head) {
  detail::propagate_heads(a,
                          [&](size_t, const Elem& e) { return head(e); });
}

}  // namespace dopar::obl
