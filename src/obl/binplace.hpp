#pragma once
// Oblivious bin placement (Chan–Shi; paper Section C.1).
//
// Given an input array whose real elements each carry a destination bin
// g in [beta), place every real element into its bin and pad each bin with
// fillers to capacity Z, revealing nothing about the bin choices. It is
// *promised* that no bin receives more than Z elements (overflow is
// detected and reported so callers can re-randomize; see core/orba.hpp).
//
// Realized with one half-size sort, one merge, one segmented scan and one
// packing network over 2H records, H = pow2_ceil(max(|input|, beta*Z)):
//   1. layout: the first half holds the inputs, then sink fillers; the
//      second half holds sinks, then Z "temp" elements per bin (so every
//      bin has >= Z candidates) in *descending* (bin, temp) order — a
//      public order, so that half is already sorted,
//   2. sort the first half by (bin, real-before-temp) through the
//      SorterBackend, then one bitonic merge of all 2H records (ascending
//      half + descending half is bitonic) sorts the whole array,
//   3. a segmented scan gives each record its offset within its bin,
//   4. re-key: a kept record (not a sink, offset < Z) gets its output slot
//      bin*Z + offset; excess records and sinks get the sink key (a *real*
//      excess record means overflow),
//   5. LSB-first butterfly packing moves every kept record to its slot
//      (slots are the kept records' ranks, and monotone packing on an
//      LSB-first butterfly never collides); keep the first beta*Z slots.
// Only the half-sort follows the backend; the merge and the packing are
// fixed networks. All data-dependent decisions go through branchless
// selects and swap masks; the access pattern is a fixed function of
// (|input|, beta, Z).
//
// The routine is generic over the record type R through a Traits policy so
// REC-ORBA can route (label, element) pairs; RecordTraits<obl::Elem>
// (obl/binitem.hpp) is the default for plain Elem arrays. The sorts go
// through the type-erased SorterBackend, so R is limited to the record set
// the backend interface names (Elem and core::Routed).

#include <cassert>
#include <cstdint>
#include <stdexcept>

#include "core/backend.hpp"
#include "forkjoin/api.hpp"
#include "obl/binitem.hpp"
#include "obl/bitonic_ca.hpp"
#include "obl/elem.hpp"
#include "obl/kernel/kernel.hpp"
#include "obl/oswap.hpp"
#include "obl/scan.hpp"
#include "sim/tracked.hpp"
#include "util/bits.hpp"

namespace dopar::obl {

/// Thrown when the bin-capacity promise is violated (probability negligible
/// for the parameter choices of Section C.2; callers retry with fresh
/// randomness — the event is independent of the input data).
struct BinOverflow : std::runtime_error {
  BinOverflow() : std::runtime_error("oblivious bin placement: bin overflow") {}
};

namespace detail {

struct HeadSeg {
  uint64_t head_index = 0;
  uint64_t head = 0;
};
struct HeadCombine {
  HeadSeg operator()(const HeadSeg& x, const HeadSeg& y) const {
    HeadSeg out = y;
    oassign(y.head == 0, out.head_index, x.head_index);
    out.head = x.head | y.head;
    return out;
  }
};

/// Move every live record (skey != kSinkKey) of w to position skey, given
/// that live skeys are exactly the live records' ranks, in array order.
/// LSB-first butterfly: round d routes a live record by bit log2(d) of its
/// slot. After round d a record sits at (its start's bits above log2 d,
/// its slot's bits up to log2 d). Two live records meeting there would have
/// started in one 2d-aligned block (< 2d apart) with slots congruent mod 2d
/// (>= 2d apart); ranks never spread further than starts, so no round sends
/// two live records to one position.
template <class R>
void pack_to_slots(const slice<BinItem<R>>& w) {
  using Item = BinItem<R>;
  kernel::butterfly_lsb(w, [](const Item& x, const Item& y, size_t d) {
    const bool x_live = x.skey != Item::kSinkKey;
    const bool y_live = y.skey != Item::kSinkKey;
    return (x_live & ((x.skey & d) != 0)) | (y_live & ((y.skey & d) == 0));
  });
}

}  // namespace detail

/// Place the real elements of `in` into `out` (|out| = beta*Z; bin b is
/// out[b*Z, (b+1)*Z)). `group(r)` gives the destination bin of a non-filler
/// record. Throws BinOverflow if some bin attracts more than Z reals.
template <class R, class Traits = RecordTraits<R>, class GroupFn>
void bin_placement(const slice<R>& in, const slice<R>& out, size_t beta,
                   size_t Z, const GroupFn& group,
                   const SorterBackend& sorter = default_backend()) {
  using Item = BinItem<R>;
  assert(out.size() == beta * Z);
  const size_t bz = beta * Z;
  const size_t H = util::pow2_ceil(in.size() > bz ? in.size() : bz);
  const size_t n = 2 * H;
  const size_t temps0 = n - bz;  // first temp slot of the second half

  vec<Item> workv(n);
  const slice<Item> w = workv.s();

  // 1. Inputs then sinks; sinks then temps in descending (bin, temp) order.
  kernel::generate_range(
      w, 0, n, kernel::Tick::PerElem, [&](Item& it, size_t i) {
        if (i < in.size()) {
          it.r = in[i];
          const bool fill = Traits::is_filler(it.r);
          const uint64_t g = fill ? 0 : group(it.r);
          it.skey = oselect<uint64_t>(fill, Item::kSinkKey, (g << 2) | 0u);
        } else if (i >= temps0) {
          const uint64_t g = beta - 1 - (i - temps0) / Z;
          it.r = Traits::filler();
          it.skey = (g << 2) | 1u;  // temp
        } else {
          it.r = Traits::filler();
          it.skey = Item::kSinkKey;
        }
      });

  // 2. Sort the first half by (bin, real < temp); fillers sink to its back.
  // Merging it with the descending second half sorts all 2H records.
  sorter.sort(w.first(H), erase_less<Item>(BinBySkey{}));
  {
    vec<Item> scratch(n);
    bitonic_merge_ca(w, scratch.s(), /*up=*/true, BinBySkey{});
  }

  // 3. Offset within bin via segmented scan of head positions.
  vec<detail::HeadSeg> segv(n);
  const slice<detail::HeadSeg> sg = segv.s();
  kernel::generate_range(
      sg, 0, n, kernel::Tick::PerElem, [&](detail::HeadSeg& v, size_t i) {
        const uint64_t g = w[i].skey >> 2;
        const uint64_t gp = w[i == 0 ? 0 : i - 1].skey >> 2;
        const bool head = (i == 0) || (g != gp);
        v = detail::HeadSeg{i, head ? 1u : 0u};
      });
  scan_inclusive(sg, detail::HeadCombine{});

  // Overflow check: a bin overflows iff some *real* element has offset
  // >= Z. The reduction below has a fixed pattern over public positions.
  vec<uint64_t> overflow_flags(n);
  const slice<uint64_t> of = overflow_flags.s();

  // 4. Re-key: kept -> output slot bin*Z + offset, excess/filler -> sink.
  // Surviving temps already are Traits::filler().
  kernel::transform_range(
      w, 0, n, kernel::Tick::PerElem, [&](Item& it, size_t i) {
        const uint64_t offset = i - sg[i].head_index;
        const bool sink = it.skey == Item::kSinkKey;
        const bool excess = !sink && offset >= Z;
        const bool real_excess = excess && (it.skey & 3u) == 0u;
        of[i] = real_excess ? 1u : 0u;
        it.skey = oselect<uint64_t>(excess || sink, Item::kSinkKey,
                                    (it.skey >> 2) * Z + offset);
      });
  uint64_t lost = 0;
  for (size_t i = 0; i < n; ++i) lost += of[i];
  if (lost != 0) throw BinOverflow{};

  // 5. Pack every kept record into its slot.
  detail::pack_to_slots(w);
  kernel::generate_range(out, 0, bz, kernel::Tick::None,
                         [&](R& v, size_t i) { v = w[i].r; });
}

}  // namespace dopar::obl
