#pragma once
// Oblivious monotone routing and recorded comparator networks.
//
// Building blocks that move records for O(m log m) masked swaps instead of
// a second full sort, for pipelines that know more about their permutation
// than "sort by this key again":
//
//  * recorded networks — run the fixed bitonic sort / bitonic merge
//    comparator schedule while saving each comparator's secret swap
//    decision (one tape byte per comparator, written unconditionally).
//    The network's permutation can then be inverted *exactly* by
//    replaying the masks in reverse dependency order: a pipeline sorts
//    into a convenient working order, computes, and routes every record
//    back to its public home for the cost of comparison-free masked swaps.
//
//  * compact_monotone — order-preserving tight compaction: live records
//    move to the front of the array, dead records are displaced behind
//    them. Leftward bit-by-bit shift routing: a live record's offset is
//    the number of dead records before it, offsets are non-decreasing and
//    live targets consecutive, so applying offset bits LSB-first never
//    collides.
//
//  * distribute_monotone — the inverse direction (Goodrich-style
//    oblivious distribution): records in a live prefix, each carrying a
//    target position in .key with targets strictly increasing and
//    target >= position, spread out to their targets; dead records are
//    displaced passively. Offset bits are applied MSB-first; strict
//    monotonicity keeps the routing collision-free.
//
// Execution follows the paper's binary fork-join model. A recorded sort
// is two half-sorts in parallel followed by a merge; a merge is one
// compare level followed by two half-merges in parallel; replay mirrors
// the recursion in reverse. The recursion is cache-agnostic: a subproblem
// that fits in cache finishes before the next one is loaded. Every
// comparator keeps its tape slot of the flat round-major layout (round r
// owns tape[r*m/2, (r+1)*m/2), the comparator at left index i of a round
// with distance d owns slot (i + (i & (d-1)))/2 within it), so the
// recorded permutation is the same whichever order independent
// comparators run in. Natively, subproblems up to an L1 tile run as
// serial tiled loops (the kernel layer's idiom: mask a contiguous pair
// run, swap it with one dispatched batch call) and subproblems up to
// kRouteForkCutoff run without forking. Under an instrumented session the
// recursion goes all the way down and every comparator accounts its own
// touches, tape byte included (tapes are tracked buffers).
//
// The monotone routers run each bit round double-buffered: position i
// reads only itself and its fixed partner i +- step, so a round forks
// freely. A record that moves away leaves a dead copy of itself behind;
// dead records' contents are unspecified beyond carrying no live flag.
//
// Obliviousness: every pass touches a fixed, size-determined sequence of
// positions; secret-dependent choices happen only inside branchless
// masked swaps / selects and the unconditional tape writes. Work ticks
// are likewise size-determined.

#include <cassert>
#include <cstdint>
#include <utility>

#include "forkjoin/api.hpp"
#include "obl/elem.hpp"
#include "obl/kernel/kernel.hpp"
#include "obl/oswap.hpp"
#include "obl/scan.hpp"
#include "sim/session.hpp"
#include "sim/tracked.hpp"
#include "util/bits.hpp"

namespace dopar::obl {

/// Native recorded-network subproblems up to this many records run without
/// forking (serving-size joins pay no fork overhead).
inline constexpr size_t kRouteForkCutoff = 4096;

namespace route_detail {

/// One recorded network on a[0..m) with its tape; `half` = m/2 is the
/// per-round tape stride.
template <class T>
struct Net {
  slice<T> a;
  slice<uint8_t> tape;
  size_t half;
};

/// Tape offset of the compare level of a sub-merge on [lo, lo + 2h) at
/// round r: its h comparators own consecutive slots from here.
inline size_t level_slot(size_t half, size_t r, size_t lo) {
  return r * half + lo / 2;
}

/// Index of the first round of the bitonic sort's merge stage 2^p.
inline size_t stage_round(unsigned p) { return size_t{p} * (p - 1) / 2; }

template <class A, class B>
inline void fork_if(bool par, A&& a, B&& b) {
  if (par) {
    fj::invoke(a, b);
  } else {
    a();
    b();
  }
}

/// Native pair run with recording: tape[j] = wrong-order mask of pair
/// (xa[j], xb[j]) under direction `up`, then one batched masked swap.
template <class T, class Less>
inline void record_run(T* xa, T* xb, size_t count, bool up, uint8_t* tape,
                       const Less& less) {
  for (size_t j = 0; j < count; ++j) {
    tape[j] =
        static_cast<uint8_t>(up ? less(xb[j], xa[j]) : less(xa[j], xb[j]));
  }
  kernel::oswap_batch_raw(reinterpret_cast<unsigned char*>(xa),
                          reinterpret_cast<unsigned char*>(xb), sizeof(T),
                          sizeof(T), tape, count);
}

template <class T>
inline void replay_run(T* xa, T* xb, size_t count, const uint8_t* tape) {
  kernel::oswap_batch_raw(reinterpret_cast<unsigned char*>(xa),
                          reinterpret_cast<unsigned char*>(xb), sizeof(T),
                          sizeof(T), tape, count);
}

/// Compare level of a sub-merge: pairs (lo + t, lo + h + t), t < h.
/// `replay` undoes a recorded level instead of recording one.
template <class T, class Less>
void level(const Net<T>& n, size_t lo, size_t h, size_t r, bool up,
           bool replay, const Less& less) {
  const size_t slot = level_slot(n.half, r, lo);
  if (kernel::instrumented()) {
    fj::for_range(0, h, 1, [&](size_t t) {
      sim::tick(1);
      T x = n.a[lo + t];
      T y = n.a[lo + h + t];
      bool sw;
      if (replay) {
        sw = n.tape[slot + t] != 0;
      } else {
        sw = up ? less(y, x) : less(x, y);
        n.tape[slot + t] = static_cast<uint8_t>(sw);
      }
      oswap(x, y, sw);
      n.a[lo + t] = x;
      n.a[lo + h + t] = y;
    });
    return;
  }
  T* p = n.a.data() + lo;
  uint8_t* tp = n.tape.data() + slot;
  fj::for_blocks(0, h, kRouteForkCutoff / 2, [&](size_t b0, size_t b1) {
    if (replay) {
      replay_run(p + b0, p + h + b0, b1 - b0, tp + b0);
    } else {
      record_run(p + b0, p + h + b0, b1 - b0, up, tp + b0, less);
    }
  });
}

/// Native: one round of distance d over [lo, lo + len) at tape round r —
/// pair runs of d, the run starting at s ascending iff up_at(s).
template <class T, class Less, class UpAt>
void round_tile(const Net<T>& n, size_t lo, size_t len, size_t d, size_t r,
                const UpAt& up_at, bool replay, const Less& less) {
  T* p = n.a.data();
  for (size_t s = lo; s < lo + len; s += 2 * d) {
    uint8_t* t = n.tape.data() + level_slot(n.half, r, s);
    if (replay) {
      replay_run(p + s, p + s + d, d, t);
    } else {
      record_run(p + s, p + s + d, d, up_at(s), t, less);
    }
  }
}

/// Native: every level of a sub-merge on [lo, lo + len) (len <= tile),
/// rounds r, r + 1, ... — forward, or in reverse when replaying.
template <class T, class Less>
void merge_tile(const Net<T>& n, size_t lo, size_t len, size_t r, bool up,
                bool replay, const Less& less) {
  const unsigned levels = util::log2_exact(len);
  const auto up_at = [up](size_t) { return up; };
  for (unsigned step = 0; step < levels; ++step) {
    const unsigned q = replay ? step : levels - 1 - step;  // d = 2^q
    round_tile(n, lo, len, size_t{1} << q, r + (levels - 1 - q), up_at,
               replay, less);
  }
}

template <class T, class Less>
void merge_rec(const Net<T>& n, size_t lo, size_t len, size_t r, bool up,
               bool replay, const Less& less) {
  if (len < 2) return;
  const bool instr = kernel::instrumented();
  if (!instr && len <= kernel::tile_elems<T>()) {
    merge_tile(n, lo, len, r, up, replay, less);
    return;
  }
  const size_t h = len / 2;
  const bool par = instr || len > kRouteForkCutoff;
  auto halves = [&] {
    fork_if(par, [&] { merge_rec(n, lo, h, r + 1, up, replay, less); },
            [&] { merge_rec(n, lo + h, h, r + 1, up, replay, less); });
  };
  if (replay) {
    halves();
    level(n, lo, h, r, up, true, less);
  } else {
    level(n, lo, h, r, up, false, less);
    halves();
  }
}

/// Native: the whole bitonic sort restricted to [lo, lo + len) (len <=
/// tile), round by round: every stage 2^p <= len, directions by global
/// block position.
template <class T, class Less>
void sort_tile(const Net<T>& n, size_t lo, size_t len, bool replay,
               const Less& less) {
  const unsigned stages = util::log2_exact(len);
  for (unsigned i = 1; i <= stages; ++i) {
    const unsigned p = replay ? stages + 1 - i : i;
    const size_t k = size_t{1} << p;
    const auto up_at = [k](size_t s) { return (s & k) == 0; };
    for (unsigned step = 0; step < p; ++step) {
      const unsigned q = replay ? step : p - 1 - step;  // d = 2^q
      round_tile(n, lo, len, size_t{1} << q, stage_round(p) + (p - 1 - q),
                 up_at, replay, less);
    }
  }
}

template <class T, class Less>
void sort_rec(const Net<T>& n, size_t lo, size_t len, bool replay,
              const Less& less) {
  if (len < 2) return;
  const bool instr = kernel::instrumented();
  if (!instr && len <= kernel::tile_elems<T>()) {
    sort_tile(n, lo, len, replay, less);
    return;
  }
  const size_t h = len / 2;
  const bool par = instr || len > kRouteForkCutoff;
  auto halves = [&] {
    fork_if(par, [&] { sort_rec(n, lo, h, replay, less); },
            [&] { sort_rec(n, lo + h, h, replay, less); });
  };
  const size_t r = stage_round(util::log2_exact(len));
  if (replay) {
    merge_rec(n, lo, len, r, (lo & len) == 0, true, less);
    halves();
  } else {
    halves();
    merge_rec(n, lo, len, r, (lo & len) == 0, false, less);
  }
}

/// Placeholder comparator for replays (never called).
struct NoLess {
  template <class T>
  bool operator()(const T&, const T&) const {
    return false;
  }
};

inline size_t sort_tape_bytes(size_t m) {
  const size_t lg = util::log2_exact(m);
  return lg * (lg + 1) / 2 * (m / 2);
}
inline size_t merge_tape_bytes(size_t m) {
  return util::log2_exact(m) * (m / 2);
}

/// One double-buffered monotone-routing round: every live record whose
/// offset has `bit` set moves `step` positions toward lower (left) or
/// higher indexes. Position i reads itself and its fixed partner. The
/// body indexes through tracked slices when instrumented and through raw
/// pointers natively (one session check per round, not per access).
inline void shift_round(const slice<Elem>& src, const slice<uint64_t>& ds,
                        const slice<Elem>& dst, const slice<uint64_t>& dd,
                        size_t step, unsigned bit, bool left,
                        uint32_t live_flag) {
  const size_t m = src.size();
  const auto moves = [&](const Elem& e, uint64_t d) {
    return ((e.flags & live_flag) != 0) & (((d >> bit) & 1) != 0);
  };
  const auto body = [&](auto s, auto sd, auto t, auto td, size_t i) {
    Elem e = s[i];
    uint64_t d = sd[i];
    const bool away = moves(e, d);
    e.flags &= ~(live_flag & (0u - static_cast<uint32_t>(away)));
    d = oselect<uint64_t>(away, 0, d);
    if (left ? i + step < m : i >= step) {  // public: partner exists
      const size_t j = left ? i + step : i - step;
      const Elem f = s[j];
      const uint64_t fd = sd[j];
      const bool in = moves(f, fd);
      e.key = oselect(in, f.key, e.key);
      e.payload = oselect(in, f.payload, e.payload);
      e.aux = oselect(in, f.aux, e.aux);
      e.flags = oselect(in, f.flags, e.flags);
      e.extra = oselect(in, f.extra, e.extra);
      d = oselect(in, fd, d);
    }
    t[i] = e;
    td[i] = d;
  };
  if (kernel::instrumented()) {
    kernel::for_each(0, m, [&](size_t i) {
      sim::tick(1);
      body(src, ds, dst, dd, i);
    });
    return;
  }
  kernel::for_each(0, m, [&](size_t i) {
    body(src.data(), ds.data(), dst.data(), dd.data(), i);
  });
}

/// Apply shift rounds (bits LSB-first for compaction, MSB-first for
/// distribution) to `a` with offsets `d`, ping-ponging through scratch.
inline void shift_route(const slice<Elem>& a, vec<uint64_t>& d, bool left,
                        uint32_t live_flag) {
  const size_t m = a.size();
  const unsigned rounds = util::log2_exact(m);
  vec<Elem> bv(m);
  vec<uint64_t> d2(m);
  slice<Elem> src = a, dst = bv.s();
  slice<uint64_t> ds = d.s(), dd = d2.s();
  for (unsigned k = 0; k < rounds; ++k) {
    const unsigned bit = left ? k : rounds - 1 - k;
    shift_round(src, ds, dst, dd, size_t{1} << bit, bit, left, live_flag);
    std::swap(src, dst);
    std::swap(ds, dd);
  }
  if (rounds % 2 == 1) {
    kernel::copy_range(a, 0, src, 0, m, kernel::Tick::None);
  }
}

}  // namespace route_detail

/// Sort `a` (pow2 size) ascending by `less` with the fixed bitonic
/// network, recording the swap tape for later inversion.
template <class T, class Less>
void bitonic_sort_record(const slice<T>& a, vec<uint8_t>& tape,
                         const Less& less) {
  const size_t m = a.size();
  assert(util::is_pow2(m) || m == 0);
  tape = vec<uint8_t>(m < 2 ? 0 : route_detail::sort_tape_bytes(m));
  if (m < 2) return;
  const route_detail::Net<T> n{a, tape.s(), m / 2};
  route_detail::sort_rec(n, 0, m, false, less);
}

/// Undo a recorded bitonic sort: every record returns to its pre-sort
/// position (carrying any value updates made while sorted).
template <class T>
void bitonic_sort_unreplay(const slice<T>& a, vec<uint8_t>& tape) {
  const size_t m = a.size();
  if (m < 2) return;
  assert(tape.size() == route_detail::sort_tape_bytes(m));
  const route_detail::Net<T> n{a, tape.s(), m / 2};
  route_detail::sort_rec(n, 0, m, true, route_detail::NoLess{});
}

/// Merge a bitonic sequence (non-decreasing then non-increasing under
/// `less`) ascending, recording the swap tape for later inversion.
template <class T, class Less>
void bitonic_merge_record(const slice<T>& a, vec<uint8_t>& tape,
                          const Less& less) {
  const size_t m = a.size();
  assert(util::is_pow2(m) || m == 0);
  tape = vec<uint8_t>(m < 2 ? 0 : route_detail::merge_tape_bytes(m));
  if (m < 2) return;
  const route_detail::Net<T> n{a, tape.s(), m / 2};
  route_detail::merge_rec(n, 0, m, 0, true, false, less);
}

/// Undo a recorded bitonic merge.
template <class T>
void bitonic_merge_unreplay(const slice<T>& a, vec<uint8_t>& tape) {
  const size_t m = a.size();
  if (m < 2) return;
  assert(tape.size() == route_detail::merge_tape_bytes(m));
  const route_detail::Net<T> n{a, tape.s(), m / 2};
  route_detail::merge_rec(n, 0, m, 0, true, true, route_detail::NoLess{});
}

/// Order-preserving tight compaction: records with (flags & live_flag)
/// move to the front of `a` (pow2 size), keeping their relative order;
/// dead records end up behind them. O(m log m) work, O(log^2 m) span.
inline void compact_monotone(const slice<Elem>& a, uint32_t live_flag) {
  const size_t m = a.size();
  assert(util::is_pow2(m) || m == 0);
  if (m < 2) return;
  // Offset of a live record = number of dead records before it.
  vec<uint64_t> d(m);
  prefix_sum_exclusive(a, d.s(), [&](const Elem& e) {
    return static_cast<uint64_t>((e.flags & live_flag) == 0);
  });
  route_detail::shift_route(a, d, /*left=*/true, live_flag);
}

/// Oblivious monotone distribution: live records (flags & live_flag) in a
/// prefix of `a` (pow2 size), each carrying its target position in .key
/// with targets strictly increasing and .key >= position, move to their
/// targets; dead records are displaced passively. O(m log m) work,
/// O(log^2 m) span.
inline void distribute_monotone(const slice<Elem>& a, uint32_t live_flag) {
  const size_t m = a.size();
  assert(util::is_pow2(m) || m == 0);
  if (m < 2) return;
  vec<uint64_t> d(m);
  kernel::generate_range(
      d.s(), 0, m, kernel::Tick::PerElem, [&](uint64_t& v, size_t i) {
        const Elem e = a[i];
        const bool live = (e.flags & live_flag) != 0;
        assert(!live || (e.key >= i && e.key < m));
        v = (e.key - i) * static_cast<uint64_t>(live);
      });
  route_detail::shift_route(a, d, /*left=*/false, live_flag);
}

}  // namespace dopar::obl
