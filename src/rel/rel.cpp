// Oblivious relational-operator engines (see rel/rel.hpp for the plan and
// the obliviousness/size contracts).
//
// Everything here is a composition of the library's fixed-pattern building
// blocks: backend sorts (canonical key sorts run the full Theorem 3.2
// pipeline on the "osort"/"spms" backends; scratch orders run the
// comparator network), segmented scans (obl::aggregate_suffix,
// obl::propagate_leftmost), plain prefix scans, stable oblivious
// compaction, and oblivious send-receive. The per-pass scratch sizes are
// functions of (|L|, |R|, bound) alone, so the step sequence — and with a
// network backend the entire comparator/access schedule — is independent
// of table contents. Secret-dependent *values* are computed branchlessly
// (obl::oselect) throughout; public parameters (sizes, band mode, the
// aggregation operator) may branch freely.

#include "rel/rel.hpp"

#include <cassert>
#include <optional>

#include "forkjoin/api.hpp"
#include "obl/aggregate.hpp"
#include "obl/compact.hpp"
#include "obl/elem.hpp"
#include "obl/kernel/kernel.hpp"
#include "obl/oswap.hpp"
#include "obl/propagate.hpp"
#include "obl/route.hpp"
#include "obs/obs.hpp"
#include "obl/scan.hpp"
#include "obl/sendrecv.hpp"
#include "sim/tracked.hpp"
#include "util/bits.hpp"

namespace dopar::rel::detail {

namespace kernel = obl::kernel;

namespace {

using obl::Elem;

/// Scratch sink: records re-keyed here are ignored by every later pass.
/// Coincides with the filler sentinel on purpose — the full-sort backends
/// document that sentinel-keyed records sort after every real key.
constexpr uint64_t kSinkKey = ~uint64_t{0};

// Union-pass side tags (Elem::extra). At equal keys the sort places
// lo-queries before the right rows and hi-queries after them, so a plain
// prefix count of right rows yields, at a lo-query, the number of right
// keys strictly below it and, at a hi-query, the number at or below it.
constexpr uint32_t kTagLo = 0;
constexpr uint32_t kTagRight = 1;
constexpr uint32_t kTagHi = 2;

/// Branchless lexicographic (key, tag, input index) order for the union
/// pass. Total on every record the pass builds (indexes are unique per
/// (key, tag) side; fillers compare equal and are interchangeable).
struct ByKeyTagIdx {
  bool operator()(const Elem& a, const Elem& b) const {
    const bool klt = a.key < b.key;
    const bool keq = a.key == b.key;
    const bool tlt = a.extra < b.extra;
    const bool teq = a.extra == b.extra;
    const bool ilt = a.aux < b.aux;
    return klt | (keq & (tlt | (teq & ilt)));
  }
};

/// Branchless (key, input index) order: ranks the right table with ties
/// broken by input position, making the per-left match order total.
struct ByKeyIdx {
  bool operator()(const Elem& a, const Elem& b) const {
    const bool klt = a.key < b.key;
    const bool keq = a.key == b.key;
    const bool ilt = a.aux < b.aux;
    return klt | (keq & ilt);
  }
};

struct Add {
  uint64_t operator()(uint64_t a, uint64_t b) const { return a + b; }
};
struct MinOp {
  uint64_t operator()(uint64_t a, uint64_t b) const {
    return obl::oselect<uint64_t>(b < a, b, a);
  }
};
struct MaxOp {
  uint64_t operator()(uint64_t a, uint64_t b) const {
    return obl::oselect<uint64_t>(a < b, b, a);
  }
};

/// MULTIPLICITY pass: for every left row i (in input order) compute
/// cnt[i] = number of matching right rows and start[i] = rank of its first
/// match in (key, index)-sorted right order. One union sort + fixed scans;
/// the equi path takes the bottom-up segmented aggregation, the band path
/// two rank queries per left row.
void multiplicity_pass(const slice<Elem>& left, const slice<Elem>& right,
                       bool banded, uint64_t band,
                       const slice<uint64_t>& cnt,
                       const slice<uint64_t>& start,
                       const SorterBackend& sorter) {
  const size_t nl = left.size();
  const size_t nr = right.size();
  const size_t queries = banded ? 2 * nl : nl;
  const size_t pu = util::pow2_ceil(queries + nr);
  const uint64_t band_c =
      obl::oselect<uint64_t>(band > kKeyLimit, kKeyLimit, band);

  vec<Elem> unionv(pu);
  const slice<Elem> u = unionv.s();
  kernel::generate_range(
      u, 0, pu, kernel::Tick::PerElem, [&](Elem& e, size_t i) {
        if (i < nl) {  // lo-query for left row i (the only query kind in
                       // equi mode: it carries both scans' results)
          const Elem l = left[i];
          const uint64_t lo = obl::oselect<uint64_t>(band_c > l.key, 0,
                                                     l.key - band_c);
          e.key = banded ? lo : l.key;
          e.extra = kTagLo;
          e.aux = i;
          e.payload = 0;
        } else if (banded && i < 2 * nl) {  // hi-query for left row i - nl
          const Elem l = left[i - nl];
          const uint64_t hi = l.key + band_c;  // < 2^63: no overflow
          e.key = obl::oselect<uint64_t>(hi > kKeyLimit, kKeyLimit, hi);
          e.extra = kTagHi;
          e.aux = i - nl;
          e.payload = 0;
        } else if (i < queries + nr) {  // right row
          const Elem r = right[i - queries];
          e.key = r.key;
          e.extra = kTagRight;
          e.aux = i - queries;
          e.payload = 1;
        } else {
          e = Elem::filler();
        }
      });
  sorter.sort(u, erase_less<Elem>(ByKeyTagIdx{}));

  // Global rank of each position: inclusive prefix count of right rows.
  // At a query (which contributes 0) inclusive == exclusive.
  vec<uint64_t> rankv(pu);
  const slice<uint64_t> rank = rankv.s();
  kernel::generate_range(rank, 0, pu, kernel::Tick::PerElem,
                         [&](uint64_t& v, size_t i) {
                           v = u[i].extra == kTagRight ? 1u : 0u;
                         });
  obl::scan_inclusive(rank, Add{});

  if (!banded) {
    // Bottom-up multiplicity: one segmented suffix aggregation per the
    // union's key-groups. Queries precede the right rows of their group,
    // so a query's suffix sum is exactly its match count.
    obl::aggregate_suffix(u, Add{});
  }

  // Re-key each query to its left-row index (hi-queries to odd slots) and
  // absorb the rank; everything else sinks. One canonical sort then lands
  // the per-row results at fixed positions.
  kernel::transform_range(
      u, 0, pu, kernel::Tick::PerElem, [&](Elem& e, size_t i) {
        const bool filler = (e.flags & Elem::kFiller) != 0;
        const bool is_lo = (e.extra == kTagLo) & !filler;
        const bool is_hi = (e.extra == kTagHi) & !filler;
        if (banded) {
          const uint64_t slot =
              obl::oselect<uint64_t>(is_hi, (e.aux << 1) | 1, e.aux << 1);
          e.key = obl::oselect<uint64_t>(is_lo | is_hi, slot, kSinkKey);
          e.payload = rank[i];
        } else {
          e.key = obl::oselect<uint64_t>(is_lo, e.aux, kSinkKey);
          e.aux = rank[i];  // payload already holds the aggregated count
        }
      });
  sorter.sort(u);

  kernel::for_each(0, nl, [&](size_t i) {
    sim::tick(1);
    if (banded) {
      const uint64_t lo_rank = u[2 * i].payload;
      const uint64_t hi_rank = u[2 * i + 1].payload;
      cnt[i] = hi_rank - lo_rank;
      start[i] = lo_rank;
    } else {
      cnt[i] = u[i].payload;
      start[i] = u[i].aux;
    }
  });
}

}  // namespace

uint64_t join_engine(const slice<Elem>& left, const slice<Elem>& right,
                     bool banded, uint64_t band, const slice<Elem>& out,
                     const SorterBackend& sorter) {
  const size_t nl = left.size();
  const size_t nr = right.size();
  const size_t bound = out.size();
  if (nl == 0 || nr == 0) {
    kernel::fill_range(out, 0, bound, Elem::filler(), kernel::Tick::None);
    return 0;
  }

  // Rank the right table by (key, input index): position p of the sorted
  // table is the p-th match candidate the expansion will request.
  const size_t pr = util::pow2_ceil(nr);
  vec<Elem> rightsv(pr);
  const slice<Elem> rs = rightsv.s();
  kernel::generate_range(rs, 0, pr, kernel::Tick::PerElem,
                         [&](Elem& e, size_t i) {
                           if (i < nr) {
                             e = right[i];
                             e.aux = i;
                           } else {
                             e = Elem::filler();
                           }
                         });
  sorter.sort(rs, erase_less<Elem>(ByKeyIdx{}));

  // Phase 1 — per-left-row match count and first-match rank.
  vec<uint64_t> cntv(nl), startv(nl);
  vec<uint64_t> offv(nl);
  uint64_t matched = 0;
  {
    obs::Span span("rel.multiplicity", "rows", nl + nr);
    multiplicity_pass(left, right, banded, band, cntv.s(), startv.s(),
                      sorter);

    // Offsets: cnt prefix-summed in left input order fixes each left
    // row's first output slot; the total is the true output size.
    matched = obl::prefix_sum_exclusive(cntv.s(), offv.s(),
                                        [](uint64_t c) { return c; });
  }

  if (bound == 0) return matched;

  // Phase 2 — DISTRIBUTE-EXPAND. Frame = left rows (sources), one
  // terminator closing the live region, `bound` output placeholders, and
  // pow2 filler padding. One sort interleaves each source directly before
  // the placeholders of its run; a prefix scan numbers the runs; oblivious
  // propagation copies every source onto its run's placeholders; oblivious
  // compaction drops the scaffolding, leaving the expanded left table.
  //
  // Each slot must learn its left row id and the rank of the right row it
  // pairs with: slot j of left row i pairs with rank start[i] + (j -
  // off[i]), so propagating delta = start[i] - off[i] (mod 2^64) lets the
  // slot recover its request as j + delta. The terminator's delta points
  // the padding slots past the right table (rank >= |R| -> no match).
  const size_t pd = util::pow2_ceil(nl + 1 + bound);
  vec<Elem> framev(pd);
  const slice<Elem> frame = framev.s();
  std::optional<obs::Span> phase_span;
  phase_span.emplace("rel.distribute_expand", "frame", pd);
  kernel::generate_range(
      frame, 0, pd, kernel::Tick::PerElem, [&](Elem& e, size_t i) {
        if (i < nl) {  // source: left row i at its first output slot
          const bool live = cntv[i] != 0;
          e.key = obl::oselect<uint64_t>(live, offv[i] << 1, kSinkKey);
          e.payload = left[i].payload;
          e.aux = startv[i] - offv[i];
          e.flags = Elem::kTemp;
        } else if (i == nl) {  // terminator: pads every slot >= matched
          e.key = matched << 1;
          e.payload = kNoRow;
          e.aux = nr - matched;
          e.flags = Elem::kTemp;
        } else if (i < nl + 1 + bound) {  // output placeholder j
          const uint64_t j = i - nl - 1;
          e.key = (j << 1) | 1;
          e.payload = kNoRow;
          e.aux = nr;
          e.flags = Elem::kDest;
        } else {
          e = Elem::filler();
        }
      });
  sorter.sort(frame);

  // Number the runs: run id = inclusive count of sources up to here, so a
  // source and the placeholders following it share one id.
  vec<uint64_t> runv(pd);
  const slice<uint64_t> run = runv.s();
  kernel::generate_range(run, 0, pd, kernel::Tick::PerElem,
                         [&](uint64_t& v, size_t i) {
                           v = (frame[i].flags & Elem::kTemp) ? 1u : 0u;
                         });
  obl::scan_inclusive(run, Add{});
  kernel::transform_range(frame, 0, pd, kernel::Tick::PerElem,
                          [&](Elem& e, size_t i) { e.key = run[i]; });
  obl::propagate_leftmost(frame);
  kernel::transform_range(
      frame, 0, pd, kernel::Tick::PerElem, [&](Elem& e, size_t) {
        const bool keep = (e.flags & Elem::kDest) != 0;
        e.flags |= obl::oselect<uint32_t>(keep, 0, Elem::kFiller);
      });
  obl::compact_oblivious(frame, sorter);
  // frame[0..bound): slot j holds (payload = left row id or kNoRow,
  // aux = delta), in output order.

  // Phase 3 — ALIGN-CONCAT: route the rank-keyed right rows to the slots
  // requesting them with one oblivious send-receive.
  phase_span.emplace("rel.align_concat", "bound", bound);
  vec<Elem> srcv(nr), dstv(bound), resv(bound);
  const slice<Elem> src = srcv.s();
  const slice<Elem> dst = dstv.s();
  kernel::generate_range(src, 0, nr, kernel::Tick::PerElem,
                         [&](Elem& e, size_t p) {
                           e.key = p;
                           e.payload = rs[p].payload;
                         });
  kernel::generate_range(dst, 0, bound, kernel::Tick::PerElem,
                         [&](Elem& e, size_t j) {
                           e.key = j + frame[j].aux;  // slot's request rank
                           assert(e.key < (uint64_t{1} << 63));
                         });
  obl::detail::send_receive(src, dst, resv.s(), sorter);

  kernel::generate_range(
      out, 0, bound, kernel::Tick::PerElem, [&](Elem& e, size_t j) {
        const Elem slot = frame[j];
        const Elem got = resv.s()[j];
        const bool live =
            ((got.flags & Elem::kNotFound) == 0) & (slot.payload != kNoRow);
        e.key = j;
        e.payload = slot.payload;
        e.aux = got.payload;
        e.flags = obl::oselect<uint32_t>(live, 0, Elem::kFiller);
      });
  return matched;
}

uint64_t group_by_engine(const slice<Elem>& in, Agg agg,
                         const slice<Elem>& out,
                         const SorterBackend& sorter) {
  const size_t n = in.size();
  const size_t bound = out.size();
  if (n == 0) {
    kernel::fill_range(out, 0, bound, Elem::filler(), kernel::Tick::None);
    return 0;
  }
  obs::Span span("rel.group_by", "n", n, "bound", bound);

  const size_t pg = util::pow2_ceil(n);
  vec<Elem> gvv(pg);
  const slice<Elem> gv = gvv.s();
  kernel::generate_range(gv, 0, pg, kernel::Tick::PerElem,
                         [&](Elem& e, size_t i) {
                           if (i < n) {
                             e = in[i];
                             e.aux = i;
                           } else {
                             e = Elem::filler();
                           }
                         });
  sorter.sort(gv);

  // Group sizes: a parallel copy with payload 1 per live row, aggregated
  // by the same key-groups (fillers share the sentinel group, summing 0).
  vec<Elem> cntv(pg);
  const slice<Elem> cnt = cntv.s();
  kernel::generate_range(cnt, 0, pg, kernel::Tick::PerElem,
                         [&](Elem& e, size_t i) {
                           e = gv[i];
                           e.payload = (e.flags & Elem::kFiller) ? 0u : 1u;
                         });
  obl::aggregate_suffix(cnt, Add{});

  // Aggregate the values (suffix fold from each group's head covers the
  // whole group). Count needs no value pass. Public branch: the operator
  // is part of the query, not the data.
  switch (agg) {
    case Agg::Sum: obl::aggregate_suffix(gv, Add{}); break;
    case Agg::Min: obl::aggregate_suffix(gv, MinOp{}); break;
    case Agg::Max: obl::aggregate_suffix(gv, MaxOp{}); break;
    case Agg::Count: break;
  }

  // Heads carry their group's full aggregate; everything else is dropped.
  vec<uint64_t> headv(pg);
  const slice<uint64_t> head = headv.s();
  kernel::generate_range(
      head, 0, pg, kernel::Tick::PerElem, [&](uint64_t& v, size_t i) {
        const Elem e = gv[i];
        const bool h = !(e.flags & Elem::kFiller) &&
                       ((i == 0) || (gv[i - 1].key != e.key));
        v = h ? 1u : 0u;
      });
  vec<uint64_t> scratchv(pg);
  const uint64_t groups = obl::prefix_sum_exclusive(
      head, scratchv.s(), [](uint64_t h) { return h; });

  kernel::transform_range(
      gv, 0, pg, kernel::Tick::PerElem, [&](Elem& e, size_t i) {
        const uint64_t c = cnt[i].payload;
        if (agg == Agg::Count) e.payload = c;
        e.aux = c;
        e.flags |= obl::oselect<uint32_t>(head[i] != 0, 0, Elem::kFiller);
      });
  obl::compact_oblivious(gv, sorter);

  kernel::generate_range(out, 0, bound, kernel::Tick::PerElem,
                         [&](Elem& e, size_t g) {
                           e = g < pg ? gv[g] : Elem::filler();
                         });
  return groups;
}

// ---- coalesced (batched) engines ---------------------------------------
//
// One shared plan over the concatenation of every slot's tables. Slot s's
// rows ride composite keys (s << kBatchKeyBits) | key, so slots occupy
// disjoint, slot-major key ranges and the per-slot order of every pass
// equals the solo order. Per-slot scalars (offset bases, match counts,
// group counts) fall out of ONE global scan read back at the public
// slot-boundary positions — the schedule stays a pure function of the
// slot shape vector, and each slot's declassified result is bit-identical
// to a solo run of the same request.
//
// Sort phases run SEGMENTED: every shared array is laid out slot-major
// with per-slot pow2 padding (network backends require pow2 extents),
// and because slots occupy disjoint key ranges at public offsets, the
// shared sorted order is exactly the concatenation of the independently
// sorted segments. Sorting segments instead of the whole array cuts the
// comparator cost from O(M log^2 M) to sum_s O(m_s log^2 m_s) — the
// whole point of coalescing many small requests — and the segments sort
// concurrently on the pool (fj::for_range over slots). The linear scans
// between sorts stay global: padding records are inert in every scan
// (fillers count zero, sink/filler key groups never reach a live
// record), so per-slot values still read back at public boundary
// positions.
//
// Position -> slot maps used inside the generate lambdas are host arrays
// indexed by the (public) loop position only; no secret-dependent host
// indexing happens anywhere in these passes.

namespace {

/// Distribute/placement frames pack (slot, local) into the sort key with
/// the slot above bit 35: per-slot locals carry an offset (< 2^33 by the
/// bound contract) shifted by the one placeholder tag bit.
constexpr unsigned kFrameSlotShift = 35;

constexpr uint64_t slot_key(uint64_t s, uint64_t k) {
  return (s << kBatchKeyBits) | k;
}
constexpr uint64_t frame_key(uint64_t s, uint64_t local) {
  return (s << kFrameSlotShift) | local;
}

/// Expand per-slot extents into a position -> slot host map.
std::vector<uint32_t> slot_map(const std::vector<size_t>& base) {
  const size_t S = base.size() - 1;
  std::vector<uint32_t> m(base[S]);
  for (size_t s = 0; s < S; ++s) {
    for (size_t p = base[s]; p < base[s + 1]; ++p) {
      m[p] = static_cast<uint32_t>(s);
    }
  }
  return m;
}

/// Pow2-padded extent of a slot segment (empty slots get no segment).
size_t padded(size_t n) { return n == 0 ? 0 : util::pow2_ceil(n); }

/// Sort every slot's padded segment independently, concurrently across
/// slots. Equivalent order-wise to one shared sort of the whole array
/// (slots occupy disjoint key ranges at public offsets) at a fraction of
/// the comparator cost.
void sort_segments(const slice<Elem>& a, const std::vector<size_t>& base,
                   const SorterBackend& sorter) {
  fj::for_range(0, base.size() - 1, 1, [&](size_t s) {
    const size_t len = base[s + 1] - base[s];
    if (len > 1) sorter.sort(a.sub(base[s], len));
  });
}
void sort_segments(const slice<Elem>& a, const std::vector<size_t>& base,
                   const SorterBackend& sorter, LessFn<Elem> less) {
  fj::for_range(0, base.size() - 1, 1, [&](size_t s) {
    const size_t len = base[s + 1] - base[s];
    if (len > 1) sorter.sort(a.sub(base[s], len), less);
  });
}

/// Stable-compact every slot's padded segment independently: slot s's
/// live records land at [base[s], base[s] + live_s) — per-slot public
/// prefix readout positions.
void compact_segments(const slice<Elem>& a,
                      const std::vector<size_t>& base,
                      const SorterBackend& sorter) {
  fj::for_range(0, base.size() - 1, 1, [&](size_t s) {
    const size_t len = base[s + 1] - base[s];
    if (len > 1) obl::compact_oblivious(a.sub(base[s], len), sorter);
  });
}

/// Descending (key, tag, idx) order for the fast path's receiver sorts:
/// recorded-network "ascending" under this comparator is descending under
/// ByKeyTagIdx, which is what the bitonic merge layouts below need.
struct ByKeyTagIdxDesc {
  bool operator()(const Elem& a, const Elem& b) const {
    return ByKeyTagIdx{}(b, a);
  }
};

/// Equi-only per-slot fast path: same value contract as a solo
/// join_engine run (slot-local out keys, identical ranks / truncation
/// order / miss semantics — all derived from the same (key, input index)
/// total orders), at O(m log m) routing cost where the general plan pays
/// four frame-scale sorts:
///
///  * MULTIPLICITY: [queries asc | rank-sorted rights desc | key-0 pads]
///    is bitonic under (key, tag, idx), so one recorded query sort plus
///    one recorded bitonic merge replace the union sort; after the rank /
///    count scans, tape replays return every query to its input position
///    — no re-key sort.
///  * DISTRIBUTE-EXPAND: run heads carry their first output slot as a
///    monotone routing target; tight compaction + monotone distribution
///    place them, and a linear sweep propagates heads over their runs.
///  * ALIGN-CONCAT: receivers keyed by requested rank record-sort
///    descending, one recorded merge interleaves them after their rank's
///    right row, a linear sweep does the exact-match gather, and replays
///    restore slot order.
///
/// Pads and fillers are value-inert everywhere they can interleave with
/// tied records: they count zero in the rank scan, fold zero in the
/// aggregation, and neither set nor absorb in the gather sweep.
uint64_t equi_join_fast(const slice<Elem>& left, const slice<Elem>& right,
                        const slice<Elem>& out) {
  const size_t nl = left.size();
  const size_t nr = right.size();
  const size_t bound = out.size();
  if (nl == 0 || nr == 0) {
    kernel::fill_range(out, 0, bound, Elem::filler(), kernel::Tick::None);
    return 0;
  }

  // Rank the right table by (key, input index); kept for the gather.
  const size_t pr = util::pow2_ceil(nr);
  vec<Elem> rsv(pr);
  const slice<Elem> rs = rsv.s();
  kernel::generate_range(rs, 0, pr, kernel::Tick::PerElem,
                         [&](Elem& e, size_t p) {
                           if (p < nr) {
                             e = right[p];
                             assert(e.key <= kMaxBatchKey &&
                                    "rel: batched join keys must be <= "
                                    "kMaxBatchKey");
                             e.aux = p;
                             e.extra = kTagRight;
                           } else {
                             e = Elem::filler();
                           }
                         });
  std::vector<uint8_t> tape_rs;  // rs order is never undone
  obl::bitonic_sort_record(rs, tape_rs, ByKeyIdx{});

  // MULTIPLICITY.
  const size_t pq = util::pow2_ceil(nl);
  const size_t pm = util::pow2_ceil(pq + pr);
  vec<Elem> umv(pm);
  const slice<Elem> um = umv.s();
  kernel::generate_range(
      um, 0, pm, kernel::Tick::PerElem, [&](Elem& e, size_t i) {
        if (i < nl) {  // query for left row i
          const Elem l = left[i];
          assert(l.key <= kMaxBatchKey &&
                 "rel: batched join keys must be <= kMaxBatchKey");
          e.key = l.key;
          e.payload = 0;
          e.aux = i;
          e.flags = 0;
          e.extra = kTagLo;
        } else if (i < pq) {
          e = Elem::filler();
        } else if (i < pq + pr) {  // rank-sorted right table, reversed
          const size_t rp = pq + pr - 1 - i;
          e = rs[rp];
          e.payload = rp < nr ? 1 : 0;  // multiplicity contribution
        } else {  // key-0 pad: minimal under (key, tag, idx), inert
          e = Elem{};
          e.flags = Elem::kFiller;
        }
      });
  std::vector<uint8_t> tape_q, tape_m;
  obl::bitonic_sort_record(um.sub(0, pq), tape_q, ByKeyTagIdx{});
  obl::bitonic_merge_record(um, tape_m, ByKeyTagIdx{});

  // Inclusive prefix count of right rows: at a query (which counts zero
  // and precedes its key group's rights) this is its first-match rank.
  std::vector<uint64_t> rank(pm);
  {
    uint64_t r = 0;
    sim::tick(pm);
    for (size_t i = 0; i < pm; ++i) {
      r += static_cast<uint64_t>(um[i].extra == kTagRight);
      rank[i] = r;
    }
  }
  obl::aggregate_suffix(um, Add{});  // query payload <- match count
  kernel::transform_range(um, 0, pm, kernel::Tick::PerElem,
                          [&](Elem& e, size_t i) { e.aux = rank[i]; });
  obl::bitonic_merge_unreplay(um, tape_m);
  obl::bitonic_sort_unreplay(um.sub(0, pq), tape_q);

  // Queries are back at [0, nl) in input order; offsets in one scan.
  std::vector<uint64_t> cnt(nl), start(nl), off(nl);
  uint64_t matched = 0;
  sim::tick(nl);
  for (size_t i = 0; i < nl; ++i) {
    cnt[i] = um[i].payload;
    start[i] = um[i].aux;
    off[i] = matched;
    matched += cnt[i];
  }
  if (bound == 0) return matched;

  // DISTRIBUTE-EXPAND by monotone routing instead of a frame sort.
  const size_t pf = util::pow2_ceil(nl + 1);
  const size_t pb = util::pow2_ceil(bound);
  vec<Elem> fav(pf);
  const slice<Elem> fa = fav.s();
  kernel::generate_range(
      fa, 0, pf, kernel::Tick::PerElem, [&](Elem& e, size_t i) {
        if (i < nl) {  // source: left row i at its first output slot
          const bool live = (cnt[i] != 0) & (off[i] < bound);
          e.key = off[i];  // routing target
          e.payload = left[i].payload;
          e.aux = start[i] - off[i];  // rank delta (mod 2^64)
          e.flags = obl::oselect<uint32_t>(live, Elem::kTemp, 0);
          e.extra = 0;
        } else if (i == nl) {  // terminator pads slots >= matched
          const bool live = matched < bound;
          const uint64_t mc =
              obl::oselect<uint64_t>(live, matched, bound);
          e.key = mc;
          e.payload = kNoRow;
          e.aux = nr - mc;
          e.flags = obl::oselect<uint32_t>(live, Elem::kTemp, 0);
          e.extra = 0;
        } else {
          e = Elem::filler();
        }
      });
  obl::compact_monotone(fa, Elem::kTemp);
  // Live head count <= bound <= pb, so truncating at pb keeps every head.
  vec<Elem> fbv(pb);
  const slice<Elem> fb = fbv.s();
  kernel::generate_range(fb, 0, pb, kernel::Tick::PerElem,
                         [&](Elem& e, size_t j) {
                           e = j < pf ? fa[j] : Elem::filler();
                         });
  obl::distribute_monotone(fb, Elem::kTemp);
  assert((fb[0].flags & Elem::kTemp) != 0 && "rel: slot 0 has a run head");

  // Propagate run heads rightward: slot j inherits the nearest head at
  // or before j (the general plan's propagate_leftmost, linearized).
  std::vector<uint64_t> jpay(bound), jdelta(bound);
  {
    Elem cur{};
    cur.payload = kNoRow;
    sim::tick(bound);
    for (size_t j = 0; j < bound; ++j) {
      obl::oassign((fb[j].flags & Elem::kTemp) != 0, cur, fb[j]);
      jpay[j] = cur.payload;
      jdelta[j] = cur.aux;
    }
  }

  // ALIGN-CONCAT: exact-match gather of right payloads by rank.
  const size_t pg = pb;
  const size_t pm2 = util::pow2_ceil(pr + pg);
  vec<Elem> gmv(pm2);
  const slice<Elem> gm = gmv.s();
  kernel::generate_range(
      gm, 0, pm2, kernel::Tick::PerElem, [&](Elem& e, size_t i) {
        if (i < nr) {  // source: right payload at rank i
          e.key = i;
          e.payload = rs[i].payload;
          e.aux = i;
          e.flags = 0;
          e.extra = kTagLo;
        } else if (i < pr) {
          e = Elem::filler();
        } else if (i < pr + bound) {  // receiver for output slot j
          const size_t j = i - pr;
          e.key = j + jdelta[j];  // requested rank (ranks >= |R| miss)
          assert(e.key < (uint64_t{1} << 63));
          e.payload = 0;
          e.aux = j;
          e.flags = 0;
          e.extra = kTagRight;
        } else if (i < pr + pg) {
          e = Elem::filler();
        } else {  // key-0 pad
          e = Elem{};
          e.flags = Elem::kFiller;
        }
      });
  std::vector<uint8_t> tape_g, tape_m2;
  obl::bitonic_sort_record(gm.sub(pr, pg), tape_g, ByKeyTagIdxDesc{});
  obl::bitonic_merge_record(gm, tape_m2, ByKeyTagIdx{});

  {  // exact-match propagate-absorb sweep
    uint64_t cur_key = kSinkKey;
    uint64_t cur_pay = kNoRow;
    sim::tick(pm2);
    for (size_t i = 0; i < pm2; ++i) {
      Elem e = gm[i];
      const bool is_src =
          (e.extra == kTagLo) & ((e.flags & Elem::kFiller) == 0);
      cur_key = obl::oselect<uint64_t>(is_src, e.key, cur_key);
      cur_pay = obl::oselect<uint64_t>(is_src, e.payload, cur_pay);
      const bool is_rcv = e.extra == kTagRight;
      const bool hit = is_rcv & (cur_key == e.key);
      e.payload = obl::oselect<uint64_t>(hit, cur_pay, e.payload);
      e.flags |= obl::oselect<uint32_t>(is_rcv & !hit, Elem::kNotFound, 0);
      gm[i] = e;
    }
  }
  obl::bitonic_merge_unreplay(gm, tape_m2);
  obl::bitonic_sort_unreplay(gm.sub(pr, pg), tape_g);

  kernel::generate_range(
      out, 0, bound, kernel::Tick::PerElem, [&](Elem& e, size_t j) {
        const Elem got = gm[pr + j];
        const bool live =
            ((got.flags & Elem::kNotFound) == 0) & (jpay[j] != kNoRow);
        e.key = j;
        e.payload = jpay[j];
        e.aux = got.payload;
        e.flags = obl::oselect<uint32_t>(live, 0, Elem::kFiller);
        e.extra = 0;
      });
  return matched;
}

}  // namespace

std::vector<uint64_t> join_engine_batched(const slice<Elem>& left,
                                          const slice<Elem>& right,
                                          const std::vector<JoinSlot>& slots,
                                          const slice<Elem>& out,
                                          const SorterBackend& sorter) {
  const size_t S = slots.size();
  assert(S >= 1 && S <= kMaxRelBatchSlots &&
         "rel: batch slot count out of range");
  std::vector<size_t> lbase(S + 1), rbase(S + 1), qbase(S + 1),
      bbase(S + 1);
  std::vector<size_t> prbase(S + 1), pubase(S + 1), pfbase(S + 1);
  bool any_equi = false;
  bool any_banded = false;
  for (size_t s = 0; s < S; ++s) {
    assert(slots[s].bound < (size_t{1} << 33) &&
           "rel: batched per-slot bound must be < 2^33");
    const size_t nq = slots[s].banded ? 2 * slots[s].nl : slots[s].nl;
    lbase[s + 1] = lbase[s] + slots[s].nl;
    rbase[s + 1] = rbase[s] + slots[s].nr;
    qbase[s + 1] = qbase[s] + nq;
    bbase[s + 1] = bbase[s] + slots[s].bound;
    prbase[s + 1] = prbase[s] + padded(slots[s].nr);
    pubase[s + 1] = pubase[s] + padded(nq + slots[s].nr);
    pfbase[s + 1] = pfbase[s] + padded(slots[s].nl + 1 + slots[s].bound);
    any_equi |= !slots[s].banded;
    any_banded |= slots[s].banded;
  }
  const size_t NL = lbase[S], NR = rbase[S], B = bbase[S];
  assert(left.size() == NL && right.size() == NR && out.size() == B);

  std::vector<uint64_t> matched(S, 0);
  if (NL == 0 || NR == 0) {
    kernel::fill_range(out, 0, B, Elem::filler(), kernel::Tick::None);
    return matched;
  }

  // All-equi batches (the common coalesced-serving shape) take the
  // per-slot fast path: recorded comparator networks + monotone routing
  // replace the general plan's frame-scale sorts, slot-identical values
  // either way (see equi_join_fast). Mixed / banded batches run the
  // segmented plan below.
  if (!any_banded) {
    obs::Span span("rel.equi_fast_batch", "slots", S);
    fj::for_range(0, S, 1, [&](size_t s) {
      matched[s] = equi_join_fast(left.sub(lbase[s], slots[s].nl),
                                  right.sub(rbase[s], slots[s].nr),
                                  out.sub(bbase[s], slots[s].bound));
    });
    return matched;
  }
  std::optional<obs::Span> phase_span;

  // Rank the right tables by (composite key, input index): slot-major
  // padded segments, each in the solo (key, index) rank order.
  const size_t PR = prbase[S];
  const std::vector<uint32_t> prslot = slot_map(prbase);
  vec<Elem> rightsv(PR);
  const slice<Elem> rs = rightsv.s();
  kernel::generate_range(
      rs, 0, PR, kernel::Tick::PerElem, [&](Elem& e, size_t p) {
        const uint32_t s = prslot[p];
        const size_t local = p - prbase[s];
        if (local < slots[s].nr) {
          const size_t gi = rbase[s] + local;
          e = right[gi];
          assert(e.key <= kMaxBatchKey &&
                 "rel: batched join keys must be <= kMaxBatchKey");
          e.key = slot_key(s, e.key);
          e.aux = gi;
        } else {
          e = Elem::filler();
        }
      });
  sort_segments(rs, prbase, sorter, erase_less<Elem>(ByKeyIdx{}));

  // MULTIPLICITY over the shared union. A query's re-key target is its
  // global query position (qbase[slot] + solo position), carried in .aux:
  // within every (key, tag) tie group the targets are monotone in the
  // solo row index, so each segment sorts exactly as the per-slot solo
  // unions do.
  phase_span.emplace("rel.multiplicity", "rows", NL + NR);
  const size_t PU = pubase[S];
  const std::vector<uint32_t> puslot = slot_map(pubase);
  vec<Elem> unionv(PU);
  const slice<Elem> u = unionv.s();
  kernel::generate_range(
      u, 0, PU, kernel::Tick::PerElem, [&](Elem& e, size_t p) {
        const uint32_t s = puslot[p];
        const JoinSlot& sl = slots[s];
        const size_t nq = sl.banded ? 2 * sl.nl : sl.nl;
        const size_t local = p - pubase[s];
        if (local < nq) {
          const size_t rq = local;
          const size_t row = sl.banded ? rq >> 1 : rq;
          const bool is_hi = sl.banded && (rq & 1);
          const Elem l = left[lbase[s] + row];
          assert(l.key <= kMaxBatchKey &&
                 "rel: batched join keys must be <= kMaxBatchKey");
          uint64_t k = l.key;
          if (sl.banded) {  // public per-slot branch (shape data)
            const uint64_t band_c = obl::oselect<uint64_t>(
                sl.band > kMaxBatchKey, kMaxBatchKey, sl.band);
            const uint64_t lo = obl::oselect<uint64_t>(band_c > l.key, 0,
                                                       l.key - band_c);
            const uint64_t hi = obl::oselect<uint64_t>(
                l.key + band_c > kMaxBatchKey, kMaxBatchKey,
                l.key + band_c);
            k = is_hi ? hi : lo;
          }
          e.key = slot_key(s, k);
          e.extra = is_hi ? kTagHi : kTagLo;
          e.aux = qbase[s] + rq;
          e.payload = 0;
        } else if (local < nq + sl.nr) {
          const size_t gi = rbase[s] + (local - nq);
          const Elem r = right[gi];
          e.key = slot_key(s, r.key);
          e.extra = kTagRight;
          e.aux = gi;
          e.payload = 1;
        } else {
          e = Elem::filler();
        }
      });
  sort_segments(u, pubase, sorter, erase_less<Elem>(ByKeyTagIdx{}));

  // Global rank prefix: right rows of earlier slots all sort earlier and
  // padding counts zero (filler.extra == 0), so a slot's local rank is
  // the global rank minus its right-table base.
  vec<uint64_t> rankv(PU);
  const slice<uint64_t> rank = rankv.s();
  kernel::generate_range(rank, 0, PU, kernel::Tick::PerElem,
                         [&](uint64_t& v, size_t i) {
                           v = u[i].extra == kTagRight ? 1u : 0u;
                         });
  obl::scan_inclusive(rank, Add{});

  // Equi multiplicities: key-groups never span slots or touch padding,
  // so the shared segmented aggregation is the per-slot solo
  // aggregation. Band-only batches skip it (banded readout ignores
  // payloads either way).
  if (any_equi) obl::aggregate_suffix(u, Add{});

  // Re-key every query to its global query position and absorb the rank;
  // everything else sinks. Payload keeps the aggregated equi count. The
  // segment sort parks slot s's queries at the public positions
  // [pubase[s], pubase[s] + nq_s) in solo order; the sink tails are
  // never read again.
  kernel::transform_range(
      u, 0, PU, kernel::Tick::PerElem, [&](Elem& e, size_t i) {
        const bool filler = (e.flags & Elem::kFiller) != 0;
        const bool is_q =
            ((e.extra == kTagLo) | (e.extra == kTagHi)) & !filler;
        e.key = obl::oselect<uint64_t>(is_q, e.aux, kSinkKey);
        e.aux = rank[i];
      });
  sort_segments(u, pubase, sorter);

  // Per-left-row count and first-match rank (global), slot by slot at
  // public positions.
  vec<uint64_t> cntv(NL), startv(NL), offv(NL);
  const slice<uint64_t> cnt = cntv.s();
  const slice<uint64_t> start = startv.s();
  const slice<uint64_t> off = offv.s();
  for (size_t s = 0; s < S; ++s) {
    const bool banded = slots[s].banded;
    const size_t qb = pubase[s], lb = lbase[s];
    kernel::for_each(0, slots[s].nl, [&](size_t i) {
      sim::tick(1);
      if (banded) {
        const uint64_t lo_rank = u[qb + 2 * i].aux;
        const uint64_t hi_rank = u[qb + 2 * i + 1].aux;
        cnt[lb + i] = hi_rank - lo_rank;
        start[lb + i] = lo_rank;
      } else {
        cnt[lb + i] = u[qb + i].payload;
        start[lb + i] = u[qb + i].aux;
      }
    });
  }

  // One global offset scan; slot bases and true match counts read back at
  // the public slot boundaries.
  const uint64_t total = obl::prefix_sum_exclusive(
      cnt, off, [](uint64_t c) { return c; });
  std::vector<uint64_t> cbase(S + 1, total);
  for (size_t s = 0; s <= S; ++s) {
    sim::tick(1);
    if (lbase[s] < NL) cbase[s] = off[lbase[s]];
  }
  for (size_t s = 0; s < S; ++s) matched[s] = cbase[s + 1] - cbase[s];
  if (B == 0) return matched;

  // DISTRIBUTE-EXPAND on per-slot padded segments of one shared frame:
  // per slot, the solo layout (sources at even local keys, one
  // terminator, `bound` odd-keyed placeholders) under frame key
  // (slot << 35) | local. Every segment starts with a kTemp record (a
  // zero-offset source or the terminator) and dead records sink within
  // their own segment, so propagation runs never cross slot or padding
  // boundaries.
  phase_span.emplace("rel.distribute_expand", "frame", pfbase[S]);
  const size_t PF = pfbase[S];
  const std::vector<uint32_t> pfslot = slot_map(pfbase);
  vec<Elem> framev(PF);
  const slice<Elem> frame = framev.s();
  kernel::generate_range(
      frame, 0, PF, kernel::Tick::PerElem, [&](Elem& e, size_t p) {
        const uint32_t s = pfslot[p];
        const JoinSlot& sl = slots[s];
        const size_t local = p - pfbase[s];
        if (local < sl.nl) {  // source: left row at its first output slot
          const size_t gi = lbase[s] + local;
          const uint64_t off_l = off[gi] - cbase[s];
          const bool live = (cnt[gi] != 0) & (off_l < sl.bound);
          e.key = obl::oselect<uint64_t>(live, frame_key(s, off_l << 1),
                                         kSinkKey);
          e.payload = left[gi].payload;
          e.aux = start[gi] - rbase[s] - off_l;  // LOCAL right rank delta
        } else if (local == sl.nl) {  // terminator
          const uint64_t mc = obl::oselect<uint64_t>(
              matched[s] < sl.bound, matched[s], sl.bound);
          e.key = frame_key(s, mc << 1);
          e.payload = kNoRow;
          e.aux = sl.nr - mc;
        } else if (local < sl.nl + 1 + sl.bound) {  // output placeholder
          const uint64_t j = local - sl.nl - 1;
          e.key = frame_key(s, (j << 1) | 1);
          e.payload = kNoRow;
          e.aux = sl.nr;
          e.flags = Elem::kDest;
          return;
        } else {  // per-slot pow2 padding
          e = Elem::filler();
          return;
        }
        e.flags = Elem::kTemp;
      });
  sort_segments(frame, pfbase, sorter);

  vec<uint64_t> runv(PF);
  const slice<uint64_t> run = runv.s();
  kernel::generate_range(run, 0, PF, kernel::Tick::PerElem,
                         [&](uint64_t& v, size_t i) {
                           v = (frame[i].flags & Elem::kTemp) ? 1u : 0u;
                         });
  obl::scan_inclusive(run, Add{});
  kernel::transform_range(frame, 0, PF, kernel::Tick::PerElem,
                          [&](Elem& e, size_t i) { e.key = run[i]; });
  obl::propagate_leftmost(frame);
  kernel::transform_range(
      frame, 0, PF, kernel::Tick::PerElem, [&](Elem& e, size_t) {
        const bool keep = (e.flags & Elem::kDest) != 0;
        e.flags |= obl::oselect<uint32_t>(keep, 0, Elem::kFiller);
      });
  compact_segments(frame, pfbase, sorter);
  // frame[pfbase[s] .. pfbase[s] + bound_s): slot s's placeholders in
  // output order; placeholder j requests LOCAL right rank j + delta
  // (padding placeholders request >= nr_s).

  // ALIGN-CONCAT: per-slot send-receives — each identical to the solo
  // call — route every slot's rank-keyed right rows to the frame slots
  // requesting them, concurrently across slots.
  phase_span.emplace("rel.align_concat", "bound", B);
  vec<Elem> resv(B);
  const slice<Elem> res = resv.s();
  fj::for_range(0, S, 1, [&](size_t s) {
    const JoinSlot& sl = slots[s];
    if (sl.bound == 0) return;
    vec<Elem> srcv(sl.nr), dstv(sl.bound);
    const slice<Elem> src = srcv.s();
    const slice<Elem> dst = dstv.s();
    kernel::generate_range(src, 0, sl.nr, kernel::Tick::PerElem,
                           [&](Elem& e, size_t p) {
                             e.key = p;
                             e.payload = rs[prbase[s] + p].payload;
                           });
    kernel::generate_range(dst, 0, sl.bound, kernel::Tick::PerElem,
                           [&](Elem& e, size_t j) {
                             e.key = j + frame[pfbase[s] + j].aux;
                             assert(e.key < (uint64_t{1} << 63));
                           });
    obl::detail::send_receive(src, dst, res.sub(bbase[s], sl.bound),
                              sorter);
  });

  const std::vector<uint32_t> oslot = slot_map(bbase);
  kernel::generate_range(
      out, 0, B, kernel::Tick::PerElem, [&](Elem& e, size_t j) {
        const uint32_t s = oslot[j];
        const Elem ph = frame[pfbase[s] + (j - bbase[s])];
        const Elem got = res[j];
        const bool live =
            ((got.flags & Elem::kNotFound) == 0) & (ph.payload != kNoRow);
        e.key = j - bbase[s];  // slot-local output position
        e.payload = ph.payload;
        e.aux = got.payload;
        e.flags = obl::oselect<uint32_t>(live, 0, Elem::kFiller);
      });
  return matched;
}

std::vector<uint64_t> group_by_engine_batched(
    const slice<Elem>& in, Agg agg, const std::vector<GroupSlot>& slots,
    const slice<Elem>& out, const SorterBackend& sorter) {
  const size_t S = slots.size();
  assert(S >= 1 && S <= kMaxRelBatchSlots &&
         "rel: batch slot count out of range");
  std::vector<size_t> ibase(S + 1), bbase(S + 1), pgbase(S + 1),
      pfbase(S + 1);
  for (size_t s = 0; s < S; ++s) {
    assert(slots[s].bound < (size_t{1} << 33) &&
           "rel: batched per-slot bound must be < 2^33");
    assert(slots[s].n < (size_t{1} << 32) &&
           "rel: batched per-slot row count must be < 2^32");
    ibase[s + 1] = ibase[s] + slots[s].n;
    bbase[s + 1] = bbase[s] + slots[s].bound;
    pgbase[s + 1] = pgbase[s] + padded(slots[s].n);
    pfbase[s + 1] = pfbase[s] + padded(slots[s].n + slots[s].bound);
  }
  const size_t N = ibase[S], B = bbase[S];
  assert(in.size() == N && out.size() == B);
  std::vector<uint64_t> groups(S, 0);
  if (N == 0) {
    kernel::fill_range(out, 0, B, Elem::filler(), kernel::Tick::None);
    return groups;
  }
  obs::Span span("rel.group_by_batch", "slots", S, "rows", N);

  // Shared grouping sort on per-slot padded segments of composite keys:
  // slot s's rows land at the public positions [pgbase[s], pgbase[s] +
  // n_s) in per-slot solo key order (padding sorts to the segment tail).
  const size_t PG = pgbase[S];
  const std::vector<uint32_t> pgslot = slot_map(pgbase);
  vec<Elem> gvv(PG);
  const slice<Elem> gv = gvv.s();
  kernel::generate_range(
      gv, 0, PG, kernel::Tick::PerElem, [&](Elem& e, size_t p) {
        const uint32_t s = pgslot[p];
        const size_t local = p - pgbase[s];
        if (local < slots[s].n) {
          const size_t gi = ibase[s] + local;
          e = in[gi];
          assert(e.key <= kMaxBatchKey &&
                 "rel: batched group keys must be <= kMaxBatchKey");
          e.key = slot_key(s, e.key);
          e.aux = gi;
        } else {
          e = Elem::filler();
        }
      });
  sort_segments(gv, pgbase, sorter);

  // Group sizes and value aggregates: composite key-groups never span
  // slots (padding forms its own inert sink groups), so the shared
  // segmented folds equal the solo ones (the operators are associative
  // and commutative — order-insensitive).
  vec<Elem> cntv(PG);
  const slice<Elem> cnt = cntv.s();
  kernel::generate_range(cnt, 0, PG, kernel::Tick::PerElem,
                         [&](Elem& e, size_t i) {
                           e = gv[i];
                           e.payload = (e.flags & Elem::kFiller) ? 0u : 1u;
                         });
  obl::aggregate_suffix(cnt, Add{});
  switch (agg) {
    case Agg::Sum: obl::aggregate_suffix(gv, Add{}); break;
    case Agg::Min: obl::aggregate_suffix(gv, MinOp{}); break;
    case Agg::Max: obl::aggregate_suffix(gv, MaxOp{}); break;
    case Agg::Count: break;
  }

  // Heads + one global inclusive head count; per-slot group counts and
  // local group indexes fall out at the public segment boundaries
  // (padding contributes no heads).
  vec<uint64_t> headv(PG), gsumv(PG);
  const slice<uint64_t> head = headv.s();
  const slice<uint64_t> gsum = gsumv.s();
  kernel::generate_range(
      head, 0, PG, kernel::Tick::PerElem, [&](uint64_t& v, size_t i) {
        const Elem e = gv[i];
        const bool h = !(e.flags & Elem::kFiller) &&
                       ((i == 0) || (gv[i - 1].key != e.key));
        v = h ? 1u : 0u;
      });
  kernel::generate_range(gsum, 0, PG, kernel::Tick::PerElem,
                         [&](uint64_t& v, size_t i) { v = head[i]; });
  obl::scan_inclusive(gsum, Add{});
  std::vector<uint64_t> gbase(S + 1, 0);
  for (size_t s = 0; s <= S; ++s) {
    sim::tick(1);
    if (pgbase[s] > 0) gbase[s] = gsum[pgbase[s] - 1];
  }
  for (size_t s = 0; s < S; ++s) groups[s] = gbase[s + 1] - gbase[s];
  if (B == 0) return groups;

  // Placement frame on per-slot padded segments: each live head keys
  // itself directly before its output placeholder ((slot << 35) |
  // (local group << 1), placeholder one above), carrying (payload =
  // aggregate, aux = composite group key, extra = group size). After the
  // segment sorts, one adjacent-copy pass fills each placeholder from
  // its even-keyed neighbor — the key layout guarantees exact adjacency,
  // and segment tails (sinks/padding) never border a placeholder — then
  // per-slot compaction keeps ALL placeholders, so every slot's output
  // region lands at its public segment base.
  const size_t PF = pfbase[S];
  const std::vector<uint32_t> pfslot = slot_map(pfbase);
  vec<Elem> framev(PF);
  const slice<Elem> frame = framev.s();
  kernel::generate_range(
      frame, 0, PF, kernel::Tick::PerElem, [&](Elem& e, size_t p) {
        const uint32_t s = pfslot[p];
        const GroupSlot& sl = slots[s];
        const size_t local = p - pfbase[s];
        if (local < sl.n) {  // grouped row (head or dropped follower)
          const size_t gp = pgbase[s] + local;
          const Elem g = gv[gp];
          const uint64_t c = cnt[gp].payload;
          const uint64_t lg = gsum[gp] - 1 - gbase[s];
          const bool live = (head[gp] != 0) & (lg < sl.bound);
          e.key = obl::oselect<uint64_t>(live, frame_key(s, lg << 1),
                                         kSinkKey);
          e.payload = (agg == Agg::Count) ? c : g.payload;
          e.aux = g.key;
          e.extra = static_cast<uint32_t>(c);
          e.flags = Elem::kTemp;
        } else if (local < sl.n + sl.bound) {  // output placeholder
          const uint64_t j = local - sl.n;
          e.key = frame_key(s, (j << 1) | 1);
          e.payload = 0;
          e.aux = kNoRow;
          e.extra = 0;
          e.flags = Elem::kDest;
        } else {  // per-slot pow2 padding
          e = Elem::filler();
        }
      });
  sort_segments(frame, pfbase, sorter);

  vec<Elem> filledv(PF);
  const slice<Elem> filled = filledv.s();
  kernel::generate_range(
      filled, 0, PF, kernel::Tick::PerElem, [&](Elem& e, size_t p) {
        e = frame[p];
        if (p == 0) return;  // public: position 0 never follows a head
        const Elem prev = frame[p - 1];
        const bool m = ((e.flags & Elem::kDest) != 0) &
                       ((prev.flags & Elem::kTemp) != 0) &
                       (prev.key + 1 == e.key);
        e.payload = obl::oselect<uint64_t>(m, prev.payload, e.payload);
        e.aux = obl::oselect<uint64_t>(m, prev.aux, e.aux);
        e.extra = obl::oselect<uint32_t>(m, prev.extra, e.extra);
      });
  kernel::transform_range(
      filled, 0, PF, kernel::Tick::PerElem, [&](Elem& e, size_t) {
        const bool keep = (e.flags & Elem::kDest) != 0;
        e.key = e.extra;  // group size rides through compaction in .key
                          // (compaction clobbers .extra)
        e.flags |= obl::oselect<uint32_t>(keep, 0, Elem::kFiller);
      });
  compact_segments(filled, pfbase, sorter);
  // filled[pfbase[s] .. pfbase[s] + bound_s): slot s's placeholders in
  // local group order; unfilled ones still carry the aux = kNoRow
  // sentinel.

  const std::vector<uint32_t> phslot = slot_map(bbase);
  kernel::generate_range(
      out, 0, B, kernel::Tick::PerElem, [&](Elem& e, size_t j) {
        const uint32_t s = phslot[j];
        const Elem r = filled[pfbase[s] + (j - bbase[s])];
        const bool live = r.aux != kNoRow;
        e.key = obl::oselect<uint64_t>(live, r.aux & kMaxBatchKey,
                                       ~uint64_t{0});
        e.payload = obl::oselect<uint64_t>(live, r.payload, 0);
        e.aux = obl::oselect<uint64_t>(live, r.key, 0);
        e.extra = 0;
        e.flags = obl::oselect<uint32_t>(live, 0, Elem::kFiller);
      });
  return groups;
}

}  // namespace dopar::rel::detail
