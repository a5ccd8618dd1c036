#pragma once
// dopar::rel — oblivious relational operators over the sort core.
//
// The paper's primitives (oblivious sort, compaction, propagation,
// aggregation, send-receive) are exactly the toolkit the oblivious-database
// literature composes into relational operators (Krastnikov et al.,
// "Efficient Oblivious Database Joins", PVLDB 2020). This layer builds
// three of them:
//
//   * equi-join      — L ⋈ R on key equality,
//   * band join      — L ⋈ R on |l.key - r.key| <= band,
//   * group-by       — per-key Sum / Count / Min / Max aggregation,
//
// all as compositions of the existing engines, so every registered sorter
// backend, scheduler policy and the SIMD kernel layer apply automatically.
// The public entry points are the Runtime methods (core/runtime.hpp):
//
//   auto res = rt.equi_join(std::span(orders), key_of_order,
//                           std::span(items), key_of_item,
//                           {.output_bound = 4096});
//   for (auto& [o, it] : res.rows) ...
//
// Join plans. Solo and coalesced joins share one engine
// (detail::join_engine_batched; a solo call is a one-slot batch), which
// picks the plan by the backend's kind (SorterBackend::is_network()):
//
//   * comparator-network backends ("bitonic_ca", "bitonic",
//     "naive_bitonic", "odd_even", ...) run the RECORDED-NETWORK plan per
//     slot. Whatever network the backend names, these joins run the
//     recorded bitonic network of obl/route.hpp: sorts whose swap tapes
//     are replayed to undo them, plus monotone routing, in fork-join
//     recursion (O(m log^2 m) work, polylog span, cache-agnostic);
//   * full-sort backends ("osort", "spms") run the SEGMENTED GENERAL plan,
//     so their canonical sorts realize the full oblivious sort.
//
// Both follow the same three phases (the equi-join is the band = 0
// specialization):
//   1. MULTIPLICITY: order the union of both tables by (key, side), with
//      a lo-query before and (band) a hi-query after the right rows of
//      equal key; a prefix count of right rows (plus, for equi, one
//      segmented suffix count) yields, for every left row, the count of
//      matching right rows and the rank of its first match in key-sorted
//      right order.
//   2. DISTRIBUTE-EXPAND: prefix sums turn counts into output offsets;
//      left rows are placed at their first output slot (general plan: one
//      frame sort, compaction; recorded plan: monotone compaction and
//      distribution) and propagated over their run of slots. Every output
//      slot now holds its left row and the rank of the right row it must
//      pair with.
//   3. ALIGN-CONCAT: the rank-keyed right rows are routed to the slots
//      that request them (general plan: one send-receive; recorded plan:
//      a recorded sort + merge, an exact-match propagation, replays).
//
// Obliviousness contract: for fixed table sizes and a fixed public output
// bound, the sequence of scratch-array sizes, sorts, scans and routing
// steps — and hence the comparator/access schedule — does not depend on
// table contents. With a comparator-network backend the schedule is a
// fixed function of the sizes (trace digests are bit-identical across
// differing contents of the same shape); with the randomized full-sort
// backends ("osort", "spms") the schedule additionally depends on their
// per-call seeds and is oblivious in distribution (paper §C.4), replaying
// bit-for-bit under the per-call seed-stream contract. The *returned*
// (declassified) rows reveal the true match count — the same reveal the
// paper proves safe for ORP's final compaction; everything computed inside
// the measured pipeline is padded to the public bound.
//
// Size contract: keys < 2^62; per-table row count and the output bound
// < 2^32 (the send-receive receiver bound); |L|·|R| < 2^62 (output
// offsets are packed into sort keys with one tag bit to spare).

#include <cstdint>
#include <utility>
#include <vector>

#include "core/backend.hpp"
#include "obl/elem.hpp"
#include "sim/tracked.hpp"

namespace dopar::rel {

/// Largest legal join/group key (exclusive): band arithmetic saturates at
/// this bound, and every scratch sentinel lives above it.
inline constexpr uint64_t kKeyLimit = uint64_t{1} << 62;

/// Sentinel "no row" id carried by padding slots inside the engines.
inline constexpr uint64_t kNoRow = ~uint64_t{0};

// ---- coalesced (batched) operator plans --------------------------------
//
// The serving layer merges many small compatible join / group-by requests
// into ONE batch; each request becomes a *slot*. Joins on a network
// backend run every slot's recorded plan on its own slice of the
// concatenated tables, concurrently. The general plans (every group-by,
// and joins on a full-sort backend) tag each key with its slot id in the
// top bits of a composite key ((slot << kBatchKeyBits) | key) and run
// every pass once over the concatenated tables. Because slots occupy
// disjoint composite-key ranges, the per-slot order inside every shared
// sort equals the solo order, so each slot's output is bit-identical to a
// solo run of the same request. The shared distribute-expand frame's
// public bound is the SUM of the per-slot output bounds, split back per
// slot at public offsets. Either way the schedule is a pure function of
// the slot shape vector.

/// Bits of a batched composite key carrying the row's own key; the slot id
/// rides above them. Mirrors the serving layer's sort-coalescing layout.
inline constexpr unsigned kBatchKeyBits = 48;
/// Largest row key that may ride in a coalesced relational batch
/// (inclusive): composite keys must stay below kKeyLimit.
inline constexpr uint64_t kMaxBatchKey =
    (uint64_t{1} << kBatchKeyBits) - 1;
/// Slots per coalesced relational batch: 2^62 composite-key space over
/// 48-bit row keys leaves 14 slot bits.
inline constexpr size_t kMaxRelBatchSlots = size_t{1} << 14;

/// Public shape of one slot (one request) in a coalesced join batch.
struct JoinSlot {
  size_t nl = 0;       ///< left-table rows
  size_t nr = 0;       ///< right-table rows
  size_t bound = 0;    ///< public output bound (this slot's frame share)
  bool banded = false; ///< band join (equi when false)
  uint64_t band = 0;   ///< band half-width (ignored unless banded)
};

/// Public shape of one slot in a coalesced group-by batch.
struct GroupSlot {
  size_t n = 0;      ///< input rows
  size_t bound = 0;  ///< public group bound (this slot's frame share)
};

/// Aggregation operators for group_by_aggregate. Sum wraps mod 2^64.
enum class Agg { Sum, Count, Min, Max };

/// Per-call options for the join operators.
struct JoinOptions {
  /// Public bound on the number of output pairs: the engine's schedule is
  /// a function of (|L|, |R|, output_bound) only, and the result is
  /// truncated to this many pairs if more match. 0 means |L|·|R| — the
  /// trivially safe bound, at the cost of an output frame that large.
  size_t output_bound = 0;
  /// Backend / variant / params for every internal sort (same semantics
  /// as on any other sorter-parametric Runtime method).
  SortOptions sort{};
};

/// Per-call options for group_by_aggregate.
struct GroupByOptions {
  /// Public bound on the number of distinct groups (0 = row count, the
  /// trivially safe bound). Groups beyond it — in ascending key order —
  /// are truncated.
  size_t group_bound = 0;
  SortOptions sort{};
};

/// Result of a join: the matching pairs, grouped by left row in input
/// order, each group's right rows ascending by (key, input index). `rows`
/// holds min(matched, output_bound) pairs.
template <class RecL, class RecR>
struct JoinResult {
  std::vector<std::pair<RecL, RecR>> rows;
  /// True total number of matching pairs (revealed by the declassified
  /// output, like the output length itself).
  uint64_t matched = 0;
  bool truncated() const { return matched > rows.size(); }
};

/// One output group of group_by_aggregate.
struct GroupRow {
  uint64_t key = 0;    ///< group key
  uint64_t value = 0;  ///< aggregated value (== count for Agg::Count)
  uint64_t count = 0;  ///< group size
};

/// Result of a group-by: groups ascending by key, truncated to the bound.
struct GroupByResult {
  std::vector<GroupRow> groups;
  uint64_t groups_total = 0;  ///< true number of distinct groups
  bool truncated() const { return groups_total > groups.size(); }
};

namespace detail {

// The engines operate on canonical Elem tables prepared by the Runtime
// wrappers: left/right rows carry the join key in .key and the caller's
// row index in .payload. They run entirely inside the Runtime's execution
// environment (tracked buffers, fork-join pool, measurement session).

/// Group-by engine: `in` rows carry key in .key and the value in .payload.
/// Writes one Elem per group into `out` (size = group bound): key = group
/// key, payload = aggregate, aux = group size; padding flagged kFiller.
/// Returns the true number of distinct groups.
uint64_t group_by_engine(const slice<obl::Elem>& in, Agg agg,
                         const slice<obl::Elem>& out,
                         const SorterBackend& sorter);

/// The join engine, solo (one slot) and coalesced: `left`/`right` are the
/// slot-concatenated tables (slot s's rows at the public offsets implied
/// by `slots`, raw per-slot key in .key, caller row id in .payload) and
/// `out` has size sum(slots[s].bound). Writes each slot's join — the
/// aligned pairs, out[j].payload = left row id, out[j].aux = right row
/// id, local output position in .key, padding slots flagged kFiller —
/// into its share of the frame; a slot's share depends on that slot's
/// request alone. Returns the per-slot true match counts. Network
/// backends run the recorded-network plan, full-sort backends the
/// segmented general plan (see the top of this file). Contract: keys <
/// kKeyLimit for one slot, <= kMaxBatchKey for more; slot count <=
/// kMaxRelBatchSlots; per-slot bound < 2^33.
std::vector<uint64_t> join_engine_batched(const slice<obl::Elem>& left,
                                          const slice<obl::Elem>& right,
                                          const std::vector<JoinSlot>& slots,
                                          const slice<obl::Elem>& out,
                                          const SorterBackend& sorter);

/// Coalesced group-by engine: `in` is the slot-concatenated input (key in
/// .key, value in .payload), `out` has size sum(slots[s].bound); slot s's
/// share holds its groups ascending by key (key = group key, payload =
/// aggregate, aux = group size, padding kFiller), equal to its solo
/// group_by_engine output. Returns the per-slot distinct-group counts.
/// Contract: keys <= kMaxBatchKey, slot count <= kMaxRelBatchSlots,
/// per-slot rows < 2^32 and bound < 2^33. One batch runs ONE aggregation
/// operator — the serving layer only coalesces same-agg requests.
std::vector<uint64_t> group_by_engine_batched(
    const slice<obl::Elem>& in, Agg agg,
    const std::vector<GroupSlot>& slots, const slice<obl::Elem>& out,
    const SorterBackend& sorter);

}  // namespace detail

}  // namespace dopar::rel
