#pragma once
// dopar::Runtime — the public façade over the paper's oblivious fork-join
// algorithms (included via the umbrella header "dopar.hpp").
//
// A Runtime is a self-contained execution context built once via
// Runtime::Builder:
//
//   auto rt = dopar::Runtime::builder().threads(8).seed(42).build();
//   rt.sort(records.s());                       // oblivious sort
//   rt.sort_records(std::span(orders),          // any record type
//                   [](const Order& o) { return o.id; });
//   auto labels = rt.connected_components(n, edges);
//
// It owns:
//   * its scheduler (sched/scheduler.hpp), which owns the fork-join worker
//     arena (threads > 1) and the submit() job workers. Pools are
//     installed per-thread (fj::ScopedPool) for the duration of each
//     method call, so two Runtimes with independent pools can serve
//     different pipelines in the same process; within one Runtime, the
//     builder's .scheduler(policy) decides whether concurrent pipelines
//     serialize their primitives (Exclusive, default) or execute them in
//     parallel on leased worker slices (Sliced / Stealing).
//   * its sorter backend: the named entry of the backend registry
//     (core/backend.hpp) every sorter-parametric primitive routes through.
//     Builder .backend("odd_even") selects it per Runtime; every such
//     method also takes a dopar::SortOptions whose .backend overrides it
//     per call (a Table 2 row is one argument, not a rebuild).
//   * its measurement session (builder .analytic()/.cache()/.trace()).
//     An instrumented Runtime executes serially on the analytic executor
//     (exact span, deterministic traces) and exposes the totals via
//     cost(), cache_misses() and trace_digest().
//   * its randomness: every method call derives a fresh seed from the
//     master seed and a call counter, so nothing hand-threads seed
//     arguments anymore, and two Runtimes built identically replay
//     identical randomness call-for-call (seed-determinism).
//
// Async submission: submit(fn) enqueues fn onto the Runtime's scheduler
// (sched/scheduler.hpp) and returns a dopar::Future<T>. The job runs with
// the Runtime's pool installed thread-locally (as with_env does per method
// call), so a job body typically just calls Runtime methods. How the
// primitives of concurrent jobs share the machine is the Builder's
// .scheduler(policy) choice: under SchedPolicy::Exclusive (default, the
// classic behavior) primitives serialize on an execution mutex and only
// the glue between them overlaps; under Sliced/Stealing each primitive
// call leases a slice of the worker arena and concurrent pipelines
// genuinely run in parallel. Exceptions propagate through Future::get().
//
// Thread-safety: any method may be called from any thread; under the
// Exclusive policy primitive calls serialize internally, under
// Sliced/Stealing they run concurrently on disjoint worker slices.
// Determinism: a deterministic sequence of synchronous method calls
// replays call-for-call (counter-derived seeds). Every submitted job
// additionally draws from its own seed stream, indexed by submission
// order — so per-pipeline outputs are deterministic under contention, no
// matter how the scheduler interleaves the pipelines or how many threads
// execute them.

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cstdint>
#include <future>
#include <memory>
#include <mutex>
#include <span>
#include <stdexcept>
#include <string>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "apps/cc.hpp"
#include "apps/common.hpp"
#include "apps/contraction.hpp"
#include "apps/euler.hpp"
#include "apps/listrank.hpp"
#include "apps/msf.hpp"
#include "core/backend.hpp"
#include "core/future.hpp"
#include "core/orba.hpp"
#include "core/orp.hpp"
#include "core/osort.hpp"
#include "core/params.hpp"
#include "forkjoin/pool.hpp"
#include "obl/aggregate.hpp"
#include "obl/compact.hpp"
#include "obl/elem.hpp"
#include "obl/kernel/kernel.hpp"
#include "obl/propagate.hpp"
#include "obs/obs.hpp"
#include "obl/sendrecv.hpp"
#include "rel/rel.hpp"
#include "sched/scheduler.hpp"
#include "sim/session.hpp"
#include "sim/tracked.hpp"
#include "util/bits.hpp"
#include "util/rng.hpp"

namespace dopar {

class Runtime {
 public:
  /// Fluent configuration. Every setter returns *this; build() yields the
  /// Runtime (constructed in place — Runtime itself is pinned to its
  /// address because the pool, session and submit workers must not move
  /// under workers).
  class Builder {
   public:
    /// Total worker parallelism for native execution (the calling thread
    /// participates, so threads(8) spawns 7 helpers). 1 = serial; 0 = use
    /// the hardware concurrency. Ignored when instrumentation is on (the
    /// analytic executor is serial by construction).
    Builder& threads(unsigned n) {
      threads_ = n == 0 ? std::thread::hardware_concurrency() : n;
      if (threads_ == 0) threads_ = 1;
      return *this;
    }
    /// Master seed: the single source of all internal randomness.
    Builder& seed(uint64_t s) {
      seed_ = s;
      return *this;
    }
    /// Pipeline parameters (bin capacity Z, branching gamma, ...).
    /// Default: auto-tuned per input size.
    Builder& params(core::SortParams p) {
      params_ = p;
      return *this;
    }
    /// Default sort variant for sort()/sort_records().
    Builder& variant(core::Variant v) {
      variant_ = v;
      return *this;
    }
    /// Named sorter backend every sorter-parametric primitive routes
    /// through (see core/backend.hpp for the built-in names). build()
    /// throws UnknownBackend for a name the registry does not know.
    Builder& backend(std::string_view name) {
      backend_name_ = std::string(name);
      return *this;
    }
    /// How concurrent pipelines share the worker arena (see
    /// sched/scheduler.hpp): Exclusive (default) serializes primitives on
    /// an execution mutex exactly like the pre-scheduler Runtime; Sliced
    /// partitions the workers across the active pipelines; Stealing
    /// additionally lets idle slices steal from busy ones. Irrelevant for
    /// instrumented Runtimes (the analytic executor is serial by
    /// construction).
    Builder& scheduler(sched::SchedPolicy p) {
      policy_ = p;
      return *this;
    }
    /// Cap on concurrently executing submit() jobs (the job-worker pool;
    /// default sched::Scheduler::kMaxJobWorkers = 4). 0 is floored to 1.
    /// The serving layer (svc::Service) runs its batches as submitted
    /// jobs, so a Service host typically wants a wider pool than the
    /// default.
    Builder& max_job_workers(size_t n) {
      job_workers_ = n == 0 ? 1 : n;
      return *this;
    }
    /// Work/span accounting (serial analytic execution).
    Builder& analytic() {
      analytic_ = true;
      return *this;
    }
    /// Ideal-cache simulation with M bytes and B-byte lines (implies
    /// analytic()).
    Builder& cache(uint64_t m_bytes, uint64_t b_bytes) {
      analytic_ = true;
      cache_m_ = m_bytes;
      cache_b_ = b_bytes;
      return *this;
    }
    /// Memory-address trace recording (implies analytic()); digest via
    /// Runtime::trace_digest().
    Builder& trace() {
      analytic_ = true;
      trace_ = true;
      return *this;
    }
    /// Enable the obs span tracer for this Runtime's lifetime (the gate is
    /// process-wide and refcounted, so several tracing Runtimes nest).
    /// Spans record into per-thread rings; export with dump_trace(path).
    /// Also enabled without a rebuild by the DOPAR_TRACE environment
    /// variable. Orthogonal to the analytic session's .trace() memory
    /// traces: obs spans are wall-clock only and leave analytic costs and
    /// trace digests bit-identical.
    Builder& tracing(bool on = true) {
      obs_tracing_ = on;
      return *this;
    }
    /// Enable obs metric recording (Registry counters/histograms at every
    /// instrumented layer) for this Runtime's lifetime. svc::Service
    /// enables this itself by default; enable here to meter a Runtime
    /// driven directly. Same non-perturbation contract as tracing().
    Builder& metrics(bool on = true) {
      obs_metrics_ = on;
      return *this;
    }

    Runtime build() const { return Runtime(*this); }

   private:
    friend class Runtime;
    unsigned threads_ = 1;
    uint64_t seed_ = 0xd0'9a12'5eedULL;
    core::SortParams params_{};
    core::Variant variant_ = core::Variant::Practical;
    std::string backend_name_ = "bitonic_ca";
    sched::SchedPolicy policy_ = sched::SchedPolicy::Exclusive;
    size_t job_workers_ = sched::Scheduler::kMaxJobWorkers;
    bool analytic_ = false;
    uint64_t cache_m_ = 0;
    uint64_t cache_b_ = 64;
    bool trace_ = false;
    bool obs_tracing_ = false;
    bool obs_metrics_ = false;
  };

  static Builder builder() { return Builder{}; }

  Runtime(const Runtime&) = delete;
  Runtime& operator=(const Runtime&) = delete;

  // Destruction drains still-queued jobs (executing them), joins the job
  // workers, then tears down the arena — all inside ~Scheduler.

  // ---- oblivious primitives (paper Sections 3-4) ----------------------

  /// Obliviously sort `a` by key, ascending (Theorem 3.2 pipeline).
  void sort(const slice<obl::Elem>& a, const SortOptions& opts = {}) {
    const auto sorter = resolve(opts);
    const uint64_t s = fresh_seed();
    obs::Span span("rt.sort", "n", a.size());
    with_env([&] {
      core::detail::osort(a, s, opts.variant.value_or(variant_),
                          opts.params.value_or(params_), *sorter);
    });
  }
  void sort(const slice<obl::Elem>& a, core::Variant v) {
    sort(a, SortOptions{.backend = {}, .variant = v, .params = {}});
  }

  /// Sort `a` by key directly on the sorter backend — the same layer every
  /// composite primitive routes its internal sorts through — with no
  /// random-permutation pipeline around it. For the network backends
  /// ("bitonic_ca", "bitonic", "odd_even", ...) this is a deterministic
  /// data-oblivious comparator-network sort, which at serving-size inputs
  /// is far cheaper than the full Theorem 3.2 pipeline (the sort-algorithm
  /// backends "osort"/"spms" still run their full sort). The serving
  /// layer's coalescer batches many small requests into one of these.
  /// Any size is accepted: the networks need a power-of-two array, so a
  /// non-power-of-two input is sorted through a filler-padded scratch
  /// buffer (fillers carry the maximal key and land in the dropped tail).
  /// Keys must therefore be < 2^64-1, as everywhere else in the library.
  void backend_sort(const slice<obl::Elem>& a, const SortOptions& opts = {}) {
    const auto sorter = resolve(opts);
    obs::Span span("rt.backend_sort", "n", a.size());
    with_env([&] {
      const size_t n = a.size();
      if (n <= 1 || util::is_pow2(n)) {
        sorter->sort(a);
        return;
      }
      const size_t padded = util::pow2_ceil(n);
      vec<obl::Elem> tmp(padded);
      const slice<obl::Elem> t = tmp.s();
      fj::for_range(0, n, fj::kDefaultGrain, [&](size_t i) {
        sim::tick(1);
        t[i] = a[i];
      });
      fj::for_range(n, padded, fj::kDefaultGrain, [&](size_t i) {
        sim::tick(1);
        t[i] = obl::Elem::filler();
      });
      sorter->sort(t);
      fj::for_range(0, n, fj::kDefaultGrain, [&](size_t i) {
        sim::tick(1);
        a[i] = t[i];
      });
    });
  }

  /// Obliviously permute `in` into `out` uniformly at random (ORP).
  void permute(const slice<obl::Elem>& in, const slice<obl::Elem>& out,
               const SortOptions& opts = {}) {
    const auto sorter = resolve(opts);
    const uint64_t s = fresh_seed();
    obs::Span span("rt.permute", "n", in.size());
    with_env([&] {
      core::detail::orp(in, out, s, opts.params.value_or(params_), *sorter);
    });
  }

  /// Oblivious random bin assignment (REC-ORBA). |in| must be a power of
  /// two and at least the bin capacity Z.
  core::OrbaOutput bin_assign(const slice<obl::Elem>& in,
                              const SortOptions& opts = {}) {
    core::SortParams p = opts.params.value_or(params_);
    if (p.Z == 0) p = core::SortParams::auto_for(in.size());
    const auto sorter = resolve(opts);
    const uint64_t s = fresh_seed();
    obs::Span span("rt.bin_assign", "n", in.size());
    core::OrbaOutput out;
    with_env([&] { out = core::detail::orba(in, s, p, *sorter); });
    return out;
  }

  /// Oblivious routing: sources (distinct keys) feed receivers; results in
  /// original receiver order (kNotFound flags misses).
  void send_receive(const slice<obl::Elem>& sources,
                    const slice<obl::Elem>& dests,
                    const slice<obl::Elem>& results,
                    const SortOptions& opts = {}) {
    const auto sorter = resolve(opts);
    obs::Span span("rt.send_receive", "sources", sources.size(), "dests",
                   dests.size());
    with_env([&] {
      obl::detail::send_receive(sources, dests, results, *sorter);
    });
  }

  /// Batch-oblivious table read: out[i] = table[addrs[i]].
  void gather(const slice<uint64_t>& table, const slice<uint64_t>& addrs,
              const slice<uint64_t>& out, const SortOptions& opts = {}) {
    const auto sorter = resolve(opts);
    obs::Span span("rt.gather", "n", addrs.size());
    with_env([&] { apps::gather(table, addrs, out, *sorter); });
  }

  /// Batch-oblivious conflict-resolved table write (minimum proposal wins).
  void scatter_min(const slice<uint64_t>& table,
                   const slice<uint64_t>& addrs,
                   const slice<uint64_t>& values,
                   const slice<uint64_t>& live, bool combine_min = false,
                   const SortOptions& opts = {}) {
    const auto sorter = resolve(opts);
    obs::Span span("rt.scatter_min", "n", addrs.size());
    with_env([&] {
      apps::scatter_min(table, addrs, values, live, *sorter, combine_min);
    });
  }

  /// Oblivious per-group suffix aggregation in a key-sorted array.
  template <class Op>
  void aggregate_suffix(const slice<obl::Elem>& a, const Op& op) {
    with_env([&] { obl::aggregate_suffix(a, op); });
  }

  /// Stable oblivious compaction: records flagged kFiller move to the
  /// back, everything else to the front with input order preserved — the
  /// schedule depends only on |a|, never on which records are live. Any
  /// size is accepted (network sorters need a power of two, so a
  /// non-power-of-two input runs through a filler-padded scratch buffer).
  /// Clobbers Elem::extra (the engine's stability rank lives there).
  void compact(const slice<obl::Elem>& a, const SortOptions& opts = {}) {
    const auto sorter = resolve(opts);
    obs::Span span("rt.compact", "n", a.size());
    with_env([&] {
      const size_t n = a.size();
      if (n <= 1) return;
      if (util::is_pow2(n)) {
        obl::compact_oblivious(a, *sorter);
        return;
      }
      const size_t padded = util::pow2_ceil(n);
      vec<obl::Elem> tmp(padded);
      const slice<obl::Elem> t = tmp.s();
      obl::kernel::copy_range(t, 0, a, 0, n, obl::kernel::Tick::PerElem);
      obl::kernel::fill_range(t, n, padded - n, obl::Elem::filler(),
                              obl::kernel::Tick::PerElem);
      // Scratch fillers rank behind the input's own fillers, so the first
      // n records are exactly the compacted input.
      obl::compact_oblivious(t, *sorter);
      obl::kernel::copy_range(a, 0, t, 0, n, obl::kernel::Tick::PerElem);
    });
  }

  /// Oblivious propagation in a key-sorted array: every record inherits
  /// (payload, aux) from the leftmost record of its key-group. Fixed
  /// access pattern (one segmented scan); any size.
  void propagate(const slice<obl::Elem>& a) {
    obs::Span span("rt.propagate", "n", a.size());
    with_env([&] { obl::propagate_leftmost(a); });
  }

  // ---- generic record sorting -----------------------------------------

  /// Obliviously sort arbitrary records by an extracted integer key,
  /// ascending. `key_of(rec)` must yield a value convertible to uint64_t
  /// and < 2^64 - 1 (the filler sentinel; throws std::invalid_argument
  /// otherwise, in every build type). The oblivious pipeline runs on
  /// (key, index) pairs; the records are then reordered through the index
  /// indirection, so Rec needs no filler encoding, no fixed 32-byte
  /// layout, and no default constructor — only copyability. Ties are
  /// broken by the internal random permutation (the order is not stable).
  template <class Rec, class KeyFn>
  void sort_records(std::span<Rec> recs, KeyFn&& key_of,
                    const SortOptions& opts = {}) {
    static_assert(
        std::is_convertible_v<std::invoke_result_t<KeyFn&, const Rec&>,
                              uint64_t>,
        "sort_records: key_of(rec) must yield an unsigned 64-bit sort key");
    const size_t n = recs.size();
    // Validate the per-call backend name even when the input is trivially
    // sorted — a typo'd name must throw regardless of input size.
    const auto sorter = resolve(opts);
    // Keys are checked before any seed is drawn, so a rejected call leaves
    // the seed stream (and call-for-call replay) untouched.
    std::vector<uint64_t> rec_keys(n);
    for (size_t i = 0; i < n; ++i) {
      rec_keys[i] = static_cast<uint64_t>(key_of(recs[i]));
      if (rec_keys[i] == ~uint64_t{0}) {
        throw std::invalid_argument(
            "Runtime::sort_records: key 2^64-1 is reserved (the filler "
            "sentinel)");
      }
    }
    if (n <= 1) return;
    const uint64_t s = fresh_seed();
    obs::Span span("rt.sort_records", "n", n);
    std::vector<uint64_t> order(n);
    with_env([&] {
      vec<obl::Elem> keysv(n);
      const slice<obl::Elem> keys = keysv.s();
      fj::for_range(0, n, fj::kDefaultGrain, [&](size_t i) {
        sim::tick(1);
        obl::Elem e;
        e.key = rec_keys[i];
        e.payload = i;
        keys[i] = e;
      });
      core::detail::osort(keys, s, opts.variant.value_or(variant_),
                          opts.params.value_or(params_), *sorter);
      fj::for_range(0, n, fj::kDefaultGrain,
                    [&](size_t i) { order[i] = keys[i].payload; });
    });
    // Apply the permutation through index indirection (client-side
    // reordering, like the final decrypt-and-emit of an enclave pipeline).
    // `order` is a permutation, so each source is moved from exactly once.
    std::vector<Rec> tmp;
    tmp.reserve(n);
    for (size_t i = 0; i < n; ++i) tmp.push_back(std::move(recs[order[i]]));
    for (size_t i = 0; i < n; ++i) recs[i] = std::move(tmp[i]);
  }

  // ---- relational operators (rel/rel.hpp) ------------------------------

  /// Oblivious equi-join: every (l, r) with key_l(l) == key_r(r), grouped
  /// by left row in input order, each group's right rows ascending by
  /// (key, input index). Keys < rel::kKeyLimit, else std::invalid_argument.
  /// The schedule is a function of (|L|, |R|, opts.output_bound) only; the
  /// returned rows (declassified output) reveal the true match count.
  template <class RecL, class KeyL, class RecR, class KeyR>
  rel::JoinResult<RecL, RecR> equi_join(std::span<const RecL> left,
                                        KeyL&& key_l,
                                        std::span<const RecR> right,
                                        KeyR&& key_r,
                                        const rel::JoinOptions& opts = {}) {
    return join_impl<RecL, RecR>(left, key_l, right, key_r, false, 0, opts);
  }

  /// Oblivious band join: every (l, r) with |key_l(l) - key_r(r)| <= band.
  /// Same contract and output order as equi_join (band = 0 degenerates to
  /// it exactly).
  template <class RecL, class KeyL, class RecR, class KeyR>
  rel::JoinResult<RecL, RecR> band_join(std::span<const RecL> left,
                                        KeyL&& key_l,
                                        std::span<const RecR> right,
                                        KeyR&& key_r, uint64_t band,
                                        const rel::JoinOptions& opts = {}) {
    return join_impl<RecL, RecR>(left, key_l, right, key_r, true, band, opts);
  }

  /// Oblivious group-by aggregation: one GroupRow per distinct key_of(rec)
  /// value (ascending by key), with val_of(rec) folded under `agg` and the
  /// group size alongside. Keys as in equi_join; Sum wraps mod 2^64. The
  /// schedule depends only on (|recs|, opts.group_bound); groups past the
  /// bound are truncated (GroupByResult::truncated()).
  template <class Rec, class KeyFn, class ValFn>
  rel::GroupByResult group_by_aggregate(std::span<const Rec> recs,
                                        KeyFn&& key_of, ValFn&& val_of,
                                        rel::Agg agg,
                                        const rel::GroupByOptions& opts = {}) {
    static_assert(
        std::is_convertible_v<std::invoke_result_t<KeyFn&, const Rec&>,
                              uint64_t>,
        "group_by_aggregate: key_of(rec) must yield an unsigned 64-bit key");
    static_assert(
        std::is_convertible_v<std::invoke_result_t<ValFn&, const Rec&>,
                              uint64_t>,
        "group_by_aggregate: val_of(rec) must yield an unsigned 64-bit "
        "value");
    const size_t n = recs.size();
    check_rel_keys(recs, key_of);
    const auto sorter = resolve(opts.sort);
    const size_t bound = opts.group_bound == 0 ? n : opts.group_bound;
    obs::Span span("rt.group_by", "n", n, "bound", bound);
    uint64_t total = 0;
    std::vector<obl::Elem> frame(bound);
    with_env([&] {
      vec<obl::Elem> inv(n), outv(bound);
      obl::kernel::generate_range(
          inv.s(), 0, n, obl::kernel::Tick::PerElem,
          [&](obl::Elem& e, size_t i) {
            e.key = static_cast<uint64_t>(key_of(recs[i]));
            e.payload = static_cast<uint64_t>(val_of(recs[i]));
          });
      total = rel::detail::group_by_engine(inv.s(), agg, outv.s(), *sorter);
      // Fixed-pattern full readout; the data-dependent strip happens
      // outside the measured environment (client side).
      std::copy_n(outv.s().data(), bound, frame.data());
    });
    rel::GroupByResult res;
    res.groups_total = total;
    res.groups.reserve(std::min<uint64_t>(total, bound));
    for (const obl::Elem& e : frame) {
      if (e.flags & obl::Elem::kFiller) continue;
      res.groups.push_back(rel::GroupRow{e.key, e.payload, e.aux});
    }
    return res;
  }

  // ---- coalesced relational hooks (serving layer) ---------------------

  /// Run a batch of independent joins as ONE shared plan (the serving
  /// layer's coalesced path). `slots` is the public shape of the batch;
  /// `left_keys`/`right_keys` are the slot-concatenated key tables. On
  /// return `frame` holds sum(bound) output Elems, slot-major: slot s's
  /// share carries (payload = left row id, aux = right row id) per pair,
  /// local output position in .key, padding flagged kFiller — equal to
  /// the slot's solo equi_join/band_join frame. Returns per-slot true
  /// match counts. Keys must be <= rel::kMaxBatchKey (2^48 - 1).
  std::vector<uint64_t> join_batched(const std::vector<uint64_t>& left_keys,
                                     const std::vector<uint64_t>& right_keys,
                                     const std::vector<rel::JoinSlot>& slots,
                                     std::vector<obl::Elem>& frame,
                                     const SortOptions& opts = {}) {
    constexpr uint64_t kMaxRows = uint64_t{1} << 32;  // send-receive cap
    const size_t S = slots.size();
    if (S == 0 || S > rel::kMaxRelBatchSlots) {
      throw std::invalid_argument("join_batched: bad slot count");
    }
    size_t nl_total = 0, nr_total = 0, bound_total = 0;
    for (const rel::JoinSlot& sl : slots) {
      if (sl.nl >= kMaxRows || sl.nr >= kMaxRows || sl.bound >= kMaxRows) {
        throw std::invalid_argument(
            "join_batched: per-slot sizes and bound must be < 2^32");
      }
      nl_total += sl.nl;
      nr_total += sl.nr;
      bound_total += sl.bound;
    }
    if (left_keys.size() != nl_total || right_keys.size() != nr_total) {
      throw std::invalid_argument(
          "join_batched: key tables must match the slot shapes");
    }
    for (uint64_t k : left_keys) {
      if (k > rel::kMaxBatchKey) {
        throw std::invalid_argument(
            "join_batched: keys must be <= rel::kMaxBatchKey");
      }
    }
    for (uint64_t k : right_keys) {
      if (k > rel::kMaxBatchKey) {
        throw std::invalid_argument(
            "join_batched: keys must be <= rel::kMaxBatchKey");
      }
    }
    const auto sorter = resolve(opts);
    obs::Span span("rt.join_batched", "slots", S, "bound", bound_total);
    // Slot-local row ids, precomputed host-side (public shapes).
    std::vector<uint32_t> lloc(nl_total), rloc(nr_total);
    {
      size_t li = 0, ri = 0;
      for (const rel::JoinSlot& sl : slots) {
        for (size_t i = 0; i < sl.nl; ++i) lloc[li++] = uint32_t(i);
        for (size_t i = 0; i < sl.nr; ++i) rloc[ri++] = uint32_t(i);
      }
    }
    frame.assign(bound_total, obl::Elem::filler());
    std::vector<uint64_t> matched;
    with_env([&] {
      vec<obl::Elem> lv(nl_total), rv(nr_total);
      vec<obl::Elem> outv(bound_total == 0 ? 1 : bound_total);
      const slice<obl::Elem> out = outv.s().sub(0, bound_total);
      obl::kernel::generate_range(lv.s(), 0, nl_total,
                                  obl::kernel::Tick::PerElem,
                                  [&](obl::Elem& e, size_t i) {
                                    e.key = left_keys[i];
                                    e.payload = lloc[i];
                                  });
      obl::kernel::generate_range(rv.s(), 0, nr_total,
                                  obl::kernel::Tick::PerElem,
                                  [&](obl::Elem& e, size_t i) {
                                    e.key = right_keys[i];
                                    e.payload = rloc[i];
                                  });
      matched = rel::detail::join_engine_batched(lv.s(), rv.s(), slots, out,
                                                 *sorter);
      std::copy_n(out.data(), bound_total, frame.data());
    });
    return matched;
  }

  /// Batched counterpart of group_by_aggregate: one shared plan over the
  /// slot-concatenated (key, value) rows, ONE aggregation operator per
  /// batch. On return `frame` holds sum(bound) Elems, slot-major, each
  /// slot's share its groups ascending by key (key = group key, payload =
  /// aggregate, aux = group size, padding kFiller) — equal to the solo
  /// result. Returns per-slot distinct-group counts.
  std::vector<uint64_t> group_by_batched(
      const std::vector<uint64_t>& keys,
      const std::vector<uint64_t>& values,
      const std::vector<rel::GroupSlot>& slots, rel::Agg agg,
      std::vector<obl::Elem>& frame, const SortOptions& opts = {}) {
    constexpr uint64_t kMaxRows = uint64_t{1} << 32;
    const size_t S = slots.size();
    if (S == 0 || S > rel::kMaxRelBatchSlots) {
      throw std::invalid_argument("group_by_batched: bad slot count");
    }
    size_t n_total = 0, bound_total = 0;
    for (const rel::GroupSlot& sl : slots) {
      if (sl.n >= kMaxRows || sl.bound >= kMaxRows) {
        throw std::invalid_argument(
            "group_by_batched: per-slot sizes and bound must be < 2^32");
      }
      n_total += sl.n;
      bound_total += sl.bound;
    }
    if (keys.size() != n_total || values.size() != n_total) {
      throw std::invalid_argument(
          "group_by_batched: rows must match the slot shapes");
    }
    for (uint64_t k : keys) {
      if (k > rel::kMaxBatchKey) {
        throw std::invalid_argument(
            "group_by_batched: keys must be <= rel::kMaxBatchKey");
      }
    }
    const auto sorter = resolve(opts);
    obs::Span span("rt.group_by_batched", "slots", S, "bound", bound_total);
    frame.assign(bound_total, obl::Elem::filler());
    std::vector<uint64_t> groups;
    with_env([&] {
      vec<obl::Elem> inv(n_total);
      vec<obl::Elem> outv(bound_total == 0 ? 1 : bound_total);
      const slice<obl::Elem> out = outv.s().sub(0, bound_total);
      obl::kernel::generate_range(inv.s(), 0, n_total,
                                  obl::kernel::Tick::PerElem,
                                  [&](obl::Elem& e, size_t i) {
                                    e.key = keys[i];
                                    e.payload = values[i];
                                  });
      groups = rel::detail::group_by_engine_batched(inv.s(), agg, slots,
                                                    out, *sorter);
      std::copy_n(out.data(), bound_total, frame.data());
    });
    return groups;
  }

  // ---- Section 5 applications -----------------------------------------

  /// Oblivious list ranking: distance (weighted) to the list tail.
  std::vector<uint64_t> list_rank(const std::vector<uint64_t>& succ,
                                  const SortOptions& opts = {}) {
    const auto sorter = resolve(opts);
    const uint64_t s = fresh_seed();
    obs::Span span("rt.list_rank", "n", succ.size());
    std::vector<uint64_t> out;
    with_env([&] { out = apps::detail::list_rank(succ, s, *sorter); });
    return out;
  }
  std::vector<uint64_t> list_rank(const std::vector<uint64_t>& succ,
                                  const std::vector<uint64_t>& weight,
                                  const SortOptions& opts = {}) {
    const auto sorter = resolve(opts);
    const uint64_t s = fresh_seed();
    obs::Span span("rt.list_rank", "n", succ.size());
    std::vector<uint64_t> out;
    with_env(
        [&] { out = apps::detail::list_rank(succ, weight, s, *sorter); });
    return out;
  }

  /// Oblivious Euler tour of an unrooted tree, rooted at `root`.
  std::vector<uint64_t> euler_tour(const std::vector<apps::Edge>& edges,
                                   uint32_t root,
                                   const SortOptions& opts = {}) {
    const auto sorter = resolve(opts);
    const uint64_t s = fresh_seed();
    obs::Span span("rt.euler_tour", "edges", edges.size());
    std::vector<uint64_t> out;
    with_env(
        [&] { out = apps::detail::euler_tour(edges, root, s, *sorter); });
    return out;
  }

  /// Parent / depth / preorder / subtree size for every vertex.
  apps::TreeFunctions tree_functions(const std::vector<apps::Edge>& edges,
                                     uint32_t root,
                                     const SortOptions& opts = {}) {
    const auto sorter = resolve(opts);
    const uint64_t s = fresh_seed();
    obs::Span span("rt.tree_functions", "edges", edges.size());
    apps::TreeFunctions out;
    with_env(
        [&] { out = apps::detail::tree_functions(edges, root, s, *sorter); });
    return out;
  }

  /// Oblivious connected components (label = min vertex id).
  std::vector<uint64_t> connected_components(
      size_t n, const std::vector<apps::GEdge>& edges,
      const SortOptions& opts = {}) {
    const auto sorter = resolve(opts);
    obs::Span span("rt.connected_components", "n", n, "edges", edges.size());
    std::vector<uint64_t> out;
    with_env(
        [&] { out = apps::detail::connected_components(n, edges, *sorter); });
    return out;
  }

  /// Oblivious minimum spanning forest (0/1 flag per input edge).
  std::vector<uint8_t> msf(size_t n, const std::vector<apps::GEdge>& edges,
                           const SortOptions& opts = {}) {
    const auto sorter = resolve(opts);
    obs::Span span("rt.msf", "n", n, "edges", edges.size());
    std::vector<uint8_t> out;
    with_env([&] { out = apps::detail::msf(n, edges, *sorter); });
    return out;
  }

  /// Oblivious expression-tree evaluation by rake contraction.
  uint64_t tree_eval(const apps::ExprTree& t, const SortOptions& opts = {}) {
    const auto sorter = resolve(opts);
    obs::Span span("rt.tree_eval", "nodes", t.size());
    uint64_t out = 0;
    with_env([&] { out = apps::detail::tree_eval(t, *sorter); });
    return out;
  }

  // ---- async submission ------------------------------------------------

  /// Enqueue `fn` on this Runtime's scheduler and return a Future for its
  /// result. A job body drives parallelism by calling Runtime methods
  /// (each leases the pool per call); direct fj:: primitives in the body
  /// execute serially, exactly as on any other non-worker thread. Up to
  /// submit_workers() jobs execute concurrently (Builder::max_job_workers,
  /// default kMaxSubmitWorkers = 4); whether their primitive
  /// calls serialize (Exclusive) or overlap on worker slices
  /// (Sliced/Stealing) is the Builder's .scheduler() policy. Exceptions
  /// thrown by `fn` surface at Future::get(). Jobs still queued when the
  /// Runtime is destroyed are executed (drained) first.
  ///
  /// Seeds: each job draws from its own seed stream, derived from the
  /// master seed and the job's submission index — so a pipeline's outputs
  /// are a function of (builder config, submission order, its own call
  /// sequence) and replay deterministically no matter how jobs interleave
  /// or which policy runs them.
  ///
  /// Blocking rule: do not block inside a job on the Future of a job that
  /// has not started — the worker set is capped at kMaxSubmitWorkers, so
  /// such a wait can deadlock. Future::get()/wait() detect this case and
  /// throw std::logic_error instead of hanging.
  template <class F>
  auto submit(F fn) -> Future<std::invoke_result_t<F&>> {
    using R = std::invoke_result_t<F&>;
    const uint64_t ticket =
        jobs_submitted_.fetch_add(1, std::memory_order_relaxed) + 1;
    obs::instant("rt.submit", "ticket", ticket);
    const uint64_t stream =
        util::hash_rand(seed_, kJobStreamTag ^ ticket);
    auto state = std::make_shared<sched::JobState>();
    auto task = std::make_shared<std::packaged_task<R()>>(
        [this, fn = std::move(fn), stream]() mutable -> R {
          // Give the job its own seed stream for the duration of the
          // body: every fresh_seed() drawn by a Runtime method the job
          // calls comes from (stream, per-job counter), not the shared
          // synchronous counter.
          JobSeedCtx ctx{this, stream, 0, tls_job_ctx()};
          struct CtxGuard {
            JobSeedCtx* prev;
            ~CtxGuard() { tls_job_ctx() = prev; }
          } guard{ctx.prev};
          tls_job_ctx() = &ctx;
          // Make the Runtime's pool this thread's current pool for the
          // job's duration. Note this alone does not parallelize direct
          // fj:: calls (the job thread is not a pool worker); Runtime
          // methods called by the body lease and run the pool themselves.
          if (fj::Pool* p = sched_->pool()) {
            fj::ScopedPool pguard(*p);
            return fn();
          }
          return fn();
        });
    Future<R> fut(task->get_future(), state);
    sched_->enqueue([task] { (*task)(); }, std::move(state));
    return fut;
  }

  /// Default cap on concurrently executing submitted jobs (the built cap
  /// is Builder::max_job_workers; see submit_workers()).
  static constexpr size_t kMaxSubmitWorkers = sched::Scheduler::kMaxJobWorkers;

  /// The configured cap on concurrently executing submitted jobs.
  size_t submit_workers() const {
    return sched_ ? sched_->max_job_workers() : kMaxSubmitWorkers;
  }

  // ---- tracked-buffer helpers -----------------------------------------

  /// Construct a tracked buffer registered with this Runtime's measurement
  /// session (if any), so its accesses appear in the cache sim / trace.
  template <class T>
  vec<T> make_vec(std::vector<T> v) {
    std::lock_guard<std::mutex> lk(exec_m_);
    if (session_) {
      sim::ScopedSession guard(*session_);
      return vec<T>(std::move(v));
    }
    return vec<T>(std::move(v));
  }
  template <class T>
  vec<T> make_vec(size_t n) {
    std::lock_guard<std::mutex> lk(exec_m_);
    if (session_) {
      sim::ScopedSession guard(*session_);
      return vec<T>(n);
    }
    return vec<T>(n);
  }

  // ---- introspection ---------------------------------------------------

  /// Work/span totals accumulated across all instrumented calls (zero for
  /// an uninstrumented Runtime).
  sim::Cost cost() const {
    std::lock_guard<std::mutex> lk(exec_m_);
    return session_ ? session_->cost() : sim::Cost{};
  }
  /// Ideal-cache misses (builder .cache() required).
  uint64_t cache_misses() const {
    std::lock_guard<std::mutex> lk(exec_m_);
    return session_ && session_->cache() ? session_->cache()->misses() : 0;
  }
  /// Digest of the recorded address trace (builder .trace() required).
  uint64_t trace_digest() const {
    std::lock_guard<std::mutex> lk(exec_m_);
    return session_ && session_->log() ? session_->log()->digest() : 0;
  }
  bool instrumented() const { return session_ != nullptr; }
  /// Total native parallelism (1 = serial; instrumented Runtimes are
  /// always serial).
  unsigned threads() const { return sched_ ? sched_->parallelism() : 1; }
  /// The scheduler policy concurrent pipelines execute under.
  sched::SchedPolicy scheduler_policy() const {
    return sched_ ? sched_->policy() : sched::SchedPolicy::Exclusive;
  }
  /// Retarget the scheduler policy at runtime — the serving layer's
  /// adaptive governor switches Exclusive <-> Sliced <-> Stealing from
  /// observed load. Safe under live primitives (see
  /// sched::Scheduler::set_policy); results and replay digests never
  /// depend on the policy. No-op effect on instrumented Runtimes, whose
  /// execution is serial by construction.
  void set_scheduler_policy(sched::SchedPolicy p) {
    if (sched_) sched_->set_policy(p);
  }
  /// Whether this Runtime holds the obs tracing gate open (builder
  /// .tracing() or the DOPAR_TRACE environment variable).
  bool tracing() const { return obs_enable_.tracing(); }

  /// Export every span recorded while tracing was enabled — by this or
  /// any Runtime/Service in the process, across all threads — as Chrome
  /// trace-event JSON; load the file in chrome://tracing or Perfetto.
  /// Best called after the traced work has quiesced (see
  /// obs::write_chrome_trace). Returns false if the file cannot be
  /// written.
  bool dump_trace(const std::string& path) const {
    return obs::write_chrome_trace(path);
  }

  uint64_t master_seed() const { return seed_; }
  core::SortParams params() const { return params_; }
  core::Variant variant() const { return variant_; }
  /// The Runtime's configured sorter backend.
  const SorterBackend& backend() const { return *backend_; }
  /// Seeds drawn so far (one or more per randomized method call).
  uint64_t seeds_drawn() const {
    return seq_.load(std::memory_order_relaxed);
  }

 private:
  friend class Builder;

  /// The rel key contract, checked in every build type before any seed.
  template <class Rec, class KeyFn>
  static void check_rel_keys(std::span<const Rec> recs, KeyFn& key_of) {
    for (const Rec& r : recs) {
      if (static_cast<uint64_t>(key_of(r)) < rel::kKeyLimit) continue;
      throw std::invalid_argument("rel: join/group keys must be < 2^62");
    }
  }

  /// Shared equi/band join wrapper: Elem tables in, engine inside one
  /// with_env, fixed-pattern readout, client-side strip.
  template <class RecL, class RecR, class KeyL, class KeyR>
  rel::JoinResult<RecL, RecR> join_impl(std::span<const RecL> left,
                                        KeyL& key_l,
                                        std::span<const RecR> right,
                                        KeyR& key_r, bool banded,
                                        uint64_t band,
                                        const rel::JoinOptions& opts) {
    static_assert(
        std::is_convertible_v<std::invoke_result_t<KeyL&, const RecL&>,
                              uint64_t>,
        "join: key_l(rec) must yield an unsigned 64-bit join key");
    static_assert(
        std::is_convertible_v<std::invoke_result_t<KeyR&, const RecR&>,
                              uint64_t>,
        "join: key_r(rec) must yield an unsigned 64-bit join key");
    constexpr uint64_t kMaxRows = uint64_t{1} << 32;  // send-receive cap
    const size_t nl = left.size();
    const size_t nr = right.size();
    if (nl >= kMaxRows || nr >= kMaxRows) {
      throw std::invalid_argument("join: table sizes must be < 2^32");
    }
    check_rel_keys(left, key_l);
    check_rel_keys(right, key_r);
    const auto sorter = resolve(opts.sort);
    const size_t bound =
        opts.output_bound == 0 ? nl * nr : opts.output_bound;
    if (bound >= kMaxRows) {
      throw std::invalid_argument(
          "join: output bound must be < 2^32 (pass JoinOptions::"
          "output_bound below the default |L|*|R|)");
    }
    uint64_t matched = 0;
    obs::Span span(banded ? "rt.band_join" : "rt.equi_join", "rows",
                   nl + nr, "bound", bound);
    std::vector<obl::Elem> frame(bound);
    with_env([&] {
      vec<obl::Elem> lv(nl), rv(nr), outv(bound);
      obl::kernel::generate_range(
          lv.s(), 0, nl, obl::kernel::Tick::PerElem,
          [&](obl::Elem& e, size_t i) {
            e.key = static_cast<uint64_t>(key_l(left[i]));
            e.payload = i;
          });
      obl::kernel::generate_range(
          rv.s(), 0, nr, obl::kernel::Tick::PerElem,
          [&](obl::Elem& e, size_t i) {
            e.key = static_cast<uint64_t>(key_r(right[i]));
            e.payload = i;
          });
      matched = rel::detail::join_engine(lv.s(), rv.s(), banded, band,
                                         outv.s(), *sorter);
      std::copy_n(outv.s().data(), bound, frame.data());
    });
    rel::JoinResult<RecL, RecR> res;
    res.matched = matched;
    res.rows.reserve(std::min<uint64_t>(matched, bound));
    for (const obl::Elem& e : frame) {
      if (e.flags & obl::Elem::kFiller) continue;
      res.rows.emplace_back(left[e.payload], right[e.aux]);
    }
    return res;
  }

  explicit Runtime(const Builder& b)
      : seed_(b.seed_), params_(b.params_), variant_(b.variant_),
        obs_enable_(b.obs_metrics_,
                    b.obs_tracing_ || obs::env_trace_requested()) {
    // Resolve the named backend first: an unknown name must throw before
    // any thread/session resource exists. The backend's internal seed is
    // derived from the master seed, so seed-determinism covers it.
    backend_ = make_backend(
        b.backend_name_,
        BackendConfig{util::hash_rand(b.seed_, 0xbac0'5eedULL), b.variant_,
                      b.params_});
    if (b.analytic_) {
      // The &&-qualified Session builders mutate *this and return it by
      // rvalue reference, so the discarded results still configure `s`
      // (assigning them back would be a self-move).
      sim::Session s = sim::Session::analytic();
      if (b.cache_m_ != 0) (void)std::move(s).with_cache(b.cache_m_, b.cache_b_);
      if (b.trace_) (void)std::move(s).with_trace();
      session_ = std::make_unique<sim::Session>(std::move(s));
    }
    // The scheduler exists even for serial / instrumented Runtimes (its
    // arena is simply empty): it is the submit() job queue either way.
    sched_ = std::make_unique<sched::Scheduler>(
        session_ ? 1 : b.threads_, b.policy_, b.job_workers_);
  }

  /// Per-job seed stream: installed thread-locally for the duration of a
  /// submitted job body, so every fresh_seed() the job draws comes from
  /// its own counter instead of the shared synchronous one. `owner` keys
  /// the stream to this Runtime — a job that calls into a *different*
  /// Runtime must draw from that runtime's shared stream, not this job's.
  struct JobSeedCtx {
    const Runtime* owner;
    uint64_t stream;
    uint64_t seq;
    JobSeedCtx* prev;
  };
  static JobSeedCtx*& tls_job_ctx() {
    thread_local JobSeedCtx* ctx = nullptr;
    return ctx;
  }
  /// Domain-separation tag for job streams: keeps hash_rand(seed_, tag ^
  /// ticket) disjoint from the synchronous stream's hash_rand(seed_, k)
  /// for any realistic call count k.
  static constexpr uint64_t kJobStreamTag = 0x6a0b'57ea'ad5eedULL;

  /// Next derived seed: hash of (master seed, call counter) — or, inside
  /// a submitted job, hash of (job stream, job-local counter), which is
  /// what makes per-pipeline randomness independent of how concurrent
  /// pipelines interleave. Counter-based so identical Runtimes making
  /// identical call sequences replay identical randomness.
  uint64_t fresh_seed() {
    if (JobSeedCtx* c = tls_job_ctx(); c && c->owner == this) {
      return util::hash_rand(c->stream, ++c->seq);
    }
    return util::hash_rand(seed_,
                           seq_.fetch_add(1, std::memory_order_relaxed) + 1);
  }

  /// The backend a call uses: the per-call override if SortOptions names
  /// one (instantiated with a fresh derived seed, so "osort" overrides
  /// stay seed-deterministic), else the Runtime's configured backend.
  /// Throws UnknownBackend on an unregistered name — BEFORE drawing any
  /// seed, so a rejected call never advances the seed stream and the
  /// call-for-call replay contract holds across error paths. (Methods
  /// that draw their own seed call resolve() first for the same reason.)
  std::shared_ptr<const SorterBackend> resolve(const SortOptions& opts) {
    if (opts.backend.empty()) return backend_;
    BackendFactory factory = find_backend_factory(opts.backend);
    return factory(BackendConfig{fresh_seed(),
                                 opts.variant.value_or(variant_),
                                 opts.params.value_or(params_)});
  }

  /// Run `f` inside this Runtime's execution environment: measurement
  /// session installed (serial analytic executor, serialized on the
  /// session mutex), else handed to the scheduler, which applies the
  /// configured policy — Exclusive serializes on its execution mutex and
  /// runs the full arena; Sliced/Stealing lease a worker slice per call
  /// so concurrent pipelines overlap.
  template <class F>
  void with_env(F&& f) {
    if (session_) {
      std::lock_guard<std::mutex> lk(exec_m_);
      sim::ScopedSession guard(*session_);
      f();
      return;
    }
    sched_->run_primitive(f);
  }

  uint64_t seed_;
  std::atomic<uint64_t> seq_{0};
  std::atomic<uint64_t> jobs_submitted_{0};
  core::SortParams params_;
  core::Variant variant_;
  /// Holds the obs gates (Builder::metrics()/tracing(), DOPAR_TRACE) open
  /// for this Runtime's lifetime.
  obs::ScopedEnable obs_enable_;
  std::shared_ptr<const SorterBackend> backend_;
  /// Guards the measurement session (instrumented Runtimes execute
  /// serially under it); native execution no longer takes a runtime-wide
  /// lock here — serialization, if any, is the scheduler's policy.
  mutable std::mutex exec_m_;
  std::unique_ptr<sim::Session> session_;
  /// Declared last on purpose: ~Scheduler drains still-queued jobs, and a
  /// drained job body may call any Runtime method — so every member it
  /// can touch (exec_m_, session_, backend_, the seed state) must still
  /// be alive, i.e. destroyed after sched_.
  std::unique_ptr<sched::Scheduler> sched_;
};

}  // namespace dopar
