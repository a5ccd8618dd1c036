#pragma once
// Work-stealing thread pool for binary fork-join computations.
//
// This is the multicore substrate of the paper (Section A.2): parallelism is
// expressed only through paired binary fork/join; scheduling is randomized
// work stealing in the style of Blumofe–Leiserson. Each worker owns a deque;
// forks push the second branch to the bottom, the first branch runs inline,
// and a join either pops the un-stolen branch back (the common fast path) or
// helps execute other tasks until the stolen branch completes.
//
// The pool is a sliceable *arena*: its queues carry a slice tag, and the
// scheduler subsystem (sched/scheduler.hpp) leases disjoint subsets of the
// workers to concurrent pipelines as PoolViews. Stealing is slice-local
// first; a pool built with share_idle = true additionally lets a worker
// whose slice has run dry steal from any other slice (work sharing), so
// idle capacity flows to busy pipelines. A pool used without the scheduler
// keeps every queue in the shared default slice and behaves exactly like
// the classic single-arena pool.
//
// The deques are mutex-protected rather than lock-free Chase-Lev: this keeps
// the scheduler obviously correct, and the library's measured quantities
// (work/span/cache) come from the analytic executor, not wall-clock timing.
//
// Hot-path layout: each queue owns its cache lines (kCacheLine), so a fork
// writes no line another queue uses; a steal search writes only the
// searcher's own queue (its RNG); and a queue's size hint is advisory — a
// hint of 0 skips the queue without taking its mutex.

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <exception>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

#include "obs/obs.hpp"

namespace dopar::fj {

/// A forked-but-not-yet-joined task. Lives on the forker's stack: fork2
/// blocks until both branches complete, so the storage outlives all uses.
/// An exception thrown by the branch (e.g. the oblivious primitives'
/// negligible-probability BinOverflow, which callers catch and retry) is
/// captured here and rethrown at the join in the forker — it must not
/// unwind a worker's loop, which would std::terminate the process.
struct Task {
  void (*exec)(Task*) = nullptr;
  std::atomic<uint32_t>* pending = nullptr;
  std::exception_ptr error;

  void run() {
    try {
      exec(this);
    } catch (...) {
      error = std::current_exception();
    }
    pending->fetch_sub(1, std::memory_order_acq_rel);
  }
};

class Pool {
 public:
  /// The slice every queue starts in; plain run() participates here, and
  /// workers return here when the scheduler releases their lease.
  static constexpr uint32_t kSharedSlice = 0;

  /// Spawns `helpers` background worker threads plus `external_slots`
  /// participation queues for non-worker threads (each concurrent run() /
  /// PoolView::run() claims one for the call's duration). share_idle
  /// selects the cross-slice stealing rule: true lets a worker whose own
  /// slice has no work steal from any slice (the scheduler's "stealing"
  /// policy), false keeps slices hard-partitioned ("sliced").
  explicit Pool(unsigned helpers, unsigned external_slots = 1,
                bool share_idle = true);
  ~Pool();

  Pool(const Pool&) = delete;
  Pool& operator=(const Pool&) = delete;

  /// Total participants of a whole-arena run: worker threads + the one
  /// external caller (the historical meaning; Runtime::threads()).
  unsigned workers() const { return n_workers_ + 1; }
  /// Background worker threads only.
  unsigned worker_threads() const { return n_workers_; }
  unsigned external_slots() const { return n_external_; }

  /// Execute `root` with the calling thread participating through a free
  /// external slot of the shared slice (the whole free arena cooperates).
  /// All forks performed inside have joined by the time this returns,
  /// whether it returns normally or by exception (retryable overflow
  /// events from the oblivious primitives unwind through here). If every
  /// external slot is taken, `root` runs serially on the caller — a
  /// degraded but correct fallback.
  template <class Root>
  void run(Root&& root) {
    obs::Span span("pool.run");
    SlotGuard slot(*this, kSharedSlice);
    root();
  }

  /// Binary fork: runs `a` inline while exposing `b` for stealing, then
  /// joins. Must be called on a participating thread (a worker, or a
  /// caller inside run()); calls from foreign threads execute serially.
  template <class A, class B>
  void fork2(A&& a, B&& b) {
    if (tls_queue_id() < 0) {
      a();
      b();
      return;
    }
    using Bfn = std::remove_reference_t<B>;
    struct BranchTask : Task {
      Bfn* fn;
    };
    std::atomic<uint32_t> pending{1};
    BranchTask t;
    t.fn = &b;
    t.pending = &pending;
    t.exec = [](Task* base) { (*static_cast<BranchTask*>(base)->fn)(); };
    push_local(&t);
    try {
      a();
    } catch (...) {
      // `t` lives on this stack frame: before unwinding, either reclaim it
      // from the deque or wait for the thief to finish with it. A stolen
      // branch's own error is superseded by the first branch's.
      if (!pop_local_if(&t)) help_until(pending);
      throw;
    }
    if (pop_local_if(&t)) {
      b();  // nobody stole it; run the branch inline (throws propagate)
      return;
    }
    help_until(pending);
    if (t.error) std::rethrow_exception(t.error);
  }

  /// The pool installed on the *current thread* (see ScopedPool); null when
  /// absent. Worker threads are permanently bound to their owning pool;
  /// client threads install a pool with ScopedPool (or via dopar::Runtime,
  /// which owns one pool per runtime). Thread-locality is what lets two
  /// runtimes with independent pools coexist in one process.
  static Pool*& current();

  static bool on_worker_thread() { return tls_queue_id() >= 0; }

  // ---- slice mechanism (policy lives in sched::Scheduler) ---------------

  /// Claim a free external participation queue, tagged with `slice`.
  /// Returns the queue index, or -1 when every slot is taken (callers
  /// fall back to serial participation).
  int try_acquire_external_slot(uint32_t slice);
  /// Return a slot claimed by try_acquire_external_slot. The claiming
  /// run() must have completed: the queue is empty by fork2's structure.
  void release_external_slot(int queue_idx);
  /// Re-tag worker `w` (in [0, worker_threads())) into `slice`. Takes
  /// effect at the worker's next task lookup; a task it is already
  /// executing finishes normally, so re-tagging is safe at any time.
  void assign_worker_slice(unsigned w, uint32_t slice);
  bool share_idle() const {
    return share_idle_.load(std::memory_order_relaxed);
  }
  /// Switch the cross-slice stealing rule at runtime (the scheduler's
  /// dynamic Sliced <-> Stealing transition). Takes effect at each
  /// worker's next steal attempt; tasks already executing are unaffected,
  /// so flipping under load is safe — a worker mid-steal may use the old
  /// rule once, which costs at most one suboptimal victim choice.
  void set_share_idle(bool share);

 private:
  friend class PoolView;

  static constexpr size_t kCacheLine = 128;  // 2 x 64 B: prefetch pairs
  struct alignas(kCacheLine) WorkerQueue {
    std::atomic<uint32_t> slice{kSharedSlice};
    std::atomic<uint32_t> size{0};  // q.size(), written under m; a hint
    std::mutex m;
    std::deque<Task*> q;
    uint64_t rng = 0;  // victim-choice state; only the owner steals
    void publish_size() {  // with m held, after every change to q
      size.store(static_cast<uint32_t>(q.size()), std::memory_order_relaxed);
    }
  };
  static_assert(alignof(WorkerQueue) == kCacheLine &&
                sizeof(WorkerQueue) % kCacheLine == 0);

  /// Index into queues_ of the queue this thread pushes to; -1 when the
  /// thread is not participating. Queue layout: [0, n_external_) are
  /// external participation slots, [n_external_, n_external_+n_workers_)
  /// belong to the worker threads.
  static int& tls_queue_id();

  /// RAII external-slot claim used by run()/PoolView::run(): claims a
  /// specific (or any free) slot and installs it as this thread's queue.
  struct SlotGuard {
    Pool& pool;
    int prev;
    int slot;
    SlotGuard(Pool& p, uint32_t slice)
        : pool(p), prev(tls_queue_id()),
          slot(p.try_acquire_external_slot(slice)) {
      if (slot >= 0) tls_queue_id() = slot;
    }
    SlotGuard(Pool& p, int claimed_slot, bool)
        : pool(p), prev(tls_queue_id()), slot(-1) {
      // Slot already leased by the caller (PoolView): install, don't own.
      if (claimed_slot >= 0) tls_queue_id() = claimed_slot;
    }
    ~SlotGuard() {
      tls_queue_id() = prev;
      if (slot >= 0) pool.release_external_slot(slot);
    }
    SlotGuard(const SlotGuard&) = delete;
    SlotGuard& operator=(const SlotGuard&) = delete;
  };

  void push_local(Task* t);
  bool pop_local_if(Task* t);
  Task* try_pop_local();
  Task* try_steal(unsigned self);
  Task* find_task(unsigned self);
  void help_until(std::atomic<uint32_t>& pending);
  void worker_loop(unsigned id);

  unsigned n_workers_ = 0;
  unsigned n_external_ = 1;
  std::atomic<bool> share_idle_{true};
  std::vector<std::unique_ptr<WorkerQueue>> queues_;
  std::vector<std::thread> threads_;
  std::atomic<bool> shutdown_{false};
  /// Sticky: set the first time any queue is tagged with a non-shared
  /// slice; never-sliced pools keep the cheap notify_one wake on push.
  std::atomic<bool> ever_sliced_{false};
  std::mutex slots_m_;
  std::vector<int> free_slots_;
  std::mutex sleep_m_;
  std::condition_variable sleep_cv_;
};

/// A leased view of a Pool: one external participation slot plus whatever
/// workers the scheduler currently assigns to this view's slice. Fork-join
/// roots submitted through run() execute against the slice — its workers
/// steal the forks; under share_idle pools, idle workers of other slices
/// pitch in too. Views are created and sized by sched::Scheduler; a
/// default-constructed view runs its root serially (the no-pool fallback).
class PoolView {
 public:
  PoolView() = default;
  PoolView(Pool* pool, int ext_slot, uint32_t slice)
      : pool_(pool), ext_slot_(ext_slot), slice_(slice) {}

  /// Execute `root` with the calling thread participating through the
  /// view's external slot. Exactly Pool::run(), scoped to the slice.
  template <class Root>
  void run(Root&& root) {
    obs::Span span("pool.run", "slice", slice_);
    if (!pool_ || ext_slot_ < 0) {
      root();
      return;
    }
    Pool::SlotGuard slot(*pool_, ext_slot_, true);
    root();
  }

  Pool* pool() const { return pool_; }
  uint32_t slice() const { return slice_; }
  bool participating() const { return pool_ && ext_slot_ >= 0; }

 private:
  Pool* pool_ = nullptr;
  int ext_slot_ = -1;
  uint32_t slice_ = Pool::kSharedSlice;
};

/// RAII installer: makes `p` the current pool of this thread so that
/// fj::invoke (api.hpp) dispatches to it. The Runtime façade wraps every
/// method call in one of these; install manually only in harness code.
class ScopedPool {
 public:
  explicit ScopedPool(Pool& p) : prev_(Pool::current()) {
    Pool::current() = &p;
  }
  ~ScopedPool() { Pool::current() = prev_; }
  ScopedPool(const ScopedPool&) = delete;
  ScopedPool& operator=(const ScopedPool&) = delete;

 private:
  Pool* prev_;
};

/// RAII helper: constructs a pool and installs it as this thread's current
/// pool so that fj::invoke (api.hpp) dispatches to it.
class WithPool {
 public:
  explicit WithPool(unsigned helpers) : pool_(helpers) {}

  template <class Root>
  void run(Root&& root) {
    pool_.run(std::forward<Root>(root));
  }
  Pool& pool() { return pool_; }

 private:
  Pool pool_;
  ScopedPool scoped_{pool_};
};

}  // namespace dopar::fj
