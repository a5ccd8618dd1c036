#include "svc/service.hpp"

#include <algorithm>
#include <cassert>
#include <span>

namespace dopar::svc {

namespace {
/// Log2 bucket of a batch size: bucket b counts sizes in [2^b, 2^(b+1)),
/// bucket 16 absorbs the rest.
size_t hist_bucket(size_t m) {
  size_t b = 0;
  while (b < 16 && (size_t{1} << (b + 1)) <= m) ++b;
  return b;
}

constexpr size_t kMaxRelRows = size_t{1} << 32;  // send-receive cap

void check_rel_keys(const std::vector<uint64_t>& keys) {
  for (uint64_t k : keys) {
    if (k >= rel::kKeyLimit) {
      throw std::invalid_argument(
          "svc::Service: join/group keys must be < 2^62");
    }
  }
}

bool keys_coalescible(const std::vector<uint64_t>& keys) {
  return std::all_of(keys.begin(), keys.end(),
                     [](uint64_t k) { return coalescible_key(k); });
}

// Serving-layer obs series. Function-local statics: the registry entries
// only exist once metrics have actually been on at a hook site.

/// End-to-end request latency (admission to Future-ready) per kind.
obs::Histogram& lat_hist(size_t kind) {
  static const std::array<obs::Histogram*, Service::kNumKinds> h = {
      &obs::Registry::global().histogram("dopar_svc_latency_ns_sort"),
      &obs::Registry::global().histogram("dopar_svc_latency_ns_join"),
      &obs::Registry::global().histogram("dopar_svc_latency_ns_groupby")};
  return *h[kind];
}

/// How long carved requests sat in the coalescing window (admission to
/// carve — the latency cost of waiting for batch-mates).
obs::Histogram& window_wait_ns_hist() {
  static obs::Histogram& h =
      obs::Registry::global().histogram("dopar_svc_window_wait_ns");
  return h;
}

/// Requests per dispatched batch (1 = solo; higher = coalescing working).
obs::Histogram& batch_occupancy_hist() {
  static obs::Histogram& h =
      obs::Registry::global().histogram("dopar_svc_batch_occupancy");
  return h;
}

obs::Counter& policy_switches_total() {
  static obs::Counter& c =
      obs::Registry::global().counter("dopar_svc_policy_switches_total");
  return c;
}
}  // namespace

Service::Service(Runtime& rt, Options opts)
    : rt_(rt),
      opts_(std::move(opts)),
      governor_(opts_.governor, rt.scheduler_policy()),
      obs_enable_(opts_.metrics, /*tracing=*/false) {
  // Baseline the latency histograms so stats() reports only THIS
  // Service's observations (the registry outlives any one Service).
  if (obs::metrics_on()) {
    for (size_t k = 0; k < kNumKinds; ++k) {
      lat_base_[k] = lat_hist(k).snapshot();
    }
  }
  if (opts_.max_batch_requests == 0) opts_.max_batch_requests = 1;
  if (opts_.max_batch_requests > kMaxBatchSlots) {
    opts_.max_batch_requests = kMaxBatchSlots;  // slot-tag capacity
  }
  if (opts_.max_batch_elems == 0) opts_.max_batch_elems = 1;
  if (opts_.max_inflight_batches == 0) opts_.max_inflight_batches = 1;
  if (opts_.queue_limit == 0) opts_.queue_limit = 1;
  // Validate the batch backend now: a typo'd name must throw in the
  // constructor, not inside the dispatcher where nobody can catch it.
  if (!opts_.batch_backend.empty()) {
    (void)find_backend_factory(opts_.batch_backend);
  }
  dispatcher_ = std::thread([this] { dispatcher_loop(); });
}

Service::~Service() {
  {
    std::lock_guard<std::mutex> lk(m_);
    stop_ = true;
  }
  cv_work_.notify_all();
  cv_space_.notify_all();
  // The dispatcher drains the queue and waits out in-flight batches
  // before returning, so join implies every Future is completed.
  dispatcher_.join();
}

Future<std::vector<uint64_t>> Service::sort(uint64_t tenant,
                                            std::vector<uint64_t> keys) {
  auto prom = std::make_shared<std::promise<std::vector<uint64_t>>>();
  Future<std::vector<uint64_t>> fut(prom->get_future(), nullptr);
  const Admit a = enqueue(
      tenant, std::move(keys),
      [prom](std::vector<uint64_t>&& k, std::vector<uint32_t>&&,
             std::exception_ptr err) {
        if (err) {
          prom->set_exception(err);
        } else {
          prom->set_value(std::move(k));
        }
      },
      /*block=*/true);
  throw_on(a);
  return fut;
}

std::optional<Future<std::vector<uint64_t>>> Service::try_sort(
    uint64_t tenant, std::vector<uint64_t> keys) {
  auto prom = std::make_shared<std::promise<std::vector<uint64_t>>>();
  Future<std::vector<uint64_t>> fut(prom->get_future(), nullptr);
  const Admit a = enqueue(
      tenant, std::move(keys),
      [prom](std::vector<uint64_t>&& k, std::vector<uint32_t>&&,
             std::exception_ptr err) {
        if (err) {
          prom->set_exception(err);
        } else {
          prom->set_value(std::move(k));
        }
      },
      /*block=*/false);
  if (a != Admit::kOk) return std::nullopt;
  return fut;
}

Future<rel::JoinResult<uint64_t, uint64_t>> Service::equi_join(
    uint64_t tenant, std::vector<uint64_t> left_keys,
    std::vector<uint64_t> right_keys, size_t output_bound) {
  auto prom = std::make_shared<
      std::promise<rel::JoinResult<uint64_t, uint64_t>>>();
  Future<rel::JoinResult<uint64_t, uint64_t>> fut(prom->get_future(),
                                                  nullptr);
  const Admit a = enqueue_join(
      tenant, std::move(left_keys), std::move(right_keys),
      /*banded=*/false, 0, output_bound,
      [prom](rel::JoinResult<uint64_t, uint64_t>&& res,
             std::exception_ptr err) {
        if (err) {
          prom->set_exception(err);
        } else {
          prom->set_value(std::move(res));
        }
      },
      /*block=*/true);
  throw_on(a);
  return fut;
}

std::optional<Future<rel::JoinResult<uint64_t, uint64_t>>>
Service::try_equi_join(uint64_t tenant, std::vector<uint64_t> left_keys,
                       std::vector<uint64_t> right_keys,
                       size_t output_bound) {
  auto prom = std::make_shared<
      std::promise<rel::JoinResult<uint64_t, uint64_t>>>();
  Future<rel::JoinResult<uint64_t, uint64_t>> fut(prom->get_future(),
                                                  nullptr);
  const Admit a = enqueue_join(
      tenant, std::move(left_keys), std::move(right_keys),
      /*banded=*/false, 0, output_bound,
      [prom](rel::JoinResult<uint64_t, uint64_t>&& res,
             std::exception_ptr err) {
        if (err) {
          prom->set_exception(err);
        } else {
          prom->set_value(std::move(res));
        }
      },
      /*block=*/false);
  if (a != Admit::kOk) return std::nullopt;
  return fut;
}

Future<rel::JoinResult<uint64_t, uint64_t>> Service::band_join(
    uint64_t tenant, std::vector<uint64_t> left_keys,
    std::vector<uint64_t> right_keys, uint64_t band, size_t output_bound) {
  auto prom = std::make_shared<
      std::promise<rel::JoinResult<uint64_t, uint64_t>>>();
  Future<rel::JoinResult<uint64_t, uint64_t>> fut(prom->get_future(),
                                                  nullptr);
  const Admit a = enqueue_join(
      tenant, std::move(left_keys), std::move(right_keys),
      /*banded=*/true, band, output_bound,
      [prom](rel::JoinResult<uint64_t, uint64_t>&& res,
             std::exception_ptr err) {
        if (err) {
          prom->set_exception(err);
        } else {
          prom->set_value(std::move(res));
        }
      },
      /*block=*/true);
  throw_on(a);
  return fut;
}

std::optional<Future<rel::JoinResult<uint64_t, uint64_t>>>
Service::try_band_join(uint64_t tenant, std::vector<uint64_t> left_keys,
                       std::vector<uint64_t> right_keys, uint64_t band,
                       size_t output_bound) {
  auto prom = std::make_shared<
      std::promise<rel::JoinResult<uint64_t, uint64_t>>>();
  Future<rel::JoinResult<uint64_t, uint64_t>> fut(prom->get_future(),
                                                  nullptr);
  const Admit a = enqueue_join(
      tenant, std::move(left_keys), std::move(right_keys),
      /*banded=*/true, band, output_bound,
      [prom](rel::JoinResult<uint64_t, uint64_t>&& res,
             std::exception_ptr err) {
        if (err) {
          prom->set_exception(err);
        } else {
          prom->set_value(std::move(res));
        }
      },
      /*block=*/false);
  if (a != Admit::kOk) return std::nullopt;
  return fut;
}

Future<rel::GroupByResult> Service::group_by_aggregate(
    uint64_t tenant, std::vector<uint64_t> keys,
    std::vector<uint64_t> values, rel::Agg agg, size_t group_bound) {
  auto prom = std::make_shared<std::promise<rel::GroupByResult>>();
  Future<rel::GroupByResult> fut(prom->get_future(), nullptr);
  const Admit a = enqueue_group(
      tenant, std::move(keys), std::move(values), agg, group_bound,
      [prom](rel::GroupByResult&& res, std::exception_ptr err) {
        if (err) {
          prom->set_exception(err);
        } else {
          prom->set_value(std::move(res));
        }
      },
      /*block=*/true);
  throw_on(a);
  return fut;
}

std::optional<Future<rel::GroupByResult>> Service::try_group_by_aggregate(
    uint64_t tenant, std::vector<uint64_t> keys,
    std::vector<uint64_t> values, rel::Agg agg, size_t group_bound) {
  auto prom = std::make_shared<std::promise<rel::GroupByResult>>();
  Future<rel::GroupByResult> fut(prom->get_future(), nullptr);
  const Admit a = enqueue_group(
      tenant, std::move(keys), std::move(values), agg, group_bound,
      [prom](rel::GroupByResult&& res, std::exception_ptr err) {
        if (err) {
          prom->set_exception(err);
        } else {
          prom->set_value(std::move(res));
        }
      },
      /*block=*/false);
  if (a != Admit::kOk) return std::nullopt;
  return fut;
}

void Service::flush() {
  {
    std::lock_guard<std::mutex> lk(m_);
    // Watermark, not a flag: everything ticketed so far becomes ripe, and
    // nothing ever needs to clear it — later requests carry larger
    // tickets, so a flush can never be eaten by a stale reset while the
    // dispatcher is parked (e.g. at the inflight gate).
    flush_upto_ = next_ticket_;
  }
  cv_work_.notify_all();
}

Service::Stats Service::stats() const {
  std::lock_guard<std::mutex> lk(m_);
  Stats out = stats_;
  if (obs::metrics_on()) {
    for (size_t k = 0; k < kNumKinds; ++k) {
      const obs::HistSnapshot s = lat_hist(k).snapshot().since(lat_base_[k]);
      LatencySummary& l = out.kinds[k].latency;
      l.count = s.count;
      l.p50_ns = s.quantile(0.50);
      l.p95_ns = s.quantile(0.95);
      l.p99_ns = s.quantile(0.99);
      l.max_ns = s.max;
    }
  }
  return out;
}

size_t Service::queue_depth() const {
  std::lock_guard<std::mutex> lk(m_);
  return queue_.size();
}

void Service::throw_on(Admit a) {
  if (a == Admit::kTimeout) {
    throw SubmitTimeout(
        "svc::Service: submit timed out waiting for queue space");
  }
  assert(a == Admit::kOk && "blocking submit cannot observe kFull");
}

void Service::fail_req(PendingReq& r, std::exception_ptr err) {
  switch (r.kind) {
    case Kind::Sort: r.finish({}, {}, err); break;
    case Kind::Join: r.finish_join({}, err); break;
    case Kind::GroupBy: r.finish_group({}, err); break;
  }
}

size_t Service::max_batch_requests_for(Kind k) const {
  // The relational batch plans carry the slot id in fewer composite-key
  // bits than the sort coalescer (2^14 vs 2^16 slots).
  const size_t cap =
      k == Kind::Sort ? kMaxBatchSlots : rel::kMaxRelBatchSlots;
  return std::min(opts_.max_batch_requests, cap);
}

Service::Admit Service::enqueue(uint64_t tenant, std::vector<uint64_t> keys,
                                FinishFn finish, bool block) {
  for (uint64_t k : keys) {
    if (k == std::numeric_limits<uint64_t>::max()) {
      throw std::invalid_argument(
          "svc::Service: key 2^64-1 is reserved (the filler sentinel)");
    }
  }
  if (keys.size() > std::numeric_limits<uint32_t>::max()) {
    throw std::invalid_argument("svc::Service: request exceeds 2^32-1 keys");
  }
  if (keys.empty()) {
    // Nothing to sort: complete inline, no queue space consumed.
    {
      std::lock_guard<std::mutex> lk(m_);
      if (stop_) throw std::logic_error("svc::Service: submit after stop");
      ++stats_.accepted;
      ++stats_.kinds[size_t(Kind::Sort)].accepted;
    }
    finish({}, {}, nullptr);
    return Admit::kOk;
  }

  PendingReq req;
  req.kind = Kind::Sort;
  req.tenant = tenant;
  req.stream = request_stream(opts_.seed, request_digest(tenant, keys));
  req.footprint = keys.size();
  req.coalescible =
      req.footprint <= opts_.max_batch_elems && keys_coalescible(keys);
  req.keys = std::move(keys);
  req.finish = std::move(finish);
  return admit(std::move(req), block);
}

Service::Admit Service::enqueue_join(uint64_t tenant,
                                     std::vector<uint64_t> left,
                                     std::vector<uint64_t> right,
                                     bool banded, uint64_t band,
                                     size_t output_bound, JoinFinishFn finish,
                                     bool block) {
  check_rel_keys(left);
  check_rel_keys(right);
  if (left.size() >= kMaxRelRows || right.size() >= kMaxRelRows) {
    throw std::invalid_argument(
        "svc::Service: join table sizes must be < 2^32");
  }
  if (left.empty() || right.empty()) {
    // No pairs can match: complete inline, exactly like the solo engines.
    {
      std::lock_guard<std::mutex> lk(m_);
      if (stop_) throw std::logic_error("svc::Service: submit after stop");
      ++stats_.accepted;
      ++stats_.kinds[size_t(Kind::Join)].accepted;
    }
    finish(rel::JoinResult<uint64_t, uint64_t>{}, nullptr);
    return Admit::kOk;
  }
  const size_t bound =
      output_bound == 0 ? left.size() * right.size() : output_bound;
  if (bound >= kMaxRelRows) {
    throw std::invalid_argument(
        "svc::Service: join output bound must be < 2^32 (pass an "
        "output_bound below the default |L|*|R|)");
  }

  PendingReq req;
  req.kind = Kind::Join;
  req.tenant = tenant;
  req.banded = banded;
  req.band = band;
  req.bound = bound;
  req.footprint = left.size() + right.size() + bound;
  req.coalescible = req.footprint <= opts_.max_batch_elems &&
                    keys_coalescible(left) && keys_coalescible(right);
  req.keys = std::move(left);
  req.keys2 = std::move(right);
  req.finish_join = std::move(finish);
  return admit(std::move(req), block);
}

Service::Admit Service::enqueue_group(uint64_t tenant,
                                      std::vector<uint64_t> keys,
                                      std::vector<uint64_t> values,
                                      rel::Agg agg, size_t group_bound,
                                      GroupFinishFn finish, bool block) {
  check_rel_keys(keys);
  if (keys.size() != values.size()) {
    throw std::invalid_argument(
        "svc::Service: group-by keys and values must be parallel columns");
  }
  if (keys.size() >= kMaxRelRows) {
    throw std::invalid_argument(
        "svc::Service: group-by row count must be < 2^32");
  }
  if (keys.empty()) {
    {
      std::lock_guard<std::mutex> lk(m_);
      if (stop_) throw std::logic_error("svc::Service: submit after stop");
      ++stats_.accepted;
      ++stats_.kinds[size_t(Kind::GroupBy)].accepted;
    }
    finish(rel::GroupByResult{}, nullptr);
    return Admit::kOk;
  }
  const size_t bound = group_bound == 0 ? keys.size() : group_bound;

  PendingReq req;
  req.kind = Kind::GroupBy;
  req.tenant = tenant;
  req.agg = agg;
  req.bound = bound;
  req.footprint = keys.size() + bound;
  req.coalescible =
      req.footprint <= opts_.max_batch_elems && keys_coalescible(keys);
  req.keys = std::move(keys);
  req.keys2 = std::move(values);
  req.finish_group = std::move(finish);
  return admit(std::move(req), block);
}

Service::Admit Service::admit(PendingReq&& req, bool block) {
  std::unique_lock<std::mutex> lk(m_);
  if (stop_) throw std::logic_error("svc::Service: submit after stop");
  const auto has_space = [&] {
    return stop_ || queue_.size() < opts_.queue_limit;
  };
  if (!has_space()) {
    if (!block) {
      ++stats_.rejected;
      return Admit::kFull;
    }
    if (opts_.submit_timeout) {
      if (!cv_space_.wait_for(lk, *opts_.submit_timeout, has_space)) {
        ++stats_.timed_out;
        return Admit::kTimeout;
      }
    } else {
      cv_space_.wait(lk, has_space);
    }
    if (stop_) throw std::logic_error("svc::Service: submit after stop");
  }
  req.ticket = ++next_ticket_;
  req.enqueued = std::chrono::steady_clock::now();
  if (req.coalescible) {
    coal_elems_[size_t(req.kind)] += req.footprint;
    ++coal_count_[size_t(req.kind)];
  }
  ++stats_.accepted;
  ++stats_.kinds[size_t(req.kind)].accepted;
  queue_.push_back(std::move(req));
  stats_.queue_depth_high_water =
      std::max(stats_.queue_depth_high_water, queue_.size());
  lk.unlock();
  cv_work_.notify_all();
  return Admit::kOk;
}

bool Service::ripe_locked() const {
  if (queue_.empty()) return false;
  const PendingReq& front = queue_.front();
  if (stop_ || front.ticket <= flush_upto_) return true;
  // An uncoalescible head gains nothing from waiting for batch-mates.
  if (!front.coalescible) return true;
  // Thresholds count only what the head's batch could actually carry:
  // coalescible requests of the head's kind. Rows queued behind an
  // oversize (solo-bound) request or another kind must not fire a
  // premature, undersized batch.
  const size_t k = size_t(front.kind);
  if (coal_count_[k] >= max_batch_requests_for(front.kind)) return true;
  if (coal_elems_[k] >= opts_.max_batch_elems) return true;
  return std::chrono::steady_clock::now() - front.enqueued >= opts_.window;
}

std::shared_ptr<Service::Batch> Service::carve_locked() {
  // Window wait (admission -> carve) is attributed at carve time so solo
  // and coalesced requests are measured identically.
  const bool mon = obs::metrics_on();
  const auto carve_now =
      mon ? std::chrono::steady_clock::now()
          : std::chrono::steady_clock::time_point{};
  const auto observe_wait = [&](const PendingReq& r) {
    if (!mon) return;
    window_wait_ns_hist().observe(static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(carve_now -
                                                             r.enqueued)
            .count()));
  };
  auto b = std::make_shared<Batch>();
  b->kind = queue_.front().kind;
  if (!queue_.front().coalescible) {
    observe_wait(queue_.front());
    b->reqs.push_back(std::move(queue_.front()));
    queue_.pop_front();
  } else {
    // Sweep the whole queue for compatible coalescible requests (relative
    // order kept): same kind, and for group-by the same aggregation
    // operator. Anything else — uncoalescible, other kinds — stays queued
    // and dispatches once it reaches the front.
    const Kind kind = b->kind;
    const rel::Agg agg = queue_.front().agg;
    const size_t k = size_t(kind);
    const size_t max_reqs = max_batch_requests_for(kind);
    size_t elems = 0;
    for (auto it = queue_.begin();
         it != queue_.end() && b->reqs.size() < max_reqs;) {
      if (!it->coalescible || it->kind != kind ||
          (kind == Kind::GroupBy && it->agg != agg)) {
        ++it;
        continue;
      }
      if (!b->reqs.empty() && elems + it->footprint > opts_.max_batch_elems) {
        break;
      }
      elems += it->footprint;
      coal_elems_[k] -= it->footprint;
      --coal_count_[k];
      observe_wait(*it);
      b->reqs.push_back(std::move(*it));
      it = queue_.erase(it);
    }
  }
  b->coalesced = b->reqs.size() >= 2;
  return b;
}

void Service::dispatcher_loop() {
  std::unique_lock<std::mutex> lk(m_);
  for (;;) {
    cv_work_.wait(lk, [&] { return stop_ || !queue_.empty(); });
    if (queue_.empty()) {
      if (stop_) break;
      continue;
    }
    // Let the coalescing window run down unless a threshold already
    // fired (a wait_until timeout means the window itself elapsed).
    while (!ripe_locked()) {
      const auto deadline = queue_.front().enqueued + opts_.window;
      if (cv_work_.wait_until(lk, deadline) == std::cv_status::timeout) {
        break;
      }
      if (queue_.empty()) break;  // defensive: only this thread pops
    }
    if (queue_.empty()) continue;
    // Batch-slot gate: bounds the submitted jobs the Service keeps in
    // flight (the job-worker pool itself is Runtime's max_job_workers).
    // After ANY park here the loop restarts instead of carving: queue
    // shape, ripeness and the flush watermark may all have moved while
    // we slept, and a pre-park carve decision would act on stale state.
    if (inflight_ >= opts_.max_inflight_batches) {
      cv_work_.wait(lk,
                    [&] { return inflight_ < opts_.max_inflight_batches; });
      continue;
    }
    std::shared_ptr<Batch> batch = carve_locked();
    ++inflight_;
    const size_t m = batch->reqs.size();
    KindStats& ks = stats_.kinds[size_t(batch->kind)];
    ++stats_.batches;
    ++ks.batches;
    if (batch->coalesced) {
      stats_.coalesced_requests += m;
      ks.coalesced_requests += m;
    } else {
      ++stats_.solo_batches;
      ++stats_.solo_requests;
      ++ks.solo_batches;
      ++ks.solo_requests;
    }
    ++stats_.batch_size_hist[hist_bucket(m)];
    if (obs::metrics_on()) batch_occupancy_hist().observe(m);
    stats_.inflight_high_water =
        std::max(stats_.inflight_high_water, inflight_);
    governor_observe_locked();
    lk.unlock();
    cv_space_.notify_all();
    rt_.submit([this, batch] {
      run_batch(*batch);
      return 0;  // per-request results flow through the promises instead
    });
    lk.lock();
  }
  // Drain: every dispatched batch completes before the dtor returns, so
  // no Future is ever abandoned and no completion outlives the Service.
  cv_work_.wait(lk, [&] { return inflight_ == 0; });
}

void Service::run_batch(Batch& b) {
  obs::Span span("svc.batch", "kind", static_cast<uint64_t>(b.kind),
                 "requests", b.reqs.size());
  try {
    switch (b.kind) {
      case Kind::Sort:
        b.coalesced ? run_coalesced(b) : run_solo(b);
        break;
      case Kind::Join:
        b.coalesced ? run_coalesced_join(b) : run_solo_join(b);
        break;
      case Kind::GroupBy:
        b.coalesced ? run_coalesced_group(b) : run_solo_group(b);
        break;
    }
  } catch (...) {
    const std::exception_ptr err = std::current_exception();
    for (size_t i = b.done; i < b.reqs.size(); ++i) {
      fail_req(b.reqs[i], err);
    }
  }
  std::lock_guard<std::mutex> lk(m_);
  --inflight_;
  governor_observe_locked();
  cv_work_.notify_all();
}

void Service::run_coalesced(Batch& b) {
  // One oblivious sort serves the whole batch: slot-tag every request's
  // keys (slot = position in the batch), sort the union by the composite
  // key, and split the result back — each request's rows come out
  // contiguous and key-sorted. The sort runs on the backend layer
  // directly (comparator network by default): deterministic, oblivious,
  // and at serving sizes far cheaper than one full pipeline per request.
  size_t total = 0;
  for (const PendingReq& r : b.reqs) total += r.keys.size();
  std::vector<obl::Elem> rows;
  rows.reserve(total);
  for (size_t s = 0; s < b.reqs.size(); ++s) {
    const std::vector<uint64_t>& keys = b.reqs[s].keys;
    for (size_t i = 0; i < keys.size(); ++i) {
      obl::Elem e;
      e.key = composite_key(s, keys[i]);
      e.payload = i;
      rows.push_back(e);
    }
  }
  vec<obl::Elem> v = rt_.make_vec(std::move(rows));
  SortOptions o;
  o.backend = opts_.batch_backend;
  rt_.backend_sort(v.s(), o);
  const slice<obl::Elem> sorted = v.s();
  size_t off = 0;
  for (size_t s = 0; s < b.reqs.size(); ++s) {
    PendingReq& r = b.reqs[s];
    const size_t m = r.keys.size();
    std::vector<uint64_t> out(m);
    std::vector<uint32_t> order(m);
    for (size_t i = 0; i < m; ++i) {
      const obl::Elem& e = sorted.raw(off + i);  // harness read: untracked
      assert(composite_slot(e.key) == s);
      out[i] = composite_request_key(e.key);
      order[i] = static_cast<uint32_t>(e.payload);
    }
    off += m;
    complete(b, r, std::move(out), std::move(order));
  }
}

void Service::run_solo(Batch& b) {
  // Uncoalescible (or lone) request: the canonical Theorem 3.2 pipeline,
  // exactly what a direct Runtime::sort user would run.
  PendingReq& r = b.reqs.front();
  const size_t m = r.keys.size();
  std::vector<obl::Elem> rows(m);
  for (size_t i = 0; i < m; ++i) {
    rows[i].key = r.keys[i];
    rows[i].payload = i;
  }
  vec<obl::Elem> v = rt_.make_vec(std::move(rows));
  rt_.sort(v.s());
  const slice<obl::Elem> sorted = v.s();
  std::vector<uint64_t> out(m);
  std::vector<uint32_t> order(m);
  for (size_t i = 0; i < m; ++i) {
    const obl::Elem& e = sorted.raw(i);  // harness read: untracked
    out[i] = e.key;
    order[i] = static_cast<uint32_t>(e.payload);
  }
  complete(b, r, std::move(out), std::move(order));
}

void Service::run_coalesced_join(Batch& b) {
  // One shared batched join plan serves every request: slot-concatenated
  // key tables through Runtime::join_batched, the summed-bound output
  // frame split back per slot at public offsets. Each slot's rows are the
  // solo result by the batched-engine contract, so the JoinResult handed
  // to each promise is byte-identical to a lone Runtime::equi_join run.
  std::vector<rel::JoinSlot> slots;
  slots.reserve(b.reqs.size());
  size_t nl = 0, nr = 0;
  for (const PendingReq& r : b.reqs) {
    nl += r.keys.size();
    nr += r.keys2.size();
  }
  std::vector<uint64_t> lkeys, rkeys;
  lkeys.reserve(nl);
  rkeys.reserve(nr);
  for (const PendingReq& r : b.reqs) {
    slots.push_back(rel::JoinSlot{r.keys.size(), r.keys2.size(), r.bound,
                                  r.banded, r.band});
    lkeys.insert(lkeys.end(), r.keys.begin(), r.keys.end());
    rkeys.insert(rkeys.end(), r.keys2.begin(), r.keys2.end());
  }
  std::vector<obl::Elem> frame;
  SortOptions o;
  o.backend = opts_.batch_backend;
  const std::vector<uint64_t> matched =
      rt_.join_batched(lkeys, rkeys, slots, frame, o);
  size_t off = 0;
  for (size_t s = 0; s < b.reqs.size(); ++s) {
    PendingReq& r = b.reqs[s];
    rel::JoinResult<uint64_t, uint64_t> res;
    res.matched = matched[s];
    res.rows.reserve(std::min<uint64_t>(matched[s], r.bound));
    for (size_t j = 0; j < r.bound; ++j) {
      const obl::Elem& e = frame[off + j];
      if (e.flags & obl::Elem::kFiller) continue;
      res.rows.emplace_back(r.keys[e.payload], r.keys2[e.aux]);
    }
    off += r.bound;
    observe_latency(r);
    r.finish_join(std::move(res), nullptr);
    ++b.done;
  }
}

void Service::run_solo_join(Batch& b) {
  // Uncoalescible (or lone) join: the canonical solo pipeline, exactly
  // what a direct Runtime::equi_join/band_join caller would run.
  PendingReq& r = b.reqs.front();
  rel::JoinOptions jo;
  jo.output_bound = r.bound;
  const auto ident = [](uint64_t k) { return k; };
  rel::JoinResult<uint64_t, uint64_t> res =
      r.banded ? rt_.band_join(std::span<const uint64_t>(r.keys), ident,
                               std::span<const uint64_t>(r.keys2), ident,
                               r.band, jo)
               : rt_.equi_join(std::span<const uint64_t>(r.keys), ident,
                               std::span<const uint64_t>(r.keys2), ident,
                               jo);
  observe_latency(r);
  r.finish_join(std::move(res), nullptr);
  ++b.done;
}

void Service::run_coalesced_group(Batch& b) {
  // One shared batched grouping plan (same aggregation operator across
  // the batch, enforced by carve_locked's compatibility rule).
  std::vector<rel::GroupSlot> slots;
  slots.reserve(b.reqs.size());
  size_t n = 0;
  for (const PendingReq& r : b.reqs) n += r.keys.size();
  std::vector<uint64_t> keys, vals;
  keys.reserve(n);
  vals.reserve(n);
  for (const PendingReq& r : b.reqs) {
    slots.push_back(rel::GroupSlot{r.keys.size(), r.bound});
    keys.insert(keys.end(), r.keys.begin(), r.keys.end());
    vals.insert(vals.end(), r.keys2.begin(), r.keys2.end());
  }
  std::vector<obl::Elem> frame;
  SortOptions o;
  o.backend = opts_.batch_backend;
  const std::vector<uint64_t> groups =
      rt_.group_by_batched(keys, vals, slots, b.reqs.front().agg, frame, o);
  size_t off = 0;
  for (size_t s = 0; s < b.reqs.size(); ++s) {
    PendingReq& r = b.reqs[s];
    rel::GroupByResult res;
    res.groups_total = groups[s];
    res.groups.reserve(std::min<uint64_t>(groups[s], r.bound));
    for (size_t j = 0; j < r.bound; ++j) {
      const obl::Elem& e = frame[off + j];
      if (e.flags & obl::Elem::kFiller) continue;
      res.groups.push_back(rel::GroupRow{e.key, e.payload, e.aux});
    }
    off += r.bound;
    observe_latency(r);
    r.finish_group(std::move(res), nullptr);
    ++b.done;
  }
}

void Service::run_solo_group(Batch& b) {
  PendingReq& r = b.reqs.front();
  rel::GroupByOptions go;
  go.group_bound = r.bound;
  // Index-span view over the two columns: the canonical Runtime call.
  std::vector<uint32_t> idx(r.keys.size());
  for (size_t i = 0; i < idx.size(); ++i) idx[i] = uint32_t(i);
  rel::GroupByResult res = rt_.group_by_aggregate(
      std::span<const uint32_t>(idx),
      [&](uint32_t i) { return r.keys[i]; },
      [&](uint32_t i) { return r.keys2[i]; }, r.agg, go);
  observe_latency(r);
  r.finish_group(std::move(res), nullptr);
  ++b.done;
}

void Service::complete(Batch& b, PendingReq& r, std::vector<uint64_t> keys,
                       std::vector<uint32_t> order) {
  // Canonical tie order: a pure function of (request, service seed), so
  // the bytes handed to the promise are identical no matter which engine
  // sorted the keys or which batch the request rode in.
  normalize_ties(keys, order, r.stream);
  observe_latency(r);
  r.finish(std::move(keys), std::move(order), nullptr);
  ++b.done;
}

void Service::observe_latency(const PendingReq& r) const {
  // Admission -> Future-ready, observed just before the promise is kept so
  // that a caller woken by get() finds its request counted in stats().
  // Inline-completed empty requests never reach here (no admission stamp).
  if (!obs::metrics_on()) return;
  const auto dt = std::chrono::steady_clock::now() - r.enqueued;
  lat_hist(size_t(r.kind))
      .observe(static_cast<uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(dt).count()));
}

void Service::governor_observe_locked() {
  // Keyed to the Runtime's ACTUAL policy: if a user flipped
  // set_scheduler_policy directly, the next observation reasserts the
  // governed policy instead of silently running on the foreign one.
  if (governor_.observe_actual(queue_.size(), inflight_,
                               rt_.scheduler_policy())) {
    ++stats_.policy_switches;
    if (obs::metrics_on()) policy_switches_total().inc();
    obs::instant("svc.policy_switch", "policy",
                 static_cast<uint64_t>(governor_.current()));
    rt_.set_scheduler_policy(governor_.current());
  }
}

}  // namespace dopar::svc
