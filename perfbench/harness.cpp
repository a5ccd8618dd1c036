// perfbench harness: runs one benchmark workload against the dopar library
// through its public entry points only (svc::Service, dopar::Runtime and
// make_backend(...)->sort), times those calls from outside, checks every
// output against an insecure oracle outside the timed path, and prints one
// JSON object of raw measurements on stdout. perfbench/run.py builds this
// program, folds its trace file (perfbench/trace_fold.py) and prints the
// benchmark result line.
//
//   perfbench_harness --workload serve_mixed|bulk_sort|bulk_relational
//                     --seed N --seconds S --trace 0|1 --trace-out PATH
//
// --trace 0 measures the end-to-end metrics with tracing off. --trace 1
// runs the same inputs twice, untraced and then with the library tracer
// and metrics on, and reports the per-layer numbers: harness-timed calls
// from the untraced phase, obs registry deltas, Service::stats() and
// library spans from the traced phase. The ratio of the two phases' times
// is the tracing overhead.
//
// Exit codes: 0 = measured and every output matched its oracle; 1 = an
// output mismatched or a call threw; 2 = bad arguments; 3 = the run is
// invalid (the open-loop generator fell behind by more than the latency
// limit) and is not reported as a number.

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <thread>
#include <utility>
#include <variant>
#include <vector>

#include "dopar.hpp"
#include "obl/kernel/dispatch.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using namespace dopar;
using Clock = std::chrono::steady_clock;

/// Latency limit of the serving workload: the generator lateness beyond
/// which a run is invalid.
constexpr double kLatencyLimitMs = 100.0;
/// Offered rate of serve_mixed's open-loop window, under a third of the
/// saturated throughput (~1400 r/s of this mix on a 4-vCPU x86-64 VM). At
/// 800 r/s some runs tipped into a growing backlog when the host slowed;
/// at 400 r/s none did, so latency reads batching and execution, not
/// collapse.
constexpr double kServeRate = 400.0;
/// Set-ups per run; setup_s reports their trimmed_mean.
constexpr int kSetupReps = 12;
/// Requests per traced chunk of serve_mixed. Each chunk is one trace
/// window; the rings are reset between chunks, so a chunk must stay well
/// inside one thread's 2^13-event ring (measured: 400 requests left at
/// most ~330 events on the busiest thread, so 2000 leave ~1700).
constexpr size_t kChunkRequests = 2000;

double secs(Clock::duration d) {
  return std::chrono::duration<double>(d).count();
}
double millis(Clock::duration d) {
  return std::chrono::duration<double, std::milli>(d).count();
}
uint64_t ns_of(Clock::time_point t) {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          t.time_since_epoch())
          .count());
}

/// splitmix64: every input is a function of --seed through this generator.
struct Rng {
  uint64_t s;
  uint64_t next() {
    uint64_t z = (s += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  double uniform() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }
  uint64_t below(uint64_t n) { return next() % n; }
};

/// Nearest-rank quantile of exact samples (q in (0, 1]).
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  size_t r = static_cast<size_t>(std::ceil(q * static_cast<double>(v.size())));
  r = std::clamp<size_t>(r, 1, v.size());
  return v[r - 1];
}
double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

/// Mean without the smallest and the largest value, so one stalled sample
/// is dropped. Unlike a median, it does not jump from run to run between
/// the two levels that set-up times take after a process's first Runtime
/// (see repeat_setup).
double trimmed_mean(std::vector<double> v) {
  if (v.size() < 3) return v.empty() ? 0 : median(std::move(v));
  std::sort(v.begin(), v.end());
  double sum = 0;
  for (size_t i = 1; i + 1 < v.size(); ++i) sum += v[i];
  return sum / static_cast<double>(v.size() - 2);
}

/// Tail latency robust to short host stalls: the nearest-rank p99 of each
/// of `parts` consecutive slices of the samples (in the order they were
/// taken), then the mean of those p99s without the `trim` smallest and the
/// `trim` largest. A stall inflates the tail of the slices it falls in
/// only, which are dropped. With fewer than 100 samples in a slice its p99
/// is its slowest sample.
double p99_of_slices(const std::vector<double>& in_order, size_t parts,
                     size_t trim) {
  if (in_order.size() < parts) return quantile(in_order, 0.99);
  std::vector<double> tails;
  for (size_t p = 0; p < parts; ++p) {
    const size_t lo = in_order.size() * p / parts;
    const size_t hi = in_order.size() * (p + 1) / parts;
    tails.push_back(
        quantile({in_order.begin() + lo, in_order.begin() + hi}, 0.99));
  }
  std::sort(tails.begin(), tails.end());
  double sum = 0;
  for (size_t i = trim; i + trim < parts; ++i) sum += tails[i];
  return sum / static_cast<double>(parts - 2 * trim);
}

// ---- harness spans ------------------------------------------------------

/// One span the harness records around a public call: name, start, end,
/// causing span and the request it belongs to. Kept in memory and written
/// with the trace file when the run ends.
struct HSpan {
  const char* name;
  uint64_t id, parent, req;
  uint64_t t0, t1;
  uint32_t tid;
};

class Recorder {
 public:
  bool on() const { return on_.load(std::memory_order_relaxed); }
  void set(bool on) { on_.store(on, std::memory_order_relaxed); }
  uint64_t new_id() { return ids_.fetch_add(1, std::memory_order_relaxed); }
  void add(const HSpan& s) {
    std::lock_guard<std::mutex> lk(m_);
    spans_.push_back(s);
  }
  std::vector<HSpan> take() {
    std::lock_guard<std::mutex> lk(m_);
    return std::move(spans_);
  }

 private:
  std::atomic<bool> on_{false};
  std::atomic<uint64_t> ids_{1};
  std::mutex m_;
  std::vector<HSpan> spans_;
};

Recorder g_rec;

uint32_t harness_tid() {
  static std::atomic<uint32_t> next{1};
  thread_local const uint32_t tid = next.fetch_add(1);
  return tid;
}

/// Times one public call. stop() returns the elapsed seconds and, while
/// the recorder is on, records the call as a harness span.
class Timed {
 public:
  explicit Timed(const char* name, uint64_t parent = 0, uint64_t req = 0)
      : name_(name), parent_(parent), req_(req),
        id_(g_rec.on() ? g_rec.new_id() : 0), t0_(Clock::now()) {}
  double stop() {
    const Clock::time_point t1 = Clock::now();
    if (id_ != 0) {
      g_rec.add({name_, id_, parent_, req_, ns_of(t0_), ns_of(t1),
                 harness_tid()});
    }
    return secs(t1 - t0_);
  }

 private:
  const char* name_;
  uint64_t parent_, req_, id_;
  Clock::time_point t0_;
};

// ---- library trace windows ----------------------------------------------

/// One traced window: the library's rings are reset when it opens and
/// snapshotted when it closes, so each window's events are complete unless
/// a thread overflowed its ring inside the window (trace_fold.py checks).
struct Window {
  std::string label;
  uint64_t open_ns = 0, close_ns = 0;
  std::vector<obs::TraceEvent> events;
};
std::vector<Window> g_windows;

void open_window(const std::string& label) {
  obs::reset_trace();
  Window w;
  w.label = label;
  w.open_ns = obs::now_ns();
  g_windows.push_back(std::move(w));
}
void close_window() {
  Window& w = g_windows.back();
  w.close_ns = obs::now_ns();
  w.events = obs::snapshot_trace();
}

// ---- JSON output --------------------------------------------------------

std::string jstr(const std::string& s) {
  std::string o = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      o += '\\';
      o += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      o += ' ';
    } else {
      o += c;
    }
  }
  return o + "\"";
}
std::string jnum(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}
std::string jobj(const std::map<std::string, double>& m) {
  std::string o = "{";
  for (const auto& [k, v] : m) {
    if (o.size() > 1) o += ',';
    o += jstr(k) + ":" + jnum(v);
  }
  return o + "}";
}
double us_from(uint64_t t, uint64_t base) {
  return static_cast<double>(t - base) / 1000.0;
}

/// Chrome trace-event JSON (loadable in Perfetto) of every window's library
/// events (pid 1) and the harness spans (pid 2). otherData carries what
/// trace_fold.py needs: the ring capacity and each window's bounds.
bool write_trace(const std::string& path, const std::vector<HSpan>& hs) {
  uint64_t base = ~uint64_t{0};
  for (const Window& w : g_windows) {
    base = std::min(base, w.open_ns);
    for (const obs::TraceEvent& e : w.events) base = std::min(base, e.t0_ns);
  }
  for (const HSpan& s : hs) base = std::min(base, s.t0);
  if (base == ~uint64_t{0}) base = 0;
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return false;
  std::fputs("{\"traceEvents\":[", f);
  bool first = true;
  auto sep = [&] {
    if (!first) std::fputc(',', f);
    first = false;
  };
  for (size_t wi = 0; wi < g_windows.size(); ++wi) {
    for (const obs::TraceEvent& e : g_windows[wi].events) {
      if (e.name == nullptr) continue;  // torn slot
      sep();
      std::string ev = "{\"name\":" + jstr(e.name) + ",\"ph\":\"" +
                       std::string(1, e.phase) +
                       "\",\"ts\":" + jnum(us_from(e.t0_ns, base));
      if (e.phase == 'X') {
        ev += ",\"dur\":" +
              jnum(static_cast<double>(e.t1_ns - e.t0_ns) / 1000.0);
      } else {
        ev += ",\"s\":\"t\"";
      }
      ev += ",\"pid\":1,\"tid\":" + std::to_string(e.tid) +
            ",\"args\":{\"window\":" + std::to_string(wi);
      if (e.k0 != nullptr) ev += "," + jstr(e.k0) + ":" + std::to_string(e.v0);
      if (e.k1 != nullptr) ev += "," + jstr(e.k1) + ":" + std::to_string(e.v1);
      ev += "}}";
      std::fputs(ev.c_str(), f);
    }
  }
  for (const HSpan& s : hs) {
    sep();
    const std::string ev =
        "{\"name\":" + jstr(s.name) + ",\"ph\":\"X\",\"ts\":" +
        jnum(us_from(s.t0, base)) +
        ",\"dur\":" + jnum(static_cast<double>(s.t1 - s.t0) / 1000.0) +
        ",\"pid\":2,\"tid\":" + std::to_string(s.tid) +
        ",\"args\":{\"id\":" + std::to_string(s.id) +
        ",\"parent\":" + std::to_string(s.parent) +
        ",\"req\":" + std::to_string(s.req) + "}}";
    std::fputs(ev.c_str(), f);
  }
  std::fprintf(f, "],\"otherData\":{\"ring_capacity\":%zu,\"windows\":[",
               obs::kRingCapacity);
  for (size_t wi = 0; wi < g_windows.size(); ++wi) {
    const Window& w = g_windows[wi];
    std::fprintf(f, "%s{\"label\":%s,\"open_us\":%s,\"close_us\":%s}",
                 wi ? "," : "", jstr(w.label).c_str(),
                 jnum(us_from(w.open_ns, base)).c_str(),
                 jnum(us_from(w.close_ns, base)).c_str());
  }
  std::fputs("]}}\n", f);
  return std::fclose(f) == 0;
}

// ---- obs registry deltas ------------------------------------------------

/// The registry series the per-layer metrics read, snapshotted at the
/// start and end of a traced phase.
struct RegSnap {
  obs::HistSnapshot job_wait, lease, window_wait;
  uint64_t jobs = 0, steal_attempts = 0, steals = 0, tasks = 0;
  uint64_t busy_ns = 0, idle_ns = 0;

  static RegSnap take() {
    obs::Registry& r = obs::Registry::global();
    RegSnap s;
    s.job_wait = r.histogram("dopar_sched_job_queue_wait_ns").snapshot();
    s.lease = r.histogram("dopar_sched_lease_lifetime_ns").snapshot();
    s.window_wait = r.histogram("dopar_svc_window_wait_ns").snapshot();
    s.jobs = r.counter("dopar_sched_jobs_total").value();
    s.steal_attempts = r.counter("dopar_pool_steal_attempts_total").value();
    s.steals = r.counter("dopar_pool_steals_total").value();
    s.tasks = r.counter("dopar_pool_tasks_total").value();
    s.busy_ns = r.counter("dopar_pool_worker_busy_ns_total").value();
    s.idle_ns = r.counter("dopar_pool_worker_idle_ns_total").value();
    return s;
  }
};

double ratio(double num, double den) { return den > 0 ? num / den : 0; }
double hist_mean_ms(const obs::HistSnapshot& a, const obs::HistSnapshot& b) {
  const obs::HistSnapshot d = b.since(a);
  return d.count ? static_cast<double>(d.sum) / d.count / 1e6 : 0;
}

/// sched.* and pool.* layer metrics over a traced phase; `keys` is the
/// number of input rows the phase processed.
void registry_layers(std::map<std::string, double>& L, const RegSnap& a,
                     const RegSnap& b, double keys) {
  L["sched.job_queue_wait_mean_ms"] = hist_mean_ms(a.job_wait, b.job_wait);
  L["sched.lease_lifetime_mean_ms"] = hist_mean_ms(a.lease, b.lease);
  L["sched.jobs"] = static_cast<double>(b.jobs - a.jobs);
  const double busy = static_cast<double>(b.busy_ns - a.busy_ns);
  const double idle = static_cast<double>(b.idle_ns - a.idle_ns);
  L["pool.busy_ratio"] = ratio(busy, busy + idle);
  L["pool.steal_success_ratio"] =
      ratio(static_cast<double>(b.steals - a.steals),
            static_cast<double>(b.steal_attempts - a.steal_attempts));
  L["pool.tasks_per_key"] =
      ratio(static_cast<double>(b.tasks - a.tasks), keys);
}

// ---- run bookkeeping ----------------------------------------------------

struct Tally {
  uint64_t attempted = 0;
  uint64_t rejected = 0;
  uint64_t thrown = 0;
  uint64_t mismatched = 0;
  uint64_t failed() const { return rejected + thrown + mismatched; }
};

struct Result {
  Tally tally;
  std::map<std::string, double> e2e, layer;
  std::vector<double> setup_s;
  std::string invalid;  ///< non-empty: the run must not be reported
};

/// Restart the resident-memory high-water mark (Linux clear_refs "5"), so
/// peak_rss_mib covers the measured window, not set-up.
void reset_peak_rss() {
  if (std::FILE* f = std::fopen("/proc/self/clear_refs", "w")) {
    std::fputs("5", f);
    std::fclose(f);
  }
}

/// Peak resident memory since reset_peak_rss() (VmHWM); the process
/// lifetime peak where /proc is unavailable.
double peak_rss_mib() {
  if (std::FILE* f = std::fopen("/proc/self/status", "r")) {
    char line[256];
    unsigned long kib = 0;
    bool found = false;
    while (!found && std::fgets(line, sizeof(line), f)) {
      found = std::sscanf(line, "VmHWM: %lu kB", &kib) == 1;
    }
    std::fclose(f);
    if (found) return static_cast<double>(kib) / 1024.0;
  }
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

/// Every workload runs on Runtimes with all hardware threads. A traced
/// run opens the obs tracing and metrics gates around its traced phase
/// with obs::ScopedEnable, the gate Builder::tracing()/metrics() hold, so
/// its untraced and traced phases run on the same Runtime.
Runtime make_runtime(uint64_t seed) {
  return Runtime::builder().threads(0).seed(seed).build();
}

/// Harness-timed set-up, kSetupReps times: body(first, done) builds the
/// Runtime (and Service), makes one warm-up call and reports the time since
/// its start through done(t0); on the first repetition it goes on to
/// measure with what it built, and later ones only time the set-up.
///
/// The measured Runtime is the first the process builds, because a
/// Runtime's speed depends on where malloc placed its fj::Pool's
/// per-worker queues, separately allocated 128-byte objects that can share
/// cache lines with hot neighbours. On a 4-vCPU x86-64 VM, of the Runtimes
/// one process builds in turn, some sorted 2^18 records in ~6 s and others
/// in ~2.4 s, with no fixed pattern after the first; padding just those
/// allocations to whole cache lines gave ~2.4 s for every one. The first
/// Runtime of a fresh process gets the same placement in every run of one
/// build and workload, so the figures are steady and still carry the
/// library's cost for that placement.
template <class Body>
void repeat_setup(Result& res, Body&& body) {
  for (int rep = 0; rep < kSetupReps; ++rep) {
    body(rep == 0, [&res](Clock::time_point t0) {
      res.setup_s.push_back(secs(Clock::now() - t0));
    });
  }
}

/// A bulk workload's measured window: `call(i)` (the i-th call's seconds)
/// repeats until `seconds` have passed, at least once. Records the peak
/// resident memory of the window, the median call time, p99_of_slices of
/// the call times over fifths (one trimmed each side) and input rows per
/// second at the median.
template <class Call>
void measure_calls(Result& res, double seconds, double rows_per_call,
                   Call&& call) {
  std::vector<double> t;
  reset_peak_rss();
  const Clock::time_point start = Clock::now();
  do {
    t.push_back(call(t.size()));
  } while (secs(Clock::now() - start) + t.back() <= seconds);
  res.e2e["peak_rss_mib"] = peak_rss_mib();
  res.e2e["p50_ms"] = median(t) * 1e3;
  res.e2e["p99_ms"] = p99_of_slices(t, 5, 1) * 1e3;
  res.e2e["rows_per_s"] = rows_per_call / median(t);
}

// ---- record checks ------------------------------------------------------

bool by_key_payload(const obl::Elem& a, const obl::Elem& b) {
  return a.key != b.key ? a.key < b.key : a.payload < b.payload;
}

bool same_elem(const obl::Elem& a, const obl::Elem& b) {
  return a.key == b.key && a.payload == b.payload && a.aux == b.aux &&
         a.flags == b.flags;
}

/// The records, re-sorted by (key, payload), equal the oracle (the input
/// under std::sort by (key, payload)) byte for byte.
bool same_records(std::vector<obl::Elem> got,
                  const std::vector<obl::Elem>& want) {
  std::sort(got.begin(), got.end(), by_key_payload);
  if (got.size() != want.size()) return false;
  for (size_t i = 0; i < got.size(); ++i) {
    if (!same_elem(got[i], want[i])) return false;
  }
  return true;
}

/// Runtime::sort orders by key and leaves ties unordered: the keys must
/// ascend and the records must be the input's.
bool check_sorted(const slice<obl::Elem>& s,
                  const std::vector<obl::Elem>& want) {
  for (size_t i = 1; i < s.size(); ++i) {
    if (s[i - 1].key > s[i].key) return false;
  }
  return same_records({s.data(), s.data() + s.size()}, want);
}

/// Runtime::permute: the output holds exactly the input's records.
bool check_permuted(const slice<obl::Elem>& s,
                    const std::vector<obl::Elem>& want) {
  return same_records({s.data(), s.data() + s.size()}, want);
}

/// Runtime::bin_assign: every live record sits in the bin its label names
/// and the live records are exactly the input's.
bool check_bins(core::OrbaOutput& out,
                const std::vector<obl::Elem>& want) {
  const slice<core::Routed> b = out.bins.s();
  if (out.Z == 0 || b.size() != out.beta * out.Z) return false;
  std::vector<obl::Elem> live;
  for (size_t i = 0; i < b.size(); ++i) {
    if (b[i].e.is_filler()) continue;
    if (b[i].label != i / out.Z) return false;
    live.push_back(b[i].e);
  }
  return same_records(std::move(live), want);
}

/// Times one public call and checks its output outside the timed region:
/// a throw counts as thrown, a wrong output as mismatched.
template <class Call, class Check>
double timed_call(Result& res, const char* name, Call&& call, Check&& ok) {
  ++res.tally.attempted;
  double s = 0;
  try {
    Timed t(name);
    call();
    s = t.stop();
  } catch (...) {
    ++res.tally.thrown;
    return 0;
  }
  if (!ok()) ++res.tally.mismatched;
  return s;
}

// ---- obl: one network sort on the backend registry -----------------------

/// ns per comparator of make_backend("bitonic_ca")->sort on 2^16 elements,
/// median of 5 calls, each checked against std::sort. The comparator
/// count of a bitonic network on n = 2^k is n/2 * k(k+1)/2.
double network_ns_per_cmp(uint64_t seed, Result& res) {
  constexpr size_t kLog = 16, kN = size_t{1} << kLog;
  const auto be = make_backend("bitonic_ca");
  Rng g{seed ^ 0x0b1};
  std::vector<obl::Elem> in(kN);
  for (size_t i = 0; i < kN; ++i) {
    in[i].key = g.next() >> 24;
    in[i].payload = i;
  }
  std::vector<obl::Elem> want = in;
  std::sort(want.begin(), want.end(), by_key_payload);
  std::vector<double> t;
  for (int rep = 0; rep < 5; ++rep) {
    vec<obl::Elem> v(in);
    t.push_back(timed_call(res, "obl.bitonic_ca_sort",
                           [&] { be->sort(v.s()); },
                           [&] { return check_sorted(v.s(), want); }));
  }
  const double cmps = double(kN / 2) * double(kLog * (kLog + 1) / 2);
  return median(t) * 1e9 / cmps;
}

// ---- serve_mixed --------------------------------------------------------

enum Kind : uint8_t { kSort = 0, kJoin = 1, kGroup = 2 };
constexpr const char* kKindName[3] = {"sort", "join", "groupby"};
constexpr const char* kReqSpan[3] = {"serve.sort", "serve.join",
                                     "serve.groupby"};

/// One request of the open-loop schedule. Its inputs are regenerated from
/// `seed` when needed, so the schedule stays small.
struct ReqSpec {
  double due_s = 0;
  uint64_t seed = 0;
  uint64_t tenant = 0;
  uint32_t n = 0;
  Kind kind = kSort;
  rel::Agg agg = rel::Agg::Sum;
  bool wide = false;  ///< join keys above rel::kMaxBatchKey (solo path)
};

struct ReqInput {
  std::vector<uint64_t> a, b;
};

ReqInput make_input(const ReqSpec& r) {
  Rng g{r.seed};
  ReqInput in;
  in.a.resize(r.n);
  switch (r.kind) {
    case kSort:
      for (auto& k : in.a) k = g.next() >> 24;  // 40-bit keys
      break;
    case kJoin: {
      // Key domain 4n: a table pair shares about n/4 matches.
      const uint64_t off = r.wide ? rel::kMaxBatchKey + 1 : 0;
      in.b.resize(r.n);
      for (auto& k : in.a) k = off + g.below(4 * uint64_t{r.n});
      for (auto& k : in.b) k = off + g.below(4 * uint64_t{r.n});
      break;
    }
    case kGroup:
      in.b.resize(r.n);
      for (auto& k : in.a) k = g.below(std::max<uint64_t>(1, r.n / 4));
      for (auto& v : in.b) v = g.next() >> 32;
      break;
  }
  return in;
}

size_t join_bound(const ReqSpec& r) { return 4 * size_t{r.n}; }

/// Poisson arrivals at `rate` for `dur_s` seconds: 60% sorts, 20%
/// equi-joins (5% of them with wide keys), 20% group-bys over the four
/// aggregates; sizes log-uniform over 64..1024 rows; 64 tenants.
std::vector<ReqSpec> schedule(uint64_t seed, double rate, double dur_s) {
  Rng g{seed};
  std::vector<ReqSpec> out;
  double t = 0;
  for (;;) {
    t += -std::log(1.0 - g.uniform()) / rate;
    if (t >= dur_s) break;
    ReqSpec r;
    r.due_s = t;
    r.seed = g.next();
    r.tenant = g.below(64);
    r.n = static_cast<uint32_t>(
        std::lround(64.0 * std::pow(16.0, g.uniform())));
    const double u = g.uniform();
    r.kind = u < 0.6 ? kSort : (u < 0.8 ? kJoin : kGroup);
    r.wide = r.kind == kJoin && g.uniform() < 0.05;
    r.agg = static_cast<rel::Agg>(g.below(4));
    out.push_back(r);
  }
  return out;
}

double rows_of(const ReqSpec& r) {
  return r.kind == kSort ? r.n : 2.0 * r.n;
}

using JoinRes = rel::JoinResult<uint64_t, uint64_t>;

/// 64-bit digest of every field of a served response, in order, tagged with
/// the response type. The poller keeps only this, so the harness holds
/// 8 bytes per request, not the responses, while the Service runs.
struct Digest {
  uint64_t h;
  explicit Digest(uint64_t tag) : h(tag) {}
  void add(uint64_t v) {
    uint64_t z = (h ^ v) + 0x9e3779b97f4a7c15ULL;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    h = z ^ (z >> 31);
  }
};

uint64_t digest_of(const std::vector<uint64_t>& v) {
  Digest d(kSort);
  d.add(v.size());
  for (uint64_t k : v) d.add(k);
  return d.h;
}
uint64_t digest_of(const JoinRes& j) {
  Digest d(kJoin);
  d.add(j.matched);
  d.add(j.rows.size());
  for (const auto& [l, r] : j.rows) {
    d.add(l);
    d.add(r);
  }
  return d.h;
}
uint64_t digest_of(const rel::GroupByResult& g) {
  Digest d(kGroup);
  d.add(g.groups_total);
  d.add(g.groups.size());
  for (const rel::GroupRow& row : g.groups) {
    d.add(row.key);
    d.add(row.value);
    d.add(row.count);
  }
  return d.h;
}

// ---- insecure oracles ---------------------------------------------------

/// Equi/band join oracle with the library's documented output order:
/// grouped by left row in input order, each group's right rows ascending
/// by (key, input index); truncated to `bound` pairs.
template <class L, class R, class KL, class KR>
rel::JoinResult<L, R> oracle_join(const std::vector<L>& left, KL kl,
                                  const std::vector<R>& right, KR kr,
                                  uint64_t band, size_t bound) {
  std::vector<uint32_t> order(right.size());
  for (uint32_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
    const uint64_t ka = kr(right[a]), kb = kr(right[b]);
    return ka != kb ? ka < kb : a < b;
  });
  std::vector<uint64_t> sorted_keys(order.size());
  for (size_t i = 0; i < order.size(); ++i) {
    sorted_keys[i] = kr(right[order[i]]);
  }
  rel::JoinResult<L, R> out;
  for (const L& l : left) {
    const uint64_t k = kl(l);
    const uint64_t lo = k >= band ? k - band : 0;
    const uint64_t hi = k + band;
    auto it = std::lower_bound(sorted_keys.begin(), sorted_keys.end(), lo);
    for (; it != sorted_keys.end() && *it <= hi; ++it) {
      ++out.matched;
      if (out.rows.size() < bound) {
        out.rows.emplace_back(l, right[order[it - sorted_keys.begin()]]);
      }
    }
  }
  return out;
}

/// Group-by oracle: std::map per key, ascending, truncated to `bound`.
rel::GroupByResult oracle_group(const std::vector<uint64_t>& keys,
                                const std::vector<uint64_t>& vals,
                                rel::Agg agg, size_t bound) {
  std::map<uint64_t, rel::GroupRow> m;
  for (size_t i = 0; i < keys.size(); ++i) {
    auto [it, fresh] = m.try_emplace(keys[i], rel::GroupRow{keys[i], 0, 0});
    rel::GroupRow& g = it->second;
    const uint64_t v = vals[i];
    switch (agg) {
      case rel::Agg::Sum: g.value += v; break;
      case rel::Agg::Count: g.value += 1; break;
      case rel::Agg::Min: g.value = fresh ? v : std::min(g.value, v); break;
      case rel::Agg::Max: g.value = fresh ? v : std::max(g.value, v); break;
    }
    ++g.count;
  }
  rel::GroupByResult out;
  out.groups_total = m.size();
  for (const auto& [k, g] : m) {
    if (out.groups.size() == bound) break;
    out.groups.push_back(g);
  }
  return out;
}

bool same(const rel::GroupByResult& a, const rel::GroupByResult& b) {
  if (a.groups_total != b.groups_total || a.groups.size() != b.groups.size())
    return false;
  for (size_t i = 0; i < a.groups.size(); ++i) {
    const rel::GroupRow &x = a.groups[i], &y = b.groups[i];
    if (x.key != y.key || x.value != y.value || x.count != y.count)
      return false;
  }
  return true;
}

template <class L, class R>
bool same(const rel::JoinResult<L, R>& a, const rel::JoinResult<L, R>& b) {
  return a.matched == b.matched && a.rows == b.rows;
}

/// Check of one served response, by its digest, against the oracle's.
bool check_response(const ReqSpec& r, uint64_t got) {
  const ReqInput in = make_input(r);
  switch (r.kind) {
    case kSort: {
      std::vector<uint64_t> want = in.a;
      std::sort(want.begin(), want.end());
      return got == digest_of(want);
    }
    case kJoin: {
      const auto id = [](uint64_t k) { return k; };
      return got ==
             digest_of(oracle_join(in.a, id, in.b, id, 0, join_bound(r)));
    }
    case kGroup:
      return got ==
             digest_of(oracle_group(in.a, in.b, r.agg, in.a.size()));
  }
  return false;
}

/// Outcome of one run_loop window.
struct LoopOut {
  std::vector<double> lat_ms[3];  ///< due time -> Future-ready, per kind
  std::vector<double> lat_seq;    ///< the same, all kinds, in due order
  std::vector<double> late_ms;    ///< generator lateness per request
  std::vector<double> submit_us;  ///< harness-timed try_* admission call
  Tally tally;
  double rows = 0;  ///< input rows submitted
  /// Closed loop: rows of the requests completed in each fifth of the
  /// stop_s seconds, per second.
  std::vector<double> fifth_rows_per_s;
};

using AnyFuture = std::variant<Future<std::vector<uint64_t>>,
                               Future<JoinRes>, Future<rel::GroupByResult>>;

/// Drive `reqs` into `svc` and wait for every one, then check every
/// response's digest against the oracle's. Open loop (in_flight == 0): each
/// request is submitted at its due time whatever the state of earlier ones,
/// and its latency runs from the due time to Future-ready (observed by a
/// poller thread). Closed loop (in_flight > 0): due times are ignored; a
/// request is submitted as soon as fewer than `in_flight` are outstanding,
/// until `stop_s` seconds have passed.
LoopOut run_loop(Service& svc, const std::vector<ReqSpec>& reqs,
                 size_t in_flight = 0, double stop_s = 0) {
  struct Live {
    size_t idx;
    Clock::time_point due;
    uint64_t span;
    AnyFuture fut;
  };
  LoopOut out;
  std::vector<uint64_t> digest(reqs.size(), 0);
  std::vector<double> lat(reqs.size(), -1);
  std::vector<uint8_t> threw(reqs.size(), 0);
  std::mutex m;
  std::vector<Live> incoming;
  std::atomic<bool> gen_done{false};
  std::atomic<size_t> completed{0};
  std::vector<double> done_s(reqs.size(), -1);  // loop start -> ready
  const Clock::time_point start =
      Clock::now() + std::chrono::milliseconds(in_flight ? 0 : 5);

  std::thread poller([&] {
    std::vector<Live> live;
    for (;;) {
      bool last = false;
      {
        std::lock_guard<std::mutex> lk(m);
        for (Live& l : incoming) live.push_back(std::move(l));
        incoming.clear();
        last = gen_done.load();
      }
      for (size_t i = 0; i < live.size();) {
        Live& l = live[i];
        const bool ready = std::visit(
            [](auto& f) {
              return f.wait_for(std::chrono::seconds(0)) ==
                     std::future_status::ready;
            },
            l.fut);
        if (!ready) {
          ++i;
          continue;
        }
        const Clock::time_point t = Clock::now();
        lat[l.idx] = millis(t - l.due);
        if (l.span != 0) {
          g_rec.add({kReqSpan[reqs[l.idx].kind], l.span, 0, l.idx + 1,
                     ns_of(l.due), ns_of(t), harness_tid()});
        }
        try {
          std::visit([&](auto& f) { digest[l.idx] = digest_of(f.get()); },
                     l.fut);
        } catch (...) {
          threw[l.idx] = 1;
        }
        done_s[l.idx] = secs(t - start);
        completed.fetch_add(1);
        live[i] = std::move(live.back());
        live.pop_back();
      }
      if (last && live.empty()) break;
      // 200 us adds at most that to a latency of ~10 ms and keeps the
      // poller's wake-ups (~5000/s) from taking CPU the Service's threads
      // need.
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  });

  // Stops and joins the poller on every way out of the generator loop.
  struct PollerGuard {
    std::atomic<bool>& done;
    std::thread& t;
    ~PollerGuard() {
      done.store(true);
      t.join();
    }
  };
  {
    PollerGuard guard{gen_done, poller};
    ReqInput next = reqs.empty() ? ReqInput{} : make_input(reqs[0]);
    size_t submitted = 0;
    for (size_t i = 0; i < reqs.size(); ++i) {
      const ReqSpec& r = reqs[i];
      Clock::time_point due =
          start + std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double>(r.due_s));
      if (in_flight != 0) {
        while (submitted - completed.load() >= in_flight) {
          std::this_thread::sleep_for(std::chrono::microseconds(20));
        }
        due = Clock::now();
        if (secs(due - start) >= stop_s) break;
      }
      std::this_thread::sleep_until(due);
      const Clock::time_point now = Clock::now();
      out.late_ms.push_back(millis(now - due));
      out.rows += rows_of(r);
      ++out.tally.attempted;
      const uint64_t span = g_rec.on() ? g_rec.new_id() : 0;
      std::optional<AnyFuture> fut;
      double submit_s = 0;
      try {
        Timed t("svc.try_submit", span, i + 1);
        switch (r.kind) {
          case kSort:
            if (auto f = svc.try_sort(r.tenant, std::move(next.a))) {
              fut.emplace(std::move(*f));
            }
            break;
          case kJoin:
            if (auto f = svc.try_equi_join(r.tenant, std::move(next.a),
                                           std::move(next.b), join_bound(r))) {
              fut.emplace(std::move(*f));
            }
            break;
          case kGroup:
            if (auto f = svc.try_group_by_aggregate(r.tenant, std::move(next.a),
                                                    std::move(next.b), r.agg)) {
              fut.emplace(std::move(*f));
            }
            break;
        }
        submit_s = t.stop();
      } catch (...) {
        threw[i] = 1;
      }
      out.submit_us.push_back(submit_s * 1e6);
      if (fut) {
        std::lock_guard<std::mutex> lk(m);
        incoming.push_back(Live{i, due, span, std::move(*fut)});
        ++submitted;
      } else if (!threw[i]) {
        ++out.tally.rejected;
      }
      if (i + 1 < reqs.size()) next = make_input(reqs[i + 1]);
    }
  }
  if (in_flight != 0) {
    double rows[5] = {};
    for (size_t i = 0; i < reqs.size(); ++i) {
      if (done_s[i] < 0 || done_s[i] >= stop_s) continue;  // drain excluded
      const auto f = static_cast<size_t>(done_s[i] * 5 / stop_s);
      rows[std::min<size_t>(f, 4)] += rows_of(reqs[i]);
    }
    for (double r : rows) out.fifth_rows_per_s.push_back(r * 5 / stop_s);
  }

  // Oracle check, outside the timed window.
  for (size_t i = 0; i < reqs.size(); ++i) {
    if (threw[i]) {
      ++out.tally.thrown;
      continue;
    }
    if (lat[i] < 0) continue;  // rejected at admission
    out.lat_ms[reqs[i].kind].push_back(lat[i]);
    out.lat_seq.push_back(lat[i]);
    if (!check_response(reqs[i], digest[i])) ++out.tally.mismatched;
  }
  return out;
}

void add_tally(Tally& t, const Tally& u) {
  t.attempted += u.attempted;
  t.rejected += u.rejected;
  t.thrown += u.thrown;
  t.mismatched += u.mismatched;
}

/// Split a schedule into chunks of at most kChunkRequests requests, each
/// re-based to start at time 0 (a chunk drains before the next starts).
std::vector<std::vector<ReqSpec>> chunks_of(const std::vector<ReqSpec>& s) {
  std::vector<std::vector<ReqSpec>> out;
  for (size_t i = 0; i < s.size(); i += kChunkRequests) {
    std::vector<ReqSpec> c(s.begin() + i,
                           s.begin() + std::min(s.size(), i + kChunkRequests));
    const double t0 = c.front().due_s;
    for (ReqSpec& r : c) r.due_s -= t0;
    out.push_back(std::move(c));
  }
  return out;
}

void warm_service(Service& svc, uint64_t seed) {
  Rng g{seed ^ 0x3a7};
  std::vector<uint64_t> keys(256);
  for (auto& k : keys) k = g.next() >> 24;
  (void)svc.sort(0, keys).get();
}

/// Requests kept outstanding by the closed-loop saturation phase: enough
/// that every batch the coalescer cuts is full, well below the default
/// queue_limit (1024), so admission never refuses one.
constexpr size_t kSaturationInFlight = 256;

void serve_mixed(uint64_t seed, double seconds, bool trace, Result& res) {
  if (!trace) {
    repeat_setup(res, [&](bool first, auto&& done) {
      const Clock::time_point t0 = Clock::now();
      Runtime rt = make_runtime(seed);
      Service svc(rt);
      warm_service(svc, seed);
      done(t0);
      if (!first) return;

      // Main window: open-loop Poisson arrivals at the fixed rate.
      const auto reqs = schedule(seed ^ 0x5e7e, kServeRate, 0.7 * seconds);
      reset_peak_rss();
      const LoopOut main = run_loop(svc, reqs);
      res.e2e["peak_rss_mib"] = peak_rss_mib();
      add_tally(res.tally, main.tally);
      const double late_max = quantile(main.late_ms, 1.0);
      if (late_max > kLatencyLimitMs) {
        res.invalid = "generator fell behind by " +
                      std::to_string(late_max) + " ms (limit " +
                      std::to_string(kLatencyLimitMs) + " ms)";
      }
      res.e2e["p50_ms"] = median(main.lat_seq);
      // Eleven slices of ~1000 samples at run_seconds 40 (ten beyond each
      // p99), the mean of the middle seven: on a 4-vCPU VM shared with
      // other tenants the run-to-run spread of this figure was about two
      // thirds of that of a trimmed mean over fifths.
      res.e2e["p99_ms"] = p99_of_slices(main.lat_seq, 11, 2);

      // Throughput: a closed loop keeps kSaturationInFlight requests of the
      // same mix outstanding, so the Service runs full batches back to back;
      // rows of input served per second in each fifth of that phase,
      // trimmed_mean over the fifths, so a host stall in one fifth is
      // dropped. The schedule only supplies requests (10x the open-loop
      // rate outlasts the phase).
      const LoopOut sat = run_loop(
          svc, schedule(seed ^ 0x5a7, 10 * kServeRate, 0.25 * seconds),
          kSaturationInFlight, 0.25 * seconds);
      add_tally(res.tally, sat.tally);
      res.e2e["rows_per_s"] = trimmed_mean(sat.fifth_rows_per_s);
      res.layer["gen.late_p99_ms"] = quantile(main.late_ms, 0.99);
      res.layer["gen.late_max_ms"] = late_max;
    });
    return;
  }

  // Traced run, on one Runtime: the same chunked schedule untraced, then
  // traced, each through a Service of its own.
  const auto chunks = chunks_of(schedule(seed ^ 0x5e7e, kServeRate,
                                         0.45 * seconds));
  Runtime rt = make_runtime(seed);
  double p50[2] = {0, 0};
  for (int traced = 0; traced < 2; ++traced) {
    const obs::ScopedEnable gates(traced != 0, traced != 0);
    Service svc(rt);
    warm_service(svc, seed);
    const RegSnap a = RegSnap::take();
    LoopOut all;
    for (const auto& c : chunks) {
      if (traced) {
        open_window("serve_chunk");
        g_rec.set(true);
      }
      LoopOut o = run_loop(svc, c);
      if (traced) {
        g_rec.set(false);
        close_window();
      }
      add_tally(res.tally, o.tally);
      for (int k = 0; k < 3; ++k) {
        all.lat_ms[k].insert(all.lat_ms[k].end(), o.lat_ms[k].begin(),
                             o.lat_ms[k].end());
      }
      all.lat_seq.insert(all.lat_seq.end(), o.lat_seq.begin(),
                         o.lat_seq.end());
      all.late_ms.insert(all.late_ms.end(), o.late_ms.begin(),
                         o.late_ms.end());
      all.submit_us.insert(all.submit_us.end(), o.submit_us.begin(),
                           o.submit_us.end());
      all.rows += o.rows;
    }
    const RegSnap b = RegSnap::take();
    p50[traced] = median(all.lat_seq);
    if (!traced) {
      for (int k = 0; k < 3; ++k) {
        res.layer[std::string("svc.") + kKindName[k] + "_p50_ms"] =
            median(all.lat_ms[k]);
        res.layer[std::string("svc.") + kKindName[k] + "_p99_ms"] =
            quantile(all.lat_ms[k], 0.99);
      }
      res.layer["svc.submit_us_p50"] = median(all.submit_us);
      res.layer["gen.late_p99_ms"] = quantile(all.late_ms, 0.99);
      res.layer["gen.late_max_ms"] = quantile(all.late_ms, 1.0);
      if (quantile(all.late_ms, 1.0) > kLatencyLimitMs) {
        res.invalid = "generator fell behind the schedule";
      }
      continue;
    }
    const Service::Stats st = svc.stats();
    res.layer["svc.window_wait_mean_ms"] =
        hist_mean_ms(a.window_wait, b.window_wait);
    res.layer["svc.requests_per_batch"] =
        ratio(static_cast<double>(st.accepted),
              static_cast<double>(st.batches));
    res.layer["svc.coalesced_ratio"] =
        ratio(static_cast<double>(st.coalesced_requests),
              static_cast<double>(st.accepted));
    res.layer["svc.solo_requests"] = static_cast<double>(st.solo_requests);
    res.layer["svc.queue_depth_high_water"] =
        static_cast<double>(st.queue_depth_high_water);
    res.layer["svc.policy_switches"] = static_cast<double>(st.policy_switches);
    registry_layers(res.layer, a, b, all.rows);
  }
  res.layer["obs.trace_overhead_ratio"] = ratio(p50[1], p50[0]);
  res.layer["obl.network_ns_per_cmp"] = network_ns_per_cmp(seed, res);
}

// ---- bulk_sort ----------------------------------------------------------

constexpr size_t kBulkSortN = size_t{1} << 18;

/// 2^18 Elems (8 MiB): three quarters uniform 40-bit keys, one quarter
/// drawn from 64 hot keys; payload = input position.
std::vector<obl::Elem> bulk_sort_input(uint64_t seed) {
  Rng g{seed ^ 0xb5};
  uint64_t hot[64];
  for (auto& h : hot) h = g.next() >> 24;
  std::vector<obl::Elem> v(kBulkSortN);
  for (size_t i = 0; i < v.size(); ++i) {
    v[i].key = g.uniform() < 0.25 ? hot[g.below(64)] : g.next() >> 24;
    v[i].payload = i;
  }
  return v;
}

void bulk_sort(uint64_t seed, double seconds, bool trace, Result& res) {
  const std::vector<obl::Elem> input = bulk_sort_input(seed);
  std::vector<obl::Elem> want = input;
  std::sort(want.begin(), want.end(), by_key_payload);
  const double n = static_cast<double>(input.size());
  std::vector<obl::Elem> warm(input.begin(), input.begin() + 4096);

  auto sort_once = [&](Runtime& rt) {
    vec<obl::Elem> v = rt.make_vec(input);
    return timed_call(res, "rt.sort", [&] { rt.sort(v.s()); },
                      [&] { return check_sorted(v.s(), want); });
  };

  if (!trace) {
    repeat_setup(res, [&](bool first, auto&& done) {
      const Clock::time_point t0 = Clock::now();
      Runtime rt = make_runtime(seed);
      vec<obl::Elem> w = rt.make_vec(warm);
      rt.sort(w.s());
      done(t0);
      if (first) {
        measure_calls(res, seconds, n, [&](size_t) { return sort_once(rt); });
      }
    });
    return;
  }

  // The public calls that enter the sort's layers, each on the same input.
  auto time_core_calls = [&](Runtime& rt) {
    {
      vec<obl::Elem> in = rt.make_vec(input);
      vec<obl::Elem> out = rt.make_vec<obl::Elem>(input.size());
      res.layer["core.permute_s"] = timed_call(
          res, "rt.permute", [&] { rt.permute(in.s(), out.s()); },
          [&] { return check_permuted(out.s(), want); });
    }
    {
      vec<obl::Elem> in = rt.make_vec(input);
      core::OrbaOutput bins;
      res.layer["core.bin_assign_s"] = timed_call(
          res, "rt.bin_assign", [&] { bins = rt.bin_assign(in.s()); },
          [&] { return check_bins(bins, want); });
    }
    std::vector<double> bs;
    for (int rep = 0; rep < 3; ++rep) {
      vec<obl::Elem> v = rt.make_vec(input);
      bs.push_back(timed_call(res, "rt.backend_sort",
                              [&] { rt.backend_sort(v.s()); },
                              [&] { return check_sorted(v.s(), want); }));
    }
    res.layer["core.backend_sort_s"] = median(bs);
  };

  // On one Runtime: untraced sorts for a quarter of the run plus the core
  // calls, then traced sorts for another quarter, one trace window per
  // sort.
  Runtime rt = make_runtime(seed);
  vec<obl::Elem> w = rt.make_vec(warm);
  rt.sort(w.s());
  std::vector<double> sort_s[2];
  for (int traced = 0; traced < 2; ++traced) {
    const obs::ScopedEnable gates(traced != 0, traced != 0);
    const RegSnap a = RegSnap::take();
    const Clock::time_point start = Clock::now();
    do {
      if (traced) {
        open_window("bulk_sort");
        g_rec.set(true);
      }
      sort_s[traced].push_back(sort_once(rt));
      if (traced) {
        g_rec.set(false);
        close_window();
      }
    } while (secs(Clock::now() - start) + sort_s[traced].back() <=
             0.25 * seconds);
    if (traced) {
      registry_layers(res.layer, a, RegSnap::take(),
                      n * static_cast<double>(sort_s[1].size()));
    } else {
      time_core_calls(rt);
    }
  }
  res.layer["core.sort_s"] = median(sort_s[0]);
  res.layer["core.orp_share"] =
      ratio(res.layer["core.permute_s"], res.layer["core.sort_s"]);
  res.layer["obs.trace_overhead_ratio"] =
      ratio(median(sort_s[1]), median(sort_s[0]));
  res.layer["obl.network_ns_per_cmp"] = network_ns_per_cmp(seed, res);
}

// ---- bulk_relational ----------------------------------------------------

struct Order {
  uint64_t key = 0;
  uint64_t id = 0;
  bool operator==(const Order&) const = default;
};
struct Item {
  uint64_t key = 0;
  uint64_t price = 0;
  bool operator==(const Item&) const = default;
};
constexpr auto kOrderKey = [](const Order& o) { return o.key; };
constexpr auto kItemKey = [](const Item& it) { return it.key; };
constexpr auto kItemPrice = [](const Item& it) { return it.price; };

constexpr size_t kOrders = size_t{1} << 14, kItems = size_t{1} << 16;
/// Order keys are spaced kKeyGap apart, so a band-1 join matches each item
/// to exactly its own order, like the equi-join: both fill the bound.
constexpr uint64_t kKeyGap = 4, kBand = 1;

/// TPC-H-shaped tables: 16K orders with distinct keys in shuffled order,
/// 64K lineitems whose foreign keys carry quadratic skew (a few hot orders
/// own most of the rows).
struct Tables {
  std::vector<Order> orders;
  std::vector<Item> items;
};

Tables relational_input(uint64_t seed) {
  Rng g{seed ^ 0x7e1};
  Tables t;
  t.orders.resize(kOrders);
  for (size_t i = 0; i < kOrders; ++i) {
    t.orders[i] = Order{1000 + kKeyGap * i, i};
  }
  for (size_t i = kOrders; i > 1; --i) {
    std::swap(t.orders[i - 1], t.orders[g.below(i)]);
  }
  t.items.resize(kItems);
  for (Item& it : t.items) {
    const uint64_t r = g.below(kOrders);
    it.key = 1000 + kKeyGap * (r * r / kOrders);
    it.price = 1 + g.below(500);
  }
  return t;
}

/// One relational "query": a solo equi-join, band join and group-by over
/// the tables, each harness-timed and checked against its oracle.
struct RelRound {
  double equi_s = 0, band_s = 0, group_s = 0;
  double total() const { return equi_s + band_s + group_s; }
};

constexpr double kRowsPerRound = 2.0 * (kOrders + kItems) + kItems;

class RelationalQuery {
 public:
  explicit RelationalQuery(uint64_t seed) : t_(relational_input(seed)) {
    equi_ = oracle_join(t_.orders, kOrderKey, t_.items, kItemKey, 0, kItems);
    band_ = oracle_join(t_.orders, kOrderKey, t_.items, kItemKey, kBand,
                        kItems);
    std::vector<uint64_t> keys(kItems), vals(kItems);
    for (size_t i = 0; i < kItems; ++i) {
      keys[i] = t_.items[i].key;
      vals[i] = t_.items[i].price;
    }
    for (int a = 0; a < 4; ++a) {
      group_[a] = oracle_group(keys, vals, static_cast<rel::Agg>(a), kOrders);
    }
  }

  /// Round r folds its group-by with aggregate r mod 4.
  RelRound run(Runtime& rt, Result& res, int r) const {
    const std::span<const Order> o(t_.orders);
    const std::span<const Item> it(t_.items);
    const JoinOptions jo{.output_bound = kItems, .sort = {}};
    RelRound out;
    rel::JoinResult<Order, Item> j;
    out.equi_s = timed_call(
        res, "rt.equi_join",
        [&] { j = rt.equi_join(o, kOrderKey, it, kItemKey, jo); },
        [&] { return same(j, equi_); });
    out.band_s = timed_call(
        res, "rt.band_join",
        [&] { j = rt.band_join(o, kOrderKey, it, kItemKey, kBand, jo); },
        [&] { return same(j, band_); });
    const rel::Agg agg = static_cast<rel::Agg>(r % 4);
    rel::GroupByResult g;
    out.group_s = timed_call(
        res, "rt.group_by_aggregate",
        [&] {
          g = rt.group_by_aggregate(
              it, kItemKey, kItemPrice, agg,
              GroupByOptions{.group_bound = kOrders, .sort = {}});
        },
        [&] { return same(g, group_[r % 4]); });
    return out;
  }

  /// A small equi-join: the set-up's warm-up call.
  void warm(Runtime& rt) const {
    const std::span<const Order> o(t_.orders.data(), 256);
    const std::span<const Item> it(t_.items.data(), 1024);
    (void)rt.equi_join(o, kOrderKey, it, kItemKey,
                       JoinOptions{.output_bound = 1024, .sort = {}});
  }

 private:
  Tables t_;
  rel::JoinResult<Order, Item> equi_, band_;
  rel::GroupByResult group_[4];
};

void bulk_relational(uint64_t seed, double seconds, bool trace,
                     Result& res) {
  const RelationalQuery q(seed);
  if (!trace) {
    repeat_setup(res, [&](bool first, auto&& done) {
      const Clock::time_point t0 = Clock::now();
      Runtime rt = make_runtime(seed);
      q.warm(rt);
      done(t0);
      if (first) {
        measure_calls(res, seconds, kRowsPerRound, [&](size_t i) {
          return q.run(rt, res, static_cast<int>(i)).total();
        });
      }
    });
    return;
  }

  // On one Runtime: untraced rounds for the harness-timed calls, then
  // traced rounds (one trace window per round) for the spans and registry
  // series.
  Runtime rt = make_runtime(seed);
  q.warm(rt);
  std::vector<double> total[2];
  for (int traced = 0; traced < 2; ++traced) {
    const obs::ScopedEnable gates(traced != 0, traced != 0);
    const RegSnap a = RegSnap::take();
    std::vector<double> equi, band, group;
    const Clock::time_point start = Clock::now();
    do {
      if (traced) {
        open_window("relational_round");
        g_rec.set(true);
      }
      const RelRound r = q.run(rt, res, static_cast<int>(equi.size()));
      if (traced) {
        g_rec.set(false);
        close_window();
      }
      equi.push_back(r.equi_s);
      band.push_back(r.band_s);
      group.push_back(r.group_s);
      total[traced].push_back(r.total());
    } while (secs(Clock::now() - start) + total[traced].back() <=
             0.45 * seconds);
    if (traced) {
      registry_layers(res.layer, a, RegSnap::take(),
                      kRowsPerRound * static_cast<double>(equi.size()));
    } else {
      res.layer["rel.equi_join_s"] = median(equi);
      res.layer["rel.band_join_s"] = median(band);
      res.layer["rel.group_by_s"] = median(group);
    }
  }
  res.layer["obs.trace_overhead_ratio"] =
      ratio(median(total[1]), median(total[0]));
  res.layer["obl.network_ns_per_cmp"] = network_ns_per_cmp(seed, res);
}

// ---- main ---------------------------------------------------------------

std::string compiler_id() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench_harness --workload NAME --seed N "
               "--seconds S --trace 0|1 [--trace-out PATH]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload, trace_out;
  uint64_t seed = 0;
  double seconds = 0;
  int trace = -1;
  bool have_seed = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i], v = argv[i + 1];
    char* end = nullptr;
    if (k == "--workload") {
      workload = v;
    } else if (k == "--seed") {
      seed = std::strtoull(v.c_str(), &end, 10);
      have_seed = *end == '\0' && !v.empty();
    } else if (k == "--seconds") {
      seconds = std::strtod(v.c_str(), &end);
      if (*end != '\0') seconds = 0;
    } else if (k == "--trace") {
      trace = v == "0" ? 0 : (v == "1" ? 1 : -1);
    } else if (k == "--trace-out") {
      trace_out = v;
    } else {
      return usage();
    }
  }
  if (argc % 2 != 1 || !have_seed || !(seconds > 0) || trace < 0) {
    return usage();
  }

  Result res;
  if (workload == "serve_mixed") {
    serve_mixed(seed, seconds, trace == 1, res);
  } else if (workload == "bulk_sort") {
    bulk_sort(seed, seconds, trace == 1, res);
  } else if (workload == "bulk_relational") {
    bulk_relational(seed, seconds, trace == 1, res);
  } else {
    std::fprintf(stderr, "unknown workload '%s'\n", workload.c_str());
    return usage();
  }

  const Tally& t = res.tally;
  if (trace == 0) {
    res.e2e["setup_s"] = trimmed_mean(res.setup_s);
    res.e2e["success_ratio"] =
        t.attempted ? 1.0 - static_cast<double>(t.failed()) / t.attempted : 0;
  }
  const std::vector<HSpan> hs = g_rec.take();
  if (trace == 1 && !trace_out.empty() && !write_trace(trace_out, hs)) {
    std::fprintf(stderr, "cannot write trace file %s\n", trace_out.c_str());
    return 2;
  }
  const bool correct = t.thrown == 0 && t.mismatched == 0;
  std::printf(
      "{\"workload\":%s,\"correct\":%s,\"attempted\":%llu,\"failed\":%llu,"
      "\"rejected\":%llu,\"thrown\":%llu,\"mismatched\":%llu,"
      "\"invalid\":%s,\"fingerprint\":{\"isa\":%s,\"nproc\":%u,"
      "\"compiler\":%s,\"build_type\":%s,\"seed\":%llu},"
      "\"e2e\":%s,\"layer\":%s}\n",
      jstr(workload).c_str(), correct ? "true" : "false",
      static_cast<unsigned long long>(t.attempted),
      static_cast<unsigned long long>(t.failed()),
      static_cast<unsigned long long>(t.rejected),
      static_cast<unsigned long long>(t.thrown),
      static_cast<unsigned long long>(t.mismatched),
      jstr(res.invalid).c_str(),
      jstr(obl::kernel::isa_name(obl::kernel::active_isa())).c_str(),
      std::thread::hardware_concurrency(), jstr(compiler_id()).c_str(),
      jstr(PERFBENCH_BUILD_TYPE).c_str(),
      static_cast<unsigned long long>(seed), jobj(res.e2e).c_str(),
      jobj(res.layer).c_str());
  if (!res.invalid.empty()) return 3;
  return correct ? 0 : 1;
}
