// Relational-operator costs over TPC-H-shaped inputs: an orders table with
// distinct keys joined against a lineitems table whose foreign keys carry
// quadratic multiplicity skew (a few hot orders own most of the rows —
// the adversarial shape for an oblivious join, which must pad every row
// to the public bound regardless).
//
// Section "join" rows are deterministic analytic model counters (work,
// span, ideal-cache misses) and are gated by the CI snapshot diff;
// section "join_wall" rows are wall-clock microseconds on a native
// multi-threaded Runtime (machine-dependent: report-only, listed in
// scripts/check_bench_snapshots.py WALL_CLOCK_SECTIONS).

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <span>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "dopar.hpp"

namespace {

using namespace dopar;
using Clock = std::chrono::steady_clock;
constexpr int kWallIters = 3;

struct Order {
  uint64_t key = 0;
  uint64_t id = 0;
};
struct Item {
  uint64_t key = 0;
  uint64_t price = 0;
};

constexpr auto kOrderKey = [](const Order& o) { return o.key; };
constexpr auto kItemKey = [](const Item& it) { return it.key; };
constexpr auto kItemPrice = [](const Item& it) { return it.price; };

std::vector<Order> make_orders(size_t n) {
  std::vector<Order> v(n);
  for (size_t i = 0; i < n; ++i) v[i] = Order{1000 + i, i};
  return v;
}

std::vector<Item> make_items(size_t n, size_t orders) {
  std::vector<Item> v(n);
  for (size_t i = 0; i < n; ++i) {
    const uint64_t r = util::hash_rand(0x11e1, i) % orders;
    v[i].key = 1000 + r * r / orders;  // quadratic foreign-key skew
    v[i].price = 1 + util::hash_rand(0x9c1e, i) % 500;
  }
  return v;
}

Runtime analytic_rt(const std::string& backend) {
  return Runtime::builder().seed(1).backend(backend).cache(
      bench::kM, bench::kB).build();
}

bench::Measure snap(Runtime& rt) {
  bench::Measure m;
  m.work = rt.cost().work;
  m.span = rt.cost().span;
  m.misses = rt.cache_misses();
  return m;
}

void analytic_equi(size_t nl, const std::string& backend) {
  const auto L = make_orders(nl);
  const auto R = make_items(4 * nl, nl);
  auto rt = analytic_rt(backend);
  // Each item references exactly one order, so |items| is a tight bound.
  const auto res = rt.equi_join(std::span<const Order>(L), kOrderKey,
                                std::span<const Item>(R), kItemKey,
                                JoinOptions{.output_bound = R.size(),
                                            .sort = {}});
  const bench::Measure m = snap(rt);
  bench::record("join", "equi", R.size(), backend, m);
  std::printf("%10s %8s %8zu %14llu %10llu %10llu %8llu\n", "equi",
              backend.c_str(), R.size(), (unsigned long long)m.work,
              (unsigned long long)m.span, (unsigned long long)m.misses,
              (unsigned long long)res.matched);
}

void analytic_band(size_t nl, const std::string& backend) {
  const auto L = make_orders(nl);
  const auto R = make_items(4 * nl, nl);
  auto rt = analytic_rt(backend);
  // band=2 matches up to 5 consecutive order keys per item; bound 6x.
  const auto res = rt.band_join(std::span<const Order>(L), kOrderKey,
                                std::span<const Item>(R), kItemKey, 2,
                                JoinOptions{.output_bound = 6 * L.size(),
                                            .sort = {}});
  const bench::Measure m = snap(rt);
  bench::record("join", "band", R.size(), backend, m);
  std::printf("%10s %8s %8zu %14llu %10llu %10llu %8llu\n", "band",
              backend.c_str(), R.size(), (unsigned long long)m.work,
              (unsigned long long)m.span, (unsigned long long)m.misses,
              (unsigned long long)res.matched);
}

void analytic_group(size_t nl, const std::string& backend) {
  const auto R = make_items(4 * nl, nl);
  auto rt = analytic_rt(backend);
  const auto res = rt.group_by_aggregate(
      std::span<const Item>(R), kItemKey, kItemPrice, Agg::Sum,
      GroupByOptions{.group_bound = nl, .sort = {}});
  const bench::Measure m = snap(rt);
  bench::record("join", "group_by", R.size(), backend, m);
  std::printf("%10s %8s %8zu %14llu %10llu %10llu %8llu\n", "group_by",
              backend.c_str(), R.size(), (unsigned long long)m.work,
              (unsigned long long)m.span, (unsigned long long)m.misses,
              (unsigned long long)res.groups_total);
}

/// Best-of-kWallIters wall time of one join on a native all-cores Runtime
/// (equi, or band with band 2 and a 6x bound as in analytic_band).
void wall_join(size_t nl, bool banded) {
  const auto L = make_orders(nl);
  const auto R = make_items(4 * nl, nl);
  auto rt = Runtime::builder().threads(0).seed(1).build();
  const JoinOptions jo{.output_bound = banded ? 6 * L.size() : R.size(),
                       .sort = {}};
  double best = 1e18;
  uint64_t matched = 0;
  for (int it = 0; it < kWallIters; ++it) {
    const auto t0 = Clock::now();
    const auto res =
        banded ? rt.band_join(std::span<const Order>(L), kOrderKey,
                              std::span<const Item>(R), kItemKey, 2, jo)
               : rt.equi_join(std::span<const Order>(L), kOrderKey,
                              std::span<const Item>(R), kItemKey, jo);
    const double us =
        std::chrono::duration<double, std::micro>(Clock::now() - t0).count();
    if (us < best) best = us;
    matched = res.matched;
  }
  const char* op = banded ? "band" : "equi";
  bench::record_wall("join_wall", op, R.size(), "bitonic_ca", best);
  std::printf("%10s %8s %8zu %12.0fus %8llu\n", op, "wall", R.size(), best,
              (unsigned long long)matched);
}

}  // namespace

int main() {
  bench::print_header(
      "oblivious relational operators (TPC-H-shaped, skewed FK)",
      "        op  backend        n           work       span     misses"
      "  matched");
  for (size_t nl : {size_t{256}, size_t{1024}, size_t{4096}}) {
    analytic_equi(nl, "bitonic_ca");
  }
  analytic_equi(1024, "osort");
  analytic_band(1024, "bitonic_ca");
  for (size_t nl : {size_t{1024}, size_t{4096}}) {
    analytic_group(nl, "bitonic_ca");
  }
  bench::print_header("wall-clock (native, all cores; report-only)",
                      "        op            n         best");
  wall_join(4096, false);
  wall_join(4096, true);
  bench::write_json("BENCH_join.json");
  return 0;
}
