// Lemma 3.1 reproduction: REC-ORBA costs.
//
// Claims: work O(n log n), span O(log n loglog n), cache-agnostic misses
// O((n/B) log_M n). The normalized columns should be ~flat across the n
// sweep, and the cache column should track (n/B) log_M n across (M, B)
// choices the algorithm never sees.
//
// Both sweeps are recorded as BENCH_recorba.json rows (section "recorba",
// config "n_sweep" and "M=<bytes>,B=<bytes>"), so the CI snapshot diff
// gates Lemma 3.1's costs like the other tables.

#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "core/orba.hpp"
#include "util/rng.hpp"

int main() {
  using namespace dopar;
  std::printf("REC-ORBA (Lemma 3.1)\n");
  bench::print_header("n sweep",
                      "W/(n lg n) and S/(lg n lglg n) should be ~flat");
  for (size_t n : {1u << 10, 1u << 11, 1u << 12, 1u << 13, 1u << 14}) {
    util::Rng rng(n);
    std::vector<obl::Elem> in(n);
    for (size_t i = 0; i < n; ++i) in[i].key = rng();
    auto m = bench::measure([&] {
      vec<obl::Elem> v(in);
      (void)core::detail::orba(v.s(), 7, core::SortParams::auto_for(n));
    });
    bench::record("recorba", "n_sweep", n, "", m);
    const double dn = double(n);
    std::printf(
        "n=%-7zu W=%-11llu S=%-7llu Q=%-9llu | W/(n lg n)=%-6.2f "
        "S/(lg n lglg n)=%-7.1f Q/((n/B)logM n)=%.2f\n",
        n, (unsigned long long)m.work, (unsigned long long)m.span,
        (unsigned long long)m.misses, double(m.work) / (dn * bench::lg(dn)),
        double(m.span) / (bench::lg(dn) * bench::lglg(dn)),
        double(m.misses) /
            ((dn * 32.0 / bench::kB) * bench::logM(dn)));
  }

  bench::print_header(
      "(M, B) sweep at n = 2^13 (cache-agnostic check)",
      "B-scaling should be flat; flatness across M additionally needs the "
      "tall-cache assumption M = Omega(gamma*Z records), paper Sec. 3.2");
  constexpr size_t n = 1 << 13;
  util::Rng rng(n);
  std::vector<obl::Elem> in(n);
  for (size_t i = 0; i < n; ++i) in[i].key = rng();
  for (auto [M, B] : std::vector<std::pair<uint64_t, uint64_t>>{
           {64 * 1024, 64},
           {256 * 1024, 64},
           {1024 * 1024, 64},
           {256 * 1024, 128},
           {256 * 1024, 256}}) {
    auto m = bench::measure(
        [&] {
          vec<obl::Elem> v(in);
          (void)core::detail::orba(v.s(), 7, core::SortParams::auto_for(n));
        },
        true, M, B);
    bench::record("recorba",
                  "M=" + std::to_string(M) + ",B=" + std::to_string(B), n, "",
                  m);
    std::printf("M=%-8llu B=%-4llu Q=%-9llu  normalized=%.3f\n",
                (unsigned long long)M, (unsigned long long)B,
                (unsigned long long)m.misses,
                double(m.misses) * double(B) /
                    (double(n) * 32.0 * bench::logM(double(n), double(M))));
  }
  bench::write_json("BENCH_recorba.json");
  return 0;
}
