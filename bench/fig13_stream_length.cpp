// Figure 13: effect of the stream length K on the measured variability.
//
// Longer streams average the avail-bw over a longer timescale tau = K*T,
// and the variability of the avail-bw process decreases with the averaging
// timescale — so rho should shrink as K grows. The paper's stream
// durations: 18 ms (K=100), 36 ms (K=200), 180 ms (K=1000) on a path with
// A ~ 4.5 Mb/s.

#include <cstdio>

#include "bench/common.hpp"
#include "scenario/registry.hpp"
#include "scenario/sweep_runner.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

using namespace pathload;

int main() {
  bench::banner("Fig. 13", "CDF of rho vs stream length K (averaging timescale)");
  const int runs = bench::runs(30);
  std::printf("(runs per K: %d; paper used 110)\n\n", runs);

  scenario::SweepRunner runner;

  // The path is the registry's paper-path preset collapsed to its tight
  // link (hops = 1) at 55% load (A = 4.5 Mb/s) — a single-queue avail-bw
  // process whose variability the stream length averages over. The
  // derivation preserves the preset's Pareto model and 1 s warmup, so runs
  // are byte-identical to the pre-port inline PaperPathConfig.
  const scenario::ScenarioSpec& base = scenario::Registry::builtin().at("paper-path");
  scenario::ScenarioSpec spec = base;
  spec.paper->hops = 1;
  spec.paper->tight_utilization = 0.55;  // A = 4.5 Mb/s
  spec.hops = spec.paper->derive_hops();

  // Draw every run's seed before any run starts, so the sweep is
  // identical however many threads execute it.
  const int lengths[] = {100, 200, 1000};
  bench::PathloadSweep sweep;
  for (int k : lengths) {
    core::PathloadConfig tool;
    tool.packets_per_stream = k;
    Rng rng{bench::seed() + static_cast<std::uint64_t>(k)};
    for (int i = 0; i < runs; ++i) sweep.add(spec, rng.engine()(), tool);
  }
  const auto rho_columns = bench::rho_columns(sweep.run(1, runner), std::size(lengths));
  bench::print_rho_cdf({"percentile", "rho(K=100)", "rho(K=200)", "rho(K=1000)"},
                       rho_columns);
  std::printf("\n75th-pct rho: K=100: %.2f  K=200: %.2f  K=1000: %.2f\n",
              percentile(rho_columns[0], 0.75), percentile(rho_columns[1], 0.75),
              percentile(rho_columns[2], 0.75));
  bench::expectation(
      "the variability of the measured avail-bw decreases significantly as "
      "the stream duration (averaging timescale) increases: the 75th-pct "
      "range width shrinks from ~2.0 Mb/s at 18 ms to well below that at "
      "180 ms (paper: rho 0.44 -> ~1.04 going the *short* direction).");
  return 0;
}
