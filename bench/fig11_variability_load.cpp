// Figure 11: variability of the avail-bw vs tight-link load.
//
// One path (Ct = 12.4 Mb/s, the paper's Univ-Crete-like access link),
// three utilization ranges: 20-30%, 40-50%, 75-85%. For each we run many
// pathload measurements and plot the {5,15,...,95} percentiles of the
// relative variation rho = (high - low) / center (Eq. 12).

#include <cstdio>

#include "bench/common.hpp"
#include "scenario/registry.hpp"
#include "scenario/sweep_runner.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

using namespace pathload;

int main() {
  bench::banner("Fig. 11", "CDF of relative variation rho vs tight-link load");
  const int runs = bench::runs(40);
  std::printf("(runs per load range: %d; paper used 110)\n\n", runs);

  const struct {
    const char* label;
    double lo, hi;
  } loads[] = {{"u=20-30%", 0.20, 0.30}, {"u=40-50%", 0.40, 0.50},
               {"u=75-85%", 0.75, 0.85}};

  scenario::SweepRunner runner;

  // The shared path shape (single 12.4 Mb/s hop, Pareto cross traffic,
  // 1 s warmup) lives in the registry; each point overrides only the
  // swept utilization and its seed.
  const scenario::ScenarioSpec& base = scenario::Registry::builtin().at("fig11-access");
  // Enumerate the points (drawing utilizations and seeds) sequentially so
  // the sweep is identical however many threads execute it: one
  // single-run cell of default pathload (omega = 1, chi = 1.5 Mb/s,
  // Section VI) per drawn (utilization, seed).
  bench::PathloadSweep sweep;
  for (const auto& load : loads) {
    Rng rng{bench::seed() + static_cast<std::uint64_t>(load.lo * 1000)};
    for (int i = 0; i < runs; ++i) {
      scenario::ScenarioSpec spec = base.with_load(rng.uniform(load.lo, load.hi));
      sweep.add(std::move(spec), rng.engine()());
    }
  }
  const auto rho_columns = bench::rho_columns(sweep.run(1, runner), std::size(loads));
  bench::print_rho_cdf({"percentile", "rho(u=20-30%)", "rho(u=40-50%)", "rho(u=75-85%)"},
                       rho_columns);
  std::printf("\n75th-pct ratio heavy/light: %.1fx\n",
              percentile(rho_columns[2], 0.75) /
                  std::max(1e-9, percentile(rho_columns[0], 0.75)));
  bench::expectation(
      "rho grows markedly with tight-link utilization: at u=75-85% the 75th "
      "percentile of rho is several times (paper: ~5x) its value at "
      "u=20-30%. A lightly loaded path gives more predictable throughput.");
  return 0;
}
