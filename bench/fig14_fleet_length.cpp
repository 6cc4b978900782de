// Figure 14: effect of the fleet length N on the measured variability.
//
// A fleet samples the R-vs-A relation N times over a fleet duration that
// grows with N: a longer measurement window tracks wider excursions of the
// avail-bw process, so the grey region — and rho — grow with N; at the
// same time the run-to-run variation of the width shrinks (steeper CDF).

#include <cstdio>

#include "bench/common.hpp"
#include "scenario/registry.hpp"
#include "scenario/sweep_runner.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

using namespace pathload;

int main() {
  bench::banner("Fig. 14", "CDF of rho vs fleet length N");
  const int runs = bench::runs(30);
  std::printf("(runs per N: %d; paper used 110)\n\n", runs);

  Table table{{"percentile", "rho(N=6)", "rho(N=12)", "rho(N=24)"}};
  std::vector<std::vector<double>> rho_columns;
  std::vector<double> spreads;
  scenario::SweepRunner runner;

  // Same path derivation as bench/fig13: the paper-path preset collapsed
  // to its tight link at 55% load, byte-identical to the pre-port inline
  // PaperPathConfig.
  const scenario::ScenarioSpec& base = scenario::Registry::builtin().at("paper-path");
  scenario::ScenarioSpec spec = base;
  spec.paper->hops = 1;
  spec.paper->tight_utilization = 0.55;
  spec.hops = spec.paper->derive_hops();

  for (int n : {6, 12, 24}) {
    // Seeds are drawn before any run starts (see bench/fig13).
    Rng rng{bench::seed() + static_cast<std::uint64_t>(n)};
    std::vector<std::uint64_t> seeds;
    for (int i = 0; i < runs; ++i) seeds.push_back(rng.engine()());

    core::PathloadConfig tool;
    tool.streams_per_fleet = n;
    const auto results = runner.map(seeds.size(), [&](std::size_t i) {
      return scenario::run_scenario_once(spec, tool, seeds[i]);
    });
    std::vector<double> rhos;
    for (const auto& r : results) rhos.push_back(r.range.relative_variation());
    spreads.push_back(percentile(rhos, 0.95) - percentile(rhos, 0.05));
    rho_columns.push_back(std::move(rhos));
  }

  for (int p = 5; p <= 95; p += 10) {
    std::vector<std::string> row{Table::num(p, 0)};
    for (const auto& col : rho_columns) {
      row.push_back(Table::num(percentile(col, p / 100.0), 3));
    }
    table.add_row(std::move(row));
  }
  table.print();
  std::printf("\nmedian rho: N=6: %.2f  N=12: %.2f  N=24: %.2f\n",
              percentile(rho_columns[0], 0.5), percentile(rho_columns[1], 0.5),
              percentile(rho_columns[2], 0.5));
  std::printf("CDF spread (p95-p5): N=6: %.2f  N=12: %.2f  N=24: %.2f\n", spreads[0],
              spreads[1], spreads[2]);
  bench::expectation(
      "as the fleet duration grows (larger N), the measured variability "
      "increases while the variation across runs decreases (steeper CDF).");
  return 0;
}
