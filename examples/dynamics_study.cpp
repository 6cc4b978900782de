// Avail-bw dynamics study (the Section VI workflow in miniature): how
// does the variability of the available bandwidth change with load?
//
//   $ ./build/examples/dynamics_study [runs-per-point]
//
// For each utilization point, runs several pathload measurements and
// reports the distribution of the relative variation rho = width/center
// (Eq. 12). Demonstrates the experiment harness: a pathload column,
// one planned cell per point, and the cells' reducers.

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <vector>

#include "core/session.hpp"
#include "scenario/experiment.hpp"
#include "scenario/sweep_runner.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

using namespace pathload;

int main(int argc, char** argv) {
  const int runs = argc > 1 ? std::atoi(argv[1]) : 10;

  Table table{{"util_%", "avail_Mbps", "mean_low", "mean_high", "rho_p25", "rho_p50",
               "rho_p75"}};

  // Each measurement is an independent seeded testbed, so the repetitions
  // shard across a thread pool (PATHLOAD_THREADS to pin the width) without
  // changing a digit of the output.
  scenario::SweepRunner runner;

  scenario::PaperPathConfig path;
  path.hops = 1;
  path.tight_capacity = Rate::mbps(12.4);
  path.model = sim::Interarrival::kPareto;
  const auto base = scenario::ScenarioSpec::from_paper("dynamics", "", path);
  const scenario::MatrixEstimator pathload{
      "pathload", [] { return std::make_unique<core::PathloadSession>(); }};

  std::vector<scenario::MatrixCellPlan> plans;
  for (double util : {0.2, 0.4, 0.6, 0.8}) {
    plans.push_back({&pathload, base.with_load(util), util,
                     static_cast<std::uint64_t>(42 + util * 100)});
  }
  for (const scenario::MatrixCell& c : scenario::run_planned_cells(plans, runs, runner)) {
    const auto rhos = c.relative_variations();
    table.add_row({Table::num(c.load * 100, 0),
                   Table::num(12.4 * (1 - c.load), 1),
                   Table::num(c.mean_low().mbits_per_sec(), 2),
                   Table::num(c.mean_high().mbits_per_sec(), 2),
                   Table::num(percentile(rhos, 0.25), 2),
                   Table::num(percentile(rhos, 0.50), 2),
                   Table::num(percentile(rhos, 0.75), 2)});
  }
  table.print();
  std::printf(
      "\nTakeaway (paper Section VI): the heavier the tight link's load, the\n"
      "less predictable the path — rho grows as the avail-bw shrinks.\n");
  return 0;
}
