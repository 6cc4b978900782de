// Figure 6: does pathload's accuracy depend on the number and load of the
// NON-tight links?
//
// Ct = 10 Mb/s, ut = 60% (A = 4 Mb/s), beta = 2 (non-tight avail-bw fixed
// at 8 Mb/s); the non-tight utilization ux is swept over {20,40,60,80}%
// for path lengths H = 3 and H = 6. Heavier ux means more queueing noise
// at the other links — but the end-to-end avail-bw stays 4 Mb/s.

#include <cstdio>

#include "bench/common.hpp"
#include "scenario/registry.hpp"
#include "scenario/sweep_runner.hpp"
#include "util/table.hpp"

using namespace pathload;

int main() {
  bench::banner("Fig. 6", "pathload range vs non-tight link load (H = 3, 6)");
  const int runs = bench::runs(15);
  // Runs are sharded across threads (PATHLOAD_THREADS); output is
  // byte-identical for any thread count.
  scenario::SweepRunner runner;
  std::printf("(runs per point: %d)\n\n", runs);

  Table table{{"hops", "ux_%", "avail_Mbps", "pl_low_Mbps", "pl_high_Mbps", "center",
               "covers_A"}};

  // The registry's paper-path preset is the single definition of the Fig. 4
  // topology; this bench varies only its hop count and non-tight load.
  const scenario::ScenarioSpec& base = scenario::Registry::builtin().at("paper-path");

  for (int hops : {3, 6}) {
    for (double ux : {0.20, 0.40, 0.60, 0.80}) {
      scenario::ScenarioSpec spec = base;
      spec.paper->hops = hops;
      spec.paper->nontight_utilization = ux;
      spec.hops = spec.paper->derive_hops();

      core::PathloadConfig tool;
      const auto rr = scenario::sweep_scenario_repeated(
          spec, tool, runs, bench::seed() + hops * 10000 + (ux * 100),
          runner);
      const Rate truth = spec.avail_bw();
      table.add_row({Table::num(hops, 0), Table::num(ux * 100, 0),
                     Table::num(truth.mbits_per_sec(), 1),
                     Table::num(rr.mean_low().mbits_per_sec(), 2),
                     Table::num(rr.mean_high().mbits_per_sec(), 2),
                     Table::num((rr.mean_low() + rr.mean_high()).mbits_per_sec() / 2, 2),
                     Table::num(rr.coverage(truth) * 100, 0) + "%"});
    }
  }
  table.print();
  bench::expectation(
      "the estimated range includes A = 4 Mb/s independent of the number of "
      "non-tight links or their load; range center within ~10% of A. The "
      "non-tight links add OWD noise but do not change the trend formed at "
      "the tight link.");
  return 0;
}
