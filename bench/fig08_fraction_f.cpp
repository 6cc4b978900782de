// Figure 8: effect of the fleet agreement fraction f on the reported range.
//
// Ct = 10 Mb/s, ut = 50% (A = 5 Mb/s), Pareto cross traffic. The reported
// range here is from single pathload runs (as in the paper's figure): a
// higher f makes it harder for a fleet to be decisively I or N, so the
// grey region — and with it the reported range — widens.

#include <cstdio>

#include "bench/common.hpp"
#include "scenario/registry.hpp"
#include "scenario/sweep_runner.hpp"
#include "util/table.hpp"

using namespace pathload;

int main() {
  bench::banner("Fig. 8", "reported avail-bw range vs fleet fraction f");
  const int repeats = bench::runs(8);  // average a few single-run ranges
  // Runs are sharded across threads (PATHLOAD_THREADS); output is
  // byte-identical for any thread count.
  scenario::SweepRunner runner;
  std::printf("(single-run ranges, averaged over %d seeds)\n\n", repeats);

  Table table{{"f", "avail_Mbps", "low_Mbps", "high_Mbps", "width_Mbps"}};

  // The Fig. 4 topology from the registry, at the figure's 50% tight load
  // (A = 5 Mb/s); only the tool's fleet fraction varies.
  const scenario::ScenarioSpec spec =
      scenario::Registry::builtin().at("paper-path").with_load(0.5);

  for (double f : {0.5, 0.6, 0.7, 0.8, 0.9}) {
    core::PathloadConfig tool;
    tool.fleet_fraction = f;

    const auto rr = scenario::sweep_scenario_repeated(
        spec, tool, repeats, bench::seed() + (f * 100), runner);
    table.add_row({Table::num(f, 2), "5.0",
                   Table::num(rr.mean_low().mbits_per_sec(), 2),
                   Table::num(rr.mean_high().mbits_per_sec(), 2),
                   Table::num((rr.mean_high() - rr.mean_low()).mbits_per_sec(), 2)});
  }
  table.print();
  bench::expectation(
      "as f increases, the width of the grey region — and hence of the "
      "estimated avail-bw range — increases.");
  return 0;
}
