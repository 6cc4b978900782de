// Ablation: what the grey region buys.
//
// SLoPS extends plain binary search with grey bounds [Gmin, Gmax] and a
// second resolution chi. We compare the full algorithm against a
// "no-grey" variant (grey verdicts treated as R > A, a common naive
// simplification) on a bursty path where the avail-bw genuinely varies at
// stream timescale.

#include <cstdio>

#include "bench/common.hpp"
#include "scenario/registry.hpp"
#include "scenario/sweep_runner.hpp"
#include "util/table.hpp"

using namespace pathload;

int main() {
  bench::banner("Ablation", "grey region on vs off (bursty path, u = 75%)");
  const int runs = bench::runs(12);
  // Runs are sharded across threads (PATHLOAD_THREADS); output is
  // byte-identical for any thread count.
  scenario::SweepRunner runner;

  Table table{{"variant", "chi_Mbps", "low_Mbps", "high_Mbps", "covers_A",
               "fleets", "latency_s"}};

  // The registry's paper-path preset is the topology baseline; this bench
  // collapses it to a single heavily loaded, weakly multiplexed hop.
  const scenario::ScenarioSpec& base = scenario::Registry::builtin().at("paper-path");
  scenario::ScenarioSpec spec = base;
  spec.paper->hops = 1;
  spec.paper->tight_utilization = 0.75;  // A = 2.5 Mb/s, heavy + bursty
  spec.paper->sources_per_link = 4;      // low multiplexing -> strong variability
  spec.hops = spec.paper->derive_hops();

  // Full algorithm at two grey resolutions.
  for (double chi : {1.5, 0.5}) {
    core::PathloadConfig tool;
    tool.chi = Rate::mbps(chi);
    const auto rr =
        scenario::sweep_scenario_repeated(spec, tool, runs, bench::seed(), runner);
    table.add_row({"grey-region", Table::num(chi, 1),
                   Table::num(rr.mean_low().mbits_per_sec(), 2),
                   Table::num(rr.mean_high().mbits_per_sec(), 2),
                   Table::num(rr.coverage(Rate::mbps(2.5)) * 100, 0) + "%",
                   Table::num(rr.mean_fleets(), 1),
                   Table::num(rr.mean_elapsed().secs(), 1)});
  }

  // Naive variant: force grey fleets to count as "above" by requiring only
  // a minimal agreement (f -> 0.5 makes almost every fleet decisive) —
  // the closest configuration-level approximation of "no grey region".
  {
    core::PathloadConfig tool;
    tool.fleet_fraction = 0.51;
    const auto rr =
        scenario::sweep_scenario_repeated(spec, tool, runs, bench::seed(), runner);
    table.add_row({"no-grey(f=0.51)", "-",
                   Table::num(rr.mean_low().mbits_per_sec(), 2),
                   Table::num(rr.mean_high().mbits_per_sec(), 2),
                   Table::num(rr.coverage(Rate::mbps(2.5)) * 100, 0) + "%",
                   Table::num(rr.mean_fleets(), 1),
                   Table::num(rr.mean_elapsed().secs(), 1)});
  }
  table.print();
  bench::expectation(
      "without a grey region the tool reports a deceptively narrow range "
      "that misses the true variation band more often; the grey region "
      "widens the report to cover the avail-bw excursions, at bounded "
      "extra width (<= 2*chi, Section VI).");
  return 0;
}
