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

  // Full algorithm at two grey resolutions, then the naive variant: force
  // grey fleets to count as "above" by requiring only a minimal agreement
  // (f -> 0.5 makes almost every fleet decisive) — the closest
  // configuration-level approximation of "no grey region".
  core::PathloadConfig chi_coarse, chi_fine, no_grey;
  chi_coarse.chi = Rate::mbps(1.5);
  chi_fine.chi = Rate::mbps(0.5);
  no_grey.fleet_fraction = 0.51;
  const struct {
    const char* variant;
    const char* chi;
    core::PathloadConfig tool;
  } variants[] = {{"grey-region", "1.5", chi_coarse},
                  {"grey-region", "0.5", chi_fine},
                  {"no-grey(f=0.51)", "-", no_grey}};

  bench::PathloadSweep sweep;
  for (const auto& v : variants) sweep.add(spec, bench::seed(), v.tool);
  const auto cells = sweep.run(runs, runner);
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const scenario::MatrixCell& c = cells[i];
    table.add_row({variants[i].variant, variants[i].chi,
                   Table::num(c.mean_low().mbits_per_sec(), 2),
                   Table::num(c.mean_high().mbits_per_sec(), 2),
                   Table::num(c.coverage(Rate::zero()) * 100, 0) + "%",
                   Table::num(c.mean_fleets(), 1),
                   Table::num(c.mean_elapsed().secs(), 1)});
  }
  table.print();
  bench::expectation(
      "without a grey region the tool reports a deceptively narrow range "
      "that misses the true variation band more often; the grey region "
      "widens the report to cover the avail-bw excursions, at bounded "
      "extra width (<= 2*chi, Section VI).");
  return 0;
}
