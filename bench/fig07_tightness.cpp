// Figure 7: accuracy vs the path tightness factor beta = Ax / At.
//
// As beta -> 1 every link's avail-bw approaches the tight link's; with
// beta = 1 and ux = ut ALL links are tight links. The paper's key negative
// result: pathload underestimates the avail-bw when the path has several
// tight links, and the error grows with the hop count (probability
// 1 - (1 - p)^M that some link imprints an increasing trend).

#include <cstdio>

#include "bench/common.hpp"
#include "scenario/registry.hpp"
#include "scenario/sweep_runner.hpp"
#include "util/table.hpp"

using namespace pathload;

int main() {
  bench::banner("Fig. 7", "pathload range vs path tightness factor beta (H = 3, 6)");
  const int runs = bench::runs(15);
  // Runs are sharded across threads (PATHLOAD_THREADS); output is
  // byte-identical for any thread count.
  scenario::SweepRunner runner;
  std::printf("(runs per point: %d)\n\n", runs);

  Table table{{"hops", "beta", "avail_Mbps", "pl_low_Mbps", "pl_high_Mbps", "center",
               "covers_A", "underest_%"}};

  // The registry's paper-path preset is the single definition of the Fig. 4
  // topology; this bench varies only its hop count and tightness factor.
  const scenario::ScenarioSpec& base = scenario::Registry::builtin().at("paper-path");

  for (int hops : {3, 6}) {
    for (double beta : {1.0, 1.2, 1.5, 2.0}) {
      scenario::ScenarioSpec spec = base;
      spec.paper->hops = hops;
      spec.paper->beta = beta;
      spec.hops = spec.paper->derive_hops();

      core::PathloadConfig tool;
      const auto rr = scenario::sweep_scenario_repeated(
          spec, tool, runs, bench::seed() + hops * 1000 + (beta * 100),
          runner);
      const Rate truth = spec.avail_bw();
      const double center =
          (rr.mean_low() + rr.mean_high()).mbits_per_sec() / 2.0;
      const double underestimate =
          (truth.mbits_per_sec() - center) / truth.mbits_per_sec() * 100.0;
      table.add_row({Table::num(hops, 0), Table::num(beta, 1),
                     Table::num(truth.mbits_per_sec(), 1),
                     Table::num(rr.mean_low().mbits_per_sec(), 2),
                     Table::num(rr.mean_high().mbits_per_sec(), 2),
                     Table::num(center, 2),
                     Table::num(rr.coverage(truth) * 100, 0) + "%",
                     Table::num(underestimate, 1)});
    }
  }
  table.print();
  bench::expectation(
      "with a single tight link (beta >= 1.5) the range covers A = 4 Mb/s; "
      "as beta -> 1 (all links tight) pathload underestimates, and the "
      "underestimation is larger for H = 6 than for H = 3.");
  return 0;
}
