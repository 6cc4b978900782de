// Figure 5: accuracy of pathload under different tight-link loads and
// cross-traffic models.
//
// H = 3 hops, Ct = 10 Mb/s, beta = 2; tight-link utilization swept over
// {20, 50, 75, 90}% (A = 8, 5, 2.5, 1 Mb/s) with Poisson and with
// infinite-variance Pareto (alpha = 1.9) interarrivals. For each point we
// report the mean of the per-run lower and upper bounds over `runs` runs
// (the paper: 50 runs, CV 0.10-0.30).

#include <cstdio>

#include "bench/common.hpp"
#include "scenario/registry.hpp"
#include "scenario/sweep_runner.hpp"
#include "util/table.hpp"

using namespace pathload;

int main() {
  bench::banner("Fig. 5", "pathload range vs tight-link utilization and traffic model");
  const int runs = bench::runs(20);
  // Points are sharded across threads (PATHLOAD_THREADS); the thread count
  // deliberately stays out of the printout so sweeps diff byte-identical
  // regardless of parallelism.
  scenario::SweepRunner runner;
  std::printf("(runs per point: %d; PATHLOAD_RUNS=50 for paper fidelity)\n\n", runs);

  Table table{{"traffic", "util_%", "avail_Mbps", "pl_low_Mbps", "pl_high_Mbps",
               "center", "covers_A", "cv_low", "cv_high"}};

  // The path definitions live in the scenario registry; this bench only
  // sweeps their tight-link load, with plan_matrix's per-point seed
  // (seed + util*1000). `scenario_runner --run <preset> --sweep
  // load=0.2,0.5,0.75,0.9` reproduces these rows byte-for-byte.
  const auto& registry = scenario::Registry::builtin();
  const char* labels[] = {"poisson", "pareto1.9"};
  const std::vector<double> loads{0.20, 0.50, 0.75, 0.90};
  // Defaults: K=100, N=12, omega=1, chi=1.5.
  const auto cells = scenario::run_matrix(
      {bench::pathload_column()},
      {registry.at("paper-path-poisson"), registry.at("paper-path")}, loads, runs,
      bench::seed(), runner);

  for (std::size_t i = 0; i < cells.size(); ++i) {
    const scenario::MatrixCell& c = cells[i];
    table.add_row({labels[i / loads.size()], Table::num(c.load * 100, 0),
                   Table::num(c.truth.mbits_per_sec(), 1),
                   Table::num(c.mean_low().mbits_per_sec(), 2),
                   Table::num(c.mean_high().mbits_per_sec(), 2),
                   Table::num((c.mean_low() + c.mean_high()).mbits_per_sec() / 2, 2),
                   Table::num(c.coverage(Rate::zero()) * 100, 0) + "%",
                   Table::num(c.cv_low(), 2), Table::num(c.cv_high(), 2)});
  }
  table.print();
  bench::expectation(
      "the averaged pathload range [low, high] includes the true average "
      "avail-bw at every load, for both smooth (Poisson) and bursty "
      "(Pareto) cross traffic; the range center stays close to A (paper's "
      "worst case: center 1.5 vs A 1.0 Mb/s at the heaviest load).");
  return 0;
}
