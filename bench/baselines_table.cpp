// Section II context: what the other measurement families report on the
// same path. cprobe-style train dispersion measures the ADR (not A);
// packet pairs measure the capacity C; TOPP and SLoPS measure A.
//
// Built on the generic comparison harness (scenario::run_matrix): every
// registered probe-stream estimator runs over the same single-tight-link
// scenario at three loads, each on fresh seeded testbeds, and the rows
// carry the harness's uniform accuracy/intrusiveness quantities. The same
// table (plus BTC) is one command away:
//   scenario_runner --compare --scenario paper-path --load 0.5

#include <cstdio>

#include "baselines/estimators.hpp"
#include "bench/common.hpp"
#include "scenario/experiment.hpp"
#include "scenario/sweep_runner.hpp"
#include "util/table.hpp"

using namespace pathload;

int main() {
  bench::banner("Baselines", "pathload vs cprobe(ADR) vs packet-pair vs TOPP vs Delphi");
  const int runs = bench::runs(3);
  std::printf("(runs per cell: %d)\n\n", runs);

  // The paper's single-queue context path: one 10 Mb/s link, smooth
  // (Poisson) cross traffic — the topology where every family's model
  // assumptions at least nominally hold.
  scenario::PaperPathConfig path;
  path.hops = 1;
  path.tight_capacity = Rate::mbps(10);
  path.model = sim::Interarrival::kExponential;
  auto spec = scenario::ScenarioSpec::from_paper(
      "single-tight", "one 10 Mb/s queue, Poisson cross traffic", path);
  spec.warmup = Duration::seconds(1);

  const core::EstimatorRegistry& reg = baselines::builtin_estimators();
  const std::vector<scenario::MatrixEstimator> estimators = {
      scenario::MatrixEstimator::from_registry(reg, "pathload"),
      scenario::MatrixEstimator::from_registry(reg, "cprobe"),
      scenario::MatrixEstimator::from_registry(reg, "pktpair"),
      scenario::MatrixEstimator::from_registry(
          reg, "topp",
          "min_rate_mbps=1, max_rate_mbps=16, step_mbps=0.5, packets_per_train=50"),
      scenario::MatrixEstimator::from_registry(reg, "delphi", "capacity_mbps=10"),
  };

  scenario::SweepRunner runner;
  const auto cells = scenario::run_matrix(estimators, {spec}, {0.3, 0.5, 0.7},
                                          runs, bench::seed(), runner);

  Table table{{"util_%", "A_Mbps", "estimator", "reports", "value_Mbps", "err_%",
               "probe_MB", "time_s"}};
  // Group rows by load for readability: the matrix is estimator-major.
  for (double util : {0.3, 0.5, 0.7}) {
    for (const scenario::MatrixCell& c : cells) {
      if (c.load != util) continue;
      const auto& entry = reg.at(c.estimator);
      const bool any_valid = c.valid_runs() > 0;
      table.add_row({Table::num(util * 100, 0),
                     Table::num(c.truth.mbits_per_sec(), 1), c.estimator,
                     entry.quantity,
                     any_valid ? Table::num(c.mean_center().mbits_per_sec(), 2)
                               : "n/a",
                     any_valid ? Table::num(c.mean_rel_error() * 100, 1) : "n/a",
                     Table::num(c.mean_bytes().bits() / 8e6, 2),
                     Table::num(c.mean_elapsed().secs(), 1)});
    }
  }
  table.print();
  bench::expectation(
      "pathload and TOPP track A = C(1-u); cprobe's train dispersion sits "
      "between A and C (it measures the ADR — the Section II critique); "
      "packet pairs track C regardless of load. Delphi follows the load "
      "trend but needs C a priori, is biased whenever the queue drains "
      "between its probes (each drained pair anchors lambda to C - L/din), "
      "and breaks outright when the tight and narrow links differ — the "
      "single-queue-model weaknesses Section II points out.");
  return 0;
}
