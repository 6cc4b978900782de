// Figure 9: effect of the PDT threshold on accuracy, using ONLY the PDT
// metric for trend detection (as the paper does for this figure).
//
// A too-small threshold lets noise mark streams as type I (R "looks" above
// A) -> underestimation. A too-large threshold misses real trends -> the
// tool overestimates. The paper notes the PCT threshold behaves alike.

#include <cstdio>

#include "bench/common.hpp"
#include "scenario/registry.hpp"
#include "scenario/sweep_runner.hpp"
#include "util/table.hpp"

using namespace pathload;

int main() {
  bench::banner("Fig. 9", "pathload range vs PDT threshold (PDT-only detection)");
  const int repeats = bench::runs(8);
  // Runs are sharded across threads (PATHLOAD_THREADS); output is
  // byte-identical for any thread count.
  scenario::SweepRunner runner;
  std::printf("(averaged over %d seeds)\n\n", repeats);

  Table table{{"pdt_thresh", "avail_Mbps", "low_Mbps", "high_Mbps", "center"}};

  // The Fig. 4 topology from the registry at 50% tight load (A = 5 Mb/s);
  // only the trend-detection threshold varies.
  const scenario::ScenarioSpec spec =
      scenario::Registry::builtin().at("paper-path").with_load(0.5);

  const double thresholds[] = {0.05, 0.20, 0.40, 0.60, 0.80, 0.95};
  bench::PathloadSweep sweep;
  for (double thr : thresholds) {
    core::PathloadConfig tool;
    tool.trend.mode = core::TrendConfig::Mode::kPdtOnly;
    tool.trend.pdt_threshold = thr;
    sweep.add(spec, static_cast<std::uint64_t>(bench::seed() + (thr * 100)), tool);
  }
  const auto cells = sweep.run(repeats, runner);
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const scenario::MatrixCell& c = cells[i];
    table.add_row({Table::num(thresholds[i], 2), "5.0",
                   Table::num(c.mean_low().mbits_per_sec(), 2),
                   Table::num(c.mean_high().mbits_per_sec(), 2),
                   Table::num((c.mean_low() + c.mean_high()).mbits_per_sec() / 2, 2)});
  }
  table.print();
  bench::expectation(
      "pathload underestimates the avail-bw when the PDT threshold is too "
      "small (~0) and overestimates when it is too large (~1); thresholds "
      "around the default 0.4 bracket A.");
  return 0;
}
