// Tests for the comparison harness: cell layout, thread-count independence,
// agreement with single runs, and the cell reducers the figures print.

#include <gtest/gtest.h>

#include <cmath>

#include "baselines/estimators.hpp"
#include "core/session.hpp"
#include "scenario/experiment.hpp"
#include "scenario/registry.hpp"
#include "scenario/sweep_runner.hpp"

namespace pathload::scenario {
namespace {

const core::EstimatorRegistry& reg() { return baselines::builtin_estimators(); }

ScenarioSpec quick_paper_path() {
  ScenarioSpec spec = Registry::builtin().at("paper-path");
  spec.warmup = Duration::milliseconds(300);
  return spec;
}

TEST(RunMatrix, CellGridIsEstimatorMajorWithDerivedSeeds) {
  const std::vector<MatrixEstimator> ests = {
      MatrixEstimator::from_registry(reg(), "cprobe", "trains=2, train_length=30"),
      MatrixEstimator::from_registry(reg(), "pktpair", "pairs=10"),
  };
  SweepRunner runner{1};
  const auto cells = run_matrix(ests, {quick_paper_path()}, {0.3, 0.6},
                                /*runs=*/2, /*seed0=*/500, runner);
  ASSERT_EQ(cells.size(), 4u);
  EXPECT_EQ(cells[0].estimator, "cprobe");
  EXPECT_EQ(cells[0].load, 0.3);
  EXPECT_EQ(cells[0].seed0, 800u);  // 500 + 0.3 * 1000, the fig05 derivation
  EXPECT_EQ(cells[1].estimator, "cprobe");
  EXPECT_EQ(cells[1].load, 0.6);
  EXPECT_EQ(cells[1].seed0, 1100u);
  EXPECT_EQ(cells[2].estimator, "pktpair");
  EXPECT_EQ(cells[3].estimator, "pktpair");
  for (const auto& cell : cells) {
    EXPECT_EQ(cell.scenario, "paper-path");
    EXPECT_EQ(cell.reports.size(), 2u);
    EXPECT_EQ(cell.truth, Rate::mbps(10) * (1.0 - cell.load));
  }
}

TEST(RunMatrix, EmptyLoadListRunsEachScenarioAtItsOwnOperatingPoint) {
  const std::vector<MatrixEstimator> ests = {
      MatrixEstimator::from_registry(reg(), "cprobe", "trains=1, train_length=20"),
  };
  ScenarioSpec tight = Registry::builtin().at("tight-not-narrow");
  tight.warmup = Duration::milliseconds(300);
  SweepRunner runner{1};
  const auto cells =
      run_matrix(ests, {quick_paper_path(), tight}, {}, /*runs=*/1, 7, runner);
  ASSERT_EQ(cells.size(), 2u);
  EXPECT_EQ(cells[0].load, 0.6);  // paper-path's configured tight load
  EXPECT_EQ(cells[1].load, 0.8);  // tight-not-narrow's middle hop
  EXPECT_EQ(cells[0].seed0, 7u);
  EXPECT_EQ(cells[1].seed0, 7u);
}

TEST(RunMatrix, ResultsAreIndependentOfThreadCount) {
  const std::vector<MatrixEstimator> ests = {
      MatrixEstimator::from_registry(reg(), "cprobe", "trains=2, train_length=30"),
      MatrixEstimator::from_registry(reg(), "pktpair", "pairs=10"),
  };
  SweepRunner one{1};
  SweepRunner four{4};
  const auto a = run_matrix(ests, {quick_paper_path()}, {0.5}, 3, 42, one);
  const auto b = run_matrix(ests, {quick_paper_path()}, {0.5}, 3, 42, four);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i].reports.size(), b[i].reports.size());
    for (std::size_t r = 0; r < a[i].reports.size(); ++r) {
      EXPECT_EQ(a[i].reports[r].low.bits_per_sec(),
                b[i].reports[r].low.bits_per_sec());
      EXPECT_EQ(a[i].reports[r].elapsed.nanos(), b[i].reports[r].elapsed.nanos());
      EXPECT_EQ(a[i].reports[r].bytes_sent.byte_count(),
                b[i].reports[r].bytes_sent.byte_count());
    }
  }
}

TEST(RunMatrix, PathloadCellReproducesSingleRuns) {
  // A registry pathload cell holds, in seed order, exactly the reports of
  // single runs of a default PathloadSession at the cell's derived seeds
  // (the figure benches' pathload columns rely on both halves).
  const ScenarioSpec spec = quick_paper_path();
  const std::vector<MatrixEstimator> ests = {
      MatrixEstimator::from_registry(reg(), "pathload"),
  };
  SweepRunner runner{2};
  const auto cells = run_matrix(ests, {spec}, {0.5}, 2, 1000, runner);
  ASSERT_EQ(cells.size(), 1u);
  ASSERT_EQ(cells[0].reports.size(), 2u);
  for (std::size_t i = 0; i < cells[0].reports.size(); ++i) {
    core::PathloadSession pathload;
    const auto single = run_estimator_once(spec.with_load(0.5), pathload,
                                           /*seed=*/1500 + i);
    const core::EstimateReport& r = cells[0].reports[i];
    EXPECT_EQ(r.low.bits_per_sec(), single.low.bits_per_sec());
    EXPECT_EQ(r.high.bits_per_sec(), single.high.bits_per_sec());
    EXPECT_EQ(r.elapsed.nanos(), single.elapsed.nanos());
    EXPECT_EQ(r.bytes_sent.byte_count(), single.bytes_sent.byte_count());
    EXPECT_EQ(r.iterations.size(), single.iterations.size());
  }
}

core::EstimateReport range_report(double low_mbps, double high_mbps, int fleets) {
  core::EstimateReport r;
  r.valid = true;
  r.is_range = true;
  r.low = Rate::mbps(low_mbps);
  r.high = Rate::mbps(high_mbps);
  r.elapsed = Duration::seconds(10);
  r.iterations.resize(static_cast<std::size_t>(fleets));
  return r;
}

TEST(MatrixCell, PathloadReducersAggregateCorrectly) {
  MatrixCell cell;
  cell.truth = Rate::mbps(4.2);
  for (double low : {2.0, 3.0, 4.0}) {
    cell.reports.push_back(range_report(low, low + 2.0, /*fleets=*/5));
  }
  EXPECT_EQ(cell.mean_low(), Rate::mbps(3.0));
  EXPECT_EQ(cell.mean_high(), Rate::mbps(5.0));
  EXPECT_DOUBLE_EQ(cell.mean_fleets(), 5.0);
  EXPECT_EQ(cell.mean_elapsed(), Duration::seconds(10));
  // truth = 4.2: contained in [3,5] and [4,6] but not [2,4].
  EXPECT_NEAR(cell.coverage(Rate::zero()), 2.0 / 3.0, 1e-12);
  // Lows 2, 3, 4 and highs 4, 5, 6 Mb/s: sample stddev 1 over means 3, 5.
  EXPECT_DOUBLE_EQ(cell.cv_low(), 1.0 / 3.0);
  EXPECT_DOUBLE_EQ(cell.cv_high(), 1.0 / 5.0);
  // rho = width / center = 2/3, 2/4, 2/5, in report order.
  const std::vector<double> rhos = cell.relative_variations();
  ASSERT_EQ(rhos.size(), 3u);
  EXPECT_DOUBLE_EQ(rhos[0], 2.0 / 3.0);
  EXPECT_DOUBLE_EQ(rhos[1], 2.0 / 4.0);
  EXPECT_DOUBLE_EQ(rhos[2], 2.0 / 5.0);
}

TEST(MatrixCell, PathloadReducersOnEmptyCellAreSafe) {
  const MatrixCell cell;
  EXPECT_EQ(cell.coverage(Rate::zero()), 0.0);
  EXPECT_EQ(cell.mean_fleets(), 0.0);
  EXPECT_EQ(cell.mean_elapsed(), Duration::zero());
  EXPECT_EQ(cell.cv_low(), 0.0);
  EXPECT_EQ(cell.cv_high(), 0.0);
  EXPECT_TRUE(cell.relative_variations().empty());
}

TEST(RunMatrix, AggregatesReduceTheReports) {
  const std::vector<MatrixEstimator> ests = {
      MatrixEstimator::from_registry(reg(), "pktpair", "pairs=12"),
  };
  SweepRunner runner{1};
  const auto cells = run_matrix(ests, {quick_paper_path()}, {0.4}, 2, 9, runner);
  ASSERT_EQ(cells.size(), 1u);
  const MatrixCell& c = cells[0];
  EXPECT_EQ(c.valid_runs(), 2);
  EXPECT_GT(c.mean_center(), Rate::zero());
  EXPECT_GT(c.mean_bytes().byte_count(), 0);
  EXPECT_GT(c.mean_packets(), 0.0);
  EXPECT_GT(c.mean_elapsed(), Duration::zero());
  // pktpair measures C = 10 on a 40%-loaded path: far from A = 6 with a
  // 1 Mb/s slack, so coverage is 0 and the relative error is large.
  EXPECT_EQ(c.coverage(Rate::mbps(1)), 0.0);
  EXPECT_GT(c.mean_rel_error(), 0.2);
}

TEST(RunMatrix, AllInvalidCellScoresNaNErrorNotPerfectZero) {
  // TOPP with a sweep capped below A never produces an estimate; the cell
  // must report NaN error/CV (rendered n/a, JSON null), never a perfect 0.
  const std::vector<MatrixEstimator> ests = {
      MatrixEstimator::from_registry(
          reg(), "topp", "min_rate_mbps=1, max_rate_mbps=2, packets_per_train=10"),
  };
  SweepRunner runner{1};
  const auto cells = run_matrix(ests, {quick_paper_path()}, {0.6}, 2, 3, runner);
  ASSERT_EQ(cells.size(), 1u);
  EXPECT_EQ(cells[0].valid_runs(), 0);
  EXPECT_TRUE(std::isnan(cells[0].mean_rel_error()));
  EXPECT_TRUE(std::isnan(cells[0].cv_center()));
  EXPECT_EQ(cells[0].coverage(Rate::mbps(1)), 0.0);
}

TEST(MatrixEstimator, FromRegistrySurfacesOverrideErrorsEagerly) {
  EXPECT_THROW(MatrixEstimator::from_registry(reg(), "cprobe", "bogus=1"),
               core::EstimatorError);
  EXPECT_THROW(MatrixEstimator::from_registry(reg(), "no-such-tool"),
               core::EstimatorError);
}

}  // namespace
}  // namespace pathload::scenario
