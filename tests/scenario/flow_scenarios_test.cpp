// Determinism and golden anchors for flow-bearing scenarios: responsive
// TCP cross flows must not break the repo's headline guarantee (fixed seed
// => bit-identical runs, independent of thread count), and the presets'
// physics must hold (a greedy flow collapses the measured avail-bw).

#include <gtest/gtest.h>

#include "baselines/estimators.hpp"
#include "core/session.hpp"
#include "scenario/experiment.hpp"
#include "scenario/registry.hpp"
#include "scenario/sweep_runner.hpp"

namespace pathload::scenario {
namespace {

/// tcp-bg-greedy with a short warmup so the suite stays fast; the anchor
/// values below were captured from this exact configuration.
ScenarioSpec quick_greedy() {
  ScenarioSpec spec = Registry::builtin().at("tcp-bg-greedy");
  spec.warmup = Duration::milliseconds(500);
  return spec;
}

// Captured from a default pathload run on quick_greedy() at seed 4242.
constexpr double kAnchorLowBps = 0.0;
constexpr double kAnchorHighBps = 731700.17853484361;
constexpr int kAnchorFleets = 4;
constexpr std::int64_t kAnchorElapsedNs = 59782480456;

TEST(FlowScenarios, GoldenAnchorPathloadOverGreedyFlow) {
  // Golden determinism anchor (captured at PR 4): any diff here means the
  // event order or RNG stream of flow-bearing runs drifted — a correctness
  // bug unless the break is deliberate and documented.
  core::PathloadSession pathload;
  const auto res = run_estimator_once(quick_greedy(), pathload, 4242);
  EXPECT_EQ(res.low.bits_per_sec(), kAnchorLowBps);
  EXPECT_EQ(res.high.bits_per_sec(), kAnchorHighBps);
  EXPECT_EQ(static_cast<int>(res.iterations.size()), kAnchorFleets);
  EXPECT_EQ(res.elapsed.nanos(), kAnchorElapsedNs);
}

TEST(FlowScenarios, MatrixOverResponsiveTrafficIsThreadCountInvariant) {
  // The acceptance-criterion check in-process: the same estimator matrix
  // over tcp-bg-greedy, fanned out on 1 vs 4 worker threads, must agree to
  // the last bit (what `scenario_runner --run tcp-bg-greedy --compare`
  // diffs across PATHLOAD_THREADS).
  const auto& ereg = baselines::builtin_estimators();
  const std::vector<MatrixEstimator> estimators = {
      MatrixEstimator::from_registry(ereg, "pathload"),
      MatrixEstimator::from_registry(ereg, "cprobe"),
  };
  const ScenarioSpec spec = quick_greedy();
  auto run_with = [&](int threads) {
    SweepRunner runner{threads};
    return run_matrix(estimators, {spec}, {}, /*runs=*/2, /*seed0=*/77, runner);
  };
  const auto a = run_with(1);
  const auto b = run_with(4);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t c = 0; c < a.size(); ++c) {
    ASSERT_EQ(a[c].reports.size(), b[c].reports.size());
    for (std::size_t r = 0; r < a[c].reports.size(); ++r) {
      EXPECT_EQ(a[c].reports[r].low.bits_per_sec(),
                b[c].reports[r].low.bits_per_sec());
      EXPECT_EQ(a[c].reports[r].high.bits_per_sec(),
                b[c].reports[r].high.bits_per_sec());
      EXPECT_EQ(a[c].reports[r].elapsed.nanos(), b[c].reports[r].elapsed.nanos());
      EXPECT_EQ(a[c].reports[r].packets_sent, b[c].reports[r].packets_sent);
    }
  }
}

TEST(FlowScenarios, GreedyFlowCollapsesTheMeasuredAvailBw) {
  // The physics the preset exists for: with an elastic end-to-end flow
  // soaking up the slack, pathload's range must land far below the
  // open-loop configured A = 7 Mb/s.
  core::PathloadSession pathload;
  const auto res = run_estimator_once(quick_greedy(), pathload, 9);
  EXPECT_LT(res.high.mbits_per_sec(), 3.0);
}

TEST(FlowScenarios, FlowBearingPresetsValidateAndInstantiate) {
  for (const char* name :
       {"tcp-bg-greedy", "tcp-bg-rwnd-capped", "tcp-vs-probe-duel", "btc-path"}) {
    ScenarioSpec spec = Registry::builtin().at(name);
    ASSERT_TRUE(spec.has_flows()) << name;
    spec.warmup = Duration::milliseconds(200);
    ScenarioInstance inst{std::move(spec)};
    inst.start();
    EXPECT_GT(inst.flows().size(), 0u) << name;
    EXPECT_GT(inst.simulator().events_processed(), 0u) << name;
  }
}

TEST(FlowScenarios, BtcPathCarriesItsWindowLimitedMix) {
  const ScenarioSpec& spec = Registry::builtin().at("btc-path");
  ASSERT_EQ(spec.flows.size(), 1u);
  EXPECT_EQ(spec.flows[0].count, 5);
  ASSERT_TRUE(spec.flows[0].rwnd.has_value());
  EXPECT_DOUBLE_EQ(*spec.flows[0].rwnd, 12.0);
  EXPECT_DOUBLE_EQ(spec.flows[0].reverse_ms, 100.0);
  // The five flows together take ~3.5 Mb/s of the 8.2; with the UDP on
  // top, roughly half the bottleneck stays available.
  ScenarioSpec quick = spec;
  ScenarioInstance inst{std::move(quick)};
  inst.start();  // 5 s settle
  const DataSize mark = inst.flow_bytes_acked();
  inst.simulator().run_for(Duration::seconds(5));
  const double tcp_mbps =
      (inst.flow_bytes_acked() - mark).bits() / 5.0 / 1e6;
  EXPECT_GT(tcp_mbps, 2.0);
  EXPECT_LT(tcp_mbps, 5.0);
}

}  // namespace
}  // namespace pathload::scenario
