#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <stdexcept>
#include <vector>

#include "core/session.hpp"
#include "scenario/experiment.hpp"
#include "scenario/sweep_runner.hpp"

namespace pathload::scenario {
namespace {

TEST(SweepRunner, MapReturnsResultsInIndexOrder) {
  SweepRunner runner{4};
  const auto out = runner.map(100, [](std::size_t i) { return i * i; });
  ASSERT_EQ(out.size(), 100u);
  for (std::size_t i = 0; i < out.size(); ++i) EXPECT_EQ(out[i], i * i);
}

TEST(SweepRunner, RunsEveryIndexExactlyOnce) {
  SweepRunner runner{8};
  std::vector<std::atomic<int>> hits(257);
  runner.run_indexed(hits.size(), [&](std::size_t i) { ++hits[i]; });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(SweepRunner, PropagatesWorkerExceptions) {
  SweepRunner runner{4};
  EXPECT_THROW(runner.run_indexed(64,
                                  [](std::size_t i) {
                                    if (i == 13) throw std::runtime_error{"boom"};
                                  }),
               std::runtime_error);
}

TEST(SweepRunner, ThreadsDefaultRespectsEnvironment) {
  setenv("PATHLOAD_THREADS", "3", 1);
  EXPECT_EQ(SweepRunner{}.threads(), 3);
  unsetenv("PATHLOAD_THREADS");
  EXPECT_GE(SweepRunner{}.threads(), 1);
  EXPECT_EQ(SweepRunner{7}.threads(), 7);
}

TEST(SweepRunner, PathloadSweepIsThreadCountInvariant) {
  PaperPathConfig path;
  path.hops = 1;
  path.tight_capacity = Rate::mbps(10);
  path.tight_utilization = 0.5;
  ScenarioSpec spec = ScenarioSpec::from_paper("paper", "", path);
  spec.warmup = Duration::milliseconds(200);
  const MatrixEstimator pathload{
      "pathload", [] { return std::make_unique<core::PathloadSession>(); }};

  SweepRunner serial{1};
  SweepRunner pooled{4};
  const auto a = run_matrix({pathload}, {spec}, {}, 4, /*seed0=*/71, serial);
  const auto b = run_matrix({pathload}, {spec}, {}, 4, /*seed0=*/71, pooled);

  ASSERT_EQ(a.size(), 1u);
  ASSERT_EQ(b.size(), 1u);
  ASSERT_EQ(a[0].reports.size(), 4u);
  ASSERT_EQ(b[0].reports.size(), 4u);
  for (std::size_t i = 0; i < a[0].reports.size(); ++i) {
    EXPECT_EQ(a[0].reports[i].low.bits_per_sec(), b[0].reports[i].low.bits_per_sec());
    EXPECT_EQ(a[0].reports[i].high.bits_per_sec(), b[0].reports[i].high.bits_per_sec());
    EXPECT_EQ(a[0].reports[i].elapsed.nanos(), b[0].reports[i].elapsed.nanos());
  }
}

}  // namespace
}  // namespace pathload::scenario
