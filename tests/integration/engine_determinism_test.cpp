// Golden determinism anchors for the event engine.
//
// The expected values below were captured from the original binary-heap
// scheduler (pre-calendar-queue) on the same toolchain. The calendar-queue
// engine must reproduce them exactly: same events processed, same packet-id
// consumption, and the same pathload verdict to the last bit. Any diff here
// means the scheduler changed event order -- a correctness bug, not noise.

#include <gtest/gtest.h>

#include "core/session.hpp"
#include "scenario/experiment.hpp"
#include "scenario/spec.hpp"

namespace pathload::scenario {
namespace {

ScenarioSpec golden_spec() {
  PaperPathConfig cfg;
  cfg.hops = 3;
  cfg.tight_capacity = Rate::mbps(10);
  cfg.tight_utilization = 0.6;
  ScenarioSpec spec = ScenarioSpec::from_paper("paper", "", cfg);
  spec.seed = 77;
  spec.warmup = Duration::seconds(2);
  return spec;
}

TEST(EngineDeterminism, WarmupReplaysHeapSchedulerEventAndPacketCounts) {
  ScenarioInstance bed{golden_spec()};
  bed.start();
  EXPECT_EQ(bed.simulator().events_processed(), 52560u);
  EXPECT_EQ(bed.simulator().next_packet_id() - 1, 17561u);
}

TEST(EngineDeterminism, PathloadRunReplaysHeapSchedulerVerdictBitExact) {
  core::PathloadSession pathload;
  const auto res = run_estimator_once(golden_spec(), pathload, 77);
  EXPECT_EQ(res.low.bits_per_sec(), 3397806.7157649733);
  EXPECT_EQ(res.high.bits_per_sec(), 3964114.850317501);
  EXPECT_EQ(res.iterations.size(), 4u);
  EXPECT_EQ(res.elapsed.nanos(), 25971036628);
}

TEST(EngineDeterminism, RunToRunIdenticalPerSeed) {
  auto run = [] {
    core::PathloadSession pathload;
    return run_estimator_once(golden_spec(), pathload, 123);
  };
  const auto a = run();
  const auto b = run();
  EXPECT_EQ(a.low.bits_per_sec(), b.low.bits_per_sec());
  EXPECT_EQ(a.high.bits_per_sec(), b.high.bits_per_sec());
  EXPECT_EQ(a.elapsed.nanos(), b.elapsed.nanos());
  EXPECT_EQ(a.iterations.size(), b.iterations.size());
}

}  // namespace
}  // namespace pathload::scenario
