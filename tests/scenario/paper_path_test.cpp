#include <gtest/gtest.h>

#include "scenario/experiment.hpp"
#include "scenario/spec.hpp"
#include "sim/monitor.hpp"

namespace pathload::scenario {
namespace {

TEST(PaperPathConfig, DerivedQuantities) {
  PaperPathConfig cfg;
  cfg.tight_capacity = Rate::mbps(10);
  cfg.tight_utilization = 0.6;
  cfg.beta = 2.0;
  cfg.nontight_utilization = 0.6;
  EXPECT_EQ(cfg.tight_avail_bw(), Rate::mbps(4));
  // Cx = beta * At / (1 - ux) = 2*4/0.4 = 20.
  EXPECT_EQ(cfg.nontight_capacity(), Rate::mbps(20));
}

TEST(Testbed, TightLinkIsMiddleHop) {
  PaperPathConfig cfg;
  cfg.hops = 5;
  ScenarioInstance bed{ScenarioSpec::from_paper("paper", "", cfg)};
  EXPECT_EQ(bed.tight_index(), 2u);
  EXPECT_EQ(bed.path().hop_count(), 5u);
  EXPECT_EQ(bed.tight_link().capacity(), cfg.tight_capacity);
  for (std::size_t i = 0; i < bed.path().hop_count(); ++i) {
    if (i != bed.tight_index()) {
      EXPECT_EQ(bed.path().link(i).capacity(), cfg.nontight_capacity());
    }
  }
}

TEST(Testbed, RejectsBadConfig) {
  PaperPathConfig no_hops;
  no_hops.hops = 0;
  EXPECT_THROW(ScenarioSpec::from_paper("paper", "", no_hops), SpecError);
  PaperPathConfig overloaded;
  overloaded.tight_utilization = 1.0;
  EXPECT_THROW(ScenarioSpec::from_paper("paper", "", overloaded), SpecError);
}

TEST(Testbed, FluidModelMatchesTopology) {
  PaperPathConfig cfg;
  cfg.hops = 3;
  cfg.tight_capacity = Rate::mbps(10);
  cfg.tight_utilization = 0.6;
  cfg.beta = 2.0;
  const ScenarioSpec spec = ScenarioSpec::from_paper("paper", "", cfg);
  EXPECT_EQ(spec.hops.size(), 3u);
  EXPECT_EQ(spec.avail_bw(), Rate::mbps(4));
  EXPECT_EQ(spec.tight_hop(), 1u);
}

TEST(Testbed, WarmupProducesConfiguredUtilization) {
  PaperPathConfig cfg;
  cfg.hops = 1;
  cfg.tight_capacity = Rate::mbps(10);
  cfg.tight_utilization = 0.6;
  cfg.model = sim::Interarrival::kExponential;
  ScenarioSpec spec = ScenarioSpec::from_paper("paper", "", cfg);
  spec.warmup = Duration::seconds(1);
  ScenarioInstance bed{std::move(spec)};
  bed.start();
  sim::UtilizationMonitor monitor{bed.simulator(), bed.tight_link(),
                                  Duration::seconds(20)};
  monitor.start();
  bed.simulator().run_for(Duration::seconds(21));
  ASSERT_FALSE(monitor.readings().empty());
  EXPECT_NEAR(monitor.readings().front().utilization, 0.6, 0.04);
}

TEST(Testbed, BetaOneMakesAllLinksEquallyTight) {
  PaperPathConfig cfg;
  cfg.hops = 3;
  cfg.beta = 1.0;
  cfg.tight_utilization = 0.6;
  cfg.nontight_utilization = 0.6;
  const ScenarioSpec spec = ScenarioSpec::from_paper("paper", "", cfg);
  for (const HopDecl& hop : spec.hops) {
    EXPECT_EQ(hop.capacity * (1.0 - hop.traffic.utilization), spec.avail_bw());
  }
}

TEST(Testbed, ZeroUtilizationMeansNoTraffic) {
  PaperPathConfig cfg;
  cfg.hops = 1;
  cfg.tight_utilization = 0.0;
  ScenarioInstance bed{ScenarioSpec::from_paper("paper", "", cfg)};
  bed.start();
  bed.simulator().run_for(Duration::seconds(2));
  EXPECT_EQ(bed.tight_link().bytes_forwarded(), DataSize::bytes(0));
}

TEST(Testbed, SeedsGiveReproducibleTraffic) {
  auto run = [](std::uint64_t seed) {
    PaperPathConfig cfg;
    cfg.hops = 1;
    ScenarioSpec spec = ScenarioSpec::from_paper("paper", "", cfg);
    spec.seed = seed;
    spec.warmup = Duration::seconds(2);
    ScenarioInstance bed{std::move(spec)};
    bed.start();
    return bed.tight_link().bytes_forwarded();
  };
  EXPECT_EQ(run(7), run(7));
  EXPECT_NE(run(7), run(8));
}

}  // namespace
}  // namespace pathload::scenario
