#include <gtest/gtest.h>

#include "core/session.hpp"
#include "scenario/experiment.hpp"
#include "scenario/spec.hpp"
#include "scenario/sim_channel.hpp"
#include "util/stats.hpp"

namespace pathload::scenario {
namespace {

/// The paper-form spec of `cfg` with the 1 s warmup these tests use.
ScenarioSpec paper_spec(const PaperPathConfig& cfg) {
  ScenarioSpec spec = ScenarioSpec::from_paper("paper", "", cfg);
  spec.warmup = Duration::seconds(1);
  return spec;
}

/// rho (Eq. 12) of one pathload run with `tool` on `spec` at `seed`.
double pathload_rho(const ScenarioSpec& spec, const core::PathloadConfig& tool,
                    std::uint64_t seed) {
  core::PathloadSession pathload{tool};
  const auto report = run_estimator_once(spec, pathload, seed);
  return core::AvailBwRange{report.low, report.high}.relative_variation();
}

// --- failure injection: undersized buffers -> probe losses ---------------

TEST(LossHandling, UnderbufferedPathStillYieldsEstimate) {
  PaperPathConfig cfg;
  cfg.hops = 1;
  cfg.tight_capacity = Rate::mbps(10);
  cfg.tight_utilization = 0.6;
  cfg.buffer_drain = Duration::milliseconds(8);  // ~10 KB buffer
  cfg.model = sim::Interarrival::kPareto;
  ScenarioInstance bed{paper_spec(cfg)};
  bed.start();
  SimProbeChannel channel{bed.simulator(), bed.path()};
  core::PathloadConfig tool;
  core::PathloadSession session{tool};
  const auto result = session.run(channel);
  // With a tiny buffer, high-rate fleets lose packets and abort, which is
  // informationally equivalent to "R > A": the estimate must stay sane.
  EXPECT_GT(result.fleets, 0);
  EXPECT_LE(result.range.high, Rate::mbps(10));
  EXPECT_LE(result.range.low, result.range.high);
}

TEST(LossHandling, AbortedFleetsAppearInTrace) {
  PaperPathConfig cfg;
  cfg.hops = 1;
  cfg.tight_capacity = Rate::mbps(5);
  cfg.tight_utilization = 0.7;
  cfg.buffer_drain = Duration::milliseconds(4);
  cfg.model = sim::Interarrival::kPareto;
  ScenarioInstance bed{paper_spec(cfg)};
  bed.start();
  SimProbeChannel channel{bed.simulator(), bed.path()};
  core::PathloadConfig tool;
  tool.initial_rmax = Rate::mbps(6);
  core::PathloadSession session{tool};
  const auto result = session.run(channel);
  int aborted = 0;
  for (const auto& fleet : result.trace) {
    if (fleet.verdict == core::FleetVerdict::kAbortedLoss) ++aborted;
  }
  EXPECT_GT(aborted, 0) << "expected loss-aborted fleets on a 4 ms buffer";
}

// --- Section VI dynamics as properties, not just bench output ------------

TEST(Dynamics, RelativeVariationGrowsWithUtilization) {
  auto median_rho = [](double util) {
    std::vector<double> rhos;
    for (int i = 0; i < 8; ++i) {
      PaperPathConfig cfg;
      cfg.hops = 1;
      cfg.tight_capacity = Rate::mbps(12.4);
      cfg.tight_utilization = util;
      cfg.model = sim::Interarrival::kPareto;
      rhos.push_back(pathload_rho(paper_spec(cfg), core::PathloadConfig{}, 7000 + i));
    }
    return median(rhos);
  };
  EXPECT_LT(median_rho(0.25), median_rho(0.80));
}

TEST(Dynamics, RelativeVariationShrinksWithMultiplexing) {
  auto median_rho = [](int sources) {
    std::vector<double> rhos;
    for (int i = 0; i < 8; ++i) {
      PaperPathConfig cfg;
      cfg.hops = 1;
      cfg.tight_capacity = Rate::mbps(12.4);
      cfg.tight_utilization = 0.65;
      cfg.sources_per_link = sources;
      cfg.model = sim::Interarrival::kPareto;
      rhos.push_back(pathload_rho(paper_spec(cfg), core::PathloadConfig{}, 8000 + i));
    }
    return median(rhos);
  };
  EXPECT_LT(median_rho(60), median_rho(3));
}

TEST(Dynamics, LongerStreamsReduceMeasuredVariability) {
  auto median_rho = [](int k) {
    std::vector<double> rhos;
    for (int i = 0; i < 8; ++i) {
      PaperPathConfig cfg;
      cfg.hops = 1;
      cfg.tight_capacity = Rate::mbps(10);
      cfg.tight_utilization = 0.55;
      cfg.model = sim::Interarrival::kPareto;
      core::PathloadConfig tool;
      tool.packets_per_stream = k;
      rhos.push_back(pathload_rho(paper_spec(cfg), tool, 9000 + i));
    }
    return median(rhos);
  };
  EXPECT_LE(median_rho(800), median_rho(100));
}

// --- clock robustness across the full pipeline ----------------------------

TEST(ClockRobustness, SessionUnaffectedByHostClockOffsets) {
  auto run_with_offsets = [](Duration snd, Duration rcv) {
    PaperPathConfig cfg;
    cfg.hops = 3;
    cfg.tight_capacity = Rate::mbps(10);
    cfg.tight_utilization = 0.6;
    cfg.model = sim::Interarrival::kExponential;
    ScenarioInstance bed{paper_spec(cfg)};
    bed.start();
    SimProbeChannel channel{bed.simulator(), bed.path()};
    channel.set_sender_clock_offset(snd);
    channel.set_receiver_clock_offset(rcv);
    core::PathloadConfig tool;
    tool.initial_rmax = Rate::mbps(12);
    core::PathloadSession session{tool};
    return session.run(channel);
  };
  const auto synced = run_with_offsets(Duration::zero(), Duration::zero());
  const auto skewed =
      run_with_offsets(Duration::seconds(-12345), Duration::seconds(98765));
  // Same seeds and traffic: identical measurements despite wild offsets.
  EXPECT_EQ(synced.range.low, skewed.range.low);
  EXPECT_EQ(synced.range.high, skewed.range.high);
  EXPECT_EQ(synced.fleets, skewed.fleets);
}

}  // namespace
}  // namespace pathload::scenario
