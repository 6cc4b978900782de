// Engine-v2 determinism anchors and the cross-engine equivalence suite.
//
// v2 has its own golden anchors (its RNG and floating-point sequences are
// deliberately different from v1's — that freedom is the point of the
// versioned contract), the same run-to-run / thread-count / shard-merge
// determinism guarantees as v1, and its accuracy must agree with v1 within
// the stated tolerance: per (preset, load) cell the two engines' mean
// estimate centers differ by at most max(25% of the configured avail-bw,
// 1.5 Mb/s) — the error-bar scale of pathload itself at these settings.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <string>
#include <utility>
#include <vector>

#include "baselines/estimators.hpp"
#include "core/stream.hpp"
#include "scenario/experiment.hpp"
#include "scenario/registry.hpp"
#include "scenario/shard.hpp"
#include "scenario/sim_channel.hpp"
#include "scenario/spec.hpp"
#include "scenario/sweep_runner.hpp"
#include "sim/monitor.hpp"

namespace pathload::scenario {
namespace {

ScenarioSpec v2_preset(std::string_view name) {
  ScenarioSpec spec = Registry::builtin().at(name);
  spec.engine = EngineVersion::kV2;
  return spec;
}

// ------------------------------------------------------------- v2 anchors

TEST(EngineV2Determinism, GoldenAnchorPaperPathSeed77) {
  // Captured on the toolchain that introduced engine v2. A diff here means
  // the v2 event order, RNG mapping, or fluid arithmetic changed — which
  // requires a new engine version, not a silent re-capture (docs/ENGINE.md).
  core::PathloadConfig tool;
  const auto res = run_scenario_once(v2_preset("paper-path"), tool, 77);
  EXPECT_EQ(res.range.low.bits_per_sec(), 3524446.4416307611);
  EXPECT_EQ(res.range.high.bits_per_sec(), 4111863.2394286562);
  EXPECT_EQ(res.fleets, 4);
  EXPECT_EQ(res.elapsed.nanos(), 24983809069);
}

TEST(EngineV2Determinism, BatchedMatchesUnbatchedByteIdentical) {
  // The closed-form burst pass (SimProbeChannel::run_stream_batched) is a
  // pure reordering of the same floating-point work: on a quiescent fluid
  // path it must reproduce the event-driven v2 results bit for bit, not
  // approximately.
  core::PathloadConfig tool;
  for (const std::uint64_t seed : {77ULL, 123ULL, 9001ULL}) {
    SimProbeChannel::set_burst_batching(false);
    const auto off = run_scenario_once(v2_preset("paper-path"), tool, seed);
    SimProbeChannel::set_burst_batching(true);
    const auto on = run_scenario_once(v2_preset("paper-path"), tool, seed);
    EXPECT_EQ(off.range.low.bits_per_sec(), on.range.low.bits_per_sec())
        << "seed " << seed;
    EXPECT_EQ(off.range.high.bits_per_sec(), on.range.high.bits_per_sec())
        << "seed " << seed;
    EXPECT_EQ(off.elapsed.nanos(), on.elapsed.nanos()) << "seed " << seed;
    EXPECT_EQ(off.fleets, on.fleets) << "seed " << seed;
  }
}

// Every field of an estimator report, with bit-exact rates.
void expect_same_report(const core::EstimateReport& a, const core::EstimateReport& b,
                        const std::string& label) {
  EXPECT_EQ(a.valid, b.valid) << label;
  EXPECT_EQ(a.low.bits_per_sec(), b.low.bits_per_sec()) << label;
  EXPECT_EQ(a.high.bits_per_sec(), b.high.bits_per_sec()) << label;
  EXPECT_EQ(a.capacity.has_value(), b.capacity.has_value()) << label;
  if (a.capacity.has_value() && b.capacity.has_value()) {
    EXPECT_EQ(a.capacity->bits_per_sec(), b.capacity->bits_per_sec()) << label;
  }
  EXPECT_EQ(a.elapsed.nanos(), b.elapsed.nanos()) << label;
  EXPECT_EQ(a.streams_sent, b.streams_sent) << label;
  EXPECT_EQ(a.packets_sent, b.packets_sent) << label;
  EXPECT_EQ(a.packets_lost, b.packets_lost) << label;
  EXPECT_EQ(a.bytes_sent.byte_count(), b.bytes_sent.byte_count()) << label;
  EXPECT_EQ(a.outcome, b.outcome) << label;
  EXPECT_EQ(a.outcome_note, b.outcome_note) << label;
  ASSERT_EQ(a.iterations.size(), b.iterations.size()) << label;
  for (std::size_t i = 0; i < a.iterations.size(); ++i) {
    EXPECT_EQ(a.iterations[i].offered_mbps, b.iterations[i].offered_mbps) << label;
    EXPECT_EQ(a.iterations[i].measured_mbps, b.iterations[i].measured_mbps) << label;
    EXPECT_EQ(a.iterations[i].note, b.iterations[i].note) << label;
  }
}

void expect_batching_invisible(const ScenarioSpec& spec, const std::string& name) {
  for (const char* tool : {"pathload", "topp", "pathchirp", "pktpair"}) {
    for (const std::uint64_t seed : {77ULL, 123ULL, 9001ULL}) {
      const auto est = baselines::builtin_estimators().make(tool);
      SimProbeChannel::set_burst_batching(false);
      const auto off = run_estimator_once(spec, *est, seed);
      SimProbeChannel::set_burst_batching(true);
      const auto on = run_estimator_once(spec, *est, seed);
      expect_same_report(off, on, name + " " + tool + " seed " + std::to_string(seed));
    }
  }
}

TEST(EngineV2Determinism, BatchedMatchesUnbatchedAcrossPresetsAndTools) {
  // The hop-by-hop burst pass replays each fluid hop's handle() in the
  // event path's order, so on a quiescent path, and on an impaired one
  // whose event queue is empty, every tool's whole report must equal the
  // event-driven run bit for bit.
  for (const char* preset : {"paper-path", "lossy-tight", "reorder-jitter", "flaky-path"}) {
    expect_batching_invisible(v2_preset(preset), preset);
  }
}

// FNV-1a over every field of a report, rates by their bit patterns.
struct ReportHash {
  std::uint64_t h{1469598103934665603ULL};
  void u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xffU;
      h *= 1099511628211ULL;
    }
  }
  void f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }
  void str(const std::string& s) {
    u64(s.size());
    for (const char c : s) u64(static_cast<unsigned char>(c));
  }
  void add(const core::EstimateReport& r) {
    str(r.outcome_note);
    u64(static_cast<std::uint64_t>(r.outcome));
    u64(r.valid);
    f64(r.low.bits_per_sec());
    f64(r.high.bits_per_sec());
    f64(r.capacity ? r.capacity->bits_per_sec() : -1.0);
    u64(static_cast<std::uint64_t>(r.elapsed.nanos()));
    u64(static_cast<std::uint64_t>(r.streams_sent));
    u64(static_cast<std::uint64_t>(r.packets_sent));
    u64(static_cast<std::uint64_t>(r.packets_lost));
    u64(r.iterations.size());
    for (const auto& it : r.iterations) {
      f64(it.offered_mbps);
      f64(it.measured_mbps);
      str(it.note);
    }
  }
};

TEST(EngineV2Determinism, BurstStartApproximationIsUnchanged) {
  // On paths with queued rate changes (on/off bursts, fluid TCP epochs)
  // the pass runs under its documented burst-start approximation, so
  // batching on and off legitimately differ there. The batched reports
  // must instead be the ones the earlier per-packet batch scheduler gave:
  // one hash over the four tools x three seeds, captured with it.
  const std::pair<const char*, std::uint64_t> anchors[] = {
      {"bursty-tight", 0xad0f50af2ac8fa89ULL},
      {"tcp-bg-greedy", 0x1fb9aa42cc3eb593ULL},
  };
  for (const auto& [preset, anchor] : anchors) {
    ReportHash hash;
    for (const char* tool : {"pathload", "topp", "pathchirp", "pktpair"}) {
      for (const std::uint64_t seed : {77ULL, 123ULL, 9001ULL}) {
        const auto est = baselines::builtin_estimators().make(tool);
        hash.add(run_estimator_once(v2_preset(preset), *est, seed));
      }
    }
    EXPECT_EQ(hash.h, anchor) << preset << std::hex << " got 0x" << hash.h;
  }
}

TEST(EngineV2Determinism, ImpairedPathWithOnOffSourceStaysOnEventPath) {
  // An on/off source keeps rate-change events queued, so an impaired path
  // carrying one must not take the closed-form pass (its draws could
  // interleave with foreign events); batching on or off, the runs agree.
  ScenarioSpec spec = v2_preset("bursty-tight");
  ImpairSpec imp;
  imp.hop = 1;
  imp.loss = 0.03;
  imp.dup = 0.01;
  imp.reorder_ms = 1.0;
  spec.impairments.push_back(imp);
  expect_batching_invisible(spec, "bursty-tight+impair");
}

TEST(EngineV2Determinism, ABatchedStreamCostsOneSchedulerEventAndKey) {
  // The pass writes a stream's records in place and arms one completion
  // timer: a 100-packet stream adds exactly one processed event, on a
  // pristine path and on an impaired one with an empty queue alike.
  core::StreamSpec spec = core::make_stream_spec(Rate::mbps(2), core::PathloadConfig{});
  ASSERT_EQ(spec.packet_count, 100);
  spec.stream_id = 1;
  for (const char* preset : {"paper-path", "lossy-tight"}) {
    ScenarioInstance inst{v2_preset(preset)};
    inst.start();
    SimProbeChannel ch{inst.simulator(), inst.path()};
    const std::uint64_t before = inst.simulator().events_processed();
    ch.run_stream(spec);
    EXPECT_EQ(inst.simulator().events_processed() - before, 1u) << preset;
  }

  // While the stream is in flight it holds one scheduler key, not one per
  // packet. A sampler reads the queue every millisecond (its own key is
  // off the queue while it samples).
  ScenarioInstance inst{v2_preset("paper-path")};
  inst.start();
  sim::Simulator& sim = inst.simulator();
  SimProbeChannel ch{sim, inst.path()};
  const std::size_t foreign = sim.pending_events();
  std::size_t most = 0;
  int samples = 0;
  sim::Simulator::TimerHandle sampler;
  sampler = sim.make_timer([&] {
    most = std::max(most, sim.pending_events() - foreign);
    ++samples;
    sampler.schedule_in(Duration::milliseconds(1));
  });
  sampler.schedule_in(Duration::zero());
  ch.run_stream(spec);
  EXPECT_GT(samples, 50);
  EXPECT_LE(most, 1u);
}

TEST(EngineV2Determinism, FluidTcpRunToRunIdenticalPerSeed) {
  // The fluid TCP backend is RNG-free, but its epoch timers interleave
  // with batched probe bursts; the interleaving must still be a pure
  // function of the seed.
  core::PathloadConfig tool;
  const auto a = run_scenario_once(v2_preset("tcp-vs-probe-duel"), tool, 42);
  const auto b = run_scenario_once(v2_preset("tcp-vs-probe-duel"), tool, 42);
  EXPECT_EQ(a.range.low.bits_per_sec(), b.range.low.bits_per_sec());
  EXPECT_EQ(a.range.high.bits_per_sec(), b.range.high.bits_per_sec());
  EXPECT_EQ(a.elapsed.nanos(), b.elapsed.nanos());
  EXPECT_EQ(a.fleets, b.fleets);
}

TEST(EngineV2Determinism, RunToRunIdenticalPerSeed) {
  core::PathloadConfig tool;
  const auto a = run_scenario_once(v2_preset("paper-path"), tool, 123);
  const auto b = run_scenario_once(v2_preset("paper-path"), tool, 123);
  EXPECT_EQ(a.range.low.bits_per_sec(), b.range.low.bits_per_sec());
  EXPECT_EQ(a.range.high.bits_per_sec(), b.range.high.bits_per_sec());
  EXPECT_EQ(a.elapsed.nanos(), b.elapsed.nanos());
  EXPECT_EQ(a.fleets, b.fleets);
}

TEST(EngineV2Determinism, ThreadCountDoesNotChangeResults) {
  core::PathloadConfig tool;
  const ScenarioSpec spec = v2_preset("paper-path");
  SweepRunner one{1};
  SweepRunner four{4};
  const RepeatedRuns a = sweep_scenario_repeated(spec, tool, 6, 500, one);
  const RepeatedRuns b = sweep_scenario_repeated(spec, tool, 6, 500, four);
  ASSERT_EQ(a.results.size(), b.results.size());
  for (std::size_t i = 0; i < a.results.size(); ++i) {
    EXPECT_EQ(a.results[i].range.low.bits_per_sec(),
              b.results[i].range.low.bits_per_sec());
    EXPECT_EQ(a.results[i].range.high.bits_per_sec(),
              b.results[i].range.high.bits_per_sec());
    EXPECT_EQ(a.results[i].elapsed.nanos(), b.results[i].elapsed.nanos());
  }
}

TEST(EngineV2Determinism, ThreadCountInvariantWithFluidTcpAndBatching) {
  // The batched probe path plus a fluid TCP competitor, swept across
  // thread counts: per-seed results must not depend on how the runs are
  // sharded across workers (burst batching is on by default here).
  core::PathloadConfig tool;
  const ScenarioSpec spec = v2_preset("tcp-vs-probe-duel");
  SweepRunner one{1};
  SweepRunner four{4};
  const RepeatedRuns a = sweep_scenario_repeated(spec, tool, 4, 700, one);
  const RepeatedRuns b = sweep_scenario_repeated(spec, tool, 4, 700, four);
  ASSERT_EQ(a.results.size(), b.results.size());
  for (std::size_t i = 0; i < a.results.size(); ++i) {
    EXPECT_EQ(a.results[i].range.low.bits_per_sec(),
              b.results[i].range.low.bits_per_sec());
    EXPECT_EQ(a.results[i].range.high.bits_per_sec(),
              b.results[i].range.high.bits_per_sec());
    EXPECT_EQ(a.results[i].elapsed.nanos(), b.results[i].elapsed.nanos());
  }
}

TEST(EngineV2Determinism, ShardMergeIsByteIdentical) {
  // The sharded matrix contract must hold under engine v2: shard streams
  // merged back reproduce the in-process matrix byte-for-byte.
  std::vector<MatrixEstimator> ests;
  ests.push_back(MatrixEstimator::from_registry(
      baselines::builtin_estimators(), "pathload", "max_fleets=3"));
  ScenarioSpec spec = v2_preset("paper-path");
  spec.warmup = Duration::milliseconds(300);
  // A flow-bearing spec rides along so the batched probe path and the
  // fluid TCP backend are both under the shard contract.
  ScenarioSpec tcp = v2_preset("tcp-bg-greedy");
  tcp.warmup = Duration::milliseconds(300);
  const std::vector<ScenarioSpec> scenarios{spec, tcp};
  const std::vector<double> loads{0.3, 0.7};
  SweepRunner runner{2};

  const auto direct = run_matrix(ests, scenarios, loads, 2, 900, runner);
  for (const int shards : {1, 2}) {
    std::vector<std::string> texts;
    for (int i = 0; i < shards; ++i) {
      texts.push_back(
          run_matrix_shard(ests, scenarios, loads, 2, 900, i, shards, runner));
    }
    const auto merged = merge_cell_texts(texts);
    EXPECT_EQ(cells_to_text(merged), cells_to_text(direct))
        << "shard count " << shards;
  }
}

TEST(EngineV2Determinism, SpecTextRoundTripCarriesTheEngine) {
  const ScenarioSpec spec = v2_preset("paper-path");
  const ScenarioSpec back = ScenarioSpec::parse(spec.to_text());
  EXPECT_EQ(back.engine, EngineVersion::kV2);
  EXPECT_EQ(back.to_text(), spec.to_text());
  // v1 text stays byte-free of the directive (anchored elsewhere, but the
  // asymmetry is the contract: pre-v2 texts never change).
  EXPECT_EQ(Registry::builtin().at("paper-path").to_text().find("engine"),
            std::string::npos);
}

// ------------------------------------------------- fluid ground truth e2e

TEST(EngineV2Fluid, TightLinkUtilizationMatchesConfiguration) {
  // Under v2 the renewal cross traffic is *exactly* its long-run mean, so
  // the MRTG-style monitor must read the configured utilization almost
  // noiselessly — tighter than any packet engine could.
  ScenarioInstance inst{v2_preset("paper-path")};
  sim::UtilizationMonitor mon{inst.simulator(), inst.tight_link(),
                              Duration::milliseconds(500)};
  inst.start();
  mon.start();
  inst.simulator().run_for(Duration::seconds(5));
  EXPECT_NEAR(mon.average_utilization(), 0.6, 0.01);
}

// --------------------------------------------------- cross-engine accord

struct EquivalenceCase {
  const char* preset;
  double load;
};

class EngineEquivalence : public ::testing::TestWithParam<EquivalenceCase> {};

TEST_P(EngineEquivalence, V1AndV2AgreeWithinTolerance) {
  const EquivalenceCase& c = GetParam();
  ScenarioSpec v1 = Registry::builtin().at(c.preset).with_load(c.load);
  ScenarioSpec v2 = v1;
  v2.engine = EngineVersion::kV2;

  core::PathloadConfig tool;
  SweepRunner runner;
  const int kRuns = 3;
  const RepeatedRuns r1 = sweep_scenario_repeated(v1, tool, kRuns, 3000, runner);
  const RepeatedRuns r2 = sweep_scenario_repeated(v2, tool, kRuns, 3000, runner);

  const double truth = v1.avail_bw().bits_per_sec();
  const double c1 =
      (r1.mean_low().bits_per_sec() + r1.mean_high().bits_per_sec()) / 2.0;
  const double c2 =
      (r2.mean_low().bits_per_sec() + r2.mean_high().bits_per_sec()) / 2.0;
  const double tolerance = std::max(0.25 * truth, 1.5e6);
  EXPECT_NEAR(c1, c2, tolerance)
      << c.preset << " at load " << c.load << ": v1 center " << c1 * 1e-6
      << " Mb/s, v2 center " << c2 * 1e-6 << " Mb/s, truth " << truth * 1e-6
      << " Mb/s";
}

INSTANTIATE_TEST_SUITE_P(
    PresetsTimesLoads, EngineEquivalence,
    ::testing::Values(EquivalenceCase{"paper-path", 0.3},
                      EquivalenceCase{"paper-path", 0.5},
                      EquivalenceCase{"paper-path", 0.8},
                      EquivalenceCase{"paper-path-poisson", 0.3},
                      EquivalenceCase{"paper-path-poisson", 0.5},
                      EquivalenceCase{"paper-path-poisson", 0.8},
                      EquivalenceCase{"tight-not-narrow", 0.3},
                      EquivalenceCase{"tight-not-narrow", 0.5},
                      EquivalenceCase{"tight-not-narrow", 0.8},
                      // Responsive presets: under v2 these run the fluid
                      // TCP backend against v1's packet Reno, at their
                      // native open-loop load. The "truth" here is the
                      // open-loop avail-bw the flows compete for, so the
                      // tolerance is the bound on how differently the two
                      // TCP models bend the estimate, not an accuracy
                      // claim.
                      EquivalenceCase{"tcp-bg-greedy", 0.3},
                      EquivalenceCase{"tcp-bg-rwnd-capped", 0.3},
                      EquivalenceCase{"tcp-vs-probe-duel", 0.3}),
    [](const ::testing::TestParamInfo<EquivalenceCase>& info) {
      std::string name = info.param.preset;
      std::replace(name.begin(), name.end(), '-', '_');
      return name + "_u" + std::to_string(static_cast<int>(info.param.load * 100));
    });

}  // namespace
}  // namespace pathload::scenario
