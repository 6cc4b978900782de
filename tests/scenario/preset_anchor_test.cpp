// Golden anchors for every paper-form (Fig. 4) preset.
//
// The constants were captured with the dedicated paper-path builder that
// paper-form v1 specs used before they were routed through the same
// hop-list builder as custom specs. They pin the warmed-up state (events
// processed, packet ids consumed, bytes through the tight link) of each
// preset, a load-swept variant, and a beta = 1 path, for three seeds, plus
// the pathload verdict on two presets. Unlike the 3-hop Pareto anchors in
// tests/integration/engine_determinism_test.cpp, these cover 1-hop paths,
// Poisson traffic, 6..120 sources per hop and 155 Mb/s links. Any diff
// means instantiation changed the hop derivation, the RNG fork order, or
// the event order.

#include <gtest/gtest.h>

#include <string>

#include "scenario/experiment.hpp"
#include "scenario/registry.hpp"

namespace pathload::scenario {
namespace {

/// A preset by name, or one of two derived specs: "paper-path@0.3" (the
/// paper-path preset swept to 30% tight-link load) and "beta-one" (the
/// default PaperPathConfig with beta = 1 and a 1 s warmup).
ScenarioSpec anchor_spec(const std::string& name) {
  if (name == "paper-path@0.3") {
    return Registry::builtin().at("paper-path").with_load(0.3);
  }
  if (name == "beta-one") {
    PaperPathConfig cfg;
    cfg.beta = 1.0;
    ScenarioSpec spec = ScenarioSpec::from_paper(name, "", cfg);
    spec.warmup = Duration::seconds(1);
    return spec;
  }
  return Registry::builtin().at(name);
}

struct WarmupAnchor {
  const char* spec;
  std::uint64_t seed;
  std::uint64_t events;
  std::uint64_t next_packet_id;  ///< first id handed out after the warmup
  std::int64_t tight_bytes;
};

constexpr WarmupAnchor kWarmupAnchors[] = {
    {"paper-path", 1, 26088u, 8753u, 776220},
    {"paper-path", 77, 26038u, 8725u, 748070},
    {"paper-path", 9001, 25582u, 8577u, 769140},
    {"paper-path-poisson", 1, 25221u, 8457u, 734680},
    {"paper-path-poisson", 77, 25546u, 8564u, 722350},
    {"paper-path-poisson", 9001, 25361u, 8509u, 756860},
    {"fig11-access", 1, 6484u, 2194u, 962850},
    {"fig11-access", 77, 6477u, 2198u, 927100},
    {"fig11-access", 9001, 5865u, 1992u, 905380},
    {"fig12-abilene", 1, 84631u, 28709u, 12566440},
    {"fig12-abilene", 77, 84339u, 28584u, 12517530},
    {"fig12-abilene", 9001, 83628u, 28370u, 12630560},
    {"fig12-crete", 1, 6925u, 2349u, 1027740},
    {"fig12-crete", 77, 6703u, 2276u, 974510},
    {"fig12-crete", 9001, 6649u, 2259u, 1015600},
    {"fig12-pireaus", 1, 3562u, 1207u, 547070},
    {"fig12-pireaus", 77, 3467u, 1178u, 498250},
    {"fig12-pireaus", 9001, 3285u, 1120u, 500570},
    {"paper-path@0.3", 1, 38591u, 12937u, 388790},
    {"paper-path@0.3", 77, 39299u, 13171u, 357690},
    {"paper-path@0.3", 9001, 37917u, 12716u, 392580},
    {"beta-one", 1, 16059u, 5390u, 776220},
    {"beta-one", 77, 15908u, 5339u, 748070},
    {"beta-one", 9001, 14961u, 5016u, 769140},
};

TEST(PaperPresetAnchors, WarmupStateIsBitIdentical) {
  for (const WarmupAnchor& a : kWarmupAnchors) {
    SCOPED_TRACE(std::string{a.spec} + " seed " + std::to_string(a.seed));
    ScenarioSpec spec = anchor_spec(a.spec);
    spec.seed = a.seed;
    ScenarioInstance inst{std::move(spec)};
    inst.start();
    EXPECT_EQ(inst.simulator().events_processed(), a.events);
    EXPECT_EQ(inst.simulator().next_packet_id(), a.next_packet_id);
    EXPECT_EQ(inst.tight_link().bytes_forwarded().byte_count(), a.tight_bytes);
  }
}

struct VerdictAnchor {
  const char* spec;
  std::uint64_t seed;
  double low_bps;
  double high_bps;
  std::int64_t elapsed_ns;
  int fleets;
};

constexpr VerdictAnchor kVerdictAnchors[] = {
    {"paper-path", 1, 1134690.6124208907, 4538762.4496835629, 37926166082, 4},
    {"paper-path", 77, 2267670.1106906468, 4535340.2213812936, 20442334269, 3},
    {"paper-path", 9001, 3261498.8217835505, 5435835.0631745951, 29056684175, 5},
    {"fig11-access", 1, 2656457.0168651813, 7969397.5135479756, 37205590069, 7},
    {"fig11-access", 77, 1862986.6470432072, 6520472.2452023579, 35186732217, 6},
    {"fig11-access", 9001, 4512826.2984952545, 5415394.6130362088, 29687667587, 5},
};

TEST(PaperPresetAnchors, PathloadVerdictIsBitIdentical) {
  const core::PathloadConfig tool;
  for (const VerdictAnchor& a : kVerdictAnchors) {
    SCOPED_TRACE(std::string{a.spec} + " seed " + std::to_string(a.seed));
    const auto res = run_scenario_once(anchor_spec(a.spec), tool, a.seed);
    EXPECT_EQ(res.range.low.bits_per_sec(), a.low_bps);
    EXPECT_EQ(res.range.high.bits_per_sec(), a.high_bps);
    EXPECT_EQ(res.elapsed.nanos(), a.elapsed_ns);
    EXPECT_EQ(res.fleets, a.fleets);
  }
}

}  // namespace
}  // namespace pathload::scenario
