// The v1 run-ahead (sim::CrossTrafficRunAhead) against the calendar.
//
// Between probes, v1 hop-local renewal cross traffic runs ahead of the
// calendar in one loop. The reference is the same instance with one foreign
// timer pending past every horizon of the run: the run-ahead then declines
// each offer (it must own every pending event), so the calendar executes
// every event. No switch selects either path. Each scenario runs over 30
// seeds through warmup and a full pathload measurement, and every
// observable must match bit for bit: events processed, packet ids issued,
// each link's forwarded bytes, forwarded packets and drops, and the whole
// pathload report down to every stream's PCT/PDT.

#include <gtest/gtest.h>

#include <optional>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "core/session.hpp"
#include "scenario/registry.hpp"
#include "scenario/sim_channel.hpp"
#include "scenario/spec.hpp"
#include "sim/run_ahead.hpp"

namespace pathload::scenario {
namespace {

constexpr int kSeeds = 30;

struct Observed {
  std::uint64_t events{0};
  std::uint64_t events_run_ahead{0};
  std::uint64_t next_packet_id{0};
  std::uint64_t warmup_drops{0};
  std::vector<std::int64_t> link_bytes;
  std::vector<std::uint64_t> link_packets;
  std::vector<std::uint64_t> link_drops;
  core::PathloadResult result;
};

Observed run(ScenarioSpec spec, std::uint64_t seed, bool foreign_timer) {
  spec.seed = seed;
  ScenarioInstance inst{std::move(spec)};
  sim::Simulator& sim = inst.simulator();
  // Declared after the instance, so destroyed before its Simulator.
  sim::Simulator::TimerHandle foreign = sim.make_timer([] {});
  if (foreign_timer) foreign.schedule_at(TimePoint::origin() + Duration::seconds(1e6));
  inst.start();
  Observed o;
  for (std::size_t h = 0; h < inst.path().hop_count(); ++h) {
    o.warmup_drops += inst.path().link(h).drops();
  }
  SimProbeChannel channel{sim, inst.path()};
  // Half-length fleets of half-length streams keep 30 seeds x 16 cases
  // cheap; the idle gaps the run-ahead serves are the same.
  core::PathloadConfig tool;
  tool.streams_per_fleet = 6;
  tool.packets_per_stream = 50;
  core::PathloadSession session{tool};
  o.result = session.run(channel);
  o.events = sim.events_processed();
  o.events_run_ahead = sim.events_run_ahead();
  o.next_packet_id = sim.next_packet_id();
  for (std::size_t h = 0; h < inst.path().hop_count(); ++h) {
    const sim::Link& l = inst.path().link(h);
    o.link_bytes.push_back(l.bytes_forwarded().byte_count());
    o.link_packets.push_back(l.packets_forwarded());
    o.link_drops.push_back(l.drops());
  }
  return o;
}

void expect_same_report(const core::PathloadResult& a, const core::PathloadResult& b) {
  EXPECT_EQ(a.range.low.bits_per_sec(), b.range.low.bits_per_sec());
  EXPECT_EQ(a.range.high.bits_per_sec(), b.range.high.bits_per_sec());
  EXPECT_EQ(a.converged, b.converged);
  EXPECT_EQ(a.fleets, b.fleets);
  EXPECT_EQ(a.streams_sent, b.streams_sent);
  EXPECT_EQ(a.packets_sent, b.packets_sent);
  EXPECT_EQ(a.bytes_sent.byte_count(), b.bytes_sent.byte_count());
  EXPECT_EQ(a.elapsed.nanos(), b.elapsed.nanos());
  EXPECT_EQ(a.hit_deadline, b.hit_deadline);
  EXPECT_EQ(a.packets_lost, b.packets_lost);
  ASSERT_EQ(a.trace.size(), b.trace.size());
  for (std::size_t f = 0; f < a.trace.size(); ++f) {
    const core::FleetTrace& x = a.trace[f];
    const core::FleetTrace& y = b.trace[f];
    EXPECT_EQ(x.rate.bits_per_sec(), y.rate.bits_per_sec());
    EXPECT_EQ(x.verdict, y.verdict);
    ASSERT_EQ(x.streams.size(), y.streams.size());
    for (std::size_t s = 0; s < x.streams.size(); ++s) {
      EXPECT_EQ(x.streams[s].cls, y.streams[s].cls);
      EXPECT_EQ(x.streams[s].stats.pct, y.streams[s].stats.pct);
      EXPECT_EQ(x.streams[s].stats.pdt, y.streams[s].stats.pdt);
      EXPECT_EQ(x.streams[s].stats.groups, y.streams[s].stats.groups);
      EXPECT_EQ(x.streams[s].loss, y.streams[s].loss);
      EXPECT_EQ(x.streams[s].valid, y.streams[s].valid);
    }
  }
}

struct Case {
  std::string name;
  ScenarioSpec spec;
  bool expect_warmup_drops{false};
};

std::vector<Case> cases() {
  std::vector<Case> out;
  const Registry& reg = Registry::builtin();
  for (const char* preset : {"paper-path", "paper-path-poisson", "fig11-access",
                             "fig12-abilene", "fig12-crete", "fig12-pireaus",
                             "tight-not-narrow"}) {
    for (const double u : {0.3, 0.9}) {
      std::string name = std::string{preset} + (u < 0.5 ? "_u30" : "_u90");
      for (char& c : name) c = c == '-' ? '_' : c;
      out.push_back({name, reg.at(preset).with_load(u)});
    }
  }
  // CBR on every hop at equal rates: each hop's sources emit in the same
  // nanosecond, and so do the hops, so every emission ties on time and
  // the ticket alone orders it, within a link and across links.
  out.push_back({"constant_ties", ScenarioSpec::parse(R"(
    name = constant-ties
    hops = 3
    hop.0.capacity_mbps = 10
    hop.0.delay_ms = 10
    hop.0.traffic.model = constant
    hop.0.traffic.utilization = 0.5
    hop.1.capacity_mbps = 10
    hop.1.delay_ms = 10
    hop.1.traffic.model = constant
    hop.1.traffic.utilization = 0.5
    hop.2.capacity_mbps = 10
    hop.2.delay_ms = 10
    hop.2.traffic.model = constant
    hop.2.traffic.utilization = 0.5
  )")});
  // A 5 ms buffer at 95% Pareto load overflows during the warmup, so
  // drop-tail fires inside the run-ahead.
  out.push_back({"short_buffer_u95", ScenarioSpec::parse(R"(
    name = short-buffer
    hops = 2
    hop.0.capacity_mbps = 10
    hop.0.delay_ms = 10
    hop.0.buffer_ms = 5
    hop.0.traffic.model = pareto
    hop.0.traffic.utilization = 0.95
    hop.1.capacity_mbps = 20
    hop.1.delay_ms = 10
    hop.1.traffic.model = poisson
    hop.1.traffic.utilization = 0.3
  )"), true});
  return out;
}

void PrintTo(const Case& c, std::ostream* os) { *os << c.name; }

class RunAhead : public ::testing::TestWithParam<Case> {};

TEST_P(RunAhead, MatchesTheCalendarBitForBit) {
  const Case& c = GetParam();
  for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const Observed ahead = run(c.spec, seed, false);
    const Observed calendar = run(c.spec, seed, true);
    // Not vacuous: the run-ahead ran here and never in the reference.
    EXPECT_GT(ahead.events_run_ahead, 0u);
    EXPECT_EQ(calendar.events_run_ahead, 0u);
    if (c.expect_warmup_drops) {
      EXPECT_GT(ahead.warmup_drops, 0u);
    }
    EXPECT_EQ(ahead.warmup_drops, calendar.warmup_drops);
    EXPECT_EQ(ahead.events, calendar.events);
    EXPECT_EQ(ahead.next_packet_id, calendar.next_packet_id);
    EXPECT_EQ(ahead.link_bytes, calendar.link_bytes);
    EXPECT_EQ(ahead.link_packets, calendar.link_packets);
    EXPECT_EQ(ahead.link_drops, calendar.link_drops);
    expect_same_report(ahead.result, calendar.result);
    if (::testing::Test::HasFailure()) return;
  }
}

INSTANTIATE_TEST_SUITE_P(V1Scenarios, RunAhead, ::testing::ValuesIn(cases()),
                         [](const auto& info) { return info.param.name; });

TEST(RunAhead, PendingKeysKeepTheCalendarsCrossLinkOrder) {
  // Two CBR sources on two hops emit in the same nanosecond every
  // 15.625 ms. The hop-1 key due then was taken 15.625 ms earlier, the
  // hop-0 key 7.8125 ms earlier, so the calendar runs hop 1's emission
  // first. Run link by link, hop 0's tickets would be taken first.
  using Sent = std::pair<std::uint64_t, std::uint64_t>;
  const auto sent_after_next_event = [](bool run_ahead) {
    sim::Simulator sim;
    sim::Path path{sim, {{Rate::mbps(10), Duration::microseconds(300)},
                         {Rate::mbps(10), Duration::microseconds(300)}}};
    const auto mix = sim::PacketSizeMix::fixed(1000);
    sim::CrossTrafficSource s0{sim, path.link(0), Rate::bps(1'024'000),
                               sim::Interarrival::kConstant, mix, Rng{1}};
    sim::CrossTrafficSource s1{sim, path.link(1), Rate::bps(512'000),
                               sim::Interarrival::kConstant, mix, Rng{2}};
    std::optional<sim::CrossTrafficRunAhead> ahead;
    if (run_ahead) {
      ahead.emplace(sim, path, std::vector<std::vector<sim::CrossTrafficSource*>>{{&s0}, {&s1}});
    }
    s0.start();
    s1.start();
    sim.run_until(TimePoint::origin() + Duration::microseconds(155'250));
    EXPECT_EQ(sim.events_run_ahead() > 0, run_ahead);
    EXPECT_EQ(Sent(s0.packets_sent(), s1.packets_sent()), Sent(19, 9));
    sim.run_next();  // the first of the two emissions at 156.25 ms
    return Sent(s0.packets_sent(), s1.packets_sent());
  };
  EXPECT_EQ(sent_after_next_event(false), Sent(19, 10));
  EXPECT_EQ(sent_after_next_event(true), Sent(19, 10));
}

TEST(RunAhead, WarmupRunsEntirelyAhead) {
  ScenarioSpec spec = Registry::builtin().at("paper-path");
  spec.seed = 3;
  ScenarioInstance inst{std::move(spec)};
  inst.start();
  EXPECT_GT(inst.simulator().events_processed(), 0u);
  EXPECT_EQ(inst.simulator().events_run_ahead(), inst.simulator().events_processed());
}

TEST(RunAhead, NotInstalledUnderV2OrWithImpairments) {
  for (const char* preset : {"lossy-tight", "bursty-tight", "tcp-bg-greedy"}) {
    ScenarioSpec spec = Registry::builtin().at(preset);
    spec.seed = 3;
    ScenarioInstance inst{std::move(spec)};
    inst.start();
    EXPECT_EQ(inst.simulator().events_run_ahead(), 0u) << preset;
  }
  ScenarioSpec v2 = Registry::builtin().at("paper-path");
  v2.engine = EngineVersion::kV2;
  ScenarioInstance inst{std::move(v2)};
  inst.start();
  EXPECT_EQ(inst.simulator().events_run_ahead(), 0u);
}

}  // namespace
}  // namespace pathload::scenario
