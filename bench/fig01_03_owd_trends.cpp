// Figures 1-3: relative one-way delays of single periodic streams with
// rate above (Fig. 1), below (Fig. 2), and near (Fig. 3) the avail-bw.
//
// The paper's streams crossed a 12-hop Univ-Oregon -> Univ-Delaware path
// with a 5-min average avail-bw of ~74 Mb/s (155 Mb/s tight link) and used
// K = 100, T = 100 us. We dimension the simulated path identically and
// probe at the same three rates: 96, 37, and 82 Mb/s.

#include <cstdio>

#include "bench/common.hpp"
#include "core/stream.hpp"
#include "core/trend.hpp"
#include "scenario/registry.hpp"
#include "scenario/sim_channel.hpp"
#include "scenario/spec.hpp"
#include "util/table.hpp"

using namespace pathload;

namespace {

void probe_and_print(const char* figure, double rate_mbps, std::uint64_t seed) {
  // The registry's paper-path preset is the topology baseline; this bench
  // re-dimensions only the tight link and tightness factor to the paper's
  // Univ-Oregon -> Univ-Delaware numbers.
  const scenario::ScenarioSpec& base = scenario::Registry::builtin().at("paper-path");
  scenario::ScenarioSpec spec = base;
  spec.paper->tight_capacity = Rate::mbps(155);
  spec.paper->tight_utilization = 0.52;  // A ~ 74 Mb/s
  spec.paper->beta = 1.8;
  spec.paper->nontight_utilization = 0.5;
  spec.hops = spec.paper->derive_hops();
  spec.seed = seed;

  scenario::ScenarioInstance inst{spec};
  inst.start();
  scenario::SimProbeChannel channel{inst.simulator(), inst.path()};

  core::PathloadConfig tool;  // K = 100, T >= 100 us
  auto stream = core::make_stream_spec(Rate::mbps(rate_mbps), tool);
  stream.stream_id = 1;
  const auto outcome = channel.run_stream(stream);
  const auto owds = core::relative_owds(outcome);
  const auto stats = core::compute_trend(owds, tool.trend);
  const auto cls = core::classify_stream(stats, tool.trend);

  std::printf("%s: R = %.0f Mb/s, A ~ 74 Mb/s (K=%d, L=%d B, T=%.0f us)\n", figure,
              stream.rate().mbits_per_sec(), stream.packet_count, stream.packet_size,
              stream.period.micros());
  std::printf("PCT = %.3f  PDT = %.3f  -> type %s\n", stats.pct, stats.pdt,
              cls == core::StreamClass::kIncreasing ? "I (increasing)"
                                                    : "N (non-increasing)");
  std::printf("packet  owd_usec\n");
  for (std::size_t i = 0; i < owds.size(); ++i) {
    std::printf("%3zu  %9.1f\n", i, owds[i] * 1e6);
  }
  std::printf("\n");
}

}  // namespace

int main() {
  bench::banner("Fig. 1-3", "OWD variations of periodic streams vs avail-bw");
  probe_and_print("Fig. 1 (R > A)", 96.0, bench::seed());
  probe_and_print("Fig. 2 (R < A)", 37.0, bench::seed() + 1);
  probe_and_print("Fig. 3 (R ~ A)", 82.0, bench::seed() + 2);
  bench::expectation(
      "Fig.1 shows a clear increasing OWD trend (type I); Fig.2 shows none "
      "(type N); Fig.3 is mixed, motivating the grey region.");
  return 0;
}
