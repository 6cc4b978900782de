// Figure 10: verification experiment — pathload vs MRTG readings of the
// tight link, on a path whose tight link (155 Mb/s OC-3, heavily used)
// differs from its narrow link (100 Mb/s Fast Ethernet, lightly used).
//
// As in the paper: pathload runs consecutively through a measurement
// window; its per-run ranges are combined with the duration-weighted
// average of Eq. (11) and compared against the window's MRTG avail-bw
// reading, quantized to 6 Mb/s bands like the paper's graphs. 12
// independent runs under slightly different load conditions.
//
// Built on the unified harness: the path is a declarative ScenarioSpec
// (text form, swept with with_load), and pathload runs as a registry
// estimator whose EstimateReport supplies both the estimate and the probe
// footprint the MRTG subtraction needs.
//
// Scaling note: MRTG windows are 45 s here instead of 5 min to keep the
// bench fast; the comparison logic is unchanged. The 12 runs are
// independent simulations and run on the SweepRunner (PATHLOAD_THREADS).

#include <cstdio>
#include <vector>

#include "baselines/estimators.hpp"
#include "bench/common.hpp"
#include "scenario/sim_channel.hpp"
#include "scenario/spec.hpp"
#include "scenario/sweep_runner.hpp"
#include "sim/monitor.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

using namespace pathload;

int main() {
  bench::banner("Fig. 10", "pathload vs MRTG on a tight!=narrow path (12 runs)");

  // Hop 0: the tight link (OC-3-like, 155 Mb/s, heavily used; load varies
  // per run via with_load). Hop 1: the narrow link (Fast-Ethernet-like,
  // 100 Mb/s, ~5 Mb/s of light cross traffic).
  const scenario::ScenarioSpec base = scenario::ScenarioSpec::parse(R"(
    name = fig10-tight-not-narrow
    description = OC-3 tight link upstream of a lightly used Fast-Ethernet narrow link
    warmup_s = 1
    hops = 2
    hop.0.capacity_mbps = 155
    hop.0.delay_ms = 15
    hop.0.buffer_ms = 400
    hop.0.traffic.model = pareto
    hop.0.traffic.utilization = 0.5
    hop.0.traffic.sources = 30
    hop.1.capacity_mbps = 100
    hop.1.delay_ms = 15
    hop.1.buffer_ms = 400
    hop.1.traffic.model = pareto
    hop.1.traffic.utilization = 0.05
    hop.1.traffic.sources = 5
  )");

  const Duration window = Duration::seconds(45);
  Table table{{"run", "util_%", "mrtg_band_Mbps", "pathload_Mbps", "in_band",
               "pl_runs"}};

  // The paper's Fig. 10 parameters: omega=1, chi=1.5 Mb/s (defaults),
  // f=0.7, PCT 0.6, PDT 0.5.
  const auto& registry = baselines::builtin_estimators();

  // One forked seed per run, drawn up front in run order, so the runs can
  // go to the SweepRunner and the output stays independent of the thread
  // count.
  const int total_runs = 12;
  Rng seed_stream{bench::seed()};
  std::vector<std::uint64_t> seeds;
  for (int run = 1; run <= total_runs; ++run) seeds.push_back(seed_stream.fork().engine()());

  struct Row {
    double util;
    sim::UtilizationMonitor::Band band;
    double pathload_avg;
    int pl_runs;
  };
  scenario::SweepRunner runner;
  const std::vector<Row> rows =
      runner.map(seeds.size(), [&](std::size_t i) {
        // Slightly different operating point each run, like a real path
        // observed at different times of day.
        const double util = 0.44 + 0.02 * static_cast<double>(i + 1);  // A in [50, 87] Mb/s

        scenario::ScenarioSpec spec = base.with_load(util);
        spec.seed = seeds[i];
        scenario::ScenarioInstance inst{std::move(spec)};
        inst.start();
        sim::Simulator& sim = inst.simulator();

        // MRTG-style byte counters over the window. Consecutive pathload
        // runs themselves add ~R/10 of probe load to the link; in the
        // paper that footprint is diluted across a 5-minute window, so we
        // subtract the known probe bytes — straight from the
        // EstimateReports — to get the cross-traffic avail-bw the paper's
        // MRTG graphs effectively show.
        const DataSize bytes_at_start = inst.path().link(0).bytes_forwarded();
        const TimePoint window_start = sim.now();

        scenario::SimProbeChannel channel{sim, inst.path()};
        Rng rng{seeds[i]};
        const auto estimator =
            registry.make("pathload", "pct_threshold=0.6, pdt_threshold=0.5");

        // Run pathload consecutively across the window, Eq. (11)-averaging.
        std::vector<WeightedSample> samples;
        const TimePoint window_end = sim.now() + window;
        int pl_runs = 0;
        DataSize probe_bytes{};
        while (sim.now() < window_end) {
          const core::EstimateReport report = estimator->run(channel, rng);
          samples.push_back({report.center().mbits_per_sec(), report.elapsed});
          probe_bytes += report.bytes_sent;
          ++pl_runs;
        }

        const Duration actual_window = sim.now() - window_start;
        const DataSize link_bytes =
            inst.path().link(0).bytes_forwarded() - bytes_at_start;
        const double cross_util =
            (link_bytes - probe_bytes).bits() /
            (Rate::mbps(155).bits_per_sec() * actual_window.secs());
        const Rate mrtg_avail = Rate::mbps(155) * (1.0 - cross_util);
        return Row{util, sim::UtilizationMonitor::quantize(mrtg_avail, Rate::mbps(6)),
                   duration_weighted_average(samples), pl_runs};
      });

  int hits = 0;
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    const bool in_band = r.pathload_avg >= r.band.low.mbits_per_sec() &&
                         r.pathload_avg <= r.band.high.mbits_per_sec();
    if (in_band) ++hits;
    table.add_row({Table::num(static_cast<double>(i + 1), 0), Table::num(r.util * 100, 0),
                   "[" + Table::num(r.band.low.mbits_per_sec(), 0) + "," +
                       Table::num(r.band.high.mbits_per_sec(), 0) + "]",
                   Table::num(r.pathload_avg, 1), in_band ? "yes" : "no",
                   Table::num(r.pl_runs, 0)});
  }
  table.print();
  std::printf("\nwithin MRTG band: %d / %d runs\n", hits, total_runs);
  bench::expectation(
      "the pathload estimate falls within the (6 Mb/s-quantized) MRTG band "
      "in ~10 of 12 runs, with marginal deviations otherwise.");
  return 0;
}
