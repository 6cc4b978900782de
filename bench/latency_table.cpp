// Section IV, "Measurement Latency": for the default parameters, a path
// with A <= ~100 Mb/s and RTT ~100 ms should produce an estimate in under
// ~15 s; latency grows with the avail-bw magnitude, the grey-region width,
// and finer resolutions (omega, chi).

#include <cstdio>

#include "bench/common.hpp"
#include "scenario/registry.hpp"
#include "scenario/sweep_runner.hpp"
#include "util/table.hpp"

using namespace pathload;

int main() {
  bench::banner("Latency", "measurement latency vs avail-bw and resolution");
  const int runs = bench::runs(5);
  // Runs are sharded across threads (PATHLOAD_THREADS); output is
  // byte-identical for any thread count.
  scenario::SweepRunner runner;

  Table table{{"capacity_Mbps", "avail_Mbps", "omega_Mbps", "latency_s", "fleets",
               "probe_MB"}};

  const struct {
    double cap, util;
  } points[] = {{10, 0.8}, {10, 0.5}, {40, 0.5}, {100, 0.5}, {100, 0.26}};

  // The registry's paper-path preset is the topology baseline; each point
  // re-dimensions only the tight link.
  const scenario::ScenarioSpec& base = scenario::Registry::builtin().at("paper-path");
  for (const auto& pt : points) {
    for (double omega : {1.0, 0.5}) {
      scenario::ScenarioSpec spec = base;
      spec.paper->tight_capacity = Rate::mbps(pt.cap);
      spec.paper->tight_utilization = pt.util;
      spec.hops = spec.paper->derive_hops();

      core::PathloadConfig tool;
      tool.omega = Rate::mbps(omega);
      tool.chi = Rate::mbps(omega * 1.5);

      const auto rr = scenario::sweep_scenario_repeated(
          spec, tool, runs, bench::seed() + (pt.cap * 100 + omega * 10),
          runner);
      double mean_bytes = 0.0;
      for (const auto& r : rr.results) {
        mean_bytes += static_cast<double>(r.bytes_sent.byte_count());
      }
      mean_bytes /= static_cast<double>(rr.results.size());
      table.add_row({Table::num(pt.cap, 0),
                     Table::num(pt.cap * (1 - pt.util), 1), Table::num(omega, 1),
                     Table::num(rr.mean_elapsed().secs(), 1),
                     Table::num(rr.mean_fleets(), 1),
                     Table::num(mean_bytes / 1e6, 2)});
    }
  }
  table.print();
  bench::expectation(
      "latency stays in the ~10-30 s range for paths up to ~100 Mb/s of "
      "avail-bw at ~100 ms RTT, growing with |A| and with finer omega.");
  return 0;
}
