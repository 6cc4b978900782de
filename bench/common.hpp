#pragma once

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/session.hpp"
#include "scenario/experiment.hpp"
#include "scenario/sweep_runner.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

namespace pathload::bench {

/// Repetition count for multi-run experiment points.
///
/// The paper uses 50 runs per point (Figs. 5-7) and 110 runs (Figs. 11-14);
/// the default here is scaled down so the whole bench suite finishes in
/// minutes on one core. Set PATHLOAD_RUNS to reproduce at full fidelity,
/// or PATHLOAD_QUICK=1 for a fast smoke pass.
inline int runs(int default_runs) {
  if (const char* env = std::getenv("PATHLOAD_RUNS")) {
    const int v = std::atoi(env);
    if (v > 0) return v;
  }
  if (const char* quick = std::getenv("PATHLOAD_QUICK"); quick && quick[0] == '1') {
    return std::max(2, default_runs / 5);
  }
  return default_runs;
}

/// Base RNG seed for the experiment (PATHLOAD_SEED to vary).
inline std::uint64_t seed() {
  if (const char* env = std::getenv("PATHLOAD_SEED")) {
    return std::strtoull(env, nullptr, 10);
  }
  return 20020800;  // SIGCOMM 2002 ;-)
}

/// Matrix column running pathload with `cfg`: a fresh session per run,
/// so a sweep over tool settings (f, PDT threshold, K, N, omega) is one
/// column per setting.
inline scenario::MatrixEstimator pathload_column(const core::PathloadConfig& cfg = {}) {
  return {"pathload", [cfg] { return std::make_unique<core::PathloadSession>(cfg); }};
}

/// A figure sweep: one planned pathload cell per point, each with its own
/// tool settings and seed (hop count, beta, f, K, ... and each figure's
/// seed rule), run as one planned call so the whole sweep fans out at once.
class PathloadSweep {
 public:
  PathloadSweep() = default;
  PathloadSweep(const PathloadSweep&) = delete;  // plans point into columns_
  PathloadSweep& operator=(const PathloadSweep&) = delete;

  /// Plan a cell of pathload with `cfg` on `spec`, at the spec's own
  /// tight-hop load, with runs seeded seed0, seed0 + 1, ...
  void add(scenario::ScenarioSpec spec, std::uint64_t seed0,
           const core::PathloadConfig& cfg = {}) {
    columns_.push_back(pathload_column(cfg));
    const double load = spec.hops[spec.tight_hop()].traffic.utilization;
    plans_.push_back({&columns_.back(), std::move(spec), load, seed0});
  }

  const std::vector<scenario::MatrixCellPlan>& plans() const { return plans_; }

  /// Run every planned cell `runs` times; cells come back in plan order.
  std::vector<scenario::MatrixCell> run(int runs, scenario::SweepRunner& runner) const {
    return scenario::run_planned_cells(plans_, runs, runner);
  }

 private:
  std::deque<scenario::MatrixEstimator> columns_;  // stable under push_back
  std::vector<scenario::MatrixCellPlan> plans_;
};

/// The relative variations (Eq. 12) of `cells`, split into `columns`
/// equal consecutive groups (one CDF column per group, in cell order).
inline std::vector<std::vector<double>> rho_columns(
    const std::vector<scenario::MatrixCell>& cells, std::size_t columns) {
  const std::size_t per_column = cells.size() / columns;
  std::vector<std::vector<double>> out(columns);
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const std::vector<double> rhos = cells[i].relative_variations();
    out[i / per_column].insert(out[i / per_column].end(), rhos.begin(), rhos.end());
  }
  return out;
}

/// Print the CDF of each rho column at percentiles 5, 15, ..., 95, the
/// way Figs. 11-14 plot it; `headers` names the percentile column first.
inline void print_rho_cdf(std::vector<std::string> headers,
                          const std::vector<std::vector<double>>& columns) {
  Table table{std::move(headers)};
  for (int p = 5; p <= 95; p += 10) {
    std::vector<std::string> row{Table::num(p, 0)};
    for (const auto& col : columns) {
      row.push_back(Table::num(percentile(col, p / 100.0), 3));
    }
    table.add_row(std::move(row));
  }
  table.print();
}

/// Uniform banner so bench outputs are self-describing in bench_output.txt.
inline void banner(const char* figure, const char* description) {
  std::printf("=============================================================\n");
  std::printf("%s — %s\n", figure, description);
  std::printf("=============================================================\n");
}

/// Footnote with the paper's qualitative claim this bench checks.
inline void expectation(const char* text) { std::printf("\npaper: %s\n\n", text); }

}  // namespace pathload::bench
