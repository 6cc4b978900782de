#include "scenario/experiment.hpp"

#include <cmath>
#include <limits>

#include "core/rate_adjuster.hpp"
#include "scenario/sim_channel.hpp"
#include "scenario/sweep_runner.hpp"
#include "util/stats.hpp"

namespace pathload::scenario {

MatrixEstimator MatrixEstimator::from_registry(const core::EstimatorRegistry& reg,
                                               std::string_view name,
                                               std::string_view overrides) {
  const core::EstimatorRegistry::Entry& entry = reg.at(name);
  const std::string ov{overrides};
  // Surface override errors (unknown key, bad value) now, with their
  // line numbers, instead of from inside a worker thread mid-matrix.
  {
    const core::KvOverrides kv = core::KvOverrides::parse(ov);
    core::apply_common_overrides(*entry.make(kv), kv);
  }
  MatrixEstimator out;
  out.name = entry.name;
  // Copy the factory (not a reference to the entry): the column must
  // outlive registry mutation or destruction.
  out.make = [factory = entry.make, ov] {
    const core::KvOverrides kv = core::KvOverrides::parse(ov);
    std::unique_ptr<core::Estimator> est = factory(kv);
    core::apply_common_overrides(*est, kv);
    return est;
  };
  return out;
}

int MatrixCell::valid_runs() const {
  int n = 0;
  for (const auto& r : reports) n += r.valid ? 1 : 0;
  return n;
}

Rate MatrixCell::mean_low() const {
  OnlineStats s;
  for (const auto& r : reports) {
    if (r.valid) s.add(r.low.bits_per_sec());
  }
  return s.count() > 0 ? Rate::bps(s.mean()) : Rate::zero();
}

Rate MatrixCell::mean_high() const {
  OnlineStats s;
  for (const auto& r : reports) {
    if (r.valid) s.add(r.high.bits_per_sec());
  }
  return s.count() > 0 ? Rate::bps(s.mean()) : Rate::zero();
}

Rate MatrixCell::mean_center() const {
  OnlineStats s;
  for (const auto& r : reports) {
    if (r.valid) s.add(r.center().bits_per_sec());
  }
  return s.count() > 0 ? Rate::bps(s.mean()) : Rate::zero();
}

double MatrixCell::cv_low() const {
  OnlineStats s;
  for (const auto& r : reports) {
    if (r.valid) s.add(r.low.bits_per_sec());
  }
  return s.cv();
}

double MatrixCell::cv_high() const {
  OnlineStats s;
  for (const auto& r : reports) {
    if (r.valid) s.add(r.high.bits_per_sec());
  }
  return s.cv();
}

std::vector<double> MatrixCell::relative_variations() const {
  std::vector<double> rhos;
  rhos.reserve(reports.size());
  for (const auto& r : reports) {
    if (r.valid) rhos.push_back(core::AvailBwRange{r.low, r.high}.relative_variation());
  }
  return rhos;
}

double MatrixCell::mean_rel_error() const {
  OnlineStats s;
  if (truth > Rate::zero()) {
    for (const auto& r : reports) {
      if (!r.valid) continue;
      s.add(std::abs(r.center().bits_per_sec() - truth.bits_per_sec()) /
            truth.bits_per_sec());
    }
  }
  return s.count() > 0 ? s.mean()
                       : std::numeric_limits<double>::quiet_NaN();
}

double MatrixCell::coverage(Rate point_slack) const {
  if (reports.empty()) return 0.0;
  int hits = 0;
  for (const auto& r : reports) {
    if (r.covers(truth, point_slack)) ++hits;
  }
  return static_cast<double>(hits) / static_cast<double>(reports.size());
}

double MatrixCell::cv_center() const {
  OnlineStats s;
  for (const auto& r : reports) {
    if (r.valid) s.add(r.center().bits_per_sec());
  }
  if (s.count() == 0) return std::numeric_limits<double>::quiet_NaN();
  return s.count() > 1 ? s.cv() : 0.0;
}

DataSize MatrixCell::mean_bytes() const {
  if (reports.empty()) return DataSize{};
  double total = 0.0;
  for (const auto& r : reports) total += static_cast<double>(r.bytes_sent.byte_count());
  return DataSize::bytes(
      static_cast<std::int64_t>(total / static_cast<double>(reports.size())));
}

double MatrixCell::mean_packets() const {
  if (reports.empty()) return 0.0;
  double total = 0.0;
  for (const auto& r : reports) total += static_cast<double>(r.packets_sent);
  return total / static_cast<double>(reports.size());
}

Duration MatrixCell::mean_elapsed() const {
  if (reports.empty()) return Duration::zero();
  Duration total = Duration::zero();
  for (const auto& r : reports) total += r.elapsed;
  return total / static_cast<double>(reports.size());
}

double MatrixCell::mean_fleets() const {
  if (reports.empty()) return 0.0;
  double total = 0.0;
  for (const auto& r : reports) total += static_cast<double>(r.iterations.size());
  return total / static_cast<double>(reports.size());
}

std::array<int, 4> MatrixCell::outcome_counts() const {
  std::array<int, 4> counts{};
  for (const auto& r : reports) {
    ++counts[static_cast<std::size_t>(r.outcome)];
  }
  return counts;
}

std::string MatrixCell::outcome_summary() const {
  if (reports.empty()) return "n/a";
  const std::array<int, 4> counts = outcome_counts();
  std::string out;
  for (std::size_t i = 0; i < counts.size(); ++i) {
    if (counts[i] == 0) continue;
    const auto label = core::EstimateReport::outcome_label(
        static_cast<core::EstimateReport::Outcome>(i));
    if (counts[i] == static_cast<int>(reports.size())) return std::string{label};
    if (!out.empty()) out += ' ';
    out += std::string{label} + ":" + std::to_string(counts[i]);
  }
  return out;
}

double MatrixCell::mean_loss_fraction() const {
  if (reports.empty()) return 0.0;
  double total = 0.0;
  for (const auto& r : reports) total += r.loss_fraction();
  return total / static_cast<double>(reports.size());
}

core::EstimateReport run_estimator_once(const ScenarioSpec& spec,
                                        core::Estimator& est, std::uint64_t seed) {
  ScenarioSpec seeded = spec;
  seeded.seed = seed;
  ScenarioInstance inst{std::move(seeded)};
  inst.start();
  SimProbeChannel channel{inst.simulator(), inst.path()};
  Rng rng{seed};
  return core::run_guarded(est, channel, rng);
}

std::vector<MatrixCellPlan> plan_matrix(const std::vector<MatrixEstimator>& estimators,
                                        const std::vector<ScenarioSpec>& scenarios,
                                        const std::vector<double>& loads,
                                        std::uint64_t seed0) {
  // Enumerate every cell — and derive its seeds — before anything runs, so
  // the fan-out is deterministic and independent of the thread count (and,
  // via shard.hpp, of how the cells are partitioned across processes).
  std::vector<MatrixCellPlan> plans;
  plans.reserve(estimators.size() * scenarios.size() *
                std::max<std::size_t>(loads.size(), 1));
  for (const MatrixEstimator& est : estimators) {
    for (const ScenarioSpec& scenario : scenarios) {
      if (loads.empty()) {
        const double own =
            scenario.hops[scenario.tight_hop()].traffic.utilization;
        plans.push_back(MatrixCellPlan{&est, scenario, own, seed0});
      } else {
        for (const double u : loads) {
          // Same per-point seed derivation as bench/fig05 and --sweep.
          const auto cell_seed = static_cast<std::uint64_t>(
              static_cast<double>(seed0) + u * 1000);
          plans.push_back(MatrixCellPlan{&est, scenario.with_load(u), u, cell_seed});
        }
      }
    }
  }
  return plans;
}

std::vector<MatrixCell> run_planned_cells(const std::vector<MatrixCellPlan>& plans,
                                          int runs, SweepRunner& runner) {
  const auto n_runs = static_cast<std::size_t>(runs);
  std::vector<core::EstimateReport> reports =
      runner.map(plans.size() * n_runs, [&](std::size_t i) {
        const MatrixCellPlan& plan = plans[i / n_runs];
        const auto run = static_cast<std::uint64_t>(i % n_runs);
        const auto est = plan.est->make();
        return run_estimator_once(plan.spec, *est, plan.seed0 + run);
      });

  std::vector<MatrixCell> cells;
  cells.reserve(plans.size());
  for (std::size_t c = 0; c < plans.size(); ++c) {
    MatrixCell cell;
    cell.estimator = plans[c].est->name;
    cell.scenario = plans[c].spec.name;
    cell.load = plans[c].load;
    cell.truth = plans[c].spec.avail_bw();
    cell.seed0 = plans[c].seed0;
    cell.reports.assign(
        std::make_move_iterator(reports.begin() + static_cast<std::ptrdiff_t>(c * n_runs)),
        std::make_move_iterator(reports.begin() + static_cast<std::ptrdiff_t>((c + 1) * n_runs)));
    cells.push_back(std::move(cell));
  }
  return cells;
}

std::vector<MatrixCell> run_matrix(const std::vector<MatrixEstimator>& estimators,
                                   const std::vector<ScenarioSpec>& scenarios,
                                   const std::vector<double>& loads, int runs,
                                   std::uint64_t seed0, SweepRunner& runner) {
  return run_planned_cells(plan_matrix(estimators, scenarios, loads, seed0),
                           runs, runner);
}

}  // namespace pathload::scenario
