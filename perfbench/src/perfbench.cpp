#include "perfbench.hpp"

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <stdexcept>

#include "baselines/estimators.hpp"
#include "scenario/registry.hpp"
#include "scenario/sim_channel.hpp"
#include "util/rng.hpp"

namespace perfbench {

namespace core = pathload::core;
namespace scenario = pathload::scenario;

// ------------------------------------------------------------------ stats

double percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double n = static_cast<double>(values.size());
  const auto rank = static_cast<std::size_t>(std::ceil(p / 100.0 * n));
  return values[std::clamp<std::size_t>(rank, 1, values.size()) - 1];
}

std::size_t count_above(const std::vector<double>& values, double threshold) {
  return static_cast<std::size_t>(
      std::count_if(values.begin(), values.end(),
                    [&](double v) { return v > threshold; }));
}

double busy_fraction(double summed_run_s, int workers, double wall_s) {
  if (workers <= 0 || wall_s <= 0.0) return 0.0;
  return summed_run_s / (static_cast<double>(workers) * wall_s);
}

// ------------------------------------------------------------------ spans

std::string_view span_name(SpanKind k) {
  switch (k) {
    case SpanKind::kRun: return "run";
    case SpanKind::kBuild: return "scenario.build";
    case SpanKind::kWarmup: return "scenario.warmup";
    case SpanKind::kEstimate: return "estimate";
    case SpanKind::kStream: return "sim.stream";
    case SpanKind::kIdle: return "sim.idle";
    case SpanKind::kBulk: return "tcp.bulk";
  }
  return "?";
}

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::int32_t RunSpans::open(SpanKind kind, std::int32_t parent) {
  spans.push_back(Span{kind, parent, now_ns(), 0});
  return static_cast<std::int32_t>(spans.size() - 1);
}

void RunSpans::close(std::int32_t index) {
  spans[static_cast<std::size_t>(index)].end_ns = now_ns();
}

std::vector<std::int64_t> self_times(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> children(spans.size());
  for (const Span& s : spans) {
    if (s.parent < 0) continue;
    const Span& p = spans.at(static_cast<std::size_t>(s.parent));
    const std::int64_t lo = std::max(s.start_ns, p.start_ns);
    const std::int64_t hi = std::min(s.end_ns, p.end_ns);
    if (hi > lo) children[static_cast<std::size_t>(s.parent)].emplace_back(lo, hi);
  }
  std::vector<std::int64_t> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    auto& iv = children[i];
    std::sort(iv.begin(), iv.end());
    std::int64_t covered = 0;
    std::int64_t reach = spans[i].start_ns;
    for (const auto& [lo, hi] : iv) {
      const std::int64_t from = std::max(lo, reach);
      if (hi > from) covered += hi - from;
      reach = std::max(reach, hi);
    }
    self[i] = (spans[i].end_ns - spans[i].start_ns) - covered;
  }
  return self;
}

// -------------------------------------------------------------- workloads

namespace {

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

/// Draw `i` of stream `stream` under workload seed `seed`.
std::uint64_t draw(std::uint64_t seed, std::uint64_t stream, std::uint64_t i) {
  return splitmix64(splitmix64(splitmix64(seed) ^ stream) + i);
}

double draw_unit(std::uint64_t seed, std::uint64_t stream, std::uint64_t i) {
  return static_cast<double>(draw(seed, stream, i) >> 11) * 0x1p-53;
}

constexpr std::uint64_t kSeedStream = 1;
constexpr std::uint64_t kLoadStream = 2;  // v2 workloads' load draws

/// Seed of run `i`: 30 bits, never 0.
std::uint64_t run_seed(std::uint64_t seed, std::uint64_t i) {
  return 1 + (draw(seed, kSeedStream, i) >> 34);
}

ScenarioSpec preset(std::string_view name, pathload::scenario::EngineVersion engine) {
  ScenarioSpec spec = scenario::Registry::builtin().at(name);
  spec.engine = engine;
  return spec;
}

/// An estimator column; gap-model tools get the tight link's capacity as
/// their hint, as scenario_runner supplies it from the preset's links.
scenario::MatrixEstimator column(std::string_view tool, const ScenarioSpec& spec) {
  const core::EstimatorRegistry& reg = pathload::baselines::builtin_estimators();
  std::string overrides;
  if (reg.at(tool).needs_capacity_hint) {
    overrides = core::kv_config_line(
        "capacity_mbps", spec.hops[spec.tight_hop()].capacity.mbits_per_sec());
  }
  return scenario::MatrixEstimator::from_registry(reg, tool, overrides);
}

/// The spec with its tight-link load set to `u`, rounded to 0.001 so the
/// spec prints and re-parses exactly.
ScenarioSpec loaded(const ScenarioSpec& base, double u) {
  return base.with_load(std::round(u * 1000.0) / 1000.0);
}

/// Every (tool, scenario) cell, `reps` runs each, cells interleaved so long
/// and short runs mix through the batch. Each run's tight-link load is
/// drawn uniformly within 0.1 of the preset's own: under engine v2, smooth
/// cross traffic is a constant fluid rate, so without it a preset's runs
/// would not depend on the seed at all.
Workload cross_product(std::string name, const std::vector<std::string_view>& tools,
                       const std::vector<std::string_view>& presets, int reps,
                       std::size_t subset, std::uint64_t seed) {
  Workload w;
  w.name = std::move(name);
  w.engine = "v2";
  std::vector<ScenarioSpec> bases;
  for (std::string_view p : presets) {
    bases.push_back(preset(p, pathload::scenario::EngineVersion::kV2));
  }
  std::vector<std::pair<std::uint32_t, std::uint32_t>> cells;
  for (std::string_view t : tools) {
    for (std::uint32_t s = 0; s < bases.size(); ++s) {
      cells.emplace_back(static_cast<std::uint32_t>(w.estimators.size()), s);
      w.estimators.push_back(column(t, bases[s]));
    }
  }
  const std::size_t n = cells.size() * static_cast<std::size_t>(reps);
  for (std::size_t i = 0; i < n; ++i) {
    const auto& [est, base] = cells[i % cells.size()];
    const ScenarioSpec& b = bases[base];
    const double own = b.hops[b.tight_hop()].traffic.utilization;
    const double u = own + 0.1 * (2.0 * draw_unit(seed, kLoadStream, i) - 1.0);
    w.specs.push_back(loaded(b, std::clamp(u, 0.05, 0.95)));
    w.runs.push_back(Run{est, static_cast<std::uint32_t>(i), run_seed(seed, i)});
  }
  for (std::uint32_t i = 0; i < subset; ++i) w.subset.push_back(i);
  return w;
}

/// pathload on two presets, engine v1, at 96 loads per preset evenly
/// spaced over [0.3, 0.9]. The loads are fixed and only the run seeds come
/// from the workload seed: a run's cost depends mostly on its load, and
/// with seeded loads the batch's median run time moved with the draw.
Workload pathload_sweep_v1(std::uint64_t seed) {
  constexpr int kLoads = 96;
  Workload w;
  w.name = "pathload-sweep-v1";
  w.engine = "v1";
  const std::vector<ScenarioSpec> bases = {
      preset("paper-path", pathload::scenario::EngineVersion::kV1),
      preset("tight-not-narrow", pathload::scenario::EngineVersion::kV1)};
  w.estimators.push_back(column("pathload", bases[0]));
  // Interleave presets and spread consecutive runs over the load range
  // (stride 37 is coprime with 96), so long and short runs mix.
  for (std::size_t i = 0; i < bases.size() * kLoads; ++i) {
    const std::size_t k = (i / bases.size() * 37) % kLoads;
    const double u = 0.3 + 0.6 * (static_cast<double>(k) + 0.5) / kLoads;
    w.specs.push_back(loaded(bases[i % bases.size()], u));
    w.runs.push_back(Run{0, static_cast<std::uint32_t>(i), run_seed(seed, i)});
  }
  for (std::uint32_t i = 0; i < 16; ++i) w.subset.push_back(i);
  return w;
}

}  // namespace

std::vector<std::string> workload_names() {
  return {"pathload-sweep-v1", "probe-matrix-v2", "tcp-bulk-v2"};
}

Workload make_workload(std::string_view name, std::uint64_t seed) {
  Workload w;
  if (name == "pathload-sweep-v1") {
    w = pathload_sweep_v1(seed);
  } else if (name == "probe-matrix-v2") {
    w = cross_product(std::string{name},
                      {"pathload", "cprobe", "pktpair", "topp", "delphi", "spruce",
                       "igi", "pathchirp"},
                      {"paper-path", "bursty-tight", "tcp-bg-greedy", "lossy-tight"},
                      /*reps=*/100, /*subset=*/1024, seed);
  } else if (name == "tcp-bulk-v2") {
    w = cross_product(std::string{name}, {"btc", "delivery-rate"},
                      {"btc-path", "tcp-bg-greedy", "paper-path"},
                      /*reps=*/40, /*subset=*/24, seed);
  } else {
    throw std::invalid_argument{"unknown workload '" + std::string{name} + "'"};
  }
  for (const ScenarioSpec& s : w.specs) s.validate();
  return w;
}

// -------------------------------------------------------------- one run

namespace {

/// ProbeChannel/BulkChannel decorator that records a span around every
/// channel call and forwards each call unchanged, as core::MeteredChannel
/// does.
class TimingChannel final : public core::ProbeChannel, public core::BulkChannel {
 public:
  TimingChannel(core::ProbeChannel& inner, RunSpans& spans, std::int32_t parent,
                RunCounters& counters)
      : inner_{inner}, spans_{spans}, parent_{parent}, counters_{counters} {}

  core::StreamOutcome run_stream(const core::StreamSpec& spec) override {
    const std::int32_t s = spans_.open(SpanKind::kStream, parent_);
    core::StreamOutcome outcome = inner_.run_stream(spec);
    spans_.close(s);
    counters_.probe_packets += outcome.sent_count;
    return outcome;
  }
  void idle(pathload::Duration d) override {
    const std::int32_t s = spans_.open(SpanKind::kIdle, parent_);
    inner_.idle(d);
    spans_.close(s);
  }
  pathload::TimePoint now() override { return inner_.now(); }
  pathload::Duration rtt() const override { return inner_.rtt(); }
  core::BulkChannel* bulk() override { return inner_.bulk() != nullptr ? this : nullptr; }
  core::BulkTransferOutcome run_bulk_transfer(const core::BulkTransferSpec& spec) override {
    const std::int32_t s = spans_.open(SpanKind::kBulk, parent_);
    core::BulkTransferOutcome out = inner_.bulk()->run_bulk_transfer(spec);
    spans_.close(s);
    counters_.acked_bytes += out.bytes_acked.byte_count();
    counters_.fast_retransmits += out.fast_retransmits;
    counters_.timeouts += out.timeouts;
    counters_.rate_samples += out.rate_samples.size();
    return out;
  }

 private:
  core::ProbeChannel& inner_;
  RunSpans& spans_;
  std::int32_t parent_;
  RunCounters& counters_;
};

}  // namespace

EstimateReport run_plain(const Workload& w, const Run& r, core::Estimator& est) {
  return scenario::run_estimator_once(w.specs[r.spec], est, r.seed);
}

EstimateReport run_traced(const Workload& w, const Run& r, core::Estimator& est,
                          RunSpans& spans, RunCounters& counters) {
  // The same calls, in the same order, as scenario::run_estimator_once.
  const std::int32_t root = spans.open(SpanKind::kRun, -1);
  EstimateReport report;
  {
    ScenarioSpec seeded = w.specs[r.spec];
    seeded.seed = r.seed;
    std::int32_t s = spans.open(SpanKind::kBuild, root);
    scenario::ScenarioInstance inst{std::move(seeded)};
    spans.close(s);
    s = spans.open(SpanKind::kWarmup, root);
    inst.start();
    spans.close(s);
    scenario::SimProbeChannel channel{inst.simulator(), inst.path()};
    pathload::Rng rng{r.seed};
    s = spans.open(SpanKind::kEstimate, root);
    TimingChannel timed{channel, spans, s, counters};
    report = core::run_guarded(est, timed, rng);
    spans.close(s);

    counters.events += inst.simulator().events_processed();
    for (std::size_t h = 0; h < inst.path().hop_count(); ++h) {
      counters.link_drops += inst.path().link(h).drops();
      counters.impaired_drops += inst.path().link(h).impaired_drops();
    }
    counters.virtual_s += (inst.simulator().now() - pathload::TimePoint::origin()).secs();
    if (report.estimator == "pathload") {
      counters.fleets += static_cast<std::int64_t>(report.iterations.size());
    }
  }
  spans.close(root);
  return report;
}

// ------------------------------------------------------- report checking

std::string check_report(const EstimateReport& rep) {
  using Outcome = EstimateReport::Outcome;
  const auto o = static_cast<int>(rep.outcome);
  if (o < static_cast<int>(Outcome::kOk) || o > static_cast<int>(Outcome::kFailed)) {
    return "outcome out of range";
  }
  if (rep.outcome == Outcome::kFailed && rep.valid) return "failed run marked valid";
  if (rep.valid) {
    const double lo = rep.low.bits_per_sec();
    const double hi = rep.high.bits_per_sec();
    if (!std::isfinite(lo) || !std::isfinite(hi)) return "non-finite estimate";
    if (lo < 0.0) return "estimate low < 0";
    if (lo > hi) return "estimate low > high";
  }
  if (rep.packets_lost < 0) return "negative packets_lost";
  if (rep.packets_lost > rep.packets_sent) return "packets_lost > packets_sent";
  return {};
}

bool threw(const EstimateReport& rep) {
  const std::string& note = rep.outcome_note;
  return rep.outcome == EstimateReport::Outcome::kFailed &&
         (note.starts_with("error: ") || note.starts_with("channel fault: "));
}

namespace {

struct Fnv {
  std::uint64_t h{0xcbf29ce484222325ULL};
  void bytes(const void* p, std::size_t n) {
    const auto* c = static_cast<const unsigned char*>(p);
    for (std::size_t i = 0; i < n; ++i) {
      h ^= c[i];
      h *= 0x100000001b3ULL;
    }
  }
  void u64(std::uint64_t v) { bytes(&v, sizeof v); }
  void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
  void f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }
  void str(const std::string& s) {
    u64(s.size());
    bytes(s.data(), s.size());
  }
};

}  // namespace

std::uint64_t report_hash(const EstimateReport& rep) {
  Fnv f;
  f.str(rep.estimator);
  f.i64(static_cast<int>(rep.quantity));
  f.i64(static_cast<int>(rep.outcome));
  f.str(rep.outcome_note);
  f.i64(rep.packets_lost);
  f.u64(rep.valid);
  f.u64(rep.is_range);
  f.f64(rep.low.bits_per_sec());
  f.f64(rep.high.bits_per_sec());
  f.u64(rep.capacity.has_value());
  f.f64(rep.capacity ? rep.capacity->bits_per_sec() : 0.0);
  f.i64(rep.streams_sent);
  f.i64(rep.packets_sent);
  f.i64(rep.bytes_sent.byte_count());
  f.i64(rep.elapsed.nanos());
  f.u64(rep.iterations.size());
  for (const auto& it : rep.iterations) {
    f.f64(it.offered_mbps);
    f.f64(it.measured_mbps);
    f.str(it.note);
  }
  return f.h;
}

std::uint64_t digest(const std::vector<std::uint64_t>& hashes) {
  Fnv f;
  for (std::uint64_t h : hashes) f.u64(h);
  return f.h;
}

}  // namespace perfbench
