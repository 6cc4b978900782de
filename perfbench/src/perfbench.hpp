// The repo benchmark's testable core: workload generation, the timed run
// (plain and traced), report checks and digests, span self time, and the
// percentile rule. main.cpp drives these; tests/perfbench_test.cpp checks
// the arithmetic. Everything here calls the pathload library only through
// its public headers.

#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "core/estimator.hpp"
#include "scenario/experiment.hpp"
#include "scenario/spec.hpp"

namespace perfbench {

using pathload::core::EstimateReport;
using pathload::scenario::ScenarioSpec;

// ------------------------------------------------------------------ stats

/// Nearest-rank percentile: the smallest sample with at least p% of the
/// samples at or below it (p in (0, 100]). Always an observed value, so a
/// workload whose runs split between two fixed durations reports one of
/// them, never a value in between. 0 for an empty sample.
double percentile(std::vector<double> values, double p);

/// Samples strictly greater than `threshold` (the "ten beyond p90" check).
std::size_t count_above(const std::vector<double>& values, double threshold);

/// Summed run time divided by the time the workers were available.
double busy_fraction(double summed_run_s, int workers, double wall_s);

// ------------------------------------------------------------------ spans

/// Layer boundaries the traced pass records, in nesting order: a run's
/// root, its three children, and the channel calls under `estimate`.
enum class SpanKind : std::uint8_t {
  kRun,
  kBuild,     ///< scenario::ScenarioInstance construction
  kWarmup,    ///< ScenarioInstance::start
  kEstimate,  ///< core::run_guarded (Estimator::run)
  kStream,    ///< ProbeChannel::run_stream
  kIdle,      ///< ProbeChannel::idle
  kBulk,      ///< BulkChannel::run_bulk_transfer
};
inline constexpr int kSpanKinds = 7;
std::string_view span_name(SpanKind k);

struct Span {
  SpanKind kind{SpanKind::kRun};
  std::int32_t parent{-1};  ///< index into the same run's span list
  std::int64_t start_ns{0};
  std::int64_t end_ns{0};
};

/// One run's spans; index 0 is the root.
struct RunSpans {
  std::uint32_t run{0};  ///< index of the run in the workload's batch
  std::vector<Span> spans;

  /// Open a span under `parent` (-1 for the root) and return its index.
  std::int32_t open(SpanKind kind, std::int32_t parent);
  void close(std::int32_t index);
};

/// Per-span self time: duration minus the union of its children's
/// intervals (clipped to the parent). Indexed like `spans`.
std::vector<std::int64_t> self_times(const std::vector<Span>& spans);

std::int64_t now_ns();

// -------------------------------------------------------------- workloads

/// One run of a workload batch: an estimator column, a loaded spec and the
/// run seed. The library sees only these.
struct Run {
  std::uint32_t estimator{0};
  std::uint32_t spec{0};
  std::uint64_t seed{0};
};

struct Workload {
  std::string name;
  std::string engine;
  std::vector<pathload::scenario::MatrixEstimator> estimators;
  std::vector<ScenarioSpec> specs;
  std::vector<Run> runs;
  /// Batch indices the 1-worker check re-runs.
  std::vector<std::uint32_t> subset;
};

std::vector<std::string> workload_names();

/// Build a workload's batch from its seed; throws std::invalid_argument on
/// an unknown name. The same seed gives the same batch.
Workload make_workload(std::string_view name, std::uint64_t seed);

// -------------------------------------------------------------- one run

/// What the traced pass counts inside one run, besides its spans.
struct RunCounters {
  std::uint64_t events{0};
  std::uint64_t link_drops{0};
  std::uint64_t impaired_drops{0};
  double virtual_s{0.0};
  std::int64_t probe_packets{0};
  std::int64_t acked_bytes{0};
  std::uint64_t fast_retransmits{0};
  std::uint64_t timeouts{0};
  std::uint64_t rate_samples{0};
  std::int64_t fleets{0};
};

/// The plain run: scenario::run_estimator_once. `est` is a fresh instance
/// from the run's estimator column, built outside the timed interval.
EstimateReport run_plain(const Workload& w, const Run& r,
                         pathload::core::Estimator& est);

/// The same run decomposed into the library calls run_estimator_once
/// makes, with a span around each layer and a timing decorator on the
/// channel (its run_stream, idle and run_bulk_transfer calls become
/// sim.stream, sim.idle and tcp.bulk spans under `estimate`). Must return
/// the identical report.
EstimateReport run_traced(const Workload& w, const Run& r,
                          pathload::core::Estimator& est, RunSpans& spans,
                          RunCounters& counters);

// ------------------------------------------------------- report checking

/// Empty when the report is well formed, else what is wrong: the outcome
/// must be one of the four, a failed run must be invalid, a valid estimate
/// must have finite 0 <= low <= high, and 0 <= packets_lost <= packets_sent.
/// Estimates may touch 0: pathload's search starts at Rmin = 0 and reports
/// [0, Rmax] when no fleet ever read "below", and spruce folds its mean
/// into [0, C], so a path whose every pair sample clamps to 0 reads [0, 0].
std::string check_report(const EstimateReport& rep);

/// True when run_guarded turned an exception into this report.
bool threw(const EstimateReport& rep);

/// FNV-1a over every field of the report (doubles by bit pattern).
std::uint64_t report_hash(const EstimateReport& rep);

/// Fold per-run hashes, in batch order, into one workload digest.
std::uint64_t digest(const std::vector<std::uint64_t>& hashes);

}  // namespace perfbench
