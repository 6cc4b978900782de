// perfbench: the repo benchmark binary. One process runs one workload on
// one scenario::SweepRunner (closed loop: a worker takes its next run only
// when the previous one returned) and prints its metrics; see
// perfbench/README.md for the metric definitions and the workloads.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--commit <id>] [--spans-dir <dir>]
//
// --trace 0 prints the end-to-end metrics, --trace 1 the per-layer ones.
// The last stdout line is one JSON object {correct, attempted, failed,
// metrics}; the exit code is 1 when a check failed.

#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <mutex>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include "perfbench.hpp"
#include "scenario/sweep_runner.hpp"

namespace {

using namespace perfbench;

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

/// Two workers, not nproc: on the shared 4-vCPU reference box the capacity
/// left by other tenants swings between about two and four CPUs, and a
/// 4-worker pass moved with it by up to 2.4x while a 2-worker pass moved
/// by about a tenth (README.md, "Why two workers").
constexpr int kMaxWorkers = 2;
/// Share of each cycle's wall time spent repeating the set-up after it,
/// and the fewest repeats after a cycle.
constexpr double kSetupShare = 0.01;
constexpr int kSetupBlock = 5;
/// Whole-batch cycles a --trace 0 run times at least, so the check that
/// every cycle repeats the first cycle's reports always runs.
constexpr std::size_t kMinCycles = 2;
/// Minimum warm-up before timing: on the reference box a CPU that was idle
/// runs at about half speed for the first half second of work.
constexpr double kWarmupS = 1.0;
/// A point estimate covers the truth within this slack (scenario_runner's
/// kPointSlack); ranges cover by containment.
constexpr pathload::Rate kPointSlack = pathload::Rate::mbps(1.0);

struct Args {
  std::string workload;
  std::uint64_t seed{1};
  double seconds{10.0};
  int trace{0};
  std::string commit{"unknown"};
  std::string spans_dir;
};

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--commit <id>] "
               "[--spans-dir <dir>]\nworkloads:",
               why.c_str());
  for (const std::string& w : workload_names()) std::fprintf(stderr, " %s", w.c_str());
  std::fprintf(stderr, "\n");
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) usage("missing value for " + key);
    const std::string val = argv[++i];
    char* end = nullptr;
    if (key == "--workload") {
      a.workload = val;
    } else if (key == "--seed") {
      a.seed = std::strtoull(val.c_str(), &end, 10);
    } else if (key == "--seconds") {
      a.seconds = std::strtod(val.c_str(), &end);
    } else if (key == "--trace") {
      a.trace = static_cast<int>(std::strtol(val.c_str(), &end, 10));
    } else if (key == "--commit") {
      a.commit = val;
    } else if (key == "--spans-dir") {
      a.spans_dir = val;
    } else {
      usage("unknown option " + key);
    }
    if (end != nullptr && *end != '\0') usage("bad value for " + key + ": " + val);
  }
  if (a.workload.empty()) usage("--workload is required");
  if (!(a.seconds > 0.0) || a.seconds > 600.0) usage("--seconds must be in (0, 600]");
  if (a.trace != 0 && a.trace != 1) usage("--trace must be 0 or 1");
  return a;
}

double secs(std::int64_t ns) { return static_cast<double>(ns) * 1e-9; }

/// One set-up, as a run of the benchmark does it before its first run:
/// generate the workload into `w` (registry lookups, spec loading and
/// validation, estimator-config parsing), build a `workers`-wide
/// SweepRunner and dispatch on it, which starts its threads. Returns the
/// seconds from `t0` until the first job starts.
double set_up(const Args& args, int workers, std::int64_t t0, Workload& w) {
  w = make_workload(args.workload, args.seed);
  pathload::scenario::SweepRunner runner{workers};
  std::atomic<std::int64_t> first{0};
  runner.run_indexed(static_cast<std::size_t>(workers), [&](std::size_t) {
    std::int64_t none = 0;
    first.compare_exchange_strong(none, now_ns());
  });
  return secs(first.load() - t0);
}

/// Repeats the set-up after a cycle, for about kSetupShare of the cycle's
/// wall time and at least kSetupBlock times, so the set-ups spread over
/// the whole run: on the shared reference box a CPU's speed drifts within
/// a second, and set-ups timed back to back moved by half from one run to
/// the next. The first set-up after a cycle runs on a CPU that idled
/// through the cycle and is often slower; the block keeps it a minority.
void repeat_set_up(const Args& args, int workers, double cycle_wall_s,
                   std::vector<double>& setup_s) {
  const std::int64_t until =
      now_ns() + static_cast<std::int64_t>(cycle_wall_s * kSetupShare * 1e9);
  for (int k = 0; k < kSetupBlock || now_ns() < until; ++k) {
    Workload again;
    setup_s.push_back(set_up(args, workers, now_ns(), again));
  }
}

/// What one run contributes to the end-to-end metrics and the checks.
struct RunSummary {
  std::uint64_t hash{0};
  std::string problem;  ///< check_report's verdict; empty when well formed
  bool threw{false};
  bool ok{false};      ///< outcome neither failed nor timeout, and no throw
  bool covers{false};
  bool valid{false};
  double rel_error{0.0};
  double measure_s{0.0};
  double probe_mb{0.0};
};

RunSummary summarize(const Workload& w, const Run& r, const EstimateReport& rep) {
  using Outcome = EstimateReport::Outcome;
  const pathload::Rate truth = w.specs[r.spec].avail_bw();
  RunSummary s;
  s.hash = report_hash(rep);
  s.problem = check_report(rep);
  s.threw = threw(rep);
  s.ok = !s.threw && rep.outcome != Outcome::kFailed && rep.outcome != Outcome::kTimeout;
  s.covers = rep.covers(truth, kPointSlack);
  s.valid = rep.valid;
  s.rel_error = rep.valid ? std::abs((rep.center() - truth) / truth) : 0.0;
  s.measure_s = rep.elapsed.secs();
  s.probe_mb = static_cast<double>(rep.bytes_sent.byte_count()) * 1e-6;
  return s;
}

/// One dispatch of a list of batch runs on the runner.
struct Cycle {
  bool traced{false};
  std::vector<std::uint32_t> indices;
  std::vector<RunSummary> runs;
  std::vector<double> run_s;
  std::vector<RunSpans> spans;
  std::vector<RunCounters> counters;
  double wall_s{0.0};
  double tail_s{0.0};
};

Cycle run_cycle(const Workload& w, const std::vector<std::uint32_t>& indices,
                pathload::scenario::SweepRunner& runner, bool traced) {
  Cycle c;
  c.traced = traced;
  c.indices = indices;
  const std::size_t n = indices.size();
  c.runs.resize(n);
  c.run_s.resize(n);
  if (traced) {
    c.spans.resize(n);
    c.counters.resize(n);
  }
  std::mutex mu;
  std::map<std::thread::id, std::int64_t> last_end;  // guarded by mu

  const std::int64_t t0 = now_ns();
  runner.run_indexed(n, [&](std::size_t i) {
    const Run& r = w.runs[indices[i]];
    const auto est = w.estimators[r.estimator].make();
    EstimateReport rep;
    const std::int64_t a = now_ns();
    try {
      if (traced) {
        c.spans[i].run = indices[i];
        rep = run_traced(w, r, *est, c.spans[i], c.counters[i]);
      } else {
        rep = run_plain(w, r, *est);
      }
    } catch (const std::exception& e) {
      rep = EstimateReport{};
      rep.estimator = std::string{est->name()};
      rep.outcome = EstimateReport::Outcome::kFailed;
      rep.outcome_note = std::string{"error: "} + e.what();
    }
    const std::int64_t b = now_ns();
    const bool have_root = traced && !c.spans[i].spans.empty() &&
                           c.spans[i].spans[0].end_ns != 0;
    c.run_s[i] = have_root ? secs(c.spans[i].spans[0].end_ns - c.spans[i].spans[0].start_ns)
                           : secs(b - a);
    c.runs[i] = summarize(w, r, rep);
    const std::lock_guard<std::mutex> lock{mu};
    last_end[std::this_thread::get_id()] = b;
  });
  const std::int64_t t1 = now_ns();
  c.wall_s = secs(t1 - t0);
  std::int64_t first_idle = t1;
  for (const auto& [id, end] : last_end) first_idle = std::min(first_idle, end);
  c.tail_s = secs(t1 - first_idle);
  return c;
}

/// Everything the timed cycles add up to. Each cycle is folded in as soon
/// as it ends, so memory does not grow with the number of cycles: only the
/// first cycle's summaries and the first traced cycle's counters and spans
/// are kept, as the references every later cycle must repeat.
struct Tally {
  std::vector<RunSummary> ref;
  std::vector<RunCounters> traced_ref;
  std::vector<RunSpans> spans;
  std::vector<std::string> problems;
  std::size_t cycles{0};
  std::int64_t attempted{0};
  std::int64_t failed{0};
  // plain cycles: per-cycle figures, so memory stays flat however many
  // cycles fit in the run
  std::vector<double> run_ms_p50;
  std::vector<double> run_ms_p90;
  std::vector<double> cycle_rates;
  std::vector<double> tails;
  double run_s{0.0};
  double wall_s{0.0};
  // traced cycles: self times, and totals for the per-unit ratios
  double traced_wall_s{0.0};
  std::int64_t total_ns{0};
  std::int64_t core_ns{0};
  std::array<std::int64_t, kSpanKinds> self_ns{};
  RunCounters sum;

  void problem(std::string p) {
    if (problems.size() < 8) problems.push_back(std::move(p));
  }
  void add(const Workload& w, Cycle c);
};

void Tally::add(const Workload& w, Cycle c) {
  ++cycles;
  if (ref.empty()) ref = c.runs;
  for (std::size_t i = 0; i < c.runs.size(); ++i) {
    ++attempted;
    const RunSummary& s = c.runs[i];
    if (s.threw || !s.problem.empty()) ++failed;
    if (!s.problem.empty()) problem("run " + std::to_string(i) + ": " + s.problem);
    if (s.hash != ref[i].hash) {
      problem(std::string{c.traced ? "traced" : "plain"} + " cycle run " + std::to_string(i) +
              " differs from the first cycle");
    }
  }
  if (!c.traced) {
    std::vector<double> ms;
    for (double s : c.run_s) ms.push_back(s * 1e3);
    run_ms_p50.push_back(percentile(ms, 50));
    run_ms_p90.push_back(percentile(ms, 90));
    if (count_above(ms, run_ms_p90.back()) < 10) {
      problem("fewer than 10 runs beyond p90 in a cycle; the batch is too small");
    }
    run_s += std::accumulate(c.run_s.begin(), c.run_s.end(), 0.0);
    wall_s += c.wall_s;
    tails.push_back(c.tail_s);
    cycle_rates.push_back(static_cast<double>(c.runs.size()) / c.wall_s);
    return;
  }
  traced_wall_s += c.wall_s;
  const bool first = traced_ref.empty();
  for (std::size_t i = 0; i < c.spans.size(); ++i) {
    const std::vector<Span>& spans = c.spans[i].spans;
    if (!spans.empty()) total_ns += spans[0].end_ns - spans[0].start_ns;
    const std::vector<std::int64_t> self = self_times(spans);
    const bool core = w.estimators[w.runs[c.indices[i]].estimator].name == "pathload";
    for (std::size_t k = 0; k < spans.size(); ++k) {
      self_ns[static_cast<std::size_t>(spans[k].kind)] += self[k];
      if (core && spans[k].kind == SpanKind::kEstimate) core_ns += self[k];
    }
    const RunCounters& rc = c.counters[i];
    sum.events += rc.events;
    sum.virtual_s += rc.virtual_s;
    sum.probe_packets += rc.probe_packets;
    sum.acked_bytes += rc.acked_bytes;
    if (first) continue;
    const RunCounters& f = traced_ref[i];
    if (rc.events != f.events || rc.link_drops != f.link_drops ||
        rc.impaired_drops != f.impaired_drops || rc.probe_packets != f.probe_packets ||
        rc.acked_bytes != f.acked_bytes || rc.fast_retransmits != f.fast_retransmits ||
        rc.timeouts != f.timeouts || rc.rate_samples != f.rate_samples ||
        rc.fleets != f.fleets) {
      problem("traced counters of run " + std::to_string(i) + " differ between cycles");
    }
  }
  if (first) {
    traced_ref = std::move(c.counters);
    spans = std::move(c.spans);
  }
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string json_escape(const std::string& s) {
  std::string out;
  for (char ch : s) {
    if (ch == '"' || ch == '\\') out += '\\';
    if (static_cast<unsigned char>(ch) < 0x20) continue;
    out += ch;
  }
  return out;
}

std::string num(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

void write_spans(const std::string& dir, const Args& args,
                 const std::vector<RunSpans>& runs) {
  std::filesystem::create_directories(dir);
  const std::string path = dir + "/" + args.workload + "-seed" +
                           std::to_string(args.seed) + ".spans.tsv";
  std::ofstream out{path};
  out << "run\tspan\tname\tparent\tstart_ns\tend_ns\tself_ns\n";
  for (const RunSpans& rs : runs) {
    if (rs.spans.empty()) continue;
    const std::int64_t base = rs.spans[0].start_ns;
    const std::vector<std::int64_t> self = self_times(rs.spans);
    for (std::size_t k = 0; k < rs.spans.size(); ++k) {
      const Span& s = rs.spans[k];
      out << rs.run << '\t' << k << '\t' << span_name(s.kind) << '\t' << s.parent << '\t'
          << (s.start_ns - base) << '\t' << (s.end_ns - base) << '\t' << self[k] << '\n';
    }
  }
  std::fprintf(stderr, "perfbench: spans of one traced cycle written to %s\n", path.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  const std::int64_t t_main = now_ns();
  const Args args = parse_args(argc, argv);
  const int nproc = std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
  const int workers = std::min(kMaxWorkers, nproc);

  // ---- set-up (see set_up). This first one is timed from process entry,
  // so it also pays the registries' one-time construction; it is repeated
  // after every later cycle, and setup_s is the median of all of them.
  std::vector<double> setup_s;
  Workload w;
  try {
    setup_s.push_back(set_up(args, workers, t_main, w));
  } catch (const std::invalid_argument& e) {
    usage(e.what());
  }
  pathload::scenario::SweepRunner runner{workers};
  pathload::scenario::SweepRunner single{1};

  std::printf(
      "manifest {\"nproc\": %d, \"compiler\": \"gcc %s\", \"build_type\": \"%s\", "
      "\"commit\": \"%s\", \"workers\": %d, \"workload\": \"%s\", \"seed\": %llu, "
      "\"engine\": \"%s\", \"batch_runs\": %zu, \"seconds\": %s, \"trace\": %d}\n",
      nproc, __VERSION__, PERFBENCH_BUILD_TYPE, json_escape(args.commit).c_str(), workers,
      w.name.c_str(), static_cast<unsigned long long>(args.seed), w.engine.c_str(),
      w.runs.size(), num(args.seconds).c_str(), args.trace);
  std::fflush(stdout);

  // ---- the subset on 1 worker, then on the N-worker runner until
  // kWarmupS have passed: digest checks, and a warm-up, so the CPUs are up
  // to speed and lazy set-up in the library and the allocator's per-thread
  // arenas are in place before anything is timed.
  const std::int64_t t_warm = now_ns();
  const Cycle one = run_cycle(w, w.subset, single, false);
  std::vector<Cycle> warm;
  while (warm.empty() || secs(now_ns() - t_warm) < kWarmupS) {
    warm.push_back(run_cycle(w, w.subset, runner, false));
    repeat_set_up(args, workers, warm.back().wall_s, setup_s);
  }

  // ---- timed cycles over the whole batch: whole cycles only, so every
  // figure covers the same mix of runs, and after the first kMinCycles
  // another cycle starts only if it is predicted to end within --seconds.
  // --trace 1 alternates plain and traced cycles in pairs, so the traced
  // share of the wall time measures the tracing overhead on identical work.
  std::vector<std::uint32_t> all(w.runs.size());
  std::iota(all.begin(), all.end(), 0U);
  const std::size_t step = args.trace == 1 ? 2 : 1;
  Tally t;
  const std::int64_t t_first = now_ns();
  for (;;) {
    for (std::size_t k = 0; k < step; ++k) {
      Cycle c = run_cycle(w, all, runner, k == 1);
      const double wall_s = c.wall_s;
      t.add(w, std::move(c));
      repeat_set_up(args, workers, wall_s, setup_s);
    }
    const double elapsed = secs(now_ns() - t_first);
    const double per_step = elapsed / static_cast<double>(t.cycles / step);
    if (t.cycles >= kMinCycles && elapsed + per_step > args.seconds) break;
  }

  // ---- the subset passes must repeat the timed cycles' reports.
  std::size_t one_match = 0;
  for (std::size_t i = 0; i < one.runs.size(); ++i) {
    const std::uint64_t want = t.ref[one.indices[i]].hash;
    bool match = one.runs[i].hash == want;
    for (const Cycle& c : warm) match = match && c.runs[i].hash == want;
    one_match += match;
  }
  if (one_match != one.runs.size()) {
    t.problem("the 1-worker or warm-up pass differs on " +
              std::to_string(one.runs.size() - one_match) + " of " +
              std::to_string(one.runs.size()) + " runs");
  }

  std::vector<Metric> metrics;
  if (args.trace == 0) {
    double rel_error = 0.0;
    std::vector<double> measure_s, probe_mb;
    std::size_t valid = 0, ok = 0, covers = 0;
    for (const RunSummary& s : t.ref) {
      ok += s.ok;
      covers += s.covers;
      valid += s.valid;
      if (s.valid) rel_error += s.rel_error;
      measure_s.push_back(s.measure_s);
      probe_mb.push_back(s.probe_mb);
    }
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    const double n = static_cast<double>(t.ref.size());
    metrics = {
        {"setup_s", percentile(setup_s, 50), "s"},
        {"runs_per_s", percentile(t.cycle_rates, 50), "1/s"},
        {"run_ms_p50", percentile(t.run_ms_p50, 50), "ms"},
        {"run_ms_p90", percentile(t.run_ms_p90, 50), "ms"},
        {"peak_rss_mb", static_cast<double>(ru.ru_maxrss) / 1024.0, "MB"},
        {"ok_share", static_cast<double>(ok) / n, "share"},
        {"coverage", static_cast<double>(covers) / n, "share"},
        {"rel_error_mean", rel_error / static_cast<double>(std::max<std::size_t>(valid, 1)),
         "share"},
        {"measure_s_p50", percentile(measure_s, 50), "sim_s"},
        {"probe_mb_p50", percentile(probe_mb, 50), "MB"},
    };
  } else {
    RunCounters once;  // per batch, from the first traced cycle
    for (const RunCounters& rc : t.traced_ref) {
      once.events += rc.events;
      once.link_drops += rc.link_drops;
      once.impaired_drops += rc.impaired_drops;
      once.probe_packets += rc.probe_packets;
      once.acked_bytes += rc.acked_bytes;
      once.fast_retransmits += rc.fast_retransmits;
      once.timeouts += rc.timeouts;
      once.rate_samples += rc.rate_samples;
      once.fleets += rc.fleets;
    }
    auto self_of = [&](SpanKind k) {
      return static_cast<double>(t.self_ns[static_cast<std::size_t>(k)]);
    };
    const double total = static_cast<double>(std::max<std::int64_t>(t.total_ns, 1));
    auto ratio = [](double a, double b) { return b > 0.0 ? a / b : 0.0; };
    const double sim_ns = self_of(SpanKind::kWarmup) + self_of(SpanKind::kStream) +
                          self_of(SpanKind::kIdle) + self_of(SpanKind::kBulk);
    const double core_ns = static_cast<double>(t.core_ns);
    metrics = {
        {"scenario.build_share", self_of(SpanKind::kBuild) / total, "share"},
        {"scenario.warmup_share", self_of(SpanKind::kWarmup) / total, "share"},
        {"sim.idle_share", self_of(SpanKind::kIdle) / total, "share"},
        {"sim.stream_share", self_of(SpanKind::kStream) / total, "share"},
        {"sim.ns_per_event", ratio(sim_ns, static_cast<double>(t.sum.events)), "ns"},
        {"sim.virtual_s_per_host_s", ratio(t.sum.virtual_s, sim_ns * 1e-9), "s/s"},
        {"sim.probe_packets", static_cast<double>(once.probe_packets), "count"},
        {"sim.ns_per_probe_packet",
         ratio(self_of(SpanKind::kStream), static_cast<double>(t.sum.probe_packets)), "ns"},
        {"sim.events", static_cast<double>(once.events), "count"},
        {"sim.link_drops", static_cast<double>(once.link_drops), "count"},
        {"sim.impaired_drops", static_cast<double>(once.impaired_drops), "count"},
        {"tcp.bulk_share", self_of(SpanKind::kBulk) / total, "share"},
        {"tcp.ns_per_acked_kb",
         ratio(self_of(SpanKind::kBulk), static_cast<double>(t.sum.acked_bytes) * 1e-3), "ns"},
        {"tcp.acked_mb", static_cast<double>(once.acked_bytes) * 1e-6, "MB"},
        {"tcp.fast_retransmits", static_cast<double>(once.fast_retransmits), "count"},
        {"tcp.timeouts", static_cast<double>(once.timeouts), "count"},
        {"tcp.rate_samples", static_cast<double>(once.rate_samples), "count"},
        {"core.self_share", core_ns / total, "share"},
        {"baselines.self_share", (self_of(SpanKind::kEstimate) - core_ns) / total, "share"},
        {"core.fleets", static_cast<double>(once.fleets), "count"},
        {"sweep.busy_fraction", busy_fraction(t.run_s, workers, t.wall_s), "share"},
        {"sweep.tail_s", percentile(t.tails, 50), "s"},
        {"unattributed_share", self_of(SpanKind::kRun) / total, "share"},
        {"trace.overhead", ratio(t.traced_wall_s, t.wall_s) - 1.0, "share"},
    };
    if (!args.spans_dir.empty()) write_spans(args.spans_dir, args, t.spans);
  }
  for (const Metric& m : metrics) {
    if (!std::isfinite(m.value)) t.problem("metric " + m.name + " is not finite");
  }

  std::vector<std::uint64_t> hashes;
  for (const RunSummary& s : t.ref) hashes.push_back(s.hash);
  std::printf("digest %s seed=%llu runs=%zu digest=%016llx cycles=%zu one_worker=%zu/%zu\n",
              w.name.c_str(), static_cast<unsigned long long>(args.seed), t.ref.size(),
              static_cast<unsigned long long>(digest(hashes)), t.cycles, one_match,
              one.runs.size());
  std::printf("setup cold_s=%s median_s=%s repeats=%zu\n", num(setup_s.front()).c_str(),
              num(percentile(setup_s, 50)).c_str(), setup_s.size());
  for (const Metric& m : metrics) {
    std::printf("metric %-26s %-14s %s\n", m.name.c_str(), num(m.value).c_str(),
                m.unit.c_str());
  }
  for (const std::string& p : t.problems) std::fprintf(stderr, "perfbench: FAIL %s\n", p.c_str());

  std::string json = "{\"correct\": ";
  json += t.problems.empty() ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(t.attempted);
  json += ", \"failed\": " + std::to_string(t.failed);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    json += (i ? ", " : "") + std::string{"\""} + m.name + "\": {\"value\": " +
            num(std::isfinite(m.value) ? m.value : 0.0) + ", \"unit\": \"" + m.unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return t.problems.empty() ? 0 : 1;
}
