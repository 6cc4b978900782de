// Scenario registry front-end: list, inspect, validate, run, sweep, and
// *compare* — any registered estimator over any named scenario, without
// writing C++.
//
//   $ scenario_runner --list                      # the preset catalogue
//   $ scenario_runner --list-estimators           # the estimator catalogue
//   $ scenario_runner --show paper-path           # spec in the text format
//   $ scenario_runner --run bursty-tight --runs 5
//   $ scenario_runner --run paper-path --sweep load=0.2,0.5,0.75,0.9
//   $ scenario_runner --run paper-path --estimator topp --set max_rate_mbps=16
//   $ scenario_runner --compare --scenario paper-path
//   $ scenario_runner --spec my.scenario --run    # run a spec file
//   $ scenario_runner --validate my.scenario      # parse + validate only
//
// Every run goes through the scenario::run_matrix harness, with the same
// per-point seed derivation as bench/fig05 (base seed + util*1000, runs
// sharded over SweepRunner), so a sweep of a paper preset reproduces the
// figure's numbers byte-for-byte at the same settings. Without
// --estimator/--compare, --run is a pathload measurement printed in the
// figures' row format; with estimators selected, the output is one
// accuracy/variation/intrusiveness/latency row per estimator × load.
// `--format csv` / `--format json` emit machine-readable rows; the base
// seed and run count come from PATHLOAD_SEED / PATHLOAD_RUNS / PATHLOAD_QUICK
// like every bench, or from --seed / --runs.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "baselines/estimators.hpp"
#include "bench/common.hpp"
#include "scenario/experiment.hpp"
#include "scenario/registry.hpp"
#include "scenario/shard.hpp"
#include "scenario/sweep_runner.hpp"
#include "util/table.hpp"

using namespace pathload;

namespace {

enum class Format { kTable, kCsv, kJson };
enum class Channel { kSim, kLive };

struct Options {
  bool list{false};
  bool list_estimators{false};
  std::string show;
  std::string run;        // preset name, or "-" for the loaded spec file
  std::string spec_file;
  std::string validate_file;
  std::vector<std::string> estimators;  // --estimator selections
  bool compare{false};                  // all registered estimators
  std::string set_overrides;            // --set key=value[,...]
  Channel channel{Channel::kSim};
  /// --engine override: forces the determinism-contract version onto the
  /// resolved spec (presets default to v1; see docs/ENGINE.md).
  std::optional<scenario::EngineVersion> engine;
  std::vector<double> sweep_loads;
  int runs{0};            // 0: bench default
  std::optional<std::uint64_t> seed;
  int threads{0};
  Format format{Format::kTable};
  // Sharded matrix runs (scenario/shard.hpp): --shard i/N runs only the
  // owned cells, --emit-cells prints the serialized cell stream instead of
  // the reduced table, --merge-cells re-assembles shard streams.
  int shard_index{0};
  int shard_count{0};     // 0: not sharded
  bool emit_cells{false};
  std::vector<std::string> merge_files;
};

[[noreturn]] void usage_error(const std::string& msg) {
  std::fprintf(stderr,
               "scenario_runner: %s\n"
               "usage:\n"
               "  scenario_runner --list [--format table|csv]\n"
               "  scenario_runner --list-estimators [--format table|csv]\n"
               "  scenario_runner --show <preset>\n"
               "  scenario_runner --run <preset> [--runs N] [--seed S] [--load u]\n"
               "                  [--sweep load=u1,u2,...] [--threads T]\n"
               "                  [--engine v1|v2]\n"
               "                  [--estimator name[,name...]] [--set k=v[,k=v...]]\n"
               "                  [--channel sim|live] [--format table|csv|json]\n"
               "  scenario_runner --compare --scenario <preset> [same options]\n"
               "                  [--shard i/N] [--emit-cells]\n"
               "  scenario_runner --merge-cells f1[,f2,...] [--emit-cells]\n"
               "  scenario_runner --spec <file> [--run | --show]\n"
               "  scenario_runner --validate <file>\n",
               msg.c_str());
  std::exit(2);
}

std::string read_file(const std::string& path) {
  std::ifstream in{path};
  if (!in) usage_error("cannot open spec file '" + path + "'");
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

double parse_util(const std::string& item, const char* flag) {
  char* end = nullptr;
  const double v = std::strtod(item.c_str(), &end);
  if (end == item.c_str() || *end != '\0' || v < 0.0 || v >= 1.0) {
    usage_error(std::string{flag} + " values must be utilizations in [0, 1), got '" +
                item + "'");
  }
  return v;
}

std::vector<double> parse_sweep(const std::string& arg) {
  const auto eq = arg.find('=');
  if (eq == std::string::npos || arg.substr(0, eq) != "load") {
    usage_error("--sweep expects load=u1,u2,... (only the load axis is swept; "
                "use --runs/--seed for repetitions)");
  }
  std::vector<double> loads;
  std::stringstream ss{arg.substr(eq + 1)};
  std::string item;
  while (std::getline(ss, item, ',')) {
    loads.push_back(parse_util(item, "--sweep load"));
  }
  if (loads.empty()) usage_error("--sweep load= needs at least one value");
  return loads;
}

Options parse_args(int argc, char** argv) {
  Options opt;
  std::optional<double> single_load;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto next = [&](const char* what) -> std::string {
      if (i + 1 >= argc) usage_error(std::string{what} + " needs a value");
      return argv[++i];
    };
    if (a == "--list") {
      opt.list = true;
    } else if (a == "--list-estimators") {
      opt.list_estimators = true;
    } else if (a == "--estimator") {
      std::stringstream ss{next("--estimator")};
      std::string name;
      while (std::getline(ss, name, ',')) {
        if (!name.empty()) opt.estimators.push_back(name);
      }
      if (opt.estimators.empty()) usage_error("--estimator needs at least one name");
    } else if (a == "--compare") {
      opt.compare = true;
    } else if (a == "--set") {
      opt.set_overrides = next("--set");
    } else if (a == "--channel") {
      const std::string c = next("--channel");
      if (c == "sim") opt.channel = Channel::kSim;
      else if (c == "live") opt.channel = Channel::kLive;
      else usage_error("--channel expects sim or live, got '" + c + "'");
    } else if (a == "--engine") {
      const std::string e = next("--engine");
      if (e == "v1") opt.engine = scenario::EngineVersion::kV1;
      else if (e == "v2") opt.engine = scenario::EngineVersion::kV2;
      else usage_error("--engine expects v1 or v2, got '" + e + "'");
    } else if (a == "--scenario") {
      // Synonym of --run <preset>, reading better next to --compare.
      opt.run = next("--scenario");
    } else if (a == "--show") {
      opt.show = (i + 1 < argc && argv[i + 1][0] != '-') ? next("--show") : "-";
    } else if (a == "--run") {
      opt.run = (i + 1 < argc && argv[i + 1][0] != '-') ? next("--run") : "-";
    } else if (a == "--spec") {
      opt.spec_file = next("--spec");
    } else if (a == "--validate") {
      opt.validate_file = next("--validate");
    } else if (a == "--sweep") {
      opt.sweep_loads = parse_sweep(next("--sweep"));
    } else if (a == "--load") {
      single_load = parse_util(next("--load"), "--load");
    } else if (a == "--runs") {
      opt.runs = std::atoi(next("--runs").c_str());
      if (opt.runs <= 0) usage_error("--runs must be a positive integer");
    } else if (a == "--seed") {
      opt.seed = std::strtoull(next("--seed").c_str(), nullptr, 10);
    } else if (a == "--threads") {
      opt.threads = std::atoi(next("--threads").c_str());
    } else if (a == "--shard") {
      const std::string s = next("--shard");
      const auto slash = s.find('/');
      char* end = nullptr;
      opt.shard_index = static_cast<int>(std::strtol(s.c_str(), &end, 10));
      if (slash == std::string::npos || end != s.c_str() + slash) {
        usage_error("--shard expects i/N (e.g. 0/4), got '" + s + "'");
      }
      opt.shard_count =
          static_cast<int>(std::strtol(s.c_str() + slash + 1, &end, 10));
      if (*end != '\0' || opt.shard_count < 1 || opt.shard_index < 0 ||
          opt.shard_index >= opt.shard_count) {
        usage_error("--shard expects i/N with 0 <= i < N, got '" + s + "'");
      }
    } else if (a == "--emit-cells") {
      opt.emit_cells = true;
    } else if (a == "--merge-cells") {
      std::stringstream ss{next("--merge-cells")};
      std::string f;
      while (std::getline(ss, f, ',')) {
        if (!f.empty()) opt.merge_files.push_back(f);
      }
      if (opt.merge_files.empty()) usage_error("--merge-cells needs at least one file");
    } else if (a == "--format") {
      const std::string f = next("--format");
      if (f == "table") opt.format = Format::kTable;
      else if (f == "csv") opt.format = Format::kCsv;
      else if (f == "json") opt.format = Format::kJson;
      else usage_error("--format expects table, csv, or json");
    } else {
      usage_error("unknown argument '" + a + "'");
    }
  }
  if (single_load) {
    if (!opt.sweep_loads.empty()) usage_error("--load and --sweep are exclusive");
    opt.sweep_loads.push_back(*single_load);
  }
  if (opt.compare && !opt.estimators.empty()) {
    usage_error("--compare already selects every estimator; drop --estimator");
  }
  if (opt.compare && opt.run.empty()) {
    usage_error("--compare needs a scenario (--scenario <preset> or --spec <file> --run)");
  }
  if (!opt.set_overrides.empty() && opt.estimators.size() != 1) {
    usage_error("--set configures exactly one estimator; name it with "
                "--estimator <name> (got " +
                std::to_string(opt.estimators.size()) + " selections)");
  }
  if (opt.shard_count > 0) {
    if (!opt.emit_cells) {
      usage_error("--shard produces a partial matrix; it requires --emit-cells "
                  "(merge the shards with --merge-cells)");
    }
    if (opt.run.empty() || (!opt.compare && opt.estimators.empty())) {
      usage_error("--shard applies to estimator matrices: combine it with "
                  "--compare/--estimator and a scenario");
    }
  }
  if (!opt.merge_files.empty() &&
      (!opt.run.empty() || opt.compare || opt.shard_count > 0)) {
    usage_error("--merge-cells reads finished shard outputs; it cannot be "
                "combined with --run/--compare/--shard");
  }
  if (opt.emit_cells && opt.merge_files.empty() &&
      (opt.run.empty() || (!opt.compare && opt.estimators.empty()))) {
    usage_error("--emit-cells applies to estimator matrices: combine it with "
                "--compare/--estimator and a scenario, or with --merge-cells");
  }
  if (!opt.list && !opt.list_estimators && opt.show.empty() && opt.run.empty() &&
      opt.validate_file.empty() && opt.merge_files.empty()) {
    usage_error("nothing to do (use --list, --list-estimators, --show, --run, "
                "--compare, --merge-cells, or --validate)");
  }
  return opt;
}

/// Minimal JSON string escaping for the emitters: free-text fields
/// (scenario names from spec files, outcome summaries) must not be able to
/// break out of their quoted value.
std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char ch : s) {
    switch (ch) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(ch) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", ch);
          out += buf;
        } else {
          out += ch;
        }
    }
  }
  return out;
}

/// Channel-capability gate for estimator runs. The simulated channel
/// implements every capability; a live channel cannot be driven from a
/// scenario preset at all (presets instantiate a simulated path) and in
/// addition lacks bulk TCP — so rather than silently falling through to
/// the simulator, mismatches are a structured error that lists which
/// estimators support which channel.
void check_channel_support(const core::EstimatorRegistry& reg, Channel channel) {
  if (channel == Channel::kSim) return;
  throw core::EstimatorError{
      "--channel live: scenario presets instantiate a *simulated* path, so "
      "this runner cannot drive a live channel (use examples/pathload_snd + "
      "pathload_rcv against a real peer); refusing to fall back to sim "
      "silently.\n" +
      core::channel_support_summary(reg)};
}

std::string traffic_summary(const scenario::ScenarioSpec& spec) {
  std::string out;
  std::string last;
  for (const auto& h : spec.hops) {
    const std::string m{scenario::to_string(h.traffic.model)};
    if (m == last || m == "none") continue;
    if (!out.empty()) out += "+";
    out += m;
    last = m;
  }
  if (spec.has_flows()) {
    int n = 0;
    for (const auto& f : spec.flows) n += f.count;
    if (!out.empty()) out += "+";
    out += "tcp(" + std::to_string(n) + ")";
  }
  return out.empty() ? "none" : out;
}

/// Printed after flow-bearing runs: with responsive cross flows the
/// configured avail-bw is what the flows and the estimator compete for,
/// not a truth the estimate should reproduce.
void note_flow_truth(const scenario::ScenarioSpec& spec, Format format) {
  if (format != Format::kTable || !spec.has_flows()) return;
  std::printf("note: %s carries responsive TCP cross flows; A_Mbps/avail_Mbps "
              "is the open-loop value the flows compete for, not a fixed "
              "truth.\n",
              spec.name.c_str());
}

void print_list(const scenario::Registry& reg, Format format) {
  Table table{{"preset", "hops", "avail_Mbps", "traffic", "warmup_s", "description"}};
  for (const auto& spec : reg.entries()) {
    table.add_row({spec.name, Table::num(static_cast<double>(spec.hops.size()), 0),
                   Table::num(spec.avail_bw().mbits_per_sec(), 2),
                   traffic_summary(spec), Table::num(spec.warmup.secs(), 0),
                   spec.description});
  }
  if (format == Format::kCsv) {
    std::fputs(table.to_csv().c_str(), stdout);
  } else {
    table.print();
    std::printf("\n%zu presets; `--show <preset>` prints a spec, `--run <preset>` "
                "measures it.\n", reg.size());
  }
}

void print_list_estimators(const core::EstimatorRegistry& reg, Format format) {
  Table table{{"estimator", "reports", "channels", "summary"}};
  for (const auto& e : reg.entries()) {
    table.add_row({e.name, e.quantity, e.needs_bulk_tcp ? "sim" : "sim+live",
                   e.summary});
  }
  if (format == Format::kCsv) {
    std::fputs(table.to_csv().c_str(), stdout);
  } else {
    table.print();
    std::printf("\n%zu estimators; `--run <preset> --estimator <name>` measures "
                "with one, `--compare --scenario <preset>` with all. Config "
                "overrides: `--set key=value[,key=value]` (keys in "
                "docs/ESTIMATORS.md).\n",
                reg.size());
  }
}

/// Point-estimator coverage slack for the covers_A column: a point
/// estimate "covers" the truth within pathload's default avail-bw
/// resolution (omega = 1 Mb/s), so range and point tools share one column.
const Rate kPointSlack = Rate::mbps(1.0);

void print_matrix(const std::vector<scenario::MatrixCell>& cells,
                  const core::EstimatorRegistry& reg, Format format) {
  if (format == Format::kJson) {
    // rel_error/cv_center are NaN for an all-invalid cell (never a false
    // perfect score); JSON has no NaN, so those emit null.
    auto num_or_null = [](double v) {
      char buf[40];
      if (std::isnan(v)) return std::string{"null"};
      std::snprintf(buf, sizeof buf, "%.17g", v);
      return std::string{buf};
    };
    std::printf("[\n");
    for (std::size_t i = 0; i < cells.size(); ++i) {
      const scenario::MatrixCell& c = cells[i];
      std::printf(
          "  {\"estimator\": \"%s\", \"scenario\": \"%s\", \"load\": %.17g, "
          "\"seed\": %llu, \"runs\": %zu, \"valid_runs\": %d, "
          "\"avail_mbps\": %.17g, \"low_mbps\": %.17g, \"high_mbps\": %.17g, "
          "\"center_mbps\": %.17g, \"rel_error\": %s, \"coverage\": %.17g, "
          "\"cv_center\": %s, \"probe_mbytes\": %.17g, "
          "\"mean_packets\": %.17g, \"mean_elapsed_s\": %.17g, "
          "\"outcome\": \"%s\", \"loss_fraction\": %.17g}%s\n",
          json_escape(c.estimator).c_str(), json_escape(c.scenario).c_str(),
          c.load, static_cast<unsigned long long>(c.seed0), c.reports.size(),
          c.valid_runs(), c.truth.mbits_per_sec(),
          c.mean_low().mbits_per_sec(), c.mean_high().mbits_per_sec(),
          c.mean_center().mbits_per_sec(),
          num_or_null(c.mean_rel_error()).c_str(), c.coverage(kPointSlack),
          num_or_null(c.cv_center()).c_str(),
          c.mean_bytes().bits() / 8e6, c.mean_packets(),
          c.mean_elapsed().secs(), json_escape(c.outcome_summary()).c_str(),
          c.mean_loss_fraction(), i + 1 < cells.size() ? "," : "");
    }
    std::printf("]\n");
    return;
  }
  Table table{{"estimator", "reports", "util_%", "A_Mbps", "estimate_Mbps",
               "err_%", "covers_A", "cv", "probe_MB", "time_s", "outcome",
               "loss_%", "ok"}};
  for (const scenario::MatrixCell& c : cells) {
    const auto* entry = reg.find(c.estimator);
    std::string estimate = "n/a";
    if (c.valid_runs() > 0) {
      const bool range = !c.reports.empty() && c.reports.front().is_range;
      estimate = range ? "[" + Table::num(c.mean_low().mbits_per_sec(), 2) + ", " +
                             Table::num(c.mean_high().mbits_per_sec(), 2) + "]"
                       : Table::num(c.mean_center().mbits_per_sec(), 2);
    }
    const bool any_valid = c.valid_runs() > 0;
    table.add_row(
        {c.estimator, entry != nullptr ? entry->quantity : "?",
         Table::num(c.load * 100, 0), Table::num(c.truth.mbits_per_sec(), 1),
         estimate,
         any_valid ? Table::num(c.mean_rel_error() * 100, 1) : "n/a",
         Table::num(c.coverage(kPointSlack) * 100, 0) + "%",
         any_valid ? Table::num(c.cv_center(), 2) : "n/a",
         Table::num(c.mean_bytes().bits() / 8e6, 2),
         Table::num(c.mean_elapsed().secs(), 1), c.outcome_summary(),
         Table::num(c.mean_loss_fraction() * 100, 1),
         Table::num(c.valid_runs(), 0) + "/" + Table::num(c.reports.size(), 0)});
  }
  if (format == Format::kCsv) {
    std::fputs(table.to_csv().c_str(), stdout);
  } else {
    table.print();
    std::printf("\ncovers_A: range containment, points within %.0f Mb/s; "
                "probe_MB/time_s are per-run means (intrusiveness/latency).\n",
                kPointSlack.mbits_per_sec());
  }
}

int run_estimator_command(const Options& opt, const scenario::ScenarioSpec& base) {
  const core::EstimatorRegistry& reg = baselines::builtin_estimators();
  check_channel_support(reg, opt.channel);

  // Gap-model tools (spruce, igi) need the bottleneck capacity a priori.
  // A preset *declares* its links, so the runner can supply the hint the
  // way a live operator would supply a pathrate result: the narrow-link
  // capacity, unless the user already set capacity_mbps.
  Rate narrow = base.hops.front().capacity;
  for (const auto& h : base.hops) narrow = std::min(narrow, h.capacity);
  const std::string hint_line =
      core::kv_config_line("capacity_mbps", narrow.mbits_per_sec());
  std::string hinted;
  auto with_hint = [&](const core::EstimatorRegistry::Entry& entry,
                       std::string overrides) {
    if (entry.needs_capacity_hint &&
        !core::KvOverrides::parse(overrides).has("capacity_mbps")) {
      if (!overrides.empty()) overrides += "\n";
      overrides += hint_line;
      hinted += (hinted.empty() ? "" : ", ") + entry.name;
    }
    return scenario::MatrixEstimator::from_registry(reg, entry.name, overrides);
  };

  std::vector<scenario::MatrixEstimator> selected;
  if (opt.compare) {
    for (const auto& e : reg.entries()) {
      selected.push_back(with_hint(e, ""));
    }
  } else {
    for (const std::string& name : opt.estimators) {
      selected.push_back(with_hint(reg.at(name), opt.set_overrides));
    }
  }

  const int runs = opt.runs > 0 ? opt.runs : bench::runs(5);
  const std::uint64_t seed = opt.seed.value_or(bench::seed());
  scenario::SweepRunner runner{opt.threads};
  if (opt.shard_count > 0) {
    // One shard of the matrix: run only the owned cells and emit them in
    // the serialized stream form under their global indices. A driver
    // (tools/shard_merge_check.sh, or any job scheduler) reassembles the
    // full matrix with --merge-cells.
    std::fputs(scenario::run_matrix_shard(selected, {base}, opt.sweep_loads,
                                          runs, seed, opt.shard_index,
                                          opt.shard_count, runner)
                   .c_str(),
               stdout);
    return 0;
  }
  const auto cells = scenario::run_matrix(selected, {base}, opt.sweep_loads,
                                          runs, seed, runner);
  if (opt.emit_cells) {
    std::fputs(scenario::cells_to_text(cells).c_str(), stdout);
    return 0;
  }
  print_matrix(cells, reg, opt.format);
  if (opt.format == Format::kTable && !hinted.empty()) {
    std::printf("note: %s took the capacity hint capacity_mbps = %.6g from "
                "%s's narrow link (override with --estimator <name> --set "
                "capacity_mbps=...).\n",
                hinted.c_str(), narrow.mbits_per_sec(), base.name.c_str());
  }
  if (opt.format == Format::kTable && base.nonstationary()) {
    std::printf("note: %s is non-stationary; A_Mbps is the pre-ramp value.\n",
                base.name.c_str());
  }
  note_flow_truth(base, opt.format);
  return 0;
}

/// Print pathload cells (one per sweep point, or one at the preset's own
/// load) reduced to the quantities the figures report.
void print_rows(const std::vector<scenario::MatrixCell>& cells, Format format) {
  if (format == Format::kJson) {
    std::printf("[\n");
    for (std::size_t i = 0; i < cells.size(); ++i) {
      const scenario::MatrixCell& c = cells[i];
      std::printf(
          "  {\"preset\": \"%s\", \"load\": %.17g, \"seed\": %llu, \"runs\": %zu, "
          "\"avail_mbps\": %.17g, \"low_mbps\": %.17g, \"high_mbps\": %.17g, "
          "\"coverage\": %.17g, \"cv_low\": %.17g, \"cv_high\": %.17g, "
          "\"mean_fleets\": %.17g, \"mean_elapsed_s\": %.17g}%s\n",
          json_escape(c.scenario).c_str(), c.load,
          static_cast<unsigned long long>(c.seed0), c.reports.size(),
          c.truth.mbits_per_sec(), c.mean_low().mbits_per_sec(),
          c.mean_high().mbits_per_sec(), c.coverage(Rate::zero()), c.cv_low(),
          c.cv_high(), c.mean_fleets(), c.mean_elapsed().secs(),
          i + 1 < cells.size() ? "," : "");
    }
    std::printf("]\n");
    return;
  }
  // The numeric columns use the same Table::num precision as bench/fig05,
  // so a sweep of a paper preset diffs cell-identical against the figure.
  Table table{{"preset", "util_%", "avail_Mbps", "pl_low_Mbps", "pl_high_Mbps",
               "center", "covers_A", "cv_low", "cv_high"}};
  for (const scenario::MatrixCell& c : cells) {
    table.add_row({c.scenario, Table::num(c.load * 100, 0),
                   Table::num(c.truth.mbits_per_sec(), 1),
                   Table::num(c.mean_low().mbits_per_sec(), 2),
                   Table::num(c.mean_high().mbits_per_sec(), 2),
                   Table::num((c.mean_low() + c.mean_high()).mbits_per_sec() / 2, 2),
                   Table::num(c.coverage(Rate::zero()) * 100, 0) + "%",
                   Table::num(c.cv_low(), 2), Table::num(c.cv_high(), 2)});
  }
  if (format == Format::kCsv) {
    std::fputs(table.to_csv().c_str(), stdout);
  } else {
    table.print();
  }
}

int run_command(const Options& opt, const scenario::ScenarioSpec& base) {
  // The channel gate applies to every run form — the plain pathload path
  // must not silently fall through to the simulator either.
  check_channel_support(baselines::builtin_estimators(), opt.channel);
  if (opt.compare || !opt.estimators.empty()) {
    return run_estimator_command(opt, base);
  }
  const int runs = opt.runs > 0 ? opt.runs : bench::runs(20);
  const std::uint64_t seed = opt.seed.value_or(bench::seed());
  scenario::SweepRunner runner{opt.threads};
  // Same cell enumeration as --compare and bench/fig05: a sweep point's
  // seed is base + util*1000; without --sweep the one cell runs at the
  // preset's own tight-hop load with the plain base seed.
  const auto cells = scenario::run_matrix({bench::pathload_column()}, {base},
                                          opt.sweep_loads, runs, seed, runner);
  print_rows(cells, opt.format);
  if (opt.format == Format::kTable && base.nonstationary()) {
    std::printf("\nnote: %s is non-stationary (post-ramp avail-bw %.2f Mb/s); "
                "the configured avail_Mbps column is the pre-ramp value.\n",
                base.name.c_str(), base.final_avail_bw().mbits_per_sec());
  }
  note_flow_truth(base, opt.format);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parse_args(argc, argv);
  try {
    if (!opt.validate_file.empty()) {
      const auto spec = scenario::ScenarioSpec::parse(read_file(opt.validate_file));
      std::printf("%s: OK (preset '%s', %zu hops, avail-bw %.2f Mb/s)\n",
                  opt.validate_file.c_str(), spec.name.c_str(), spec.hops.size(),
                  spec.avail_bw().mbits_per_sec());
      return 0;
    }

    // Resolve the working registry: builtin presets, plus the spec file if
    // one was given (its name must not clash with a builtin).
    scenario::Registry reg = scenario::Registry::builtin();
    std::string loaded_name;
    if (!opt.spec_file.empty()) {
      auto spec = scenario::ScenarioSpec::parse(read_file(opt.spec_file));
      loaded_name = spec.name;
      reg.add(std::move(spec));
    }
    auto resolve = [&](const std::string& sel) -> scenario::ScenarioSpec {
      const std::string& name = sel != "-" ? sel : loaded_name;
      if (name.empty()) {
        usage_error("no preset named and no --spec file loaded");
      }
      scenario::ScenarioSpec spec = reg.at(name);
      if (opt.engine.has_value()) spec.engine = *opt.engine;
      return spec;
    };

    if (!opt.merge_files.empty()) {
      std::vector<std::string> texts;
      texts.reserve(opt.merge_files.size());
      for (const std::string& f : opt.merge_files) texts.push_back(read_file(f));
      const auto cells = scenario::merge_cell_texts(texts);
      if (opt.emit_cells) {
        std::fputs(scenario::cells_to_text(cells).c_str(), stdout);
      } else {
        print_matrix(cells, baselines::builtin_estimators(), opt.format);
      }
      return 0;
    }

    if (opt.list) print_list(reg, opt.format);
    if (opt.list_estimators) {
      print_list_estimators(baselines::builtin_estimators(), opt.format);
    }
    if (!opt.show.empty()) {
      const scenario::ScenarioSpec spec = resolve(opt.show);
      std::fputs(spec.to_text().c_str(), stdout);
    }
    if (!opt.run.empty()) {
      const scenario::ScenarioSpec spec = resolve(opt.run);
      return run_command(opt, spec);
    }
    return 0;
  } catch (const scenario::SpecError& e) {
    std::fprintf(stderr, "scenario_runner: %s\n", e.what());
    return 1;
  } catch (const core::EstimatorError& e) {
    std::fprintf(stderr, "scenario_runner: %s\n", e.what());
    return 1;
  }
}
