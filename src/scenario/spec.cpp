#include "scenario/spec.hpp"

#include <algorithm>
#include <array>
#include <cctype>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <set>
#include <sstream>
#include <type_traits>

#include "sim/fluid_traffic.hpp"
#include "tcp/cong.hpp"
#include "tcp/workload.hpp"
#include "util/counter_rng.hpp"

namespace pathload::scenario {

namespace {

std::string trim(std::string_view s) {
  std::size_t b = 0;
  std::size_t e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
  return std::string{s.substr(b, e - b)};
}

/// One `key = value` line, or one `key=value` token of a directive line, with
/// its 1-based source line for error messages. `key` is what messages show
/// ("hop.2.delay_ms", "flow rwnd"); `field` is what the key table matches
/// ("delay_ms", "rwnd").
struct KvLine {
  int no;
  std::string key;
  std::string value;
  std::string field;
};

[[noreturn]] void fail(const KvLine& l, const std::string& what) {
  throw SpecError{"line " + std::to_string(l.no) + ": " + l.key + ": " + what};
}

double parse_num(const KvLine& l) {
  char* end = nullptr;
  const double v = std::strtod(l.value.c_str(), &end);
  if (end == l.value.c_str() || *end != '\0') {
    fail(l, "expected a number, got '" + l.value + "'");
  }
  return v;
}

int parse_int(const KvLine& l) {
  const double v = parse_num(l);
  const int i = static_cast<int>(v);
  if (static_cast<double>(i) != v) {
    fail(l, "expected an integer, got '" + l.value + "'");
  }
  return i;
}

std::uint64_t parse_u64(const KvLine& l) {
  char* end = nullptr;
  const unsigned long long v = std::strtoull(l.value.c_str(), &end, 10);
  // strtoull silently wraps a leading '-'; reject it explicitly so the
  // error message tells the truth.
  if (l.value.empty() || l.value[0] == '-' || end == l.value.c_str() ||
      *end != '\0') {
    fail(l, "expected a non-negative integer, got '" + l.value + "'");
  }
  return v;
}

std::string fmt(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.12g", v);
  return buf;
}

sim::Interarrival renewal_of(TrafficModel m) {
  switch (m) {
    case TrafficModel::kPoisson: return sim::Interarrival::kExponential;
    case TrafficModel::kPareto: return sim::Interarrival::kPareto;
    case TrafficModel::kConstant: return sim::Interarrival::kConstant;
    default: throw std::logic_error{"renewal_of: not a renewal model"};
  }
}

TrafficModel model_of(sim::Interarrival m) {
  switch (m) {
    case sim::Interarrival::kExponential: return TrafficModel::kPoisson;
    case sim::Interarrival::kPareto: return TrafficModel::kPareto;
    case sim::Interarrival::kConstant: return TrafficModel::kConstant;
  }
  return TrafficModel::kPoisson;
}

/// Preset names: lowercase letters, digits, '-' and '_'.
std::string parse_name(const KvLine& l) {
  if (l.value.empty()) fail(l, "must not be empty");
  if (l.value.find_first_not_of("abcdefghijklmnopqrstuvwxyz0123456789-_") !=
      std::string::npos) {
    fail(l, "preset names use lowercase letters, digits, '-' and '_'; got '" +
                l.value + "'");
  }
  return l.value;
}

sim::PacketSizeMix parse_mix(const KvLine& l) {
  if (l.value == "paper") return sim::PacketSizeMix::paper_mix();
  if (l.value.rfind("fixed:", 0) == 0) {
    const int bytes = parse_int(KvLine{l.no, l.key, l.value.substr(6), l.field});
    if (bytes <= 0) fail(l, "fixed mix size must be a positive byte count");
    return sim::PacketSizeMix::fixed(bytes);
  }
  fail(l, "unknown mix '" + l.value + "' (expected paper or fixed:<bytes>)");
}

std::string mix_to_text(const sim::PacketSizeMix& mix) {
  if (mix.bins().size() == 1) return "fixed:" + std::to_string(mix.bins().front().size_bytes);
  return "paper";
}

/// An impair line's `hop=i`.
std::size_t parse_hop_index(const KvLine& l) {
  const int idx = parse_int(l);
  if (idx < 0 || idx > 64) fail(l, "hop index must be in [0, 64], got '" + l.value + "'");
  return static_cast<std::size_t>(idx);
}

// ---------------------------------------------------------------- value kinds
//
// A kind converts one value between the text format and its C++ type:
// read(line, value) parses in place, write(value) renders what read accepts.
// An optional member is set by its key and rendered from its value.

template <auto Read, auto Write>
struct Kind {
  static void read(const KvLine& l, auto& v) { v = Read(l); }
  static std::string write(const auto& v) {
    if constexpr (requires { v.has_value(); }) {
      return Write(*v);
    } else {
      return Write(v);
    }
  }
};

template <typename V>
std::string decimal(V v) { return std::to_string(v); }
std::string value_of(const KvLine& l) { return l.value; }
std::string as_is(const std::string& v) { return v; }

using Num = Kind<parse_num, fmt>;
using Int = Kind<parse_int, decimal<int>>;
using U64 = Kind<parse_u64, decimal<std::uint64_t>>;
using Str = Kind<value_of, as_is>;
using Name = Kind<parse_name, as_is>;
using Mix = Kind<parse_mix, mix_to_text>;
using HopIndex = Kind<parse_hop_index, decimal<std::size_t>>;
using Mbps = Kind<[](const KvLine& l) { return Rate::mbps(parse_num(l)); },
                  [](Rate v) { return fmt(v.mbits_per_sec()); }>;
using Millis = Kind<[](const KvLine& l) { return Duration::milliseconds(parse_num(l)); },
                    [](Duration v) { return fmt(v.millis()); }>;
using Secs = Kind<[](const KvLine& l) { return Duration::seconds(parse_num(l)); },
                  [](Duration v) { return fmt(v.secs()); }>;

/// An enum's text names, indexed by the enumerator; `what` and `hint` shape
/// the unknown-value message.
template <typename E, std::size_t N>
struct EnumNames {
  using Enum = E;
  std::string_view what;
  std::array<std::string_view, N> names;
  std::string_view hint{};
};

constexpr EnumNames<TrafficModel, 6> kModels{
    "traffic model", {"none", "poisson", "pareto", "constant", "onoff", "ramp"}};
constexpr EnumNames<sim::Interarrival, 3> kRenewals{
    "paper traffic model", {"poisson", "pareto", "constant"},
    "use a custom hop list for onoff/ramp traffic"};
constexpr EnumNames<EngineVersion, 2> kEngines{"engine", {"v1", "v2"}, "see docs/ENGINE.md"};
constexpr EnumNames<FlowSpec::Mode, 2> kModes{
    "mode", {"auto", "packet"}, "auto picks the engine's native flow backend"};

template <const auto& Names>
struct Enum {
  using E = typename std::remove_cvref_t<decltype(Names)>::Enum;
  static void read(const KvLine& l, E& v) {
    std::string expected;
    for (std::size_t i = 0; i < Names.names.size(); ++i) {
      if (Names.names[i] == l.value) {
        v = static_cast<E>(i);
        return;
      }
      expected += std::string{i == 0 ? "" : Names.names.size() == 2 ? " or " : "|"} +
                  std::string{Names.names[i]};
    }
    if (!Names.hint.empty()) expected += "; " + std::string{Names.hint};
    fail(l, "unknown " + std::string{Names.what} + " '" + l.value + "' (expected " +
                expected + ")");
  }
  static std::string write(E v) { return std::string{Names.names[static_cast<std::size_t>(v)]}; }
};

/// `hops = N` of the custom form: sizes the hop list.
struct HopCount {
  static void read(const KvLine& l, ScenarioSpec& s) {
    const int n = parse_int(l);
    if (n < 1 || n > 64) fail(l, "must be in [1, 64], got " + l.value);
    s.hops.resize(static_cast<std::size_t>(n));
  }
  static std::string write(const ScenarioSpec& s) { return std::to_string(s.hops.size()); }
};

/// `traffic.model`. On/off and ramp hops default to one source (a single
/// bursty or ramping aggregate); traffic.sources comes later in the table,
/// so an explicit value still wins.
struct Model {
  static void read(const KvLine& l, TrafficSpec& t) {
    Enum<kModels>::read(l, t.model);
    if (t.model == TrafficModel::kOnOff || t.model == TrafficModel::kRamp) t.sources = 1;
  }
  static std::string write(const TrafficSpec& t) { return Enum<kModels>::write(t.model); }
};

/// A flow's `hops=i` or `hops=i-j` segment (rendered resolved, `i-j`).
struct HopRange {
  static void read(const KvLine& l, FlowSpec& f) {
    const auto index = [&](const std::string& s) -> std::size_t {
      char* end = nullptr;
      errno = 0;
      const unsigned long v = std::strtoul(s.c_str(), &end, 10);
      // The overflow check matters: strtoul clamps to ULONG_MAX, which would
      // otherwise alias Segment::kPathEnd and validate as "whole path".
      if (s.empty() || s[0] == '-' || end == s.c_str() || *end != '\0' ||
          errno == ERANGE || v > 64) {
        fail(l, "hops expects <hop> or <first>-<last> with hop indices in [0, 64], "
                "got '" + l.value + "'");
      }
      return static_cast<std::size_t>(v);
    };
    const auto dash = l.value.find('-');
    f.first_hop = index(l.value.substr(0, dash));
    f.last_hop = dash == std::string::npos ? f.first_hop : index(l.value.substr(dash + 1));
  }
  static std::string write(const FlowSpec& f) {
    return std::to_string(f.first_hop) + "-" + std::to_string(f.last_hop);
  }
};

// ------------------------------------------------------------------ key table

/// One key of the text format: its name, how it parses into and renders
/// from the object it configures, and when to_text emits it (null: always).
template <typename T>
struct Key {
  std::string_view name;
  void (*parse)(T&, const KvLine&);
  std::string (*write)(const T&);
  bool (*emit_if)(const T&);
};

/// Key factories for one object type. `Member...` is the member path from T
/// to the value (empty when the kind reads the whole object).
template <typename T>
struct Keys {
  template <typename Kind, auto... Member>
  static constexpr Key<T> key(std::string_view name, bool (*emit_if)(const T&) = nullptr) {
    return {name, [](T& t, const KvLine& l) { Kind::read(l, (t .* ... .* Member)); },
            [](const T& t) { return Kind::write((t .* ... .* Member)); }, emit_if};
  }
  /// A key emitted only when its value differs from the default.
  template <typename Kind, auto... Member>
  static constexpr Key<T> opt(std::string_view name) {
    return key<Kind, Member...>(name, [](const T& t) {
      return (t .* ... .* Member) != (T{} .* ... .* Member);
    });
  }
};

using S = Keys<ScenarioSpec>;
constexpr Key<ScenarioSpec> kTopKeys[] = {
    S::key<Name, &ScenarioSpec::name>("name"),
    S::opt<Str, &ScenarioSpec::description>("description"),
    // v1 is implicit: emitting the line only for v2 keeps every pre-engine
    // preset text, golden spec file, and shard round-trip byte-identical.
    S::opt<Enum<kEngines>, &ScenarioSpec::engine>("engine"),
    S::key<U64, &ScenarioSpec::seed>("seed"),
    S::key<Secs, &ScenarioSpec::warmup>("warmup_s"),
    S::key<HopCount>("hops", [](const ScenarioSpec& s) { return !s.paper; }),
};

using P = Keys<PaperPathConfig>;
constexpr Key<PaperPathConfig> kPaperKeys[] = {
    P::key<Int, &PaperPathConfig::hops>("hops"),
    P::key<Mbps, &PaperPathConfig::tight_capacity>("tight_capacity_mbps"),
    P::key<Num, &PaperPathConfig::tight_utilization>("tight_utilization"),
    P::key<Num, &PaperPathConfig::beta>("beta"),
    P::key<Num, &PaperPathConfig::nontight_utilization>("nontight_utilization"),
    P::key<Enum<kRenewals>, &PaperPathConfig::model>("traffic"),
    P::key<Num, &PaperPathConfig::pareto_alpha>("pareto_alpha"),
    P::key<Int, &PaperPathConfig::sources_per_link>("sources_per_link"),
    P::key<Millis, &PaperPathConfig::total_prop_delay>("total_prop_delay_ms"),
    P::key<Millis, &PaperPathConfig::buffer_drain>("buffer_ms"),
};

bool loaded(const HopDecl& h) { return h.traffic.model != TrafficModel::kNone; }
template <TrafficModel M>
bool is(const HopDecl& h) { return h.traffic.model == M; }
bool ramps_back(const HopDecl& h) {
  return is<TrafficModel::kRamp>(h) && h.traffic.has_ramp_back();
}

// Table order is parse order (traffic.model before traffic.sources) and
// to_text order.
using H = Keys<HopDecl>;
using TS = TrafficSpec;
constexpr auto kT = &HopDecl::traffic;
constexpr Key<HopDecl> kHopKeys[] = {
    H::key<Mbps, &HopDecl::capacity>("capacity_mbps"),
    H::key<Millis, &HopDecl::delay>("delay_ms"),
    H::key<Millis, &HopDecl::buffer_drain>("buffer_ms"),
    H::key<Model, kT>("traffic.model"),
    H::key<Num, kT, &TS::utilization>("traffic.utilization", loaded),
    H::key<Int, kT, &TS::sources>("traffic.sources", loaded),
    H::key<Mix, kT, &TS::mix>("traffic.mix", loaded),
    H::key<Num, kT, &TS::pareto_alpha>("traffic.pareto_alpha", is<TrafficModel::kPareto>),
    H::key<Num, kT, &TS::peak_utilization>("traffic.peak_utilization", is<TrafficModel::kOnOff>),
    H::key<Num, kT, &TS::mean_burst_kb>("traffic.mean_burst_kb", is<TrafficModel::kOnOff>),
    H::key<Num, kT, &TS::burst_alpha>("traffic.burst_alpha", is<TrafficModel::kOnOff>),
    H::key<Num, kT, &TS::end_utilization>("traffic.end_utilization", is<TrafficModel::kRamp>),
    H::key<Num, kT, &TS::ramp_start_s>("traffic.ramp_start_s", is<TrafficModel::kRamp>),
    H::key<Num, kT, &TS::ramp_end_s>("traffic.ramp_end_s", is<TrafficModel::kRamp>),
    H::key<Num, kT, &TS::ramp_back_start_s>("traffic.ramp_back_start_s", ramps_back),
    H::key<Num, kT, &TS::ramp_back_end_s>("traffic.ramp_back_end_s", ramps_back),
};

using F = Keys<FlowSpec>;
constexpr Key<FlowSpec> kFlowKeys[] = {
    F::key<HopRange>("hops"),
    F::opt<Num, &FlowSpec::rwnd>("rwnd"),
    F::opt<Int, &FlowSpec::count>("count"),
    F::opt<Num, &FlowSpec::start_s>("start_s"),
    F::opt<Num, &FlowSpec::stop_s>("stop_s"),
    F::opt<Num, &FlowSpec::on_s>("on_s"),
    F::opt<Num, &FlowSpec::off_s>("off_s"),
    F::opt<Int, &FlowSpec::mss_bytes>("mss"),
    F::opt<Num, &FlowSpec::reverse_ms>("reverse_ms"),
    F::opt<Enum<kModes>, &FlowSpec::mode>("mode"),
    F::opt<Str, &FlowSpec::cc>("cc"),
};

using I = Keys<ImpairSpec>;
constexpr Key<ImpairSpec> kImpairKeys[] = {
    I::key<HopIndex, &ImpairSpec::hop>("hop"),
    I::opt<Num, &ImpairSpec::loss>("loss"),
    I::opt<Num, &ImpairSpec::dup>("dup"),
    I::opt<Num, &ImpairSpec::reorder_ms>("reorder_ms"),
    I::opt<U64, &ImpairSpec::seed>("seed"),
};

/// Apply one object's lines to `obj` in table order. `what` names the key
/// family in the unknown-key message; `more` lists what else is accepted.
template <typename T, std::size_t N>
void parse_keys(const Key<T> (&keys)[N], const std::vector<KvLine>& lines, T& obj,
                const std::string& what, const std::string& more = {}) {
  for (const KvLine& l : lines) {
    if (std::none_of(keys, keys + N, [&](const Key<T>& k) { return k.name == l.field; })) {
      std::string expected;
      for (const Key<T>& k : keys) {
        expected += (expected.empty() ? "" : ", ") + std::string{k.name};
      }
      if (!more.empty()) expected += ", " + more;
      fail(l, "unknown " + what + " '" + l.field + "' (expected " + expected + ")");
    }
  }
  for (const Key<T>& k : keys) {
    bool seen = false;
    for (const KvLine& l : lines) {
      if (l.field != k.name) continue;
      if (seen) fail(l, "duplicate key '" + l.field + "'");
      seen = true;
      k.parse(obj, l);
    }
  }
}

/// Render `obj`'s keys: `<prefix><name><eq><value><end>` per emitted key.
template <typename T, std::size_t N>
void write_keys(std::string& out, const Key<T> (&keys)[N], const T& obj,
                const std::string& prefix, std::string_view eq = " = ",
                std::string_view end = "\n") {
  for (const Key<T>& k : keys) {
    if (k.emit_if && !k.emit_if(obj)) continue;
    out += prefix;
    out += k.name;
    out += eq;
    out += k.write(obj);
    out += end;
  }
}

/// The `key=value` tokens of a `flow` / `impair` directive body.
std::vector<KvLine> directive_tokens(int no, const std::string& directive,
                                     std::istringstream& in) {
  std::vector<KvLine> out;
  std::string tok;
  while (in >> tok) {
    const auto eq = tok.find('=');
    if (eq == std::string::npos || eq == 0) {
      fail(KvLine{no, directive, "", ""}, "expected key=value, got '" + tok + "'");
    }
    const std::string field = tok.substr(0, eq);
    out.push_back(KvLine{no, directive + " " + field, tok.substr(eq + 1), field});
  }
  return out;
}

/// Parse one `flow <kind> key=value ...` directive body (everything after
/// the `flow` token). Field-level range checks live in validate_flow so
/// C++-built specs get the same diagnostics.
FlowSpec parse_flow_line(int no, const std::string& body) {
  std::istringstream in{body};
  const KvLine line{no, "flow", "", ""};
  std::string kind;
  if (!(in >> kind)) fail(line, "expected 'flow <kind> key=value ...' (kinds: tcp)");
  if (kind != "tcp") fail(line, "unknown flow kind '" + kind + "' (expected tcp)");
  FlowSpec flow;
  parse_keys(kFlowKeys, directive_tokens(no, "flow", in), flow, "key");
  return flow;
}

/// Parse one `impair key=value ...` directive body. Range checks live in
/// validate_impair so C++-built specs get the same diagnostics.
ImpairSpec parse_impair_line(int no, const std::string& body) {
  std::istringstream in{body};
  ImpairSpec imp;
  imp.hop = sim::Segment::kPathEnd;  // no valid hop= value parses to this
  parse_keys(kImpairKeys, directive_tokens(no, "impair", in), imp, "key");
  if (imp.hop == sim::Segment::kPathEnd) {
    fail(KvLine{no, "impair", "", ""}, "hop= is required (which hop's link to impair)");
  }
  return imp;
}

/// Field-level checks of a paper parameterization, shared by derive_hops
/// and validate(). Must run before any derived quantity (nontight_capacity)
/// is touched, since ux >= 1 would divide by zero there.
void validate_paper(const PaperPathConfig& cfg) {
  if (cfg.hops < 1) throw SpecError{"paper.hops: need at least one hop"};
  if (cfg.tight_capacity <= Rate::zero()) {
    throw SpecError{"paper.tight_capacity_mbps: must be positive"};
  }
  if (cfg.tight_utilization < 0.0 || cfg.tight_utilization >= 1.0) {
    throw SpecError{"paper.tight_utilization: must be in [0, 1), got " +
                    fmt(cfg.tight_utilization)};
  }
  if (cfg.nontight_utilization < 0.0 || cfg.nontight_utilization >= 1.0) {
    throw SpecError{"paper.nontight_utilization: must be in [0, 1), got " +
                    fmt(cfg.nontight_utilization)};
  }
  // Below 1 a non-tight hop has less avail-bw than the middle one, which
  // the paper form (and tight_hop()) takes as the tight link.
  if (cfg.beta < 1.0) {
    throw SpecError{"paper.beta: must be >= 1 (beta = Ax/At, Eq. 10), got " +
                    fmt(cfg.beta)};
  }
  if (cfg.model == sim::Interarrival::kPareto && cfg.pareto_alpha <= 1.0) {
    throw SpecError{"paper.pareto_alpha: must be > 1 for a finite mean, got " +
                    fmt(cfg.pareto_alpha)};
  }
  if (cfg.sources_per_link < 1) {
    throw SpecError{"paper.sources_per_link: must be >= 1"};
  }
  if (cfg.total_prop_delay < Duration::zero()) {
    throw SpecError{"paper.total_prop_delay_ms: must not be negative, got " +
                    fmt(cfg.total_prop_delay.millis())};
  }
  if (cfg.buffer_drain <= Duration::zero()) {
    throw SpecError{"paper.buffer_ms: must be positive, got " +
                    fmt(cfg.buffer_drain.millis())};
  }
}

[[noreturn]] void fail_hop(std::size_t hop, const std::string& field,
                           const std::string& what) {
  throw SpecError{"hop " + std::to_string(hop) + ": " + field + ": " + what};
}

void validate_hop(std::size_t i, const HopDecl& h) {
  if (h.capacity <= Rate::zero()) {
    fail_hop(i, "capacity_mbps", "must be positive, got " + fmt(h.capacity.mbits_per_sec()));
  }
  if (h.delay < Duration::zero()) {
    fail_hop(i, "delay_ms", "must not be negative, got " + fmt(h.delay.millis()));
  }
  if (h.buffer_drain <= Duration::zero()) {
    fail_hop(i, "buffer_ms", "must be positive, got " + fmt(h.buffer_drain.millis()));
  }
  const TrafficSpec& t = h.traffic;
  if (t.model == TrafficModel::kNone) return;
  if (t.utilization < 0.0 || t.utilization >= 1.0) {
    fail_hop(i, "traffic.utilization", "must be in [0, 1), got " + fmt(t.utilization));
  }
  if (t.sources < 1) {
    fail_hop(i, "traffic.sources", "must be >= 1, got " + std::to_string(t.sources));
  }
  if (t.mix.mean_bytes() <= 0.0) {
    fail_hop(i, "traffic.mix", "mean packet size must be positive");
  }
  switch (t.model) {
    case TrafficModel::kPoisson:
    case TrafficModel::kConstant:
      break;
    case TrafficModel::kPareto:
      if (t.pareto_alpha <= 1.0) {
        fail_hop(i, "traffic.pareto_alpha",
                 "must be > 1 for a finite mean, got " + fmt(t.pareto_alpha));
      }
      break;
    case TrafficModel::kOnOff:
      if (t.utilization <= 0.0) {
        fail_hop(i, "traffic.utilization",
                 "onoff traffic needs a positive mean load (or set model = none)");
      }
      if (t.peak_utilization <= t.utilization || t.peak_utilization > 1.0) {
        fail_hop(i, "traffic.peak_utilization",
                 "must be in (utilization, 1]: bursts emit above the mean load "
                 "but not above the hop capacity; got " + fmt(t.peak_utilization) +
                 " with utilization " + fmt(t.utilization));
      }
      if (DataSize::kilobytes(t.mean_burst_kb).byte_count() <= 0) {
        fail_hop(i, "traffic.mean_burst_kb",
                 "must be at least one byte (0.001), got " + fmt(t.mean_burst_kb));
      }
      if (t.burst_alpha <= 1.0) {
        fail_hop(i, "traffic.burst_alpha",
                 "must be > 1 for a finite mean burst, got " + fmt(t.burst_alpha));
      }
      break;
    case TrafficModel::kRamp:
      if (t.utilization <= 0.0) {
        fail_hop(i, "traffic.utilization",
                 "ramp traffic needs a positive pre-ramp load (the arrival "
                 "process cannot restart from rate zero)");
      }
      if (t.end_utilization <= 0.0 || t.end_utilization >= 1.0) {
        fail_hop(i, "traffic.end_utilization",
                 "must be in (0, 1), got " + fmt(t.end_utilization));
      }
      if (t.ramp_start_s < 0.0) {
        fail_hop(i, "traffic.ramp_start_s", "must not be negative, got " + fmt(t.ramp_start_s));
      }
      if (t.ramp_end_s < t.ramp_start_s) {
        fail_hop(i, "traffic.ramp_end_s",
                 "must not precede ramp_start_s (" + fmt(t.ramp_start_s) +
                 "), got " + fmt(t.ramp_end_s));
      }
      if (t.has_ramp_back()) {
        if (t.ramp_back_start_s < t.ramp_end_s) {
          fail_hop(i, "traffic.ramp_back_start_s",
                   "the return segment must not precede ramp_end_s (" +
                   fmt(t.ramp_end_s) + "), got " + fmt(t.ramp_back_start_s));
        }
        if (t.ramp_back_end_s < t.ramp_back_start_s) {
          fail_hop(i, "traffic.ramp_back_end_s",
                   "must not precede ramp_back_start_s (" +
                   fmt(t.ramp_back_start_s) + "), got " + fmt(t.ramp_back_end_s));
        }
      }
      break;
    case TrafficModel::kNone:
      break;
  }
}

/// Long-run pre-ramp utilization of a hop (0 when traffic is disabled).
double initial_util(const HopDecl& h) {
  return h.traffic.model == TrafficModel::kNone ? 0.0 : h.traffic.utilization;
}

[[noreturn]] void fail_flow(std::size_t flow, const std::string& field,
                            const std::string& what) {
  throw SpecError{"flow " + std::to_string(flow) + ": " + field + ": " + what};
}

void validate_flow(std::size_t i, const FlowSpec& f, std::size_t hop_count) {
  const std::size_t last =
      f.last_hop == sim::Segment::kPathEnd ? hop_count - 1 : f.last_hop;
  if (f.first_hop > last || last >= hop_count) {
    fail_flow(i, "hops",
              "segment " + std::to_string(f.first_hop) + "-" +
                  std::to_string(last) + " does not fit the path (hops 0-" +
                  std::to_string(hop_count - 1) +
                  ", first must not exceed last)");
  }
  if (f.rwnd.has_value() && *f.rwnd < 1.0) {
    fail_flow(i, "rwnd",
              "must be at least 1 segment (drop the key for a greedy flow), "
              "got " + fmt(*f.rwnd));
  }
  if (f.count < 1 || f.count > 64) {
    fail_flow(i, "count", "must be in [1, 64], got " + std::to_string(f.count));
  }
  if (f.start_s < 0.0) {
    fail_flow(i, "start_s", "must not be negative, got " + fmt(f.start_s));
  }
  if (f.stop_s.has_value() && *f.stop_s <= f.start_s) {
    fail_flow(i, "stop_s", "must come after start_s (" + fmt(f.start_s) +
                               "), got " + fmt(*f.stop_s));
  }
  if (f.on_s.has_value() != f.off_s.has_value()) {
    fail_flow(i, f.on_s.has_value() ? "off_s" : "on_s",
              "on_s and off_s must be set together (the on/off restart "
              "variant needs both; drop both for a long-lived flow)");
  }
  if (f.on_s.has_value() && *f.on_s <= 0.0) {
    fail_flow(i, "on_s", "must be positive, got " + fmt(*f.on_s));
  }
  if (f.off_s.has_value() && *f.off_s <= 0.0) {
    fail_flow(i, "off_s", "must be positive, got " + fmt(*f.off_s));
  }
  if (f.mss_bytes <= 0) {
    fail_flow(i, "mss",
              "must be a positive byte count, got " + std::to_string(f.mss_bytes));
  }
  if (f.reverse_ms < 0.0) {
    fail_flow(i, "reverse_ms", "must not be negative, got " + fmt(f.reverse_ms));
  }
  const auto& ccs = tcp::congestion_ops_names();
  if (std::find(ccs.begin(), ccs.end(), f.cc) == ccs.end()) {
    std::string expected;
    for (std::size_t k = 0; k < ccs.size(); ++k) {
      expected += std::string{k == 0 ? "" : k + 1 < ccs.size() ? ", " : ", or "} +
                  std::string{ccs[k]};
    }
    fail_flow(i, "cc", "unknown cc '" + f.cc + "' (expected " + expected + ")");
  }
}

[[noreturn]] void fail_impair(std::size_t entry, const std::string& field,
                              const std::string& what) {
  throw SpecError{"impair " + std::to_string(entry) + ": " + field + ": " + what};
}

void validate_impair(std::size_t i, const ImpairSpec& imp, std::size_t hop_count) {
  if (imp.hop >= hop_count) {
    fail_impair(i, "hop",
                "hop index " + std::to_string(imp.hop) +
                    " does not fit the path (hops 0-" +
                    std::to_string(hop_count - 1) + ")");
  }
  if (imp.loss < 0.0 || imp.loss >= 1.0) {
    fail_impair(i, "loss", "must be in [0, 1), got " + fmt(imp.loss));
  }
  if (imp.dup < 0.0 || imp.dup >= 1.0) {
    fail_impair(i, "dup", "must be in [0, 1), got " + fmt(imp.dup));
  }
  if (imp.reorder_ms < 0.0) {
    fail_impair(i, "reorder_ms", "must not be negative, got " + fmt(imp.reorder_ms));
  }
  if (!imp.any()) {
    fail_impair(i, "loss",
                "impair line enables nothing; set at least one of loss, dup, "
                "reorder_ms (or drop the line)");
  }
}

}  // namespace

std::uint64_t derive_impair_seed(std::uint64_t scenario_seed, std::size_t hop) {
  // splitmix64 over (seed, hop): decorrelated from the scenario's traffic
  // forks (mt19937_64 draws), stable under changes to the rest of the spec.
  std::uint64_t z = scenario_seed + 0x9e3779b97f4a7c15ULL * (hop + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::string_view to_string(EngineVersion v) {
  return kEngines.names[static_cast<std::size_t>(v)];
}

std::string_view to_string(TrafficModel m) {
  return kModels.names[static_cast<std::size_t>(m)];
}

std::vector<std::string> spec_key_names() {
  std::vector<std::string> out;
  const auto add = [&](const auto& keys, const std::string& prefix) {
    for (const auto& k : keys) out.push_back(prefix + std::string{k.name});
  };
  add(kTopKeys, "");
  add(kPaperKeys, "paper.");
  add(kHopKeys, "hop.<i>.");
  add(kFlowKeys, "flow ");
  add(kImpairKeys, "impair ");
  return out;
}

std::vector<HopDecl> PaperPathConfig::derive_hops() const {
  validate_paper(*this);
  const HopDecl nontight{.capacity = nontight_capacity(),
                         .delay = total_prop_delay / static_cast<double>(hops),
                         .buffer_drain = buffer_drain,
                         .traffic = {.model = model_of(model),
                                     .utilization = nontight_utilization,
                                     .sources = sources_per_link,
                                     .pareto_alpha = pareto_alpha,
                                     .mix = size_mix}};
  std::vector<HopDecl> out(static_cast<std::size_t>(hops), nontight);
  HopDecl& tight = out[tight_index()];
  tight.capacity = tight_capacity;
  tight.traffic.utilization = tight_utilization;
  return out;
}

ScenarioSpec ScenarioSpec::from_paper(std::string name, std::string description,
                                      const PaperPathConfig& cfg) {
  ScenarioSpec spec;
  spec.name = std::move(name);
  spec.description = std::move(description);
  spec.hops = cfg.derive_hops();
  spec.paper = cfg;
  return spec;
}

ScenarioSpec ScenarioSpec::parse(std::string_view text) {
  // Lines grouped by what they configure; `flow` / `impair` directive
  // bodies (after the keyword) may repeat, one line per entry.
  std::vector<KvLine> top, paper_lines, hop_lines;
  std::vector<std::pair<int, std::string>> flow_lines, impair_lines;
  std::istringstream in{std::string{text}};
  std::string raw;
  for (int no = 1; std::getline(in, raw); ++no) {
    if (const auto hash = raw.find('#'); hash != std::string::npos) raw.erase(hash);
    const std::string stripped = trim(raw);
    if (stripped.empty()) continue;
    const std::string word = stripped.substr(0, stripped.find_first_of(" \t\v\f\r"));
    if (word == "flow" || word == "impair") {
      (word == "flow" ? flow_lines : impair_lines)
          .emplace_back(no, stripped.substr(word.size()));
      continue;
    }
    const auto eq = stripped.find('=');
    if (eq == std::string::npos) {
      throw SpecError{"line " + std::to_string(no) + ": expected 'key = value', got '" +
                      stripped + "'"};
    }
    KvLine l{no, trim(stripped.substr(0, eq)), trim(stripped.substr(eq + 1)), ""};
    if (l.key.empty()) {
      throw SpecError{"line " + std::to_string(no) + ": empty key before '='"};
    }
    if (l.key.rfind("paper.", 0) == 0) {
      l.field = l.key.substr(6);
      paper_lines.push_back(std::move(l));
    } else if (l.key.rfind("hop.", 0) == 0) {
      hop_lines.push_back(std::move(l));
    } else {
      l.field = l.key;
      top.push_back(std::move(l));
    }
  }

  ScenarioSpec spec;
  parse_keys(kTopKeys, top, spec, "key", "hop.<i>.*, paper.*");
  const bool custom = !spec.hops.empty() || !hop_lines.empty();
  if (!paper_lines.empty() && custom) {
    throw SpecError{
        "spec mixes paper.* keys with hops/hop.* keys; use one form "
        "(paper.* for the Fig. 4 parameterization, hops/hop.* for a custom path)"};
  }
  if (paper_lines.empty() && !custom) {
    throw SpecError{
        "spec declares no path: set either 'hops = N' plus hop.<i>.* keys, "
        "or paper.* keys (see docs/SCENARIOS.md)"};
  }
  if (custom && spec.hops.empty()) {
    throw SpecError{"hop.* keys present but 'hops = N' is missing"};
  }

  if (!custom) {
    PaperPathConfig cfg;
    parse_keys(kPaperKeys, paper_lines, cfg, "paper key");
    spec.hops = cfg.derive_hops();
    spec.paper = cfg;
  } else {
    std::vector<std::vector<KvLine>> per_hop(spec.hops.size());
    for (KvLine& l : hop_lines) {
      const auto dot = l.key.find('.', 4);
      if (dot == std::string::npos) fail(l, "expected hop.<index>.<field>");
      const std::string index = l.key.substr(4, dot - 4);
      char* end = nullptr;
      const long idx = std::strtol(index.c_str(), &end, 10);
      if (end == index.c_str() || *end != '\0' || idx < 0) {
        fail(l, "expected hop.<index>.<field> with a non-negative index");
      }
      if (static_cast<std::size_t>(idx) >= spec.hops.size()) {
        fail(l, "hop index " + std::to_string(idx) + " out of range (hops = " +
                    std::to_string(spec.hops.size()) + ")");
      }
      l.field = l.key.substr(dot + 1);
      per_hop[static_cast<std::size_t>(idx)].push_back(std::move(l));
    }
    for (std::size_t i = 0; i < spec.hops.size(); ++i) {
      parse_keys(kHopKeys, per_hop[i], spec.hops[i], "hop field");
      // A model without a load is almost certainly a forgotten key; fail
      // with the fix rather than silently generating no traffic.
      const TrafficSpec& t = spec.hops[i].traffic;
      if (t.model != TrafficModel::kNone && t.model != TrafficModel::kOnOff &&
          t.model != TrafficModel::kRamp && t.utilization == 0.0) {
        fail_hop(i, "traffic.utilization",
                 "traffic.model = " + std::string{to_string(t.model)} +
                     " but no load is set; set hop." + std::to_string(i) +
                     ".traffic.utilization, or model = none");
      }
    }
  }
  if (spec.name.empty()) {
    throw SpecError{"spec is missing 'name = <preset-name>'"};
  }
  for (const auto& [no, body] : flow_lines) {
    spec.flows.push_back(parse_flow_line(no, body));
  }
  for (const auto& [no, body] : impair_lines) {
    spec.impairments.push_back(parse_impair_line(no, body));
  }
  spec.validate();
  return spec;
}

void ScenarioSpec::validate() const {
  if (name.empty()) throw SpecError{"spec is missing a name"};
  // Paper-form specs are checked in their own terms first (so errors name
  // the paper.* key the user wrote), then like every spec on the hops they
  // instantiate from.
  if (paper) validate_paper(*paper);
  if (hops.empty()) throw SpecError{"spec has no hops"};
  if (warmup < Duration::zero()) throw SpecError{"warmup_s must not be negative"};
  for (std::size_t i = 0; i < hops.size(); ++i) validate_hop(i, hops[i]);
  const std::size_t hop_count = hops.size();
  for (std::size_t i = 0; i < flows.size(); ++i) {
    validate_flow(i, flows[i], hop_count);
  }
  std::set<std::size_t> impaired_hops;
  for (std::size_t i = 0; i < impairments.size(); ++i) {
    validate_impair(i, impairments[i], hop_count);
    if (!impaired_hops.insert(impairments[i].hop).second) {
      fail_impair(i, "hop",
                  "hop " + std::to_string(impairments[i].hop) +
                      " already has an impair line; merge the knobs into one");
    }
  }
}

std::string ScenarioSpec::to_text() const {
  std::string out;
  write_keys(out, kTopKeys, *this, "");
  if (paper) {
    write_keys(out, kPaperKeys, *paper, "paper.");
  } else {
    for (std::size_t i = 0; i < hops.size(); ++i) {
      write_keys(out, kHopKeys, hops[i], "hop." + std::to_string(i) + ".");
    }
  }
  for (FlowSpec f : flows) {
    // The hop range prints resolved, so a rendered spec is self-describing.
    if (f.last_hop == sim::Segment::kPathEnd) f.last_hop = hops.size() - 1;
    out += "flow tcp";
    write_keys(out, kFlowKeys, f, " ", "=", "");
    out += "\n";
  }
  for (const ImpairSpec& imp : impairments) {
    out += "impair";
    write_keys(out, kImpairKeys, imp, " ", "=", "");
    out += "\n";
  }
  return out;
}

ScenarioSpec ScenarioSpec::with_load(double util) const {
  if (util < 0.0 || util >= 1.0) {
    throw SpecError{"with_load: utilization must be in [0, 1), got " + fmt(util)};
  }
  ScenarioSpec out = *this;
  if (out.paper) {
    // Re-derive the whole path, so the non-tight capacities keep tracking
    // beta * At (the paper's invariant).
    out.paper->tight_utilization = util;
    out.hops = out.paper->derive_hops();
    return out;
  }
  const std::size_t tight = tight_hop();
  if (out.hops[tight].traffic.model == TrafficModel::kNone) {
    throw SpecError{"with_load: tight hop " + std::to_string(tight) +
                    " has traffic.model = none; nothing to sweep"};
  }
  out.hops[tight].traffic.utilization = util;
  return out;
}

std::size_t ScenarioSpec::tight_hop() const {
  // Paper form: the middle hop. Validation keeps beta >= 1, where it has
  // the least avail-bw; at beta = 1 every hop ties up to rounding.
  if (paper) return paper->tight_index();
  std::size_t best = 0;
  double best_avail = hops[0].capacity.bits_per_sec() * (1.0 - initial_util(hops[0]));
  for (std::size_t i = 1; i < hops.size(); ++i) {
    const double avail = hops[i].capacity.bits_per_sec() * (1.0 - initial_util(hops[i]));
    if (avail < best_avail) {
      best = i;
      best_avail = avail;
    }
  }
  return best;
}

Rate ScenarioSpec::avail_bw() const {
  const std::size_t tight = tight_hop();
  return hops[tight].capacity * (1.0 - initial_util(hops[tight]));
}

Rate ScenarioSpec::final_avail_bw() const {
  Rate best = Rate::mbps(1e12);
  for (const auto& h : hops) {
    // A wave returns to its pre-ramp load; a one-way ramp holds its end
    // load.
    const double u = h.traffic.model == TrafficModel::kRamp &&
                             !h.traffic.has_ramp_back()
                         ? h.traffic.end_utilization
                         : initial_util(h);
    best = std::min(best, h.capacity * (1.0 - u));
  }
  return best;
}

bool ScenarioSpec::nonstationary() const {
  return std::any_of(hops.begin(), hops.end(), [](const HopDecl& h) {
    return h.traffic.model == TrafficModel::kRamp;
  });
}

namespace {

/// Copy a validated FlowSpec into a flow backend's config. `tcp` is where
/// the backend keeps its TCP knobs: the .tcp member of a
/// tcp::SegmentFlowConfig, or the sim::FluidTcpConfig itself, so either
/// backend sees the identical shape.
template <typename Cfg, typename Tcp>
Cfg& fill_flow_config(const FlowSpec& f, Cfg& cfg, Tcp& tcp) {
  cfg.segment = sim::Segment{f.first_hop, f.last_hop};
  tcp.mss_bytes = f.mss_bytes;
  tcp.cc = f.cc;
  if (f.rwnd.has_value()) tcp.advertised_window = *f.rwnd;
  cfg.reverse_delay = Duration::milliseconds(f.reverse_ms);
  cfg.start = Duration::seconds(f.start_s);
  if (f.stop_s.has_value()) cfg.stop = Duration::seconds(*f.stop_s);
  if (f.on_s.has_value()) cfg.on_period = Duration::seconds(*f.on_s);
  if (f.off_s.has_value()) cfg.off_period = Duration::seconds(*f.off_s);
  return cfg;
}

/// On/off parameters of one of the `t.sources` sources sharing hop traffic
/// `t` on `link` (both engines).
sim::OnOffParams onoff_params(const sim::Link& link, const TrafficSpec& t) {
  sim::OnOffParams params;
  params.peak_rate = link.capacity() * t.peak_utilization / static_cast<double>(t.sources);
  params.mean_burst = DataSize::kilobytes(t.mean_burst_kb);
  params.burst_alpha = t.burst_alpha;
  return params;
}

/// Ramp parameters of one of `n` sources sharing hop traffic `t` on `link`.
sim::RampParams ramp_params(const sim::Link& link, const TrafficSpec& t, double n) {
  sim::RampParams params;
  params.start_rate = link.capacity() * t.utilization / n;
  params.end_rate = link.capacity() * t.end_utilization / n;
  params.ramp_start = Duration::seconds(t.ramp_start_s);
  params.ramp_end = Duration::seconds(t.ramp_end_s);
  if (t.has_ramp_back()) {
    // The wave returns to the pre-ramp load.
    params.back_rate = params.start_rate;
    params.back_start = Duration::seconds(t.ramp_back_start_s);
    params.back_end = Duration::seconds(t.ramp_back_end_s);
  }
  return params;
}

}  // namespace

ScenarioInstance::ScenarioInstance(ScenarioSpec spec) : spec_{std::move(spec)} {
  spec_.validate();
  sim_ = std::make_unique<sim::Simulator>();
  std::vector<sim::HopSpec> hop_specs;
  hop_specs.reserve(spec_.hops.size());
  for (const HopDecl& h : spec_.hops) {
    hop_specs.push_back(
        sim::HopSpec{h.capacity, h.delay, h.capacity.bytes_in(h.buffer_drain)});
  }
  path_ = std::make_unique<sim::Path>(*sim_, std::move(hop_specs));
  tight_index_ = spec_.tight_hop();

  if (spec_.engine == EngineVersion::kV2) {
    build_v2_traffic();
  } else {
    build_v1_traffic();
  }

  // Impairments install after the path exists, identically for both
  // engines. Links without an impair entry never get an impairment RNG, so
  // unimpaired specs stay bit-identical to pre-impairment builds.
  for (const ImpairSpec& imp : spec_.impairments) {
    sim::LinkImpairments li;
    li.loss = imp.loss;
    li.dup = imp.dup;
    li.reorder = Duration::milliseconds(imp.reorder_ms);
    li.seed = imp.seed.has_value() ? *imp.seed
                                   : derive_impair_seed(spec_.seed, imp.hop);
    path_->link(imp.hop).set_impairments(li);
  }

  // Expand `flow` entries (count=N becomes N flows). A spec without flows
  // builds no flow state at all, so pre-flow scenarios stay bit-identical.
  const bool fluid_engine = spec_.engine == EngineVersion::kV2;
  for (const FlowSpec& f : spec_.flows) {
    for (int c = 0; c < f.count; ++c) {
      // Under v2 a `flow tcp` entry is natively a fluid rate source (the
      // links run in fluid mode, so a packet-mode flow there pays
      // per-segment events against fluid queues); `mode=packet` opts back
      // into the packet-accurate Reno connection.
      if (fluid_engine && f.mode != FlowSpec::Mode::kPacket) {
        sim::FluidTcpConfig cfg;
        flows_.push_back(std::make_unique<sim::FluidTcpSource>(
            *sim_, *path_, fill_flow_config(f, cfg, cfg)));
      } else {
        tcp::SegmentFlowConfig cfg;
        flows_.push_back(std::make_unique<tcp::SegmentTcpFlow>(
            *sim_, *path_, fill_flow_config(f, cfg, cfg.tcp)));
      }
    }
  }

  const auto renewal_or_none = [](const HopDecl& h) {
    return h.traffic.model != TrafficModel::kOnOff && h.traffic.model != TrafficModel::kRamp;
  };
  if (spec_.engine == EngineVersion::kV1 && !spec_.impaired() && !spec_.has_flows() &&
      std::all_of(spec_.hops.begin(), spec_.hops.end(), renewal_or_none)) {
    std::vector<std::vector<sim::CrossTrafficSource*>> sources(traffic_.size());
    for (std::size_t i = 0; i < traffic_.size(); ++i) {
      if (const auto* agg = dynamic_cast<const sim::TrafficAggregate*>(traffic_[i].get())) {
        for (const auto& src : agg->sources()) sources[i].push_back(src.get());
      }
    }
    run_ahead_ =
        std::make_unique<sim::CrossTrafficRunAhead>(*sim_, *path_, std::move(sources));
  }
}

void ScenarioInstance::build_v1_traffic() {
  // v1 seed derivation: one fork per traffic-carrying hop, in hop order,
  // then per-source forks inside the generator. Hops without
  // traffic consume no randomness, so adding an unloaded hop leaves the
  // other hops' streams untouched.
  Rng rng{spec_.seed};
  for (std::size_t i = 0; i < spec_.hops.size(); ++i) {
    const TrafficSpec& t = spec_.hops[i].traffic;
    sim::Link& link = path_->link(i);
    const Rate mean = link.capacity() * t.utilization;
    switch (t.model) {
      case TrafficModel::kNone:
        traffic_.push_back(nullptr);
        break;
      case TrafficModel::kPoisson:
      case TrafficModel::kPareto:
      case TrafficModel::kConstant: {
        if (mean <= Rate::zero()) {
          traffic_.push_back(nullptr);
          break;
        }
        traffic_.push_back(std::make_unique<sim::TrafficAggregate>(
            *sim_, link, mean, t.sources, renewal_of(t.model), t.mix, rng.fork(),
            t.pareto_alpha));
        break;
      }
      case TrafficModel::kOnOff: {
        Rng hop_rng = rng.fork();
        const double n = static_cast<double>(t.sources);
        const sim::OnOffParams params = onoff_params(link, t);
        std::vector<std::unique_ptr<sim::TrafficGen>> members;
        members.reserve(static_cast<std::size_t>(t.sources));
        for (int s = 0; s < t.sources; ++s) {
          members.push_back(std::make_unique<sim::OnOffSource>(
              *sim_, link, mean / n, params, t.mix, hop_rng.fork()));
        }
        traffic_.push_back(std::make_unique<sim::GenGroup>(std::move(members)));
        break;
      }
      case TrafficModel::kRamp: {
        Rng hop_rng = rng.fork();
        const sim::RampParams params =
            ramp_params(link, t, static_cast<double>(t.sources));
        std::vector<std::unique_ptr<sim::TrafficGen>> members;
        members.reserve(static_cast<std::size_t>(t.sources));
        for (int s = 0; s < t.sources; ++s) {
          members.push_back(std::make_unique<sim::RampLoadSource>(
              *sim_, link, params, t.mix, hop_rng.fork()));
        }
        traffic_.push_back(std::make_unique<sim::GenGroup>(std::move(members)));
        break;
      }
    }
  }
}

void ScenarioInstance::build_v2_traffic() {
  // Every link runs in fluid mode under v2 — including unloaded ones, so a
  // probe or TCP packet costs one scheduled event per hop instead of two,
  // with packet-on-packet FIFO queueing still exact (Link::fluid_forward).
  for (std::size_t i = 0; i < path_->hop_count(); ++i) {
    path_->link(i).enable_fluid_mode();
  }
  // CounterRng streams are keyed (scenario seed, hop, source), so draws are
  // order-independent: unlike the v1 fork() chain, adding or removing a
  // hop's traffic never perturbs another hop's sequence.
  const auto stream_id = [](std::size_t hop, int source) {
    return (static_cast<std::uint64_t>(hop) << 20) |
           static_cast<std::uint64_t>(source);
  };
  for (std::size_t i = 0; i < spec_.hops.size(); ++i) {
    const TrafficSpec& t = spec_.hops[i].traffic;
    sim::Link& link = path_->link(i);
    const Rate mean = link.capacity() * t.utilization;
    switch (t.model) {
      case TrafficModel::kNone:
        traffic_.push_back(nullptr);
        break;
      case TrafficModel::kPoisson:
      case TrafficModel::kPareto:
      case TrafficModel::kConstant:
        // A renewal process offered at lambda is, in the fluid view,
        // exactly the constant rate lambda = u * C of the paper's Section
        // III-A model (fluid::FluidLink): zero events, zero draws. The
        // sources/pareto_alpha knobs only shape packet-scale burstiness,
        // which fluid service averages out by construction.
        if (mean <= Rate::zero()) {
          traffic_.push_back(nullptr);
        } else {
          traffic_.push_back(
              std::make_unique<sim::FluidConstantSource>(*sim_, link, mean));
        }
        break;
      case TrafficModel::kOnOff: {
        // Burst structure survives fluid service (it lives on timescales
        // the workload variable resolves), so each source keeps its own
        // ON/OFF process — as fluid rate segments.
        const double n = static_cast<double>(t.sources);
        const sim::OnOffParams params = onoff_params(link, t);
        std::vector<std::unique_ptr<sim::TrafficGen>> members;
        members.reserve(static_cast<std::size_t>(t.sources));
        for (int s = 0; s < t.sources; ++s) {
          members.push_back(std::make_unique<sim::FluidOnOffSource>(
              *sim_, link, mean / n, params,
              CounterRng{spec_.seed, stream_id(i, s)}));
        }
        traffic_.push_back(std::make_unique<sim::GenGroup>(std::move(members)));
        break;
      }
      case TrafficModel::kRamp: {
        // The ramp profile is deterministic in fluid form (v1's randomness
        // only jitters arrivals around it), and rate contributions add, so
        // one source carries the hop's whole aggregate.
        traffic_.push_back(std::make_unique<sim::FluidRampSource>(
            *sim_, link, ramp_params(link, t, 1.0)));
        break;
      }
    }
  }
}

ScenarioInstance::~ScenarioInstance() = default;

DataSize ScenarioInstance::flow_bytes_acked() const {
  DataSize total{};
  for (const auto& f : flows_) total += f->bytes_acked();
  return total;
}

void ScenarioInstance::start() {
  // Flows launch first so a start_s of zero begins exactly at traffic
  // start; their events interleave with cross traffic during the warmup.
  for (auto& f : flows_) f->launch();
  for (auto& t : traffic_) {
    if (t) t->start();
  }
  sim_->run_for(spec_.warmup);
}

}  // namespace pathload::scenario
