// Hot-path microbenchmarks (google-benchmark): the simulator's event loop
// and the SLoPS analysis pipeline. These bound how much real time a
// simulated experiment costs and how much CPU the live receiver spends per
// stream.

#include <benchmark/benchmark.h>

#include <cstring>
#include <string>
#include <string_view>
#include <vector>

#include "baselines/btc.hpp"
#include "baselines/estimators.hpp"
#include "bench/common.hpp"
#include "core/session.hpp"
#include "core/stream.hpp"
#include "core/trend.hpp"
#include "fluid/fluid_model.hpp"
#include "scenario/experiment.hpp"
#include "scenario/registry.hpp"
#include "scenario/sim_channel.hpp"
#include "scenario/spec.hpp"
#include "scenario/sweep_runner.hpp"
#include "sim/fluid_traffic.hpp"
#include "sim/link.hpp"
#include "sim/simulator.hpp"
#include "sim/traffic.hpp"
#include "tcp/reno.hpp"
#include "util/alias_sampler.hpp"
#include "util/rng.hpp"

using namespace pathload;

namespace {

void BM_EventScheduleRun(benchmark::State& state) {
  sim::Simulator sim;
  std::uint64_t sink = 0;
  for (auto _ : state) {
    for (int i = 0; i < 1000; ++i) {
      sim.schedule_in(Duration::microseconds(i), [&sink] { ++sink; });
    }
    sim.run_all();
  }
  benchmark::DoNotOptimize(sink);
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_EventScheduleRun);

void BM_LinkForwarding(benchmark::State& state) {
  sim::Simulator sim;
  sim::Link link{sim, "l", Rate::mbps(1000), Duration::zero(),
                 DataSize::bytes(10'000'000)};
  sim::Packet p;
  p.size_bytes = 500;
  for (auto _ : state) {
    for (int i = 0; i < 1000; ++i) link.handle(p);
    sim.run_all();
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_LinkForwarding);

void BM_TimerRescheduleInPlace(benchmark::State& state) {
  // Cost of one period of a self-re-arming timer: pop + fire + re-arm with
  // no closure construction and no allocation. This is the inner loop of
  // every periodic source (cross traffic, link drain, probers).
  sim::Simulator sim;
  std::uint64_t fires = 0;
  sim::Simulator::TimerHandle timer = sim.make_timer([&] {
    ++fires;
    timer.schedule_in(Duration::microseconds(100));
  });
  timer.schedule_in(Duration::microseconds(100));
  for (auto _ : state) {
    for (int i = 0; i < 1000; ++i) sim.run_next();
  }
  benchmark::DoNotOptimize(fires);
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_TimerRescheduleInPlace);

void BM_AliasSamplerPaperMix(benchmark::State& state) {
  // O(1) weighted packet-size draw (one uniform, no allocation); the seed
  // engine built a weights vector per call.
  const auto mix = sim::PacketSizeMix::paper_mix();
  Rng rng{1};
  std::int64_t sink = 0;
  for (auto _ : state) {
    sink += mix.sample(rng);
  }
  benchmark::DoNotOptimize(sink);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_AliasSamplerPaperMix);

void BM_SegmentFlowRouting(benchmark::State& state) {
  // Segment attach/detach plus per-packet routing through a 4-hop chain
  // whose middle segment [1, 2] hosts the flow: bounds the junction
  // exit-hop check and the segment demux against the plain end-to-end
  // forwarding path (BM_LinkForwarding is the 1-hop baseline).
  sim::Simulator sim;
  sim::Path path{sim, std::vector<sim::HopSpec>(
                          4, sim::HopSpec{Rate::mbps(1000), Duration::zero(),
                                          DataSize::bytes(10'000'000)})};
  struct Sink final : sim::PacketHandler {
    std::uint64_t count{0};
    void handle(const sim::Packet&) override { ++count; }
  } sink;
  const sim::Segment seg{1, 2};
  for (auto _ : state) {
    const std::uint32_t flow = sim.next_flow_id();
    path.segment_exit(seg).register_flow(flow, &sink);
    sim::Packet p;
    p.flow = flow;
    p.kind = sim::PacketKind::kTcpData;
    p.size_bytes = 500;
    p.transit = true;
    p.exit_hop = path.exit_hop_value(seg);
    for (int i = 0; i < 1000; ++i) path.segment_entry(seg).handle(p);
    sim.run_all();
    path.segment_exit(seg).unregister_flow(flow);
  }
  benchmark::DoNotOptimize(sink.count);
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_SegmentFlowRouting);

void BM_CrossTrafficSecond(benchmark::State& state) {
  // Cost of one simulated second of 10-source Pareto cross traffic at
  // 6 Mb/s (the Fig. 5 operating point).
  for (auto _ : state) {
    sim::Simulator sim;
    sim::Link link{sim, "l", Rate::mbps(10), Duration::zero(),
                   DataSize::bytes(1'000'000)};
    sim::TrafficAggregate agg{sim,  link, Rate::mbps(6), 10,
                              sim::Interarrival::kPareto,
                              sim::PacketSizeMix::paper_mix(), Rng{1}};
    agg.start();
    sim.run_for(Duration::seconds(1));
    benchmark::DoNotOptimize(link.bytes_forwarded());
  }
}
BENCHMARK(BM_CrossTrafficSecond);

void BM_CrossTrafficSecondV2(benchmark::State& state) {
  // The same operating point under the engine-v2 mapping: renewal cross
  // traffic collapses to a constant fluid rate on a fluid-mode link, so a
  // simulated second costs zero packet events. Paired with
  // BM_CrossTrafficSecond this is the A/B that tools/bench_ab.sh records.
  for (auto _ : state) {
    sim::Simulator sim;
    sim::Link link{sim, "l", Rate::mbps(10), Duration::zero(),
                   DataSize::bytes(1'000'000)};
    link.enable_fluid_mode();
    sim::FluidConstantSource src{sim, link, Rate::mbps(6)};
    src.start();
    sim.run_for(Duration::seconds(1));
    benchmark::DoNotOptimize(link.bytes_forwarded());
  }
}
BENCHMARK(BM_CrossTrafficSecondV2);

void BM_SimSecondsPerSec(benchmark::State& state) {
  // Headline engine metric: simulated seconds per wall-clock second on the
  // full paper-path scenario (3 hops, 10 Pareto sources each, utilization
  // accounting live). Arg 0 = engine v1, Arg 1 = engine v2; each iteration
  // simulates warmup (2 s, run by start()) + 1 s, so items/s x 3 =
  // simulated-seconds/s.
  scenario::ScenarioSpec spec = scenario::Registry::builtin().at("paper-path");
  if (state.range(0) != 0) spec.engine = scenario::EngineVersion::kV2;
  for (auto _ : state) {
    scenario::ScenarioInstance inst{spec};
    inst.start();
    inst.simulator().run_for(Duration::seconds(1));
    benchmark::DoNotOptimize(inst.tight_link().bytes_forwarded());
  }
  state.SetItemsProcessed(state.iterations() * 3);
}
BENCHMARK(BM_SimSecondsPerSec)->Arg(0)->Arg(1);

scenario::ScenarioSpec v2_spec(std::string_view preset) {
  scenario::ScenarioSpec spec = scenario::Registry::builtin().at(preset);
  spec.engine = scenario::EngineVersion::kV2;
  return spec;
}

// True if a seed-77 pathload session on `spec` is byte-identical with burst
// batching off and on.
bool batching_invisible(const scenario::ScenarioSpec& spec) {
  auto run = [&](bool batching) {
    scenario::SimProbeChannel::set_burst_batching(batching);
    core::PathloadSession pathload;
    return scenario::run_estimator_once(spec, pathload, 77);
  };
  const auto off = run(false);
  const auto on = run(true);
  return off.low.bits_per_sec() == on.low.bits_per_sec() &&
         off.high.bits_per_sec() == on.high.bits_per_sec() &&
         off.elapsed.nanos() == on.elapsed.nanos() &&
         off.iterations.size() == on.iterations.size();
}

void BM_ProbeFleetSecond(benchmark::State& state) {
  // A full v2 pathload session (probe fleets over fluid links) on
  // paper-path with burst batching off (arg 0) vs on (arg 1), and on the
  // impaired lossy-tight with batching on (arg 2): the A/B for the
  // closed-form hop-by-hop burst pass. Before measuring, pin the contract
  // the speedup rides on: batched and unbatched must be byte-identical on
  // the seed-77 session of both presets (bench_smoke_engine_v2 runs this
  // in the default CI tier).
  static const bool identical = batching_invisible(v2_spec("paper-path")) &&
                                batching_invisible(v2_spec("lossy-tight"));
  if (!identical) {
    state.SkipWithError(
        "batched v2 probe path is not byte-identical to unbatched on "
        "paper-path or lossy-tight seed 77");
    for (auto _ : state) {
    }
    return;
  }
  const scenario::ScenarioSpec spec =
      v2_spec(state.range(0) == 2 ? "lossy-tight" : "paper-path");
  scenario::SimProbeChannel::set_burst_batching(state.range(0) != 0);
  for (auto _ : state) {
    core::PathloadSession pathload;
    const auto res = scenario::run_estimator_once(spec, pathload, 77);
    benchmark::DoNotOptimize(res.iterations.data());
  }
  scenario::SimProbeChannel::set_burst_batching(true);
}
BENCHMARK(BM_ProbeFleetSecond)->Arg(0)->Arg(1)->Arg(2);

void BM_TcpScenarioSecond(benchmark::State& state) {
  // One simulated second (plus the 2 s warmup run by start()) of the
  // tcp-bg-greedy scenario under engine v2, with the TCP flow on the
  // packet backend (arg 0, `mode=packet`) vs the native fluid AIMD
  // backend (arg 1). This is the Amdahl wall PR 9 knocks down: with
  // cross traffic already fluid, the greedy flow's per-packet events are
  // the remaining cost.
  scenario::ScenarioSpec spec =
      scenario::Registry::builtin().at("tcp-bg-greedy");
  spec.engine = scenario::EngineVersion::kV2;
  if (state.range(0) == 0) {
    for (auto& f : spec.flows) f.mode = scenario::FlowSpec::Mode::kPacket;
  }
  for (auto _ : state) {
    scenario::ScenarioInstance inst{spec};
    inst.start();
    inst.simulator().run_for(Duration::seconds(1));
    benchmark::DoNotOptimize(inst.flow_bytes_acked());
  }
  state.SetItemsProcessed(state.iterations() * 3);
}
BENCHMARK(BM_TcpScenarioSecond)->Arg(0)->Arg(1);

void BM_BulkTransferSecond(benchmark::State& state) {
  // One simulated second of the greedy BTC connection on btc-path under
  // engine v2 (the tcp-bulk-v2 perfbench workload's dominant cost), past
  // slow start: cross traffic and the background flows are fluid, so the
  // connection's data segments, ACKs and RTO re-arms are nearly all of
  // the events.
  scenario::ScenarioSpec spec = scenario::Registry::builtin().at("btc-path");
  spec.engine = scenario::EngineVersion::kV2;
  scenario::ScenarioInstance inst{spec};
  inst.start();
  const baselines::BtcConfig btc;
  tcp::TcpConnection conn{inst.simulator(), inst.path(), btc.tcp, btc.reverse_delay};
  conn.sender().start();
  inst.simulator().run_for(Duration::seconds(10));
  for (auto _ : state) {
    inst.simulator().run_for(Duration::seconds(1));
  }
  benchmark::DoNotOptimize(conn.sender().bytes_acked());
}
BENCHMARK(BM_BulkTransferSecond);

void BM_CcDuelSecond(benchmark::State& state) {
  // One simulated second of the tcp-vs-probe-duel scenario under engine
  // v2 with the competing flow on each congestion policy: reno (arg 0),
  // cubic (arg 1), bbr (arg 2). The A/B rows in BENCH_engine.json track
  // what the pluggable-CC seam and the model-based policies cost relative
  // to the frozen reno epoch body.
  static const char* kCc[] = {"reno", "cubic", "bbr"};
  scenario::ScenarioSpec spec =
      scenario::Registry::builtin().at("tcp-vs-probe-duel");
  spec.engine = scenario::EngineVersion::kV2;
  for (auto& f : spec.flows) f.cc = kCc[state.range(0)];
  for (auto _ : state) {
    scenario::ScenarioInstance inst{spec};
    inst.start();
    inst.simulator().run_for(Duration::seconds(1));
    benchmark::DoNotOptimize(inst.flow_bytes_acked());
  }
  state.SetItemsProcessed(state.iterations() * 3);
}
BENCHMARK(BM_CcDuelSecond)->Arg(0)->Arg(1)->Arg(2);

std::vector<double> synthetic_owds(int k) {
  Rng rng{7};
  std::vector<double> owds(static_cast<std::size_t>(k));
  for (int i = 0; i < k; ++i) {
    owds[static_cast<std::size_t>(i)] = 0.01 * i + rng.uniform(-1.0, 1.0);
  }
  return owds;
}

void BM_MedianGroups(benchmark::State& state) {
  const auto owds = synthetic_owds(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::median_groups(owds));
  }
}
BENCHMARK(BM_MedianGroups)->Arg(100)->Arg(1000);

void BM_TrendAnalysis(benchmark::State& state) {
  const auto owds = synthetic_owds(static_cast<int>(state.range(0)));
  const core::TrendConfig cfg;
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::compute_trend(owds, cfg));
  }
}
BENCHMARK(BM_TrendAnalysis)->Arg(100)->Arg(1000);

void BM_MakeStreamSpec(benchmark::State& state) {
  const core::PathloadConfig cfg;
  double r = 1.0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::make_stream_spec(Rate::mbps(r), cfg));
    r = r < 100.0 ? r + 1.3 : 1.0;
  }
}
BENCHMARK(BM_MakeStreamSpec);

void BM_FluidOwdSeries(benchmark::State& state) {
  const fluid::FluidPath path{{
      {Rate::mbps(20), Rate::mbps(12)},
      {Rate::mbps(10), Rate::mbps(6)},
      {Rate::mbps(20), Rate::mbps(12)},
  }};
  for (auto _ : state) {
    benchmark::DoNotOptimize(path.owd_series(Rate::mbps(6), DataSize::bytes(800), 100));
  }
}
BENCHMARK(BM_FluidOwdSeries);

void BM_SweepRunner(benchmark::State& state) {
  // Four repeated pathload measurements sharded over state.range(0)
  // threads; results are byte-identical across thread counts, only the
  // wall clock changes.
  scenario::PaperPathConfig path;
  path.hops = 1;
  path.tight_capacity = Rate::mbps(10);
  path.tight_utilization = 0.5;
  auto spec = scenario::ScenarioSpec::from_paper("sweep", "", path);
  spec.warmup = Duration::milliseconds(200);
  const scenario::MatrixEstimator pathload = bench::pathload_column();
  scenario::SweepRunner runner{static_cast<int>(state.range(0))};
  for (auto _ : state) {
    const auto cells =
        scenario::run_matrix({pathload}, {spec}, {}, 4, /*seed0=*/7, runner);
    benchmark::DoNotOptimize(cells.data());
  }
  state.SetItemsProcessed(state.iterations() * 4);
}
BENCHMARK(BM_SweepRunner)->Arg(1)->Arg(4)->Unit(benchmark::kMillisecond)
    ->MeasureProcessCPUTime()->UseRealTime();

void BM_EstimatorMatrix(benchmark::State& state) {
  // The comparison harness end-to-end: a tiny 2-estimator x 2-scenario
  // matrix (fast probe-stream tools, short warmups, 1 run per cell). This
  // bounds the fixed cost of "compare anything against anything" — cell
  // planning, per-run instantiation, channel metering, report reduction —
  // and its ctest wrapper (bench_smoke_estimator_matrix) records rows in
  // BENCH_micro.json so a harness slowdown fails loudly.
  const auto& ereg = pathload::baselines::builtin_estimators();
  const std::vector<scenario::MatrixEstimator> estimators = {
      scenario::MatrixEstimator::from_registry(ereg, "cprobe",
                                               "trains=2, train_length=30"),
      scenario::MatrixEstimator::from_registry(ereg, "pktpair", "pairs=10"),
  };
  scenario::ScenarioSpec paper = scenario::Registry::builtin().at("paper-path");
  paper.warmup = Duration::milliseconds(200);
  scenario::ScenarioSpec tight =
      scenario::Registry::builtin().at("tight-not-narrow");
  tight.warmup = Duration::milliseconds(200);
  scenario::SweepRunner runner{static_cast<int>(state.range(0))};
  for (auto _ : state) {
    const auto cells = scenario::run_matrix(estimators, {paper, tight}, {},
                                            /*runs=*/1, /*seed0=*/11, runner);
    benchmark::DoNotOptimize(cells.data());
  }
  state.SetItemsProcessed(state.iterations() * 4);  // cells per matrix
}
BENCHMARK(BM_EstimatorMatrix)->Arg(1)->Arg(2)->Unit(benchmark::kMillisecond)
    ->MeasureProcessCPUTime()->UseRealTime();

void BM_EstimatorMatrixNewTools(benchmark::State& state) {
  // The PR 5 estimators end-to-end on the harness, one run per cell on a
  // short-warmup paper-path: spruce's Poisson-scheduled pairs, igi's
  // turning-point search, pathchirp's gapped (non-periodic) streams.
  // Bounds the cost of the gap-model and chirp probing loops the same way
  // BM_EstimatorMatrix bounds the classic tools; the ctest wrapper
  // bench_smoke_new_estimators records rows so a regression fails loudly.
  const auto& ereg = pathload::baselines::builtin_estimators();
  const std::vector<scenario::MatrixEstimator> estimators = {
      scenario::MatrixEstimator::from_registry(ereg, "spruce",
                                               "capacity_mbps=10, pairs=25"),
      scenario::MatrixEstimator::from_registry(ereg, "igi", "capacity_mbps=10"),
      scenario::MatrixEstimator::from_registry(ereg, "pathchirp", "chirps=4"),
  };
  scenario::ScenarioSpec paper = scenario::Registry::builtin().at("paper-path");
  paper.warmup = Duration::milliseconds(200);
  scenario::SweepRunner runner{static_cast<int>(state.range(0))};
  for (auto _ : state) {
    const auto cells = scenario::run_matrix(estimators, {paper}, {},
                                            /*runs=*/1, /*seed0=*/13, runner);
    benchmark::DoNotOptimize(cells.data());
  }
  state.SetItemsProcessed(state.iterations() * 3);  // cells per matrix
}
BENCHMARK(BM_EstimatorMatrixNewTools)->Arg(1)->Arg(2)->Unit(benchmark::kMillisecond)
    ->MeasureProcessCPUTime()->UseRealTime();

}  // namespace

// BENCHMARK_MAIN, plus a default JSON sink: unless the caller passes its
// own --benchmark_out, results also land in BENCH_micro.json so perf runs
// leave a machine-readable record (bench_smoke relies on this).
int main(int argc, char** argv) {
  std::vector<char*> args{argv, argv + argc};
  std::string out_flag = "--benchmark_out=BENCH_micro.json";
  std::string fmt_flag = "--benchmark_out_format=json";
  bool has_out = false;
  bool has_fmt = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--benchmark_out=", 16) == 0) has_out = true;
    if (std::strncmp(argv[i], "--benchmark_out_format=", 23) == 0) has_fmt = true;
  }
  // Inject the default only when the caller expressed no output preference
  // at all; a caller-chosen format must never end up inside a file named
  // .json, and a caller-chosen file keeps its own format.
  if (!has_out && !has_fmt) {
    args.push_back(out_flag.data());
    args.push_back(fmt_flag.data());
  }
  int ac = static_cast<int>(args.size());
  benchmark::Initialize(&ac, args.data());
  if (benchmark::ReportUnrecognizedArguments(ac, args.data())) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
