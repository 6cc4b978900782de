#include "scenario/registry.hpp"

namespace pathload::scenario {

void Registry::add(ScenarioSpec spec) {
  spec.validate();
  if (find(spec.name) != nullptr) {
    throw SpecError{"registry already has a preset named '" + spec.name + "'"};
  }
  entries_.push_back(std::move(spec));
}

const ScenarioSpec* Registry::find(std::string_view name) const {
  for (const auto& e : entries_) {
    if (e.name == name) return &e;
  }
  return nullptr;
}

const ScenarioSpec& Registry::at(std::string_view name) const {
  if (const ScenarioSpec* s = find(name)) return *s;
  std::string msg = "unknown preset '" + std::string{name} + "'; known presets:";
  for (const auto& e : entries_) msg += " " + e.name;
  throw SpecError{msg};
}

namespace {

Registry make_builtin() {
  Registry reg;
  // Every paper-form preset warms up for 1 s, the figure benches' setting,
  // so a `scenario_runner` sweep reproduces the figures byte-for-byte.
  const auto add_paper = [&reg](const char* name, const char* description,
                                const PaperPathConfig& cfg) {
    ScenarioSpec spec = ScenarioSpec::from_paper(name, description, cfg);
    spec.warmup = Duration::seconds(1);
    reg.add(std::move(spec));
  };

  // The paper's Fig. 4 simulation topology with its Section V-A defaults:
  // 3 hops, tight middle link Ct = 10 Mb/s at ut = 0.6 (A = 4 Mb/s),
  // beta = 2, Pareto(1.9) cross traffic from 10 sources per hop.
  {
    PaperPathConfig cfg;
    add_paper("paper-path",
              "Fig. 4 topology: 3 hops, tight 10 Mb/s middle link at 60% load, "
              "beta = 2, Pareto(1.9) cross traffic",
              cfg);
  }

  // Same path with smooth (Poisson) cross traffic — the other half of every
  // smooth-vs-bursty comparison in the paper (Figs. 5, 11).
  {
    PaperPathConfig cfg;
    cfg.model = sim::Interarrival::kExponential;
    add_paper("paper-path-poisson",
              "Fig. 4 topology with Poisson (smooth) cross traffic",
              cfg);
  }

  // Fig. 11's access path: a single 12.4 Mb/s hop (the paper's
  // Univ-Crete-like link) with Pareto(1.9) cross traffic from 10 sources.
  // The bench sweeps tight_utilization and seed per point on top of this
  // shared shape; the preset's 60% load is the nominal mid-range point.
  {
    PaperPathConfig cfg;
    cfg.hops = 1;
    cfg.tight_capacity = Rate::mbps(12.4);
    add_paper("fig11-access",
              "Fig. 11 path: single 12.4 Mb/s hop, Pareto(1.9) cross traffic "
              "from 10 sources",
              cfg);
  }

  // Fig. 12's three statistical-multiplexing paths: same ~65% utilization,
  // very different capacity / source-count products (the paper's Abilene,
  // Univ-Crete, and Univ-Pireaus tight links). The bench draws the exact
  // utilization in 60-70% per point.
  {
    PaperPathConfig cfg;
    cfg.hops = 1;
    cfg.tight_capacity = Rate::mbps(155);
    cfg.tight_utilization = 0.65;
    cfg.sources_per_link = 120;
    add_paper("fig12-abilene",
              "Fig. 12 path A: 155 Mb/s hop, 120 sources (high multiplexing)",
              cfg);
  }
  {
    PaperPathConfig cfg;
    cfg.hops = 1;
    cfg.tight_capacity = Rate::mbps(12.4);
    cfg.tight_utilization = 0.65;
    cfg.sources_per_link = 24;
    add_paper("fig12-crete",
              "Fig. 12 path B: 12.4 Mb/s hop, 24 sources (medium multiplexing)",
              cfg);
  }
  {
    PaperPathConfig cfg;
    cfg.hops = 1;
    cfg.tight_capacity = Rate::mbps(6.1);
    cfg.tight_utilization = 0.65;
    cfg.sources_per_link = 6;
    add_paper("fig12-pireaus",
              "Fig. 12 path C: 6.1 Mb/s hop, 6 sources (low multiplexing)",
              cfg);
  }

  // Tight link != narrow link (Section II): the first hop has the smallest
  // capacity (8 Mb/s, narrow) but is nearly idle; the middle 20 Mb/s hop
  // carries 80% load and is the tight link (A = 4 Mb/s). Capacity-measuring
  // tools report 8; the avail-bw answer is 4.
  reg.add_text(R"(
    name = tight-not-narrow
    description = narrow 8 Mb/s first hop nearly idle; tight link is the loaded 20 Mb/s middle hop (A = 4 Mb/s)
    hops = 3
    hop.0.capacity_mbps = 8
    hop.0.delay_ms = 10
    hop.0.traffic.model = poisson
    hop.0.traffic.utilization = 0.1
    hop.1.capacity_mbps = 20
    hop.1.delay_ms = 20
    hop.1.traffic.model = pareto
    hop.1.traffic.utilization = 0.8
    hop.2.capacity_mbps = 40
    hop.2.delay_ms = 20
    hop.2.traffic.model = poisson
    hop.2.traffic.utilization = 0.3
  )");

  // A 5-hop path with heterogeneous capacities, latencies, multiplexing
  // degrees, and traffic models per hop — the hop-heterogeneity axis the
  // comparative-evaluation literature shows estimators are sensitive to.
  reg.add_text(R"(
    name = hetero-5hop
    description = 5 heterogeneous hops (100/34/45/10/155 Mb/s, mixed models); tight 10 Mb/s hop at 60% (A = 4 Mb/s)
    hops = 5
    hop.0.capacity_mbps = 100
    hop.0.delay_ms = 2
    hop.0.traffic.model = poisson
    hop.0.traffic.utilization = 0.3
    hop.0.traffic.sources = 30
    hop.1.capacity_mbps = 34
    hop.1.delay_ms = 8
    hop.1.traffic.model = pareto
    hop.1.traffic.utilization = 0.5
    hop.2.capacity_mbps = 45
    hop.2.delay_ms = 25
    hop.2.traffic.model = constant
    hop.2.traffic.utilization = 0.4
    hop.2.traffic.sources = 4
    hop.3.capacity_mbps = 10
    hop.3.delay_ms = 5
    hop.3.traffic.model = pareto
    hop.3.traffic.utilization = 0.6
    hop.4.capacity_mbps = 155
    hop.4.delay_ms = 10
    hop.4.traffic.model = poisson
    hop.4.traffic.utilization = 0.2
    hop.4.traffic.sources = 50
  )");

  // The paper path's shape, but the tight link's load arrives as heavy
  // on/off bursts (Pareto burst sizes) instead of a renewal process: the
  // short-timescale variability stress case.
  reg.add_text(R"(
    name = bursty-tight
    description = paper-path shape but the tight link's 60% load arrives in Pareto-sized on/off bursts at 95% peak
    hops = 3
    hop.0.capacity_mbps = 20
    hop.0.delay_ms = 17
    hop.0.traffic.model = poisson
    hop.0.traffic.utilization = 0.6
    hop.1.capacity_mbps = 10
    hop.1.delay_ms = 17
    hop.1.traffic.model = onoff
    hop.1.traffic.utilization = 0.6
    hop.1.traffic.peak_utilization = 0.95
    hop.1.traffic.mean_burst_kb = 30
    hop.1.traffic.burst_alpha = 1.5
    hop.2.capacity_mbps = 20
    hop.2.delay_ms = 16
    hop.2.traffic.model = poisson
    hop.2.traffic.utilization = 0.6
  )");

  // Non-stationary load: the tight link steps from 30% to 75% utilization
  // 15 s into the run (A drops 7 -> 2.5 Mb/s), the Section VI dynamics
  // question — does the estimate track the change?
  reg.add_text(R"(
    name = load-step
    description = tight 10 Mb/s link steps from 30% to 75% load at t = 15 s (A: 7 -> 2.5 Mb/s)
    hops = 3
    hop.0.capacity_mbps = 30
    hop.0.delay_ms = 17
    hop.0.traffic.model = poisson
    hop.0.traffic.utilization = 0.2
    hop.1.capacity_mbps = 10
    hop.1.delay_ms = 17
    hop.1.traffic.model = ramp
    hop.1.traffic.utilization = 0.3
    hop.1.traffic.end_utilization = 0.75
    hop.1.traffic.ramp_start_s = 15
    hop.1.traffic.ramp_end_s = 15
    hop.2.capacity_mbps = 30
    hop.2.delay_ms = 16
    hop.2.traffic.model = poisson
    hop.2.traffic.utilization = 0.2
  )");

  // Heterogeneous per-hop queue depths: the tight middle link is deeply
  // buffered (it can absorb a long SLoPS stream without loss) while the
  // outer hops have shallow buffers that clip bursts — estimators that
  // equate queueing delay with congestion misread the shallow hops.
  reg.add_text(R"(
    name = asym-buffers
    description = paper-path shape with asymmetric buffers: 40 ms shallow edges around a deeply buffered (1 s) tight link
    hops = 3
    hop.0.capacity_mbps = 20
    hop.0.delay_ms = 17
    hop.0.buffer_ms = 40
    hop.0.traffic.model = poisson
    hop.0.traffic.utilization = 0.6
    hop.1.capacity_mbps = 10
    hop.1.delay_ms = 17
    hop.1.buffer_ms = 1000
    hop.1.traffic.model = pareto
    hop.1.traffic.utilization = 0.6
    hop.2.capacity_mbps = 20
    hop.2.delay_ms = 16
    hop.2.buffer_ms = 40
    hop.2.traffic.model = poisson
    hop.2.traffic.utilization = 0.6
  )");

  // Many near-tight links: an 8-hop ladder whose every hop's avail-bw sits
  // within ~12% of the tight link's (the beta -> 1 stress of Fig. 7,
  // pushed to a long path). Multiple links imprint OWD trends, so SLoPS
  // underestimates — the scenario quantifies by how much.
  reg.add_text(R"(
    name = tight-ladder-8hop
    description = 8 hops all near-tight (avail-bw 4.0-4.5 Mb/s per hop, tight first hop A = 4 Mb/s)
    hops = 8
    hop.0.capacity_mbps = 10
    hop.0.delay_ms = 6
    hop.0.traffic.model = pareto
    hop.0.traffic.utilization = 0.6
    hop.1.capacity_mbps = 10.4
    hop.1.delay_ms = 6
    hop.1.traffic.model = poisson
    hop.1.traffic.utilization = 0.6
    hop.2.capacity_mbps = 10.8
    hop.2.delay_ms = 6
    hop.2.traffic.model = pareto
    hop.2.traffic.utilization = 0.6
    hop.3.capacity_mbps = 10.2
    hop.3.delay_ms = 6
    hop.3.traffic.model = poisson
    hop.3.traffic.utilization = 0.6
    hop.4.capacity_mbps = 11
    hop.4.delay_ms = 6
    hop.4.traffic.model = pareto
    hop.4.traffic.utilization = 0.6
    hop.5.capacity_mbps = 10.6
    hop.5.delay_ms = 6
    hop.5.traffic.model = poisson
    hop.5.traffic.utilization = 0.6
    hop.6.capacity_mbps = 11.2
    hop.6.delay_ms = 6
    hop.6.traffic.model = pareto
    hop.6.traffic.utilization = 0.6
    hop.7.capacity_mbps = 10.9
    hop.7.delay_ms = 6
    hop.7.traffic.model = poisson
    hop.7.traffic.utilization = 0.6
  )");

  // Ramp-up-then-down: the tight link's load climbs 30% -> 80% over
  // t = 10..15 s (A: 7 -> 2 Mb/s), holds, then returns to 30% over
  // t = 25..30 s — the paper's Section VI dynamics question in wave form:
  // does the estimate track down *and* back up?
  reg.add_text(R"(
    name = wave-load
    description = tight 10 Mb/s link load waves 30% -> 80% -> 30% (ramps at t = 10-15 s and 25-30 s)
    hops = 3
    hop.0.capacity_mbps = 30
    hop.0.delay_ms = 17
    hop.0.traffic.model = poisson
    hop.0.traffic.utilization = 0.2
    hop.1.capacity_mbps = 10
    hop.1.delay_ms = 17
    hop.1.traffic.model = ramp
    hop.1.traffic.utilization = 0.3
    hop.1.traffic.end_utilization = 0.8
    hop.1.traffic.ramp_start_s = 10
    hop.1.traffic.ramp_end_s = 15
    hop.1.traffic.ramp_back_start_s = 25
    hop.1.traffic.ramp_back_end_s = 30
    hop.2.capacity_mbps = 30
    hop.2.delay_ms = 16
    hop.2.traffic.model = poisson
    hop.2.traffic.utilization = 0.2
  )");

  // Responsive background load: the paper-path shape at a light open-loop
  // load plus one greedy end-to-end TCP flow. The flow expands into
  // whatever the open-loop traffic leaves free, so the probe is no longer
  // measuring a fixed A — it is competing with an elastic flow (the
  // comparative-evaluation literature's "responsive cross traffic" axis).
  reg.add_text(R"(
    name = tcp-bg-greedy
    description = paper-path shape at 30% open-loop load plus one greedy end-to-end TCP flow (elastic competitor)
    hops = 3
    hop.0.capacity_mbps = 20
    hop.0.delay_ms = 17
    hop.0.traffic.model = poisson
    hop.0.traffic.utilization = 0.3
    hop.1.capacity_mbps = 10
    hop.1.delay_ms = 17
    hop.1.traffic.model = pareto
    hop.1.traffic.utilization = 0.3
    hop.2.capacity_mbps = 20
    hop.2.delay_ms = 16
    hop.2.traffic.model = poisson
    hop.2.traffic.utilization = 0.3
    flow tcp hops=0-2
  )");

  // Window-limited background TCP: three rwnd-capped flows whose throughput
  // is bounded by rwnd/RTT (~1 Mb/s each at the ~100 ms base RTT) but still
  // *responsive* — RTT inflation and losses push them back, the mechanism
  // behind BTC's bandwidth stealing in Section VII.
  reg.add_text(R"(
    name = tcp-bg-rwnd-capped
    description = paper-path shape at 30% open-loop load plus 3 rwnd-capped TCP flows (~1 Mb/s each at base RTT)
    hops = 3
    hop.0.capacity_mbps = 20
    hop.0.delay_ms = 17
    hop.0.traffic.model = poisson
    hop.0.traffic.utilization = 0.3
    hop.1.capacity_mbps = 10
    hop.1.delay_ms = 17
    hop.1.traffic.model = pareto
    hop.1.traffic.utilization = 0.3
    hop.2.capacity_mbps = 20
    hop.2.delay_ms = 16
    hop.2.traffic.model = poisson
    hop.2.traffic.utilization = 0.3
    flow tcp hops=0-2 rwnd=8 count=3
  )");

  // A greedy TCP flow that only *partially* overlaps the measured path
  // (segment 1-2: it enters just before the tight link), cycling 5 s ON /
  // 5 s OFF with a fresh connection (slow start) each burst. The probe and
  // the flow duel for the tight link: avail-bw collapses while the flow is
  // ON and recovers while it is OFF.
  reg.add_text(R"(
    name = tcp-vs-probe-duel
    description = greedy TCP on segment 1-2 cycling 5 s on / 5 s off against the prober (fresh connection each burst)
    hops = 3
    hop.0.capacity_mbps = 30
    hop.0.delay_ms = 17
    hop.0.traffic.model = poisson
    hop.0.traffic.utilization = 0.2
    hop.1.capacity_mbps = 10
    hop.1.delay_ms = 17
    hop.1.traffic.model = pareto
    hop.1.traffic.utilization = 0.3
    hop.2.capacity_mbps = 30
    hop.2.delay_ms = 16
    hop.2.traffic.model = poisson
    hop.2.traffic.utilization = 0.2
    flow tcp hops=1-2 on_s=5 off_s=5
  )");

  // The same duel with the competitor running the model-based policy: BBR
  // paces to its delivery-rate model instead of filling the drop-tail
  // buffer, so the probe sees less self-inflicted queueing from the flow —
  // the estimator-vs-BBR matchup the delivery-rate sampler opens up.
  reg.add_text(R"(
    name = bbr-vs-probe-duel
    description = the tcp-vs-probe-duel competitor switched to cc=bbr (model-based, delivery-rate driven)
    hops = 3
    hop.0.capacity_mbps = 30
    hop.0.delay_ms = 17
    hop.0.traffic.model = poisson
    hop.0.traffic.utilization = 0.2
    hop.1.capacity_mbps = 10
    hop.1.delay_ms = 17
    hop.1.traffic.model = pareto
    hop.1.traffic.utilization = 0.3
    hop.2.capacity_mbps = 30
    hop.2.delay_ms = 16
    hop.2.traffic.model = poisson
    hop.2.traffic.utilization = 0.2
    flow tcp hops=1-2 on_s=5 off_s=5 cc=bbr
  )");

  // The Section VII/VIII experiment path (Figs. 15-18): a single 8.2 Mb/s
  // bottleneck with ~200 ms quiescent RTT and a 180 ms drop-tail buffer,
  // mirroring the paper's Univ-Ioannina -> Univ-Delaware path. Background
  // is 5 window-limited TCP flows (~0.7 Mb/s each at the base RTT — the
  // bandwidth a BTC connection steals via RTT inflation and losses) plus
  // ~0.7 Mb/s of open-loop Pareto traffic. bench/fig15_16_btc and
  // bench/fig17_18_intrusiveness instantiate this preset.
  reg.add_text(R"(
    name = btc-path
    description = Figs. 15-18 path: 8.2 Mb/s bottleneck, 180 ms buffer, 5 rwnd-capped TCP flows + light UDP
    warmup_s = 5
    hops = 1
    hop.0.capacity_mbps = 8.2
    hop.0.delay_ms = 100
    hop.0.buffer_ms = 180
    hop.0.traffic.model = pareto
    # ~0.7 Mb/s of 8.2; 12 significant digits so the value survives the
    # to_text (%.12g) round-trip bit-exactly.
    hop.0.traffic.utilization = 0.085365853659
    hop.0.traffic.sources = 5
    flow tcp hops=0-0 rwnd=12 count=5 reverse_ms=100
  )");

  // --- Impaired presets (fault-injection matrix) -------------------------
  // Random (non-congestive) loss at the tight link: the condition the
  // paper's Section VII argues SLoPS survives (it screens lossy streams and
  // re-probes) while gap-model tools silently lose their pair/train
  // structure. 3% loss ruins roughly 1 in 4 packet-pair samples.
  reg.add_text(R"(
    name = lossy-tight
    description = paper-path shape with 3% random loss at the tight link (non-congestive loss stress)
    hops = 3
    hop.0.capacity_mbps = 20
    hop.0.delay_ms = 17
    hop.0.traffic.model = poisson
    hop.0.traffic.utilization = 0.6
    hop.1.capacity_mbps = 10
    hop.1.delay_ms = 17
    hop.1.traffic.model = pareto
    hop.1.traffic.utilization = 0.6
    hop.2.capacity_mbps = 20
    hop.2.delay_ms = 16
    hop.2.traffic.model = poisson
    hop.2.traffic.utilization = 0.6
    impair hop=1 loss=0.03
  )");

  // Reorder jitter after the tight link: up to 2 ms of per-packet delay
  // noise, enough to swap back-to-back probes. Dispersion tools read the
  // scrambled spacings as signal; SLoPS's per-stream OWD trend medians
  // through it.
  reg.add_text(R"(
    name = reorder-jitter
    description = paper-path shape with up to 2 ms reorder jitter after the tight link (swaps back-to-back probes)
    hops = 3
    hop.0.capacity_mbps = 20
    hop.0.delay_ms = 17
    hop.0.traffic.model = poisson
    hop.0.traffic.utilization = 0.6
    hop.1.capacity_mbps = 10
    hop.1.delay_ms = 17
    hop.1.traffic.model = pareto
    hop.1.traffic.utilization = 0.6
    hop.2.capacity_mbps = 20
    hop.2.delay_ms = 16
    hop.2.traffic.model = poisson
    hop.2.traffic.utilization = 0.6
    impair hop=2 reorder_ms=2
  )");

  // Everything at once: a flaky first hop (loss + duplication + jitter) in
  // front of the loaded tight link — the adverse-path composite the
  // comparative-evaluation literature grades tools on.
  reg.add_text(R"(
    name = flaky-path
    description = flaky first hop (2% loss, 1% duplication, 1 ms jitter) in front of the loaded tight link
    hops = 3
    hop.0.capacity_mbps = 20
    hop.0.delay_ms = 17
    hop.0.traffic.model = poisson
    hop.0.traffic.utilization = 0.6
    hop.1.capacity_mbps = 10
    hop.1.delay_ms = 17
    hop.1.traffic.model = pareto
    hop.1.traffic.utilization = 0.6
    hop.2.capacity_mbps = 20
    hop.2.delay_ms = 16
    hop.2.traffic.model = poisson
    hop.2.traffic.utilization = 0.6
    impair hop=0 loss=0.02 dup=0.01 reorder_ms=1
  )");

  return reg;
}

}  // namespace

const Registry& Registry::builtin() {
  static const Registry reg = make_builtin();
  return reg;
}

}  // namespace pathload::scenario
