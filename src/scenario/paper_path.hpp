#pragma once

#include <cstddef>
#include <vector>

#include "sim/traffic.hpp"
#include "util/units.hpp"

namespace pathload::scenario {

struct HopDecl;  // scenario/spec.hpp

/// The simulation topology of the paper's Fig. 4: an H-hop path whose
/// middle hop is the tight link (capacity Ct, utilization ut) while all
/// other hops share capacity Cx and utilization ux. Each hop carries its
/// own one-hop cross traffic from `sources_per_link` independent sources.
///
/// The *path tightness factor* beta = Ax / At (Eq. 10) sets how close the
/// non-tight links' avail-bw is to the tight link's: the non-tight capacity
/// is derived as Cx = beta * At / (1 - ux), so beta >= 1 keeps the middle
/// hop tight (smaller values are rejected). beta = 1 with ux = ut makes
/// every link a tight link (the Fig. 7 stress case).
///
/// This is a path-shape generator, not a builder: derive_hops() turns it into
/// the hop list a ScenarioSpec (scenario/spec.hpp) carries, and
/// ScenarioInstance builds the simulation from that hop list. Seed and
/// warmup belong to the spec.
struct PaperPathConfig {
  int hops{3};
  Rate tight_capacity{Rate::mbps(10)};
  double tight_utilization{0.6};
  double beta{2.0};
  double nontight_utilization{0.6};

  sim::Interarrival model{sim::Interarrival::kPareto};
  double pareto_alpha{1.9};
  int sources_per_link{10};
  sim::PacketSizeMix size_mix{sim::PacketSizeMix::paper_mix()};

  /// End-to-end propagation delay, split evenly across hops (paper: 50 ms).
  Duration total_prop_delay{Duration::milliseconds(50)};
  /// Per-link buffer as a drain time at link capacity ("sufficiently
  /// buffered to avoid losses"): buffer_bytes = C * buffer_drain.
  Duration buffer_drain{Duration::milliseconds(500)};

  Rate tight_avail_bw() const { return tight_capacity * (1.0 - tight_utilization); }
  Rate nontight_capacity() const {
    return tight_avail_bw() * beta / (1.0 - nontight_utilization);
  }
  /// The Fig. 4 convention: the middle hop is the tight one.
  std::size_t tight_index() const { return static_cast<std::size_t>(hops / 2); }

  /// The Fig. 4 hop list (Section V-A): the tight middle hop, every other
  /// hop with Cx = beta * At / (1 - ux), the delay split evenly. Throws
  /// SpecError, naming the paper.* key, on an invalid parameterization.
  std::vector<HopDecl> derive_hops() const;
};

}  // namespace pathload::scenario
