#pragma once

#include <array>
#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>

#include "sim/delay_line.hpp"
#include "sim/packet.hpp"
#include "sim/simulator.hpp"
#include "util/rng.hpp"
#include "util/units.hpp"

namespace pathload::sim {

/// Optional stochastic impairments of a link, off by default.
///
/// Each enabled knob draws from the link's *own* seeded RNG stream (never
/// from the scenario's traffic RNG), and a knob left at zero consumes no
/// draws at all — so an unimpaired link is bit-identical to a link built
/// before impairments existed, and enabling one knob does not perturb the
/// draw sequence of another. Draw order per packet: loss, then duplication
/// (both at arrival), then reorder jitter (at delivery, per forwarded copy).
struct LinkImpairments {
  /// Probability in [0, 1) that an arriving packet is dropped outright
  /// (non-congestive random loss, e.g. a noisy wireless hop).
  double loss{0.0};
  /// Probability in [0, 1) that an arriving packet is accepted twice.
  double dup{0.0};
  /// Upper bound of a uniform [0, reorder) extra propagation delay applied
  /// per delivered packet; enough jitter reorders back-to-back packets.
  Duration reorder{};
  /// Seed of the link's private impairment RNG stream.
  std::uint64_t seed{1};

  bool any() const {
    return loss > 0.0 || dup > 0.0 || reorder > Duration::zero();
  }
};

/// A store-and-forward link with an FCFS drop-tail queue, matching the
/// queueing model of the paper (Section III-A assumes FCFS; Section VII
/// notes drop-tail is "the common practice today").
///
/// A packet arriving at a busy link waits in a byte-limited buffer; when it
/// reaches the head it is serialized for size/capacity and then experiences
/// the link's propagation delay before being delivered downstream.
class Link final : public PacketHandler {
 public:
  Link(Simulator& sim, std::string name, Rate capacity, Duration prop_delay,
       DataSize buffer_limit);

  /// Downstream receiver of everything this link forwards (not owned).
  void set_downstream(PacketHandler* downstream) { downstream_ = downstream; }

  /// Packet arrival at the tail of the queue (drop-tail if over buffer).
  void handle(const Packet& p) override;

  /// Install (or clear, with an all-zero struct) stochastic impairments.
  /// Safe to call between runs; resets the impairment RNG to `imp.seed`.
  void set_impairments(const LinkImpairments& imp);
  bool impaired() const { return impair_rng_ != nullptr; }
  const LinkImpairments& impairments() const { return impair_; }

  /// Switch the link to hybrid fluid/packet service (engine v2, see
  /// docs/ENGINE.md). Cross traffic becomes a fluid rate `add_fluid_rate`
  /// feeds in; packets stay individually visible but are served against a
  /// FIFO virtual-workload variable instead of a simulated queue: one
  /// scheduled event per packet (delivery) rather than two, and fluid
  /// cross traffic costs no packet events at all. Must be called before
  /// any packet arrives; there is no way back to packet service.
  void enable_fluid_mode();
  bool fluid_mode() const { return fluid_mode_; }

  /// Add (negative delta: remove) fluid cross-traffic rate. The workload
  /// and the fluid byte account are settled to now first, so piecewise-
  /// constant rate profiles integrate exactly.
  void add_fluid_rate(Rate delta);
  Rate fluid_rate() const { return Rate::bps(fluid_rate_bps_); }

  /// What one arrival at a fluid link turns into (see fluid_forward).
  struct FluidForward {
    /// Arrival instants at the downstream node of the copies that were
    /// forwarded, in handle()'s order: a duplicate before its original.
    std::array<TimePoint, 2> at{};
    std::uint8_t forwarded{0};
    /// Some copy was dropped on arrival (random loss or drop-tail).
    bool dropped{false};
  };

  /// Closed form of a fluid link's whole handle() for a packet arriving at
  /// `arrival`: the loss and dup draws, then per copy (a duplicate first)
  /// the transit against the fluid workload settled to `arrival` and the
  /// reorder-jitter draw. The link's counters and RNG advance exactly as
  /// handle() would advance them at that instant, but nothing is scheduled
  /// or handed downstream; handle() in fluid mode is this call plus the
  /// pushes onto the delivery pipe, so the two cannot disagree. The batched
  /// probe-burst pass (docs/ENGINE.md) feeds a stream through hop by hop
  /// in event order. `arrival` may be in the future: later event-driven
  /// settles before it then no-op, which is that pass's documented
  /// approximation when a foreign rate change lands inside a burst.
  /// Requires fluid mode.
  FluidForward fluid_forward(const Packet& p, TimePoint arrival);

  const std::string& name() const { return name_; }
  Rate capacity() const { return capacity_; }
  Duration prop_delay() const { return prop_delay_; }
  DataSize buffer_limit() const { return buffer_limit_; }

  /// Bytes currently queued, excluding the packet being serialized.
  DataSize queued_bytes() const { return queued_bytes_; }
  std::size_t queue_length() const { return queue_.size(); }
  bool busy() const { return busy_; }

  /// Cumulative bytes fully serialized onto the wire (utilization counter —
  /// the quantity an MRTG-style monitor reads, Eq. (2)). In fluid mode this
  /// includes the fluid cross traffic, integrated up to the current virtual
  /// time, so UtilizationMonitor reads the same truth under both engines.
  DataSize bytes_forwarded() const;
  std::uint64_t packets_forwarded() const { return packets_forwarded_; }
  std::uint64_t drops() const { return drops_; }

  /// Packets dropped by the random-loss impairment (subset of drops()).
  std::uint64_t impaired_drops() const { return impaired_drops_; }
  /// Extra copies created by the duplication impairment.
  std::uint64_t duplicates() const { return duplicates_; }

  /// Drops of a specific flow (probe-loss accounting; cheap because the
  /// per-flow map is only touched on the rare drop path).
  std::uint64_t drops_for_flow(std::uint32_t flow) const;

  /// Duplicate copies created for a specific flow. Probe accounting needs
  /// this: every copy a stream's sender is owed (original or duplicate)
  /// eventually shows up as either a record or a per-flow drop.
  std::uint64_t dups_for_flow(std::uint32_t flow) const;

  /// Queueing + serialization delay a hypothetical arrival right now would
  /// see before reaching the wire (diagnostics / tests).
  Duration backlog_delay() const;

  Link(const Link&) = delete;
  Link& operator=(const Link&) = delete;

 private:
  /// Loss and dup draws for one arrival, in the determinism-contract
  /// order (LinkImpairments): the number of copies to accept, 0 to 2.
  int arrival_copies(const Packet& p);
  /// The reorder-jitter draw for one forwarded copy (zero if disabled).
  Duration reorder_jitter();
  void accept(const Packet& p);
  /// The drop-tail FIFO step of one accepted copy: true when the link was
  /// idle and the copy is now in service, its serialization ending
  /// service_time() later. accept() and CrossTrafficRunAhead both queue
  /// through here, as both end serializations through dequeue().
  bool enqueue(const Packet& p);
  /// End of the current serialization: count the packet in service, then
  /// start the next queued one; true when one starts.
  bool dequeue();
  Duration service_time() const {
    return capacity_.transmission_time(in_service_.size());
  }
  /// One copy's drop-tail check and FIFO transit against the workload
  /// settled to `arrival`: its arrival downstream before jitter, or nullopt
  /// if drop-tailed (already counted).
  std::optional<TimePoint> fluid_transit(const Packet& p, TimePoint arrival);
  void settle_fluid();
  void settle_fluid_at(TimePoint now);
  void finish_service();

  friend class CrossTrafficRunAhead;

  Simulator& sim_;
  std::string name_;
  Rate capacity_;
  Duration prop_delay_;
  DataSize buffer_limit_;

  std::deque<Packet> queue_;
  Packet in_service_{};
  // End-of-serialization is one reusable timer re-armed per packet: the
  // per-packet drain event costs no closure construction and no allocation.
  Simulator::TimerHandle service_timer_;
  // Propagation: forwarded packets ride this FIFO pipe to the downstream
  // node, one scheduler key per link however many are in flight.
  DelayLine deliveries_;
  bool busy_{false};
  DataSize queued_bytes_{};

  // Fluid-mode state (engine v2). fluid_work_secs_ is the FIFO virtual
  // workload W: the time a packet arriving now waits before its own
  // serialization starts. Between settle points W drains at (1 - lambda/C)
  // while positive (lambda = fluid rate, C = capacity); a packet arrival
  // adds its own transmission time. This reproduces the fluid FIFO delay
  // recursion of the paper's Appendix (fluid::FluidPath::owd_delta_per_packet)
  // exactly for constant lambda. fluid_bytes_ integrates min(lambda, C)
  // up to fluid_last_ for the utilization counter.
  bool fluid_mode_{false};
  double fluid_rate_bps_{0.0};
  double fluid_work_secs_{0.0};
  double fluid_bytes_{0.0};
  TimePoint fluid_last_{};

  PacketHandler* downstream_{nullptr};
  DataSize bytes_forwarded_{};
  std::uint64_t packets_forwarded_{0};
  std::uint64_t drops_{0};
  std::unordered_map<std::uint32_t, std::uint64_t> flow_drops_;

  // Impairment state. The RNG exists only while impairments are enabled,
  // so unimpaired links never allocate it nor draw from it.
  LinkImpairments impair_{};
  std::unique_ptr<Rng> impair_rng_;
  std::uint64_t impaired_drops_{0};
  std::uint64_t duplicates_{0};
  std::unordered_map<std::uint32_t, std::uint64_t> flow_dups_;
};

}  // namespace pathload::sim
