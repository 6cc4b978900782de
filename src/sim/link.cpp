#include "sim/link.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace pathload::sim {

Link::Link(Simulator& sim, std::string name, Rate capacity, Duration prop_delay,
           DataSize buffer_limit)
    : sim_{sim},
      name_{std::move(name)},
      capacity_{capacity},
      prop_delay_{prop_delay},
      buffer_limit_{buffer_limit},
      service_timer_{sim.make_timer([this] { finish_service(); })},
      deliveries_{sim} {
  if (capacity <= Rate::zero()) {
    throw std::invalid_argument{"Link capacity must be positive"};
  }
}

void Link::handle(const Packet& p) {
  if (fluid_mode_) {
    const FluidForward f = fluid_forward(p, sim_.now());
    if (downstream_ != nullptr) {
      for (std::uint8_t i = 0; i < f.forwarded; ++i) {
        deliveries_.push(f.at[i], downstream_, p);
      }
    }
    return;
  }
  for (int copies = arrival_copies(p); copies > 0; --copies) accept(p);
}

int Link::arrival_copies(const Packet& p) {
  if (impair_rng_ == nullptr) return 1;
  // Draw order is part of the determinism contract (see LinkImpairments):
  // loss first, then duplication; a disabled knob draws nothing.
  if (impair_.loss > 0.0 && impair_rng_->uniform() < impair_.loss) {
    ++drops_;
    ++impaired_drops_;
    if (p.flow != kCrossTrafficFlow) ++flow_drops_[p.flow];
    return 0;
  }
  if (impair_.dup > 0.0 && impair_rng_->uniform() < impair_.dup) {
    // The extra copy is counted *before* it is accepted so that per-flow
    // accounting (records + drops == sent + dups) balances even when the
    // copy is immediately drop-tailed.
    ++duplicates_;
    if (p.flow != kCrossTrafficFlow) ++flow_dups_[p.flow];
    return 2;
  }
  return 1;
}

Duration Link::reorder_jitter() {
  // Reorder jitter stretches the propagation of individual packets, so a
  // lucky later packet can overtake an unlucky earlier one downstream.
  if (impair_rng_ == nullptr || impair_.reorder <= Duration::zero()) {
    return Duration::zero();
  }
  return impair_.reorder * impair_rng_->uniform();
}

void Link::accept(const Packet& p) {
  if (enqueue(p)) service_timer_.schedule_in(service_time());
}

bool Link::enqueue(const Packet& p) {
  if (busy_) {
    if (queued_bytes_ + p.size() > buffer_limit_) {
      ++drops_;
      if (p.flow != kCrossTrafficFlow) ++flow_drops_[p.flow];
      return false;
    }
    queue_.push_back(p);
    queued_bytes_ += p.size();
    return false;
  }
  in_service_ = p;
  busy_ = true;
  return true;
}

void Link::set_impairments(const LinkImpairments& imp) {
  impair_ = imp;
  impair_rng_ = imp.any() ? std::make_unique<Rng>(imp.seed) : nullptr;
}

void Link::enable_fluid_mode() {
  fluid_mode_ = true;
  fluid_last_ = sim_.now();
}

void Link::add_fluid_rate(Rate delta) {
  settle_fluid();
  // Cancel tiny negative residue when the last of several sources removes
  // its share (the adds and removes are floating-point sums).
  fluid_rate_bps_ = std::max(0.0, fluid_rate_bps_ + delta.bits_per_sec());
}

void Link::settle_fluid() { settle_fluid_at(sim_.now()); }

void Link::settle_fluid_at(TimePoint now) {
  const double dt = (now - fluid_last_).secs();
  if (dt <= 0.0) return;
  const double cap = capacity_.bits_per_sec();
  fluid_bytes_ += std::min(fluid_rate_bps_, cap) * dt / 8.0;
  // W drifts at lambda/C - 1: drains while under-loaded, grows while the
  // fluid alone oversubscribes the link (transient on/off peaks). The
  // max() clamps at the instant the queue empties; the min() is drop-tail
  // for the fluid itself (overflow fluid vanishes, as v1's drop-tail
  // discards the packets it stood for).
  fluid_work_secs_ += dt * (fluid_rate_bps_ / cap - 1.0);
  fluid_work_secs_ = std::max(0.0, fluid_work_secs_);
  fluid_work_secs_ =
      std::min(fluid_work_secs_, capacity_.transmission_time(buffer_limit_).secs());
  fluid_last_ = now;
}

std::optional<TimePoint> Link::fluid_transit(const Packet& p, TimePoint arrival) {
  settle_fluid_at(arrival);
  const Duration tx = capacity_.transmission_time(p.size());
  if (capacity_.bytes_in(Duration::seconds(fluid_work_secs_)) + p.size() >
      buffer_limit_) {
    ++drops_;
    if (p.flow != kCrossTrafficFlow) ++flow_drops_[p.flow];
    return std::nullopt;
  }
  // FIFO: the packet waits out the whole current workload, then serializes.
  // Its own transmission time joins the workload seen by later arrivals, so
  // packet-on-packet queueing (a SLoPS stream overrunning the link) stays
  // exact; only the cross traffic is fluid.
  const Duration wait = Duration::seconds(fluid_work_secs_) + tx;
  fluid_work_secs_ += tx.secs();
  bytes_forwarded_ += p.size();
  ++packets_forwarded_;
  return arrival + (wait + prop_delay_);
}

Link::FluidForward Link::fluid_forward(const Packet& p, TimePoint arrival) {
  FluidForward f;
  const int copies = arrival_copies(p);
  f.dropped = copies == 0;
  for (int c = 0; c < copies; ++c) {
    const std::optional<TimePoint> out = fluid_transit(p, arrival);
    if (!out.has_value()) {
      f.dropped = true;
      continue;
    }
    // The jitter is drawn only for a copy that is handed on, as the packet
    // path's finish_service draws it.
    f.at[f.forwarded++] = downstream_ != nullptr ? *out + reorder_jitter() : *out;
  }
  return f;
}

DataSize Link::bytes_forwarded() const {
  if (!fluid_mode_) return bytes_forwarded_;
  // Settle-free read: integrate the fluid since the last settle point
  // without mutating (the accessor is const and monitors poll it often).
  const double dt = std::max(0.0, (sim_.now() - fluid_last_).secs());
  const double fluid =
      fluid_bytes_ + std::min(fluid_rate_bps_, capacity_.bits_per_sec()) * dt / 8.0;
  return bytes_forwarded_ + DataSize::bytes(static_cast<std::int64_t>(fluid));
}

void Link::finish_service() {
  if (downstream_ != nullptr) {
    // Propagation: the packet appears at the downstream node prop_delay
    // (plus any reorder jitter) after its last bit leaves this link.
    deliveries_.push(sim_.now() + (prop_delay_ + reorder_jitter()), downstream_,
                     in_service_);
  }
  if (dequeue()) service_timer_.schedule_in(service_time());
}

bool Link::dequeue() {
  bytes_forwarded_ += in_service_.size();
  ++packets_forwarded_;
  if (queue_.empty()) {
    busy_ = false;
    return false;
  }
  in_service_ = queue_.front();
  queue_.pop_front();
  queued_bytes_ -= in_service_.size();
  return true;
}

std::uint64_t Link::drops_for_flow(std::uint32_t flow) const {
  auto it = flow_drops_.find(flow);
  return it != flow_drops_.end() ? it->second : 0;
}

std::uint64_t Link::dups_for_flow(std::uint32_t flow) const {
  auto it = flow_dups_.find(flow);
  return it != flow_dups_.end() ? it->second : 0;
}

Duration Link::backlog_delay() const {
  if (fluid_mode_) {
    // The virtual workload *is* the backlog delay; project it to now
    // without mutating.
    const double dt = std::max(0.0, (sim_.now() - fluid_last_).secs());
    const double w = std::max(
        0.0,
        fluid_work_secs_ + dt * (fluid_rate_bps_ / capacity_.bits_per_sec() - 1.0));
    return Duration::seconds(w);
  }
  // Residual service of the in-flight packet is not tracked exactly; the
  // upper bound (full serialization) is fine for tests and diagnostics.
  DataSize backlog = queued_bytes_;
  if (busy_) backlog += in_service_.size();
  return capacity_.transmission_time(backlog);
}

}  // namespace pathload::sim
