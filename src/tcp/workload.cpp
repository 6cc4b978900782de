#include "tcp/workload.hpp"

#include <algorithm>

namespace pathload::tcp {

SegmentTcpFlow::SegmentTcpFlow(sim::Simulator& sim, sim::Path& path,
                               SegmentFlowConfig cfg)
    : sim_{sim},
      path_{path},
      cfg_{std::move(cfg)},
      timer_{sim.make_timer([this] { on_timer(); })} {
  // Fail on nonsense segments at construction, not at first packet.
  cfg_.segment = path_.normalized(cfg_.segment);
}

void SegmentTcpFlow::launch() {
  epoch_ = sim_.now();
  phase_ = Phase::kWaitingOn;
  timer_.schedule_at(epoch_ + cfg_.start);
}

std::optional<TimePoint> SegmentTcpFlow::stop_at() const {
  if (!cfg_.stop.has_value()) return std::nullopt;
  return epoch_ + *cfg_.stop;
}

void SegmentTcpFlow::on_timer() {
  const std::optional<TimePoint> stop = stop_at();
  if (phase_ == Phase::kWaitingOn) {
    begin_connection();
    phase_ = Phase::kOn;
    // The ON period ends at the cycle boundary or the flow's stop time,
    // whichever comes first; a flow with neither runs to the end of the
    // simulation.
    std::optional<TimePoint> end;
    if (cfg_.cycles()) end = sim_.now() + *cfg_.on_period;
    if (stop.has_value() && (!end.has_value() || *stop < *end)) end = stop;
    if (end.has_value()) timer_.schedule_at(*end);
    return;
  }
  if (phase_ == Phase::kOn) {
    end_connection();
    const TimePoint next_on = sim_.now() + (cfg_.cycles() ? *cfg_.off_period
                                                          : Duration::zero());
    if (!cfg_.cycles() || (stop.has_value() && next_on >= *stop)) {
      phase_ = Phase::kIdle;  // done for good
      return;
    }
    phase_ = Phase::kWaitingOn;
    timer_.schedule_at(next_on);
  }
}

void SegmentTcpFlow::begin_connection() {
  conn_ = std::make_unique<TcpConnection>(sim_, path_, cfg_.tcp,
                                          cfg_.reverse_delay, cfg_.segment);
  conn_->sender().start();
  ++connections_;
}

void SegmentTcpFlow::end_connection() {
  if (conn_ == nullptr) return;
  completed_bytes_ += conn_->sender().bytes_acked();
  completed_timeouts_ += conn_->sender().timeouts();
  conn_.reset();  // unregisters the demux entry; in-flight ACKs are dropped
}

DataSize SegmentTcpFlow::bytes_acked() const {
  DataSize total = completed_bytes_;
  if (conn_ != nullptr) total += conn_->sender().bytes_acked();
  return total;
}

std::uint64_t SegmentTcpFlow::timeouts() const {
  std::uint64_t total = completed_timeouts_;
  if (conn_ != nullptr) total += conn_->sender().timeouts();
  return total;
}

}  // namespace pathload::tcp
