#pragma once

#include <cstdint>
#include <vector>

#include "sim/packet.hpp"
#include "sim/simulator.hpp"

namespace pathload::sim {

/// A pipe of packets in flight: each pushed packet is handed to its
/// handler at a fixed future instant, exactly as if the push had been
/// `sim.schedule_at(at, [to, p] { to->handle(p); })` — but with at most
/// one pending scheduler key per pipe instead of one closure per packet.
///
/// Each push reserves the FIFO ticket that schedule_at would have consumed
/// at the same moment, and the pipe's one reusable timer is always armed
/// at its earliest (time, ticket) item. The scheduler orders keys totally,
/// so every delivery fires at the key its closure would have had, and the
/// event order against foreign events is unchanged (docs/ENGINE.md). A
/// propagation pipe pushes in time order, so a push is almost always an
/// append; a push that lands before the tail (reorder jitter, 1-ns
/// rounding) walks back from the tail to its place.
///
/// Items live in a power-of-two ring that never shrinks, so a pipe in
/// steady state allocates nothing. Destroying the pipe drops its pending
/// items; handlers must outlive the deliveries they are owed.
class DelayLine {
 public:
  explicit DelayLine(Simulator& sim);

  /// Hand `p` to `to` at absolute time `at` (must not be in the past).
  void push(TimePoint at, PacketHandler* to, const Packet& p);

  /// Packets in flight.
  std::size_t size() const { return size_; }

  DelayLine(const DelayLine&) = delete;
  DelayLine& operator=(const DelayLine&) = delete;

 private:
  struct Item {
    std::int64_t at;
    std::uint64_t ticket;
    PacketHandler* to;
    Packet pkt;
  };

  friend class CrossTrafficRunAhead;

  Item& slot(std::size_t i) { return ring_[(head_ + i) & (ring_.size() - 1)]; }
  const Item& slot(std::size_t i) const {
    return ring_[(head_ + i) & (ring_.size() - 1)];
  }
  void grow();
  /// Place `item` in (time, ticket) order and return its position; at 0
  /// it is the new front, whose key the timer must be armed at.
  std::size_t insert(const Item& item);
  Item pop_front();
  /// Arm the timer at the front item's key, or disarm it when empty.
  void rearm();
  void deliver();

  Simulator& sim_;
  std::vector<Item> ring_;  // capacity is zero or a power of two
  std::size_t head_{0};
  std::size_t size_{0};
  Simulator::TimerHandle timer_;
};

}  // namespace pathload::sim
