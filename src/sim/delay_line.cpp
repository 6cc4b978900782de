#include "sim/delay_line.hpp"

#include <stdexcept>
#include <utility>

namespace pathload::sim {

DelayLine::DelayLine(Simulator& sim)
    : sim_{sim}, timer_{sim.make_timer([this] { deliver(); })} {}

void DelayLine::push(TimePoint at, PacketHandler* to, const Packet& p) {
  // Validate before consuming a ticket, as schedule_at does.
  if (at < sim_.now()) {
    throw std::logic_error{"DelayLine::push: delivery time is in the past"};
  }
  if (size_ == ring_.size()) grow();
  const Item item{at.nanos(), sim_.reserve_fifo_tickets(1), to, p};
  // The fresh ticket is the largest yet, so only an earlier time can sort
  // this item before an existing one.
  std::size_t pos = size_;
  while (pos > 0 && slot(pos - 1).at > item.at) {
    slot(pos) = slot(pos - 1);
    --pos;
  }
  slot(pos) = item;
  ++size_;
  if (pos == 0) timer_.schedule_at(at, item.ticket);
}

void DelayLine::grow() {
  std::vector<Item> bigger(ring_.empty() ? 8 : ring_.size() * 2);
  for (std::size_t i = 0; i < size_; ++i) bigger[i] = slot(i);
  ring_ = std::move(bigger);
  head_ = 0;
}

void DelayLine::deliver() {
  Item& front = ring_[head_];
  PacketHandler* to = front.to;
  const Packet pkt = front.pkt;
  head_ = (head_ + 1) & (ring_.size() - 1);
  --size_;
  // Re-arm before the handoff: the handler may push into this pipe again.
  if (size_ > 0) {
    const Item& next = ring_[head_];
    timer_.schedule_at(TimePoint::from_nanos(next.at), next.ticket);
  }
  to->handle(pkt);
}

}  // namespace pathload::sim
