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
  const Item item{at.nanos(), sim_.reserve_fifo_tickets(1), to, p};
  if (insert(item) == 0) timer_.schedule_at(at, item.ticket);
}

std::size_t DelayLine::insert(const Item& item) {
  if (size_ == ring_.size()) grow();
  // A fresh ticket is the largest yet, so only an earlier time can sort
  // this item before an existing one.
  std::size_t pos = size_;
  while (pos > 0 && slot(pos - 1).at > item.at) {
    slot(pos) = slot(pos - 1);
    --pos;
  }
  slot(pos) = item;
  ++size_;
  return pos;
}

void DelayLine::grow() {
  std::vector<Item> bigger(ring_.empty() ? 8 : ring_.size() * 2);
  for (std::size_t i = 0; i < size_; ++i) bigger[i] = slot(i);
  ring_ = std::move(bigger);
  head_ = 0;
}

DelayLine::Item DelayLine::pop_front() {
  const Item front = ring_[head_];
  head_ = (head_ + 1) & (ring_.size() - 1);
  --size_;
  return front;
}

void DelayLine::rearm() {
  if (size_ == 0) {
    timer_.cancel();
    return;
  }
  const Item& front = ring_[head_];
  timer_.schedule_at(TimePoint::from_nanos(front.at), front.ticket);
}

void DelayLine::deliver() {
  const Item front = pop_front();
  // Re-arm before the handoff: the handler may push into this pipe again.
  if (size_ > 0) rearm();
  front.to->handle(front.pkt);
}

}  // namespace pathload::sim
