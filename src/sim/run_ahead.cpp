#include "sim/run_ahead.hpp"

#include <algorithm>

namespace pathload::sim {

namespace {

template <typename E>
bool before(const E& a, const E& b) {
  return a.at < b.at || (a.at == b.at && a.ticket < b.ticket);
}

}  // namespace

CrossTrafficRunAhead::CrossTrafficRunAhead(
    Simulator& sim, Path& path, std::vector<std::vector<CrossTrafficSource*>> sources)
    : sim_{sim} {
  for (std::size_t h = 0; h < path.hop_count(); ++h) {
    links_.push_back(&path.link(h));
    first_actor_.push_back(static_cast<std::uint32_t>(actors_.size()));
    const std::size_t n = h < sources.size() ? sources[h].size() : 0;
    const auto service = static_cast<std::uint32_t>(actors_.size() + n);
    const auto hop = static_cast<std::uint32_t>(h);
    for (std::size_t i = 0; i < n; ++i) actors_.push_back(Actor{sources[h][i], service, hop});
    actors_.push_back(Actor{nullptr, service, hop});
  }
  first_actor_.push_back(static_cast<std::uint32_t>(actors_.size()));
  heap_.reserve(actors_.size());
  final_.reserve(actors_.size());
  sim_.set_run_ahead(this);
}

CrossTrafficRunAhead::~CrossTrafficRunAhead() { sim_.set_run_ahead(nullptr); }

Simulator::TimerHandle& CrossTrafficRunAhead::timer(const Actor& a) const {
  return a.source != nullptr ? a.source->timer_ : links_[a.hop]->service_timer_;
}

bool CrossTrafficRunAhead::owns_every_pending_event() const {
  std::size_t owned = 0;
  for (const Actor& a : actors_) owned += timer(a).pending() ? 1 : 0;
  for (const Link* l : links_) {
    if (l->impaired() || l->fluid_mode()) return false;
    if (l->busy_ && l->in_service_.transit) return false;
    for (const Packet& p : l->queue_) {
      if (p.transit) return false;
    }
    const DelayLine& line = l->deliveries_;
    for (std::size_t i = 0; i < line.size_; ++i) {
      if (line.slot(i).pkt.transit) return false;
    }
    owned += line.timer_.pending() ? 1 : 0;
  }
  return owned == sim_.pending_events();
}

void CrossTrafficRunAhead::push(Entry e) {
  std::size_t i = heap_.size();
  heap_.push_back(e);
  while (i > 0) {
    const std::size_t parent = (i - 1) / 2;
    if (!before(e, heap_[parent])) break;
    heap_[i] = heap_[parent];
    i = parent;
  }
  heap_[i] = e;
}

void CrossTrafficRunAhead::sift_down() {
  const Entry e = heap_[0];
  const std::size_t n = heap_.size();
  std::size_t i = 0;
  for (;;) {
    std::size_t child = 2 * i + 1;
    if (child >= n) break;
    if (child + 1 < n && before(heap_[child + 1], heap_[child])) ++child;
    if (!before(heap_[child], e)) break;
    heap_[i] = heap_[child];
    i = child;
  }
  heap_[i] = e;
}

void CrossTrafficRunAhead::run_ahead(TimePoint t) {
  if (!owns_every_pending_event()) return;
  const std::int64_t horizon = t.nanos();
  const std::uint64_t first_new = sim_.reserve_fifo_tickets(0);  // the next ticket
  std::uint64_t executed = 0;
  final_.clear();
  for (std::uint32_t l = 0; l < links_.size(); ++l) executed += run_link(l, horizon);
  sim_.note_run_ahead(executed);
  reorder_tickets(first_new);
  rearm();
}

std::uint64_t CrossTrafficRunAhead::run_link(std::uint32_t l, std::int64_t horizon) {
  Link& link = *links_[l];
  DelayLine& line = link.deliveries_;
  std::uint64_t executed = 0;
  // Deliveries already on the line are hop-local: each one due by the
  // horizon is a counted event and nothing else.
  while (line.size_ > 0 && line.ring_[line.head_].at <= horizon) {
    line.pop_front();
    ++executed;
  }

  heap_.clear();
  for (std::uint32_t a = first_actor_[l]; a < first_actor_[l + 1]; ++a) {
    const Simulator::TimerHandle& tm = timer(actors_[a]);
    if (!tm.pending()) continue;
    const Simulator::EventKey k = tm.pending_key();
    push(Entry{k.at, k.ticket, 0, a});
  }

  // The link's three callbacks, in its (time, ticket) order. Each takes
  // its tickets in the order its callback schedules: an emission takes
  // the service timer's (an idle link starts serving) before the source's
  // re-arm; a service end takes the delivery's before the next service's.
  while (!heap_.empty() && heap_[0].at <= horizon) {
    Entry& top = heap_[0];
    const Actor& actor = actors_[top.actor];
    const TimePoint now = TimePoint::from_nanos(top.at);
    if (actor.source != nullptr) {
      const CrossTrafficSource::Emission em = actor.source->emit(now);
      const bool starts = link.enqueue(em.packet);
      const Entry service{starts ? (now + link.service_time()).nanos() : 0,
                          starts ? sim_.reserve_fifo_tickets(1) : 0, top.at, actor.service};
      top = Entry{(now + em.gap).nanos(), sim_.reserve_fifo_tickets(1), top.at, top.actor};
      sift_down();
      if (starts) push(service);
    } else {
      if (link.downstream_ != nullptr) {
        const TimePoint deliver_at = now + link.prop_delay_;
        const std::uint64_t ticket = sim_.reserve_fifo_tickets(1);
        if (deliver_at.nanos() <= horizon) {
          ++executed;
        } else {
          line.insert(DelayLine::Item{deliver_at.nanos(), ticket, link.downstream_,
                                      link.in_service_});
        }
      }
      if (link.dequeue()) {
        top = Entry{(now + link.service_time()).nanos(), sim_.reserve_fifo_tickets(1), top.at,
                    top.actor};
      } else {
        top = heap_.back();
        heap_.pop_back();
      }
      if (!heap_.empty()) sift_down();
    }
    ++executed;
  }
  final_.insert(final_.end(), heap_.begin(), heap_.end());
  return executed;
}

void CrossTrafficRunAhead::reorder_tickets(std::uint64_t first_new) {
  // The calendar would have taken the pending keys' tickets in time
  // order across all links. Hand the same tickets back in that order:
  // by when each was taken, then hop order, then the link's own order.
  pending_.clear();
  for (Entry& e : final_) {
    if (e.ticket >= first_new) pending_.push_back(Pending{e.taken, actors_[e.actor].hop, &e.ticket});
  }
  for (std::uint32_t l = 0; l < links_.size(); ++l) {
    DelayLine& line = links_[l]->deliveries_;
    for (std::size_t i = 0; i < line.size_; ++i) {
      DelayLine::Item& item = line.slot(i);
      // A delivery's ticket was taken at the end of serialization.
      if (item.ticket >= first_new) {
        pending_.push_back(Pending{item.at - links_[l]->prop_delay_.nanos(), l, &item.ticket});
      }
    }
  }
  tickets_.clear();
  for (const Pending& p : pending_) tickets_.push_back(*p.ticket);
  std::sort(tickets_.begin(), tickets_.end());
  std::sort(pending_.begin(), pending_.end(), [](const Pending& a, const Pending& b) {
    if (a.taken != b.taken) return a.taken < b.taken;
    if (a.link != b.link) return a.link < b.link;
    return *a.ticket < *b.ticket;
  });
  for (std::size_t i = 0; i < pending_.size(); ++i) *pending_[i].ticket = tickets_[i];
}

void CrossTrafficRunAhead::rearm() {
  // Every active timer is in final_ at its final key; an idle link's
  // service timer is not. Tickets are unique, so a key whose ticket is
  // unchanged did not move.
  for (const Entry& e : final_) {
    Simulator::TimerHandle& tm = timer(actors_[e.actor]);
    if (!tm.pending() || tm.pending_key().ticket != e.ticket) {
      tm.schedule_at(TimePoint::from_nanos(e.at), e.ticket);
    }
  }
  for (Link* l : links_) {
    if (!l->busy_) l->service_timer_.cancel();
    DelayLine& line = l->deliveries_;
    const bool moved = line.size_ > 0 && (!line.timer_.pending() ||
                                          line.timer_.pending_key().ticket !=
                                              line.ring_[line.head_].ticket);
    if (line.size_ == 0 || moved) line.rearm();
  }
}

}  // namespace pathload::sim
