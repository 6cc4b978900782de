#pragma once

#include <cstdint>
#include <vector>

#include "sim/path.hpp"
#include "sim/simulator.hpp"
#include "sim/traffic.hpp"

namespace pathload::sim {

/// Engine v1's hop-local renewal cross traffic, run ahead of the calendar
/// while no probe is in flight (docs/ENGINE.md, "v1 run-ahead").
///
/// Between probes a v1 link's queue depends only on its own sources, yet
/// the calendar pays three scheduled events per cross packet (emission,
/// end of serialization, delivery to the junction that drops it). Offered
/// a run_until horizon, this object checks that every pending event is
/// one of its own timers (the sources' emissions, each link's service
/// timer and delivery line) and that no transit packet is inside the path.
/// If so, it runs each link in turn up to the horizon in one tight loop,
/// executing the link's events in their (time, ticket) order through the
/// same step functions the event callbacks use (CrossTrafficSource::emit,
/// Link::enqueue / dequeue), and taking tickets and packet ids from the
/// simulator's counters. Then it re-arms each timer once, at its final
/// key. Otherwise it declines and the calendar runs the events.
///
/// Link by link, the tickets interleave differently from the calendar's.
/// The keys still pending at the horizon are therefore given back the
/// same set of tickets in the calendar's order: by the time their ticket
/// was taken, a tie across links broken by hop order (docs/ENGINE.md
/// states when that tie-break matters).
///
/// A delivery of a hop-local packet has no effect but its count (the
/// junction drops it and the line re-arms with a stored ticket), so one
/// due by the horizon is counted where its packet leaves the link instead
/// of passing through the delivery line.
class CrossTrafficRunAhead final : public Simulator::RunAhead {
 public:
  /// `sources[h]` are the renewal sources feeding link h of `path` (empty
  /// for an unloaded hop). Installs itself on `sim`; the sources and the
  /// path must outlive it.
  CrossTrafficRunAhead(Simulator& sim, Path& path,
                       std::vector<std::vector<CrossTrafficSource*>> sources);
  ~CrossTrafficRunAhead() override;

  void run_ahead(TimePoint t) override;

  CrossTrafficRunAhead(const CrossTrafficRunAhead&) = delete;
  CrossTrafficRunAhead& operator=(const CrossTrafficRunAhead&) = delete;

 private:
  /// An emitting source, or (source == nullptr) a link's service timer.
  struct Actor {
    CrossTrafficSource* source;
    std::uint32_t service;  // actor index of the link's service timer
    std::uint32_t hop;
  };
  struct Entry {
    std::int64_t at;
    std::uint64_t ticket;
    std::int64_t taken;  // when the run-ahead took the ticket
    std::uint32_t actor;
  };
  /// A key pending at the horizon whose ticket was taken by the run-ahead.
  struct Pending {
    std::int64_t taken;
    std::uint32_t link;
    std::uint64_t* ticket;
  };

  Simulator::TimerHandle& timer(const Actor& a) const;
  bool owns_every_pending_event() const;
  std::uint64_t run_link(std::uint32_t link, std::int64_t horizon);
  void push(Entry e);
  void sift_down();
  void reorder_tickets(std::uint64_t first_new);
  void rearm();

  Simulator& sim_;
  std::vector<Link*> links_;
  // Link by link: the link's sources, then its service timer (the last
  // actor of link l is first_actor_[l + 1] - 1).
  std::vector<Actor> actors_;
  std::vector<std::uint32_t> first_actor_;
  std::vector<Entry> heap_;    // one link's min-heap by (at, ticket)
  std::vector<Entry> final_;   // every link's keys pending at the horizon
  std::vector<Pending> pending_;
  std::vector<std::uint64_t> tickets_;
};

}  // namespace pathload::sim
