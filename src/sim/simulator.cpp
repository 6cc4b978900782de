#include "sim/simulator.hpp"

#include <algorithm>
#include <bit>
#include <stdexcept>
#include <string>

namespace pathload::sim {

Simulator::Simulator() : buckets_(kBucketCount) { cur_.reserve(64); }

Simulator::~Simulator() = default;

void Simulator::throw_past(TimePoint t, TimePoint now) {
  throw std::logic_error{"Simulator::schedule_at: t=" + std::to_string(t.nanos()) +
                         "ns is before now=" + std::to_string(now.nanos()) + "ns (" +
                         std::to_string((now - t).nanos()) + "ns in the past)"};
}

Simulator::Slot* Simulator::alloc_slot() {
  if (free_head_ != nullptr) {
    Slot* s = free_head_;
    free_head_ = s->next_free;
    return s;
  }
  // Blocks double up to kSlabChunk: a small simulation (a testbed holds a
  // couple dozen timers) should not pay for zero-initializing a full-size
  // block in its constructor-heavy benches and sweeps.
  if (slab_.empty() || slab_used_ == slab_cap_) {
    slab_cap_ = slab_.empty() ? 16 : std::min(slab_cap_ * 2, kSlabChunk);
    slab_.push_back(std::make_unique<Slot[]>(slab_cap_));
    slab_used_ = 0;
  }
  return &slab_.back()[slab_used_++];
}

void Simulator::free_slot(Slot* s) {
  s->cb = Callback{};
  ++s->gen;  // invalidates any key still referencing this slot
  s->persistent = false;
  s->armed = false;
  s->firing = false;
  s->zombie = false;
  s->next_free = free_head_;
  free_head_ = s;
}

void Simulator::insert(Key k) {
  if (k.at < cur_start_ + kBucketWidth) {
    // Near-future fast lane: sorted insert behind the consumption point.
    // Packet workloads schedule mostly in arrival order, so this is almost
    // always a plain append; the memmove otherwise shifts 32-byte keys only.
    if (cur_.empty() || !KeyBefore{}(k, cur_.back())) {
      cur_.push_back(k);
    } else {
      const auto pos = std::lower_bound(
          cur_.begin() + static_cast<std::ptrdiff_t>(cur_head_), cur_.end(), k,
          KeyBefore{});
      cur_.insert(pos, k);
    }
  } else if (k.at < window_end_) {
    admit_to_ring(k);
  } else if (cur_head_ == cur_.size() && ring_count_ == 0 && overflow_.empty()) {
    // Queue is empty and the clock has outrun the window (e.g. run_until on
    // an idle simulator): re-anchor the window at the new event instead of
    // sending it on a pointless trip through the overflow heap.
    cur_start_ = (k.at >> kBucketShift) << kBucketShift;
    window_end_ = cur_start_ + static_cast<std::int64_t>(kBucketCount) * kBucketWidth;
    cur_.clear();
    cur_head_ = 0;
    cur_.push_back(k);
  } else {
    overflow_.push_back(k);
    std::push_heap(overflow_.begin(), overflow_.end(), KeyLater{});
  }
  ++live_;
}

void Simulator::schedule_at(TimePoint t, Callback cb) {
  if (t < now_) throw_past(t, now_);
  Slot* s = alloc_slot();
  s->cb = std::move(cb);
  insert(Key{t.nanos(), ++seq_, s, s->gen});
}

void Simulator::schedule_now(Callback cb) {
  Slot* s = alloc_slot();
  s->cb = std::move(cb);
  insert(Key{now_.nanos(), ++seq_, s, s->gen});
}

void Simulator::arm_timer(Slot* slot, TimePoint t) {
  // Validate before consuming a ticket: a caller that catches the error and
  // continues must not find the FIFO numbering shifted (schedule_at makes
  // the same guarantee).
  if (t < now_) throw_past(t, now_);
  arm_validated(slot, t, ++seq_);
}

void Simulator::arm_timer(Slot* slot, TimePoint t, std::uint64_t ticket) {
  if (t < now_) throw_past(t, now_);
  arm_validated(slot, t, ticket);
}

void Simulator::arm_validated(Slot* slot, TimePoint t, std::uint64_t ticket) {
  if (slot->armed) {  // reschedule-in-place: drop the pending occurrence
    ++slot->gen;
    --live_;
  }
  slot->armed = true;
  slot->key = EventKey{t.nanos(), ticket};
  insert(Key{t.nanos(), ticket, slot, slot->gen});
}

void Simulator::disarm_timer(Slot* slot) {
  if (slot->armed) {
    ++slot->gen;
    slot->armed = false;
    --live_;
  }
}

void Simulator::release_timer(Slot* slot) {
  disarm_timer(slot);
  if (slot->firing) {
    // The handle is being destroyed from inside its own callback, whose
    // closure lives in this slot and is still executing. Defer the recycle
    // to fire(), so neither the destruction nor a nested alloc_slot can
    // clobber the running lambda.
    slot->zombie = true;
    return;
  }
  free_slot(slot);
}

void Simulator::admit_to_ring(const Key& k) {
  const auto slot = static_cast<std::size_t>(k.at >> kBucketShift) & (kBucketCount - 1);
  buckets_[slot].push_back(k);
  occupied_[slot >> 6] |= std::uint64_t{1} << (slot & 63);
  ++ring_count_;
}

void Simulator::drain_overflow_into_window() {
  while (!overflow_.empty() && overflow_.front().at < window_end_) {
    const Key k = overflow_.front();
    std::pop_heap(overflow_.begin(), overflow_.end(), KeyLater{});
    overflow_.pop_back();
    admit_to_ring(k);
  }
}

std::size_t Simulator::next_occupied_after(std::size_t slot) const {
  // Circular search for the first set bit at or after `slot + 1`; the
  // caller guarantees at least one bucket is occupied, and the current
  // slot's own bucket is always empty (its range belongs to the fast
  // lane), so the search terminates within one wrap.
  const std::size_t pos = (slot + 1) & (kBucketCount - 1);
  std::size_t w = pos >> 6;
  std::uint64_t masked = occupied_[w] & (~std::uint64_t{0} << (pos & 63));
  while (masked == 0) {
    w = (w + 1) & (kBucketCount / 64 - 1);
    masked = occupied_[w];
  }
  return (w << 6) + static_cast<std::size_t>(std::countr_zero(masked));
}

bool Simulator::advance_bucket() {
  // Precondition: the fast lane is fully consumed.
  cur_.clear();
  cur_head_ = 0;
  if (ring_count_ == 0) {
    if (overflow_.empty()) return false;
    // Nothing within the window: re-anchor it one bucket below the
    // earliest overflow key (so that key lands at ring distance 1) and let
    // the drain below admit everything that now fits.
    const std::int64_t top = overflow_.front().at;
    cur_start_ = ((top >> kBucketShift) << kBucketShift) - kBucketWidth;
    window_end_ = cur_start_ + static_cast<std::int64_t>(kBucketCount) * kBucketWidth;
    // Every drained key sits at ring distance in [1, kBucketCount), so the
    // normal jump below finds the earliest one.
    drain_overflow_into_window();
  }

  // Jump straight to the next occupied bucket. Ring keys always precede
  // every overflow key (they are within the window, overflow is beyond
  // it), so the bitmap alone decides where the next event lives.
  const auto slot = static_cast<std::size_t>(cur_start_ >> kBucketShift) & (kBucketCount - 1);
  const std::size_t next = next_occupied_after(slot);
  const auto dist =
      static_cast<std::int64_t>((next - slot - 1) & (kBucketCount - 1)) + 1;
  cur_start_ += dist * kBucketWidth;
  window_end_ += dist * kBucketWidth;

  auto& bucket = buckets_[next];
  occupied_[next >> 6] &= ~(std::uint64_t{1} << (next & 63));
  if (bucket.size() == 1) {
    // Dominant case for sparse workloads: skip the swap and sort checks.
    cur_.push_back(bucket.front());
    bucket.clear();
    ring_count_ -= 1;
  } else {
    cur_.swap(bucket);
    ring_count_ -= cur_.size();
    // Events are overwhelmingly scheduled in chronological order, so the
    // bucket usually arrives already sorted; checking first skips the sort
    // for the common case.
    if (!std::is_sorted(cur_.begin(), cur_.end(), KeyBefore{})) {
      std::sort(cur_.begin(), cur_.end(), KeyBefore{});
    }
  }

  // Admit overflow keys that entered the window as it advanced. They land
  // at ring distance >= 1 ahead of the bucket just taken (the window moved
  // by at most kBucketCount - 1 buckets), never inside it.
  drain_overflow_into_window();
  return true;
}

bool Simulator::pop_live(Key& out) {
  if (live_ == 0) return false;
  for (;;) {
    while (cur_head_ == cur_.size()) {
      if (!advance_bucket()) return false;  // unreachable while live_ > 0
    }
    const Key k = cur_[cur_head_++];
    if (k.slot->gen != k.gen) continue;  // cancelled, skip lazily
    --live_;
    out = k;
    return true;
  }
}

void Simulator::fire(const Key& k) {
  Slot* s = k.slot;
  if (s->persistent) {
    // Disarm before invoking so the callback can re-arm its own timer.
    s->armed = false;
    s->firing = true;
    s->cb();
    s->firing = false;
    if (s->zombie) {  // the callback destroyed its own handle
      s->zombie = false;
      free_slot(s);
    }
  } else {
    // Invoke in place -- slab blocks never move, and the slot is recycled
    // only after the call, so nested schedules cannot clobber it.
    s->cb();
    free_slot(s);
  }
}

bool Simulator::run_next() {
  Key k;  // NOLINT(cppcoreguidelines-pro-type-member-init): filled by pop_live
  if (!pop_live(k)) return false;
  now_ = TimePoint::from_nanos(k.at);
  ++processed_;
  fire(k);
  return true;
}

void Simulator::run_until(TimePoint t) {
  const std::int64_t tn = t.nanos();
  if (run_ahead_ != nullptr && t > now_) run_ahead_->run_ahead(t);
  Key k;  // NOLINT(cppcoreguidelines-pro-type-member-init)
  while (pop_live(k)) {
    if (k.at > tn) {
      // Un-pop: the key came off the front of the sorted fast lane.
      --cur_head_;
      ++live_;
      break;
    }
    now_ = TimePoint::from_nanos(k.at);
    ++processed_;
    fire(k);
  }
  if (t > now_) now_ = t;
}

void Simulator::run_all() {
  while (run_next()) {
  }
}

}  // namespace pathload::sim
