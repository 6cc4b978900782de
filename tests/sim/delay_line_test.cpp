// DelayLine must be a drop-in for one closure per packet: every delivery
// fires at the (time, FIFO ticket) key `schedule_at` would have given it.
// A twin simulator runs one random schedule both ways — closures in one,
// delay lines in the other, with the same foreign events interleaved — and
// the two firing logs must agree event for event.

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <stdexcept>
#include <utility>
#include <vector>

#include "sim/delay_line.hpp"
#include "sim/simulator.hpp"
#include "util/rng.hpp"

namespace pathload::sim {
namespace {

using Log = std::vector<std::pair<std::int64_t, std::uint64_t>>;  // (ns, id)

/// Logs every delivery; packets whose id is divisible by 5 are forwarded
/// once more, from inside the delivery, to exercise pushes made while the
/// pipe is firing.
template <typename Forward>
class Recorder final : public PacketHandler {
 public:
  Recorder(Simulator& sim, Log& log, Forward forward)
      : sim_{sim}, log_{log}, forward_{std::move(forward)} {}
  void handle(const Packet& p) override {
    log_.emplace_back(sim_.now().nanos(), p.id);
    if (p.id % 5 == 0) {
      Packet next = p;
      next.id = p.id * 1000 + 1;
      forward_(next);
    }
  }

 private:
  Simulator& sim_;
  Log& log_;
  Forward forward_;
};

/// One random schedule: `kSources` source events at coarse random times
/// (many share a timestamp), each pushing a few packets into one of two
/// pipes with delays that are often equal, sometimes zero, and sometimes
/// jittered so a later push overtakes an earlier one, and each scheduling
/// a foreign event that ties with pushed deliveries. Pipe 0 is torn down
/// part-way with packets still in flight.
class Twin {
 public:
  static constexpr int kSources = 400;

  Twin(std::uint64_t seed, bool use_lines) : seed_{seed}, use_lines_{use_lines} {
    for (int k = 0; k < 2; ++k) {
      alive_[k] = std::make_shared<bool>(true);
      if (use_lines_) lines_[k] = std::make_unique<DelayLine>(sim_);
    }
    Rng rng{seed_};
    for (int i = 0; i < kSources; ++i) {
      sim_.schedule_at(micros(rng.uniform_index(200)), [this, i] { emit(i); });
    }
    sim_.schedule_at(micros(120), [this] { tear_down(0); });
  }

  Log run() {
    sim_.run_all();
    return log_;
  }
  const Simulator& sim() const { return sim_; }

 private:
  static TimePoint micros(std::uint64_t us) {
    return TimePoint::from_nanos(static_cast<std::int64_t>(us) * 1000);
  }
  static Duration nanos(std::uint64_t ns) {
    return Duration::nanoseconds(static_cast<std::int64_t>(ns));
  }

  void push(int k, TimePoint at, const Packet& p) {
    PacketHandler* to = &recorder_;
    if (use_lines_) {
      if (lines_[k] != nullptr) lines_[k]->push(at, to, p);
      return;
    }
    if (!*alive_[k]) return;
    sim_.schedule_at(at, [w = std::weak_ptr<bool>(alive_[k]), to, p] {
      if (!w.expired()) to->handle(p);
    });
  }

  void tear_down(int k) {
    if (use_lines_) {
      lines_[k].reset();
    } else {
      alive_[k].reset();
      alive_[k] = std::make_shared<bool>(false);
    }
  }

  void emit(int i) {
    Rng rng{seed_ * 7919 + static_cast<std::uint64_t>(i)};
    const int k = static_cast<int>(rng.uniform_index(2));
    const int n = 1 + static_cast<int>(rng.uniform_index(4));
    const Duration base = nanos(rng.uniform_index(4) * 5000);
    for (int j = 0; j < n; ++j) {
      Packet p;
      p.id = static_cast<std::uint64_t>(i) * 10 + static_cast<std::uint64_t>(j) + 1;
      Duration d = base;
      switch (rng.uniform_index(4)) {
        case 0: break;                                  // equal key time
        case 1: d = Duration::zero(); break;            // due now
        case 2: d += nanos(rng.uniform_index(3000)); break;  // overtakes
        default: d += nanos(rng.uniform_index(2)); break;    // 1-ns rounding
      }
      push(k, sim_.now() + d, p);
    }
    // A foreign event that ties with this source's base delivery time.
    const std::uint64_t tag = 1'000'000'000 + static_cast<std::uint64_t>(i);
    sim_.schedule_at(sim_.now() + base,
                     [this, tag] { log_.emplace_back(sim_.now().nanos(), tag); });
  }

  struct Forward {
    Twin* twin;
    void operator()(const Packet& p) const {
      twin->push(1, twin->sim_.now() + nanos(p.id % 7 * 700), p);
    }
  };

  Simulator sim_;
  std::uint64_t seed_;
  bool use_lines_;
  Log log_;
  Recorder<Forward> recorder_{sim_, log_, Forward{this}};
  std::shared_ptr<bool> alive_[2];
  std::unique_ptr<DelayLine> lines_[2];
};

TEST(DelayLine, FiresInClosureOrderOnRandomSchedules) {
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    Twin closures{seed, false};
    Twin lines{seed, true};
    const Log expected = closures.run();
    const Log got = lines.run();
    ASSERT_GT(expected.size(), 500u) << "seed " << seed;
    ASSERT_EQ(got, expected) << "seed " << seed;
    EXPECT_EQ(lines.sim().now(), closures.sim().now()) << "seed " << seed;
    // Torn-down deliveries are dropped instead of firing as no-ops.
    EXPECT_LE(lines.sim().events_processed(), closures.sim().events_processed());
  }
}

TEST(DelayLine, KeepsOnePendingKey) {
  Simulator sim;
  Log log;
  auto noop = [](const Packet&) {};
  Recorder<decltype(noop)> rec{sim, log, noop};
  DelayLine line{sim};
  for (std::uint64_t i = 1; i <= 100; ++i) {
    Packet p;
    p.id = i * 5 + 1;
    line.push(sim.now() + Duration::microseconds(static_cast<double>(i % 10)), &rec, p);
  }
  EXPECT_EQ(line.size(), 100u);
  EXPECT_EQ(sim.pending_events(), 1u);
  sim.run_all();
  EXPECT_EQ(line.size(), 0u);
  ASSERT_EQ(log.size(), 100u);
  for (std::size_t i = 1; i < log.size(); ++i) EXPECT_LE(log[i - 1].first, log[i].first);
}

TEST(DelayLine, RejectsPastTimesWithoutConsumingATicket) {
  Simulator sim;
  sim.run_until(TimePoint::origin() + Duration::milliseconds(1));
  DelayLine line{sim};
  Log log;
  auto noop = [](const Packet&) {};
  Recorder<decltype(noop)> rec{sim, log, noop};
  const std::uint64_t before = sim.reserve_fifo_tickets(1);
  EXPECT_THROW(line.push(TimePoint::origin(), &rec, Packet{}), std::logic_error);
  EXPECT_EQ(sim.reserve_fifo_tickets(1), before + 1);
  EXPECT_EQ(line.size(), 0u);
}

}  // namespace
}  // namespace pathload::sim
