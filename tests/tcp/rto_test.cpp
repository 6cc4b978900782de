#include <gtest/gtest.h>

#include <algorithm>
#include <memory>

#include "tcp/reno.hpp"

namespace pathload::tcp {
namespace {

/// A path whose single link can be "blackholed" by swapping its downstream
/// to nowhere — for exercising the RTO machinery.
struct BlackholeNet {
  sim::Simulator sim;
  std::unique_ptr<sim::Path> path;

  BlackholeNet() {
    path = std::make_unique<sim::Path>(
        sim, std::vector<sim::HopSpec>{{Rate::mbps(8), Duration::milliseconds(20),
                                        DataSize::bytes(500'000)}});
  }

  void blackhole() { path->link(0).set_downstream(nullptr); }
};

TEST(TcpRto, BlackholeTriggersTimeoutsWithBackoff) {
  BlackholeNet net;
  TcpConnection conn{net.sim, *net.path, TcpConfig{}, Duration::milliseconds(20)};
  conn.sender().start();
  net.sim.run_for(Duration::seconds(2));  // transfer under way
  EXPECT_EQ(conn.sender().timeouts(), 0u);

  net.blackhole();  // every subsequent packet vanishes
  net.sim.run_for(Duration::seconds(30));
  // Multiple RTOs with exponential backoff, no fast retransmits possible
  // (no ACKs at all), and cwnd collapsed to 1.
  EXPECT_GE(conn.sender().timeouts(), 3u);
  EXPECT_LE(conn.sender().timeouts(), 10u);  // backoff: not one per RTO_min
  EXPECT_DOUBLE_EQ(conn.sender().cwnd_segments(), 1.0);
}

TEST(TcpRto, KeepsRetryingThroughAnOutage) {
  BlackholeNet net;
  TcpConnection conn{net.sim, *net.path, TcpConfig{}, Duration::milliseconds(20)};
  conn.sender().start();
  net.sim.run_for(Duration::seconds(2));
  const auto sent_before = conn.sender().segments_sent();

  net.blackhole();
  net.sim.run_for(Duration::seconds(5));
  const auto acked_at_outage = conn.sender().segments_acked();
  const auto sent_at_outage = conn.sender().segments_sent();
  EXPECT_GT(sent_at_outage, sent_before);  // go-back-N retransmissions

  // The timer never dies: retransmissions continue as long as data is
  // outstanding, even with zero feedback.
  net.sim.run_for(Duration::seconds(10));
  EXPECT_GT(conn.sender().segments_sent(), sent_at_outage);
  EXPECT_EQ(conn.sender().segments_acked(), acked_at_outage);
}

TEST(TcpRto, RtoBackoffCapsAtMax) {
  BlackholeNet net;
  TcpConfig cfg;
  cfg.initial_rto = Duration::milliseconds(500);
  cfg.max_rto = Duration::seconds(4);
  TcpConnection conn{net.sim, *net.path, cfg, Duration::milliseconds(20)};
  net.blackhole();  // nothing ever arrives
  conn.sender().start();
  net.sim.run_for(Duration::seconds(60));
  // With doubling from 500 ms capped at 4 s: 0.5+1+2+4+4+... -> in 60 s
  // roughly 16 timeouts; without the cap there would be ~7.
  EXPECT_GE(conn.sender().timeouts(), 12u);
}

TEST(TcpRto, NoSpuriousTimeoutWhenIdle) {
  BlackholeNet net;
  TcpConnection conn{net.sim, *net.path, TcpConfig{}, Duration::milliseconds(20)};
  conn.sender().start();
  net.sim.run_for(Duration::seconds(2));
  conn.sender().stop();
  net.sim.run_for(Duration::seconds(30));  // all data acked, long idle
  EXPECT_EQ(conn.sender().timeouts(), 0u);
}

TEST(TcpRto, SrttConvergesAndRtoTracksIt) {
  BlackholeNet net;
  TcpConfig cfg;
  cfg.advertised_window = 4.0;
  TcpConnection conn{net.sim, *net.path, cfg, Duration::milliseconds(20)};
  conn.sender().start();
  net.sim.run_for(Duration::seconds(10));
  // Base RTT = 40 ms prop + small serialization; no congestion.
  EXPECT_NEAR(conn.sender().srtt().millis(), 40.0, 8.0);
  EXPECT_EQ(conn.sender().timeouts(), 0u);
}

TEST(TcpRto, DeadlineKeepsTheTieBreakTicketOfTheLatestArm) {
  // Two ACKs in the same nanosecond re-arm the RTO for the same instant.
  // The timeout must fire at the later arm's FIFO ticket: after an event
  // scheduled for that instant between the two arms, as a closure
  // scheduled by each arm would have.
  BlackholeNet net;
  net.blackhole();
  TcpSender sender{net.sim, *net.path, TcpConfig{}};
  sender.start();  // segments 0 and 1 at t = 0; RTO deadline at 1 s
  net.sim.run_until(TimePoint::origin() + Duration::milliseconds(100));
  const auto ack = [&](std::uint64_t cum) {
    sim::Packet p;
    p.kind = sim::PacketKind::kTcpAck;
    p.flow = sender.flow();
    p.tcp_seq = cum;
    sender.handle(p);
  };
  // RTT sample 100 ms: srtt 100 ms + 4 x rttvar 50 ms = RTO 300 ms, so the
  // deadline moves *earlier*, from 1 s to 400 ms.
  ack(1);
  const TimePoint deadline = TimePoint::origin() + Duration::milliseconds(400);
  std::uint64_t timeouts_seen = 99;
  net.sim.schedule_at(deadline, [&] { timeouts_seen = sender.timeouts(); });
  ack(2);  // no RTT sample (segment 2 is timed): same RTO, later ticket
  net.sim.run_until(deadline);
  EXPECT_EQ(timeouts_seen, 0u);
  EXPECT_EQ(sender.timeouts(), 1u);
}

TEST(TcpRto, AConnectionKeepsAFewSchedulerKeysWhateverItsWindow) {
  // Deliveries and ACKs ride one delay line per pipe and the RTO keeps one
  // timer, so a connection with dozens of segments in flight holds only:
  // the link's service timer and delivery line, the reverse ACK line, the
  // RTO timer — plus the sampling timer below.
  BlackholeNet net;
  TcpConnection conn{net.sim, *net.path, TcpConfig{}, Duration::milliseconds(20)};
  conn.sender().start();
  std::size_t most = 0;
  double most_in_flight = 0.0;
  sim::Simulator::TimerHandle sampler;
  sampler = net.sim.make_timer([&] {
    most = std::max(most, net.sim.pending_events());
    most_in_flight = std::max(most_in_flight, conn.sender().cwnd_segments());
    sampler.schedule_in(Duration::milliseconds(1));
  });
  sampler.schedule_in(Duration::milliseconds(1));
  net.sim.run_for(Duration::seconds(3));
  EXPECT_GT(most_in_flight, 20.0);
  EXPECT_LE(most, 5u);
}

}  // namespace
}  // namespace pathload::tcp
