// Golden anchors for the packet-accurate TCP path.
//
// A greedy TCP transfer is the most scheduler-heavy run in the repo: every
// segment crosses link service timers and propagation pipes, every ACK
// rides the reverse path, and every ACK re-arms the retransmission timer.
// The expected values were captured before those mechanisms moved from
// per-packet closures to FIFO delay lines and a lazily re-armed RTO timer;
// a scheduler change that keeps every (time, FIFO ticket) key must keep
// every bit below. Seed 77 on btc-path under engine v2 and on paper-path
// under engine v1, as in tests/integration/engine_determinism_test.cpp.

#include <gtest/gtest.h>

#include <cstdint>

#include "baselines/estimators.hpp"
#include "core/channel.hpp"
#include "scenario/registry.hpp"
#include "scenario/sim_channel.hpp"
#include "scenario/spec.hpp"

namespace pathload {
namespace {

constexpr std::uint64_t kSeed = 77;

/// Forwards every call and keeps the outcome of the (single) bulk transfer.
class RecordingChannel final : public core::ProbeChannel, public core::BulkChannel {
 public:
  explicit RecordingChannel(core::ProbeChannel& inner) : inner_{inner} {}

  core::StreamOutcome run_stream(const core::StreamSpec& spec) override {
    return inner_.run_stream(spec);
  }
  void idle(Duration d) override { inner_.idle(d); }
  TimePoint now() override { return inner_.now(); }
  Duration rtt() const override { return inner_.rtt(); }
  core::BulkChannel* bulk() override { return this; }
  core::BulkTransferOutcome run_bulk_transfer(const core::BulkTransferSpec& spec) override {
    ++transfers;
    outcome = inner_.bulk()->run_bulk_transfer(spec);
    return outcome;
  }

  int transfers{0};
  core::BulkTransferOutcome outcome;

 private:
  core::ProbeChannel& inner_;
};

struct Anchor {
  double low_bps;
  double high_bps;
  std::int64_t bytes_acked;
  std::uint64_t fast_retransmits;
  std::uint64_t timeouts;
  std::size_t rtt_samples;
  double rtt_sum_secs;  // summed in sample order
  std::size_t rate_samples;
};

void expect_anchor(const char* tool, const char* preset, scenario::EngineVersion engine,
                   const Anchor& want) {
  scenario::ScenarioSpec spec = scenario::Registry::builtin().at(preset);
  spec.engine = engine;
  spec.seed = kSeed;
  scenario::ScenarioInstance inst{std::move(spec)};
  inst.start();
  scenario::SimProbeChannel channel{inst.simulator(), inst.path()};
  RecordingChannel rec{channel};
  const auto est = baselines::builtin_estimators().make(tool, "");
  Rng rng{kSeed};
  const core::EstimateReport r = est->run(rec, rng);

  ASSERT_TRUE(r.valid);
  ASSERT_EQ(rec.transfers, 1);
  EXPECT_EQ(r.low.bits_per_sec(), want.low_bps);
  EXPECT_EQ(r.high.bits_per_sec(), want.high_bps);
  const core::BulkTransferOutcome& out = rec.outcome;
  EXPECT_EQ(out.bytes_acked.byte_count(), want.bytes_acked);
  EXPECT_EQ(out.fast_retransmits, want.fast_retransmits);
  EXPECT_EQ(out.timeouts, want.timeouts);
  EXPECT_EQ(out.rtt_samples_secs.size(), want.rtt_samples);
  double rtt_sum = 0.0;
  for (const double s : out.rtt_samples_secs) rtt_sum += s;
  EXPECT_EQ(rtt_sum, want.rtt_sum_secs);
  EXPECT_EQ(out.rate_samples.size(), want.rate_samples);
}

TEST(TcpGolden, BtcOnBtcPathV2) {
  expect_anchor("btc", "btc-path", scenario::EngineVersion::kV2,
                {5044046.9333333336, 5044046.9333333336, 189151760, 10, 0, 973,
                 296.74271797999995, 126884});
}

TEST(TcpGolden, BtcOnPaperPathV1) {
  expect_anchor("btc", "paper-path", scenario::EngineVersion::kV1,
                {3872815.4666666668, 3872815.4666666668, 145230580, 5, 0, 646,
                 295.65131269199986, 95602});
}

TEST(TcpGolden, DeliveryRateOnBtcPathV2) {
  expect_anchor("delivery-rate", "btc-path", scenario::EngineVersion::kV2,
                {4594338.72434502, 5232011.1130267754, 17531680, 0, 0, 109,
                 29.782646078999996, 12008});
}

TEST(TcpGolden, DeliveryRateOnPaperPathV1) {
  expect_anchor("delivery-rate", "paper-path", scenario::EngineVersion::kV1,
                {3741875.5628532022, 3992053.5078535168, 14443780, 0, 0, 96,
                 29.824440414999998, 9893});
}

// Impaired paths: random loss drives fast retransmits and RTO firings
// (lossy-tight), reorder jitter makes link deliveries overtake one another
// (reorder-jitter), and flaky-path combines loss, duplication and jitter.
TEST(TcpGolden, BtcOnLossyTightV2) {
  expect_anchor("btc", "lossy-tight", scenario::EngineVersion::kV2,
                {528208.53333333333, 528208.53333333333, 19807820, 316, 35, 1542,
                 241.69808580600034, 10651});
}

TEST(TcpGolden, BtcOnReorderJitterV2) {
  expect_anchor("btc", "reorder-jitter", scenario::EngineVersion::kV2,
                {3888817.0666666669, 3888817.0666666669, 145830640, 5, 0, 632,
                 296.68580244099996, 97693});
}

TEST(TcpGolden, BtcOnFlakyPathV2) {
  expect_anchor("btc", "flaky-path", scenario::EngineVersion::kV2,
                {683396.80000000005, 683396.80000000005, 25627380, 276, 15, 1651,
                 256.51554962099971, 14310});
}

}  // namespace
}  // namespace pathload
