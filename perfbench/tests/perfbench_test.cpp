// Self-tests of the benchmark's own arithmetic and of the traced run's
// fidelity to the library's run_estimator_once.

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <numeric>

#include "perfbench.hpp"

namespace perfbench {
namespace {

using Outcome = EstimateReport::Outcome;

TEST(Percentile, NearestRank) {
  const std::vector<double> v = {7, 1, 9, 3, 5, 2, 8, 4, 10, 6};
  EXPECT_EQ(percentile(v, 50), 5);
  EXPECT_EQ(percentile(v, 90), 9);
  EXPECT_EQ(percentile(v, 91), 10);
  EXPECT_EQ(percentile(v, 100), 10);
  EXPECT_EQ(percentile(v, 1), 1);
  EXPECT_EQ(percentile({42}, 90), 42);
  EXPECT_EQ(percentile({}, 50), 0);
}

TEST(Percentile, TwoFixedValuesGiveAnObservedOne) {
  // Half the runs last 30 s, half 300 s: the median is one of them, not
  // an interpolated 165.
  std::vector<double> v(60, 30.0);
  v.insert(v.end(), 60, 300.0);
  EXPECT_EQ(percentile(v, 50), 30.0);
  EXPECT_EQ(percentile(v, 51), 300.0);
}

TEST(Percentile, CountAboveIsStrict) {
  std::vector<double> v(100);
  std::iota(v.begin(), v.end(), 1.0);
  const double p90 = percentile(v, 90);
  EXPECT_EQ(p90, 90);
  EXPECT_EQ(count_above(v, p90), 10u);
}

TEST(BusyFraction, SummedRunTimeOverWorkerTime) {
  EXPECT_DOUBLE_EQ(busy_fraction(6.0, 4, 2.0), 0.75);
  EXPECT_DOUBLE_EQ(busy_fraction(2.0, 1, 2.0), 1.0);
  EXPECT_EQ(busy_fraction(1.0, 4, 0.0), 0.0);
  EXPECT_EQ(busy_fraction(1.0, 0, 1.0), 0.0);
}

Span span(SpanKind k, int parent, std::int64_t a, std::int64_t b) {
  return Span{k, parent, a, b};
}

TEST(SelfTime, DurationMinusChildren) {
  const std::vector<Span> s = {
      span(SpanKind::kRun, -1, 0, 100),
      span(SpanKind::kBuild, 0, 10, 30),
      span(SpanKind::kEstimate, 0, 40, 90),
      span(SpanKind::kStream, 2, 50, 60),
      span(SpanKind::kIdle, 2, 60, 75),
  };
  const std::vector<std::int64_t> self = self_times(s);
  EXPECT_EQ(self[0], 100 - 20 - 50);
  EXPECT_EQ(self[1], 20);
  EXPECT_EQ(self[2], 50 - 10 - 15);
  EXPECT_EQ(self[3], 10);
  EXPECT_EQ(self[4], 15);
  EXPECT_EQ(std::accumulate(self.begin(), self.end(), std::int64_t{0}), 100);
}

TEST(SelfTime, OverlappingChildrenCountOnceAndClipToParent) {
  const std::vector<Span> s = {
      span(SpanKind::kRun, -1, 0, 100),
      span(SpanKind::kBuild, 0, 10, 40),
      span(SpanKind::kWarmup, 0, 20, 50),
      span(SpanKind::kEstimate, 0, 90, 130),
  };
  const std::vector<std::int64_t> self = self_times(s);
  EXPECT_EQ(self[0], 100 - 40 - 10);
}

EstimateReport good_point() {
  EstimateReport r;
  r.estimator = "topp";
  r.valid = true;
  r.low = r.high = pathload::Rate::mbps(4);
  r.packets_sent = 10;
  r.packets_lost = 2;
  return r;
}

TEST(CheckReport, AcceptsWellFormedReports) {
  EXPECT_EQ(check_report(good_point()), "");
  EstimateReport range = good_point();
  range.is_range = true;
  range.low = pathload::Rate::zero();  // pathload's [Rmin = 0, Rmax]
  EXPECT_EQ(check_report(range), "");
  EstimateReport zero = range;
  zero.high = pathload::Rate::zero();  // spruce's mean folded into [0, C]
  EXPECT_EQ(check_report(zero), "");
  EstimateReport failed;
  failed.outcome = Outcome::kFailed;
  EXPECT_EQ(check_report(failed), "");
}

TEST(CheckReport, RejectsMalformedReports) {
  EstimateReport r = good_point();
  r.low = pathload::Rate::mbps(5);
  EXPECT_NE(check_report(r), "");  // low > high
  r = good_point();
  r.high = pathload::Rate::bps(std::numeric_limits<double>::quiet_NaN());
  EXPECT_NE(check_report(r), "");
  r = good_point();
  r.low = pathload::Rate::mbps(-1);
  EXPECT_NE(check_report(r), "");
  r = good_point();
  r.packets_lost = 11;
  EXPECT_NE(check_report(r), "");
  r = good_point();
  r.packets_lost = -1;
  EXPECT_NE(check_report(r), "");
  r = good_point();
  r.outcome = Outcome::kFailed;
  EXPECT_NE(check_report(r), "");  // a failed run cannot be valid
  r = good_point();
  r.outcome = static_cast<Outcome>(7);
  EXPECT_NE(check_report(r), "");
}

TEST(CheckReport, ThrewOnlyForCaughtExceptions) {
  EstimateReport r;
  r.outcome = Outcome::kFailed;
  r.outcome_note = "error: boom";
  EXPECT_TRUE(threw(r));
  r.outcome_note = "channel fault: peer gone";
  EXPECT_TRUE(threw(r));
  r.outcome_note = "no turning point";
  EXPECT_FALSE(threw(r));
}

TEST(ReportHash, SeesEveryField) {
  const EstimateReport a = good_point();
  EstimateReport b = a;
  EXPECT_EQ(report_hash(a), report_hash(b));
  b.iterations.push_back({1.0, 2.0, "x"});
  EXPECT_NE(report_hash(a), report_hash(b));
  b = a;
  b.elapsed = pathload::Duration::nanoseconds(1);
  EXPECT_NE(report_hash(a), report_hash(b));
  b = a;
  b.high = pathload::Rate::bps(std::nextafter(a.high.bits_per_sec(), 1e300));
  EXPECT_NE(report_hash(a), report_hash(b));
  EXPECT_NE(digest({1, 2}), digest({2, 1}));
}

TEST(Workloads, SameSeedSameBatch) {
  for (const std::string& name : workload_names()) {
    const Workload a = make_workload(name, 7);
    const Workload b = make_workload(name, 7);
    const Workload c = make_workload(name, 8);
    ASSERT_EQ(a.runs.size(), b.runs.size()) << name;
    ASSERT_GE(a.runs.size(), 110u) << name;  // ten runs beyond p90 per cycle
    bool differs = false;
    for (std::size_t i = 0; i < a.runs.size(); ++i) {
      EXPECT_EQ(a.runs[i].seed, b.runs[i].seed);
      EXPECT_EQ(a.specs[a.runs[i].spec].to_text(), b.specs[b.runs[i].spec].to_text());
      differs |= a.runs[i].seed != c.runs[i].seed;
    }
    EXPECT_TRUE(differs) << name;
    for (std::uint32_t i : a.subset) EXPECT_LT(i, a.runs.size());
  }
  EXPECT_THROW(make_workload("nope", 1), std::invalid_argument);
}

// The traced run calls the library layer by layer through the timing
// decorator; it must reproduce run_estimator_once report for report, and
// its span self times must add up to the run's duration.
TEST(TracedRun, ReproducesRunEstimatorOnce) {
  struct Pick {
    const char* workload;
    std::vector<std::uint32_t> runs;
  };
  // probe-matrix-v2 cells are tool-major over 4 scenarios: runs 0..31 hit
  // every (tool, scenario) cell once; tcp-bulk-v2 runs 0..5 likewise.
  std::vector<std::uint32_t> probe(32);
  std::iota(probe.begin(), probe.end(), 0U);
  const std::vector<Pick> picks = {
      {"probe-matrix-v2", probe}, {"tcp-bulk-v2", {0, 1, 3, 4}}, {"pathload-sweep-v1", {0, 9}}};
  for (std::uint64_t seed : {1u, 2u}) {
    for (const Pick& p : picks) {
      const Workload w = make_workload(p.workload, seed);
      for (std::uint32_t i : p.runs) {
        const perfbench::Run& r = w.runs[i];
        const auto e1 = w.estimators[r.estimator].make();
        const auto e2 = w.estimators[r.estimator].make();
        RunSpans spans;
        RunCounters counters;
        const EstimateReport traced = run_traced(w, r, *e2, spans, counters);
        const EstimateReport plain = run_plain(w, r, *e1);
        EXPECT_EQ(report_hash(traced), report_hash(plain))
            << p.workload << " seed " << seed << " run " << i;
        EXPECT_EQ(check_report(plain), "") << p.workload << " run " << i;
        ASSERT_FALSE(spans.spans.empty());
        EXPECT_EQ(spans.spans[0].kind, SpanKind::kRun);
        const std::vector<std::int64_t> self = self_times(spans.spans);
        EXPECT_EQ(std::accumulate(self.begin(), self.end(), std::int64_t{0}),
                  spans.spans[0].end_ns - spans.spans[0].start_ns);
        EXPECT_GT(counters.events, 0u);
      }
    }
  }
}

}  // namespace
}  // namespace perfbench
