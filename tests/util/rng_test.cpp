#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <random>
#include <stdexcept>
#include <vector>

#include "util/rng.hpp"
#include "util/stats.hpp"

namespace pathload {
namespace {

TEST(Rng, DeterministicGivenSeed) {
  Rng a{42};
  Rng b{42};
  for (int i = 0; i < 100; ++i) {
    EXPECT_DOUBLE_EQ(a.uniform(), b.uniform());
  }
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a{1};
  Rng b{2};
  bool any_different = false;
  for (int i = 0; i < 10; ++i) {
    if (a.uniform() != b.uniform()) any_different = true;
  }
  EXPECT_TRUE(any_different);
}

TEST(Rng, UniformRange) {
  Rng rng{7};
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.uniform(2.0, 5.0);
    EXPECT_GE(x, 2.0);
    EXPECT_LT(x, 5.0);
  }
}

TEST(Rng, UniformIndexInBounds) {
  Rng rng{7};
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.uniform_index(13), 13u);
  }
}

TEST(Rng, ExponentialMeanConverges) {
  Rng rng{11};
  OnlineStats s;
  for (int i = 0; i < 200'000; ++i) s.add(rng.exponential(3.0));
  EXPECT_NEAR(s.mean(), 3.0, 0.05);
  // Exponential: stddev == mean.
  EXPECT_NEAR(s.stddev(), 3.0, 0.1);
}

TEST(Rng, ExponentialIsBitIdenticalToStdDistribution) {
  // exponential() inlines libstdc++'s exponential_distribution expression;
  // every draw of v1's Poisson cross traffic depends on the two agreeing
  // to the last bit, including the rare draws where U rounds toward 1.
  for (const double mean : {1e-4, 0.0012, 1.0, 3.0, 250.0}) {
    Rng fast{2024};
    Rng reference{2024};
    std::exponential_distribution<double> dist{1.0 / mean};
    for (int i = 0; i < 1'000'000; ++i) {
      const double a = fast.exponential(mean);
      const double b = dist(reference.engine());
      if (std::bit_cast<std::uint64_t>(a) != std::bit_cast<std::uint64_t>(b)) {
        FAIL() << "mean " << mean << " draw " << i << ": " << a << " != " << b;
      }
    }
  }
}

TEST(Rng, ParetoMeanConverges) {
  Rng rng{13};
  OnlineStats s;
  for (int i = 0; i < 400'000; ++i) s.add(rng.pareto(1.9, 2.0));
  // alpha = 1.9 has a finite mean but infinite variance; the sample mean
  // converges slowly, so the tolerance is loose.
  EXPECT_NEAR(s.mean(), 2.0, 0.25);
}

TEST(Rng, ParetoRespectsMinimum) {
  Rng rng{17};
  const double alpha = 1.9;
  const double mean = 2.0;
  const double x_m = mean * (alpha - 1.0) / alpha;
  for (int i = 0; i < 10'000; ++i) {
    EXPECT_GE(rng.pareto(alpha, mean), x_m);
  }
}

TEST(Rng, ParetoHeavyTailProducesLargeSamples) {
  Rng rng{19};
  double largest = 0.0;
  for (int i = 0; i < 100'000; ++i) largest = std::max(largest, rng.pareto(1.9, 1.0));
  // With alpha = 1.9 and 1e5 samples, bursts an order of magnitude above
  // the mean are essentially certain.
  EXPECT_GT(largest, 20.0);
}

TEST(Rng, ParetoRejectsAlphaWithInfiniteMean) {
  Rng rng{23};
  EXPECT_THROW(rng.pareto(1.0, 1.0), std::invalid_argument);
  EXPECT_THROW(rng.pareto(0.5, 1.0), std::invalid_argument);
}

TEST(Rng, PickWeightedMatchesWeights) {
  Rng rng{29};
  const std::vector<double> weights{0.4, 0.5, 0.1};
  std::vector<int> counts(3, 0);
  const int n = 100'000;
  for (int i = 0; i < n; ++i) ++counts[rng.pick_weighted(weights)];
  EXPECT_NEAR(counts[0] / static_cast<double>(n), 0.4, 0.01);
  EXPECT_NEAR(counts[1] / static_cast<double>(n), 0.5, 0.01);
  EXPECT_NEAR(counts[2] / static_cast<double>(n), 0.1, 0.01);
}

TEST(Rng, PickWeightedRejectsEmpty) {
  Rng rng{31};
  EXPECT_THROW(rng.pick_weighted({}), std::invalid_argument);
}

TEST(Rng, ForkProducesIndependentStreams) {
  Rng parent{37};
  Rng child1 = parent.fork();
  Rng child2 = parent.fork();
  // Children seeded differently from each other.
  bool differ = false;
  for (int i = 0; i < 10; ++i) {
    if (child1.uniform() != child2.uniform()) differ = true;
  }
  EXPECT_TRUE(differ);
}

}  // namespace
}  // namespace pathload
