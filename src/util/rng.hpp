#pragma once

#include <cmath>
#include <cstdint>
#include <random>
#include <span>
#include <vector>

namespace pathload {

/// Seeded pseudo-random source used everywhere randomness is needed.
///
/// Every experiment takes an explicit seed so simulation results are
/// reproducible run-to-run (the paper's NS simulations are similarly
/// seed-controlled). One Rng instance must not be shared across logically
/// independent streams of randomness if independence matters; derive child
/// generators with `fork()`.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : engine_{seed} {}

  /// Uniform in [0, 1).
  ///
  /// Bit-identical to `std::uniform_real_distribution<double>{0, 1}` over
  /// mt19937_64 on libstdc++ (its generate_canonical draws one 64-bit word,
  /// divides by 2^64 -- exact power-of-two scaling, reproduced by the
  /// multiply below -- and clamps a result that rounds to 1.0 with the
  /// same nextafter, consuming no extra word; see bits/random.tcc). Skips
  /// the distribution object's long-double detour -- worth ~10 ns per draw
  /// on the simulator's per-packet sampling path.
  double uniform() {
    const double u = static_cast<double>(engine_()) * 0x1p-64;
    return u < 1.0 ? u : std::nextafter(1.0, 0.0);
  }

  /// Uniform in [lo, hi).
  double uniform(double lo, double hi) { return lo + (hi - lo) * uniform(); }

  /// Uniform integer in [0, n).
  std::uint64_t uniform_index(std::uint64_t n) {
    return std::uniform_int_distribution<std::uint64_t>{0, n - 1}(engine_);
  }

  /// Exponential with the given mean (Poisson process interarrivals).
  ///
  /// Bit-identical to `std::exponential_distribution<double>{1.0 / mean}`
  /// on libstdc++, which computes -log(1 - U) / lambda over the same
  /// generate_canonical draw that uniform() reproduces; calling the
  /// expression directly skips the distribution object on v1's per-packet
  /// cross-traffic path.
  double exponential(double mean) { return -std::log(1.0 - uniform()) / (1.0 / mean); }

  /// Pareto with shape `alpha` and the given mean (requires alpha > 1).
  ///
  /// The paper's cross traffic uses Pareto interarrivals with alpha = 1.9:
  /// finite mean but infinite variance, i.e. heavy burstiness. Scale is
  /// x_m = mean * (alpha - 1) / alpha so that E[X] = mean.
  double pareto(double alpha, double mean);

  /// The inverse-CDF transform behind `pareto`, exposed so hot paths that
  /// hoist the constants (x_m, 1/alpha) out of the loop share one
  /// definition -- the drawn sequence must stay bit-identical between the
  /// two call styles.
  static double pareto_from_uniform(double u01, double x_m, double inv_alpha) {
    const double u = 1.0 - u01;  // in (0, 1]
    return x_m / std::pow(u, inv_alpha);
  }

  /// Pick an index from a discrete distribution given by weights.
  std::size_t pick_weighted(std::span<const double> weights);

  /// Derive an independent child generator (stable given this Rng's state).
  Rng fork() { return Rng{engine_()}; }

  std::mt19937_64& engine() { return engine_; }

 private:
  std::mt19937_64 engine_;
};

}  // namespace pathload
