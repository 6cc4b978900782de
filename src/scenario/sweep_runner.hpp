#pragma once

#include <cstddef>
#include <functional>
#include <type_traits>
#include <vector>

namespace pathload::scenario {

/// Shards independent experiment points across a pool of threads.
///
/// Every figure in the paper is a sweep over (load, config) operating
/// points, and every point is a self-contained simulation (its
/// ScenarioInstance owns its Simulator and RNG), so points parallelize
/// embarrassingly. The
/// runner guarantees *thread-count-independent results*:
///
///  - the caller enumerates points (and derives their seeds) sequentially
///    before anything runs, so no RNG is shared across workers;
///  - results land in their point's index slot, so output order never
///    depends on completion order.
///
/// A sweep over the same points with the same seeds therefore produces
/// byte-identical output whether it runs on 1 thread or 64.
class SweepRunner {
 public:
  /// `threads` <= 0 selects PATHLOAD_THREADS from the environment, or the
  /// hardware concurrency if unset.
  explicit SweepRunner(int threads = 0);

  int threads() const { return threads_; }

  /// Run `fn(i)` for every i in [0, n) and return the results in index
  /// order. `fn` must not touch shared mutable state; exceptions escape on
  /// the calling thread after all workers join.
  template <typename Fn>
  auto map(std::size_t n, Fn&& fn) -> std::vector<decltype(fn(std::size_t{0}))> {
    using R = decltype(fn(std::size_t{0}));
    static_assert(!std::is_same_v<R, bool>,
                  "map cannot return bool: vector<bool> packs bits, so "
                  "concurrent writes to distinct indices race; return int "
                  "or a struct instead");
    std::vector<R> results(n);
    run_indexed(n, [&](std::size_t i) { results[i] = fn(i); });
    return results;
  }

  /// Untyped variant: run `fn(i)` for every i in [0, n), work-stealing over
  /// an atomic index counter.
  void run_indexed(std::size_t n, const std::function<void(std::size_t)>& fn);

 private:
  int threads_;
};

}  // namespace pathload::scenario
