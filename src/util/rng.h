// Deterministic pseudo-random number generation for reproducible simulation.
//
// Every simulation, bench, and test takes an explicit seed; the generator is
// xoshiro256** seeded via SplitMix64, which is fast, has a 256-bit state, and
// produces identical streams on every platform (unlike std::mt19937 paired
// with std::uniform_*_distribution, whose outputs are implementation
// defined).
#pragma once

#include <array>
#include <cstdint>
#include <vector>

namespace snd::util {

/// Deterministically derives the seed for trial `trial_index` of a sweep
/// seeded with `base_seed` (SplitMix64-based mixing, bit-identical on every
/// platform). shard::Session and the property suite seed every trial
/// through this function, so spreading trials across workers or shards can
/// never change their random streams.
std::uint64_t derive_seed(std::uint64_t base_seed, std::uint64_t trial_index);

/// xoshiro256** 1.0 (Blackman & Vigna), seeded via SplitMix64.
class Rng {
 public:
  using result_type = std::uint64_t;

  explicit Rng(std::uint64_t seed = 0x5eed5eed5eed5eedULL);

  /// Uniform 64-bit word.
  std::uint64_t next();

  /// UniformRandomBitGenerator interface (usable with std::shuffle).
  std::uint64_t operator()() { return next(); }
  static constexpr std::uint64_t min() { return 0; }
  static constexpr std::uint64_t max() { return ~0ULL; }

  /// Uniform in [0, 1).
  double uniform();
  /// Uniform in [lo, hi).
  double uniform(double lo, double hi);
  /// Uniform integer in [0, n). Requires n > 0. Unbiased (rejection method).
  std::uint64_t uniform_int(std::uint64_t n);
  /// Uniform integer in [lo, hi] inclusive. Requires lo <= hi.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi);
  /// Bernoulli trial.
  bool chance(double p);
  /// Standard normal via Box-Muller.
  double normal();
  double normal(double mean, double stdev);
  /// Exponential with the given rate (mean 1/rate).
  double exponential(double rate);
  /// Poisson-distributed count (Knuth for small mean, normal approx beyond).
  std::uint64_t poisson(double mean);

  /// Derive an independent child generator (for per-node streams).
  Rng fork();

  /// Sample k distinct indices from [0, n) (k <= n), in random order.
  std::vector<std::size_t> sample_without_replacement(std::size_t n, std::size_t k);

  template <typename It>
  void shuffle(It first, It last) {
    const auto n = static_cast<std::uint64_t>(last - first);
    for (std::uint64_t i = n; i > 1; --i) {
      const auto j = uniform_int(i);
      std::swap(first[i - 1], first[j]);
    }
  }

 private:
  std::array<std::uint64_t, 4> s_{};
  double cached_normal_ = 0.0;
  bool has_cached_normal_ = false;
};

}  // namespace snd::util
