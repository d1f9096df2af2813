// Deterministic, seedable random number generation for simulation and
// statistics. Every stochastic component in tormet takes an rng& so that
// experiments and tests are exactly reproducible from a seed. Cryptographic
// randomness (key generation, blinding) lives in src/crypto/secure_rng.h
// instead.
#pragma once

#include <cstdint>
#include <limits>
#include <string_view>

namespace tormet {

/// xoshiro256** 1.0 (Blackman & Vigna) — fast, high-quality, 256-bit state.
/// Satisfies UniformRandomBitGenerator so it plugs into <random>
/// distributions where convenient.
class rng {
 public:
  using result_type = std::uint64_t;

  /// Seeds the four state words via splitmix64 so any 64-bit seed produces a
  /// well-mixed state (including seed 0).
  explicit rng(std::uint64_t seed = 0x5eed'dead'beef'cafeULL) noexcept;

  /// Derives an independent stream from this rng and a label, so subsystems
  /// can be given decorrelated generators from one experiment seed.
  [[nodiscard]] rng fork(std::string_view label) noexcept;

  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept {
    return std::numeric_limits<result_type>::max();
  }

  result_type operator()() noexcept { return next(); }

  /// Next 64 uniform random bits.
  std::uint64_t next() noexcept;

  /// Uniform integer in [0, bound). bound must be nonzero. Unbiased
  /// (rejection sampling on the top of the range).
  std::uint64_t below(std::uint64_t bound) noexcept;

  /// Uniform integer in [lo, hi] inclusive.
  std::int64_t between(std::int64_t lo, std::int64_t hi) noexcept;

  /// Uniform double in [0, 1) with 53 bits of precision.
  double uniform() noexcept;

  /// Standard normal via Box–Muller (cached second value).
  double normal() noexcept;

  /// Bernoulli draw with success probability p (clamped to [0,1]).
  bool bernoulli(double p) noexcept;

  /// Exponential with rate lambda > 0.
  double exponential(double lambda) noexcept;

  /// Poisson(mean). Uses Knuth for small means and normal approximation for
  /// large means (mean > 64); adequate for workload generation.
  std::uint64_t poisson(double mean) noexcept;

 private:
  std::uint64_t state_[4];
  double cached_normal_ = 0.0;
  bool has_cached_normal_ = false;
};

}  // namespace tormet
