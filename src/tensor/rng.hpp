// Deterministic random number generation for the whole library.
//
// Every stochastic component (weight init, dropout-pattern sampling,
// dataset synthesis, client selection) takes an explicit Rng so entire
// federated simulations are reproducible from a single seed.
//
// The engine is xoshiro256** (Blackman & Vigna), which is fast, has a
// 2^256-1 period, and supports cheap stream splitting via jump-free
// reseeding with SplitMix64.
#pragma once

#include <cstdint>
#include <vector>

namespace fedbiad::tensor {

/// xoshiro256** pseudo-random generator with convenience distributions.
class Rng {
 public:
  using result_type = std::uint64_t;

  explicit Rng(std::uint64_t seed = 0x9E3779B97F4A7C15ULL) { reseed(seed); }

  /// Re-initializes the state from `seed` via SplitMix64.
  void reseed(std::uint64_t seed);

  /// Derives an independent child stream; children with distinct `stream`
  /// values are statistically independent of each other and of the parent.
  [[nodiscard]] Rng split(std::uint64_t stream) const;

  /// Raw 64 uniform bits.
  std::uint64_t next_u64();

  /// Advances the stream by `n` next_u64() draws without producing them.
  /// uniform() consumes exactly one raw draw, so a fixed-budget consumer
  /// (netsim::draw_profile: three uniforms) can be skipped bit-exactly.
  void discard(std::uint64_t n);

  // UniformRandomBitGenerator interface (usable with <random> adaptors).
  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~0ULL; }
  result_type operator()() { return next_u64(); }

  /// Uniform double in [0, 1).
  double uniform();

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi);

  /// Uniform integer in [0, n); n must be positive.
  std::uint64_t uniform_index(std::uint64_t n);

  /// Standard normal via Box–Muller (cached second deviate).
  double normal();

  /// Normal with the given mean and standard deviation.
  double normal(double mean, double stddev);

  /// Bernoulli draw with success probability `p`.
  bool bernoulli(double p);

  /// Draws an index in [0, weights.size()) proportional to `weights`.
  std::size_t categorical(const std::vector<double>& weights);

  /// Fisher–Yates shuffle.
  template <typename T>
  void shuffle(std::vector<T>& v) {
    for (std::size_t i = v.size(); i > 1; --i) {
      const std::size_t j = uniform_index(i);
      using std::swap;
      swap(v[i - 1], v[j]);
    }
  }

  /// Samples `k` distinct indices from [0, n) uniformly (partial shuffle).
  std::vector<std::size_t> sample_without_replacement(std::size_t n,
                                                      std::size_t k);

  /// Complete generator state, exposed so a checkpoint can freeze a stream
  /// mid-sequence and resume() can continue it bit-identically. The cached
  /// Box–Muller deviate is part of the state: dropping it would desync the
  /// normal() sequence by one draw.
  struct State {
    std::uint64_t s[4] = {};
    double cached_normal = 0.0;
    bool has_cached_normal = false;
  };

  [[nodiscard]] State state() const noexcept;
  void set_state(const State& state) noexcept;

 private:
  std::uint64_t s_[4];
  double cached_normal_ = 0.0;
  bool has_cached_normal_ = false;
};

}  // namespace fedbiad::tensor
