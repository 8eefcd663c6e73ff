// Deterministic pseudo-random number generation.
//
// The library never uses std::random_device or global state: every random
// algorithm takes an explicit 64-bit seed, and per-(phase, vertex) streams
// are derived with stream_seed(). This is what makes the message-passing
// protocol of the Elkin–Neiman algorithm bit-identical to the dense
// reference carver the tests keep, at every thread count: both sample r_v
// for vertex v in phase t from Xoshiro256ss(stream_seed(seed, t, v))
// without sharing any generator state.
#pragma once

#include <array>
#include <cstdint>
#include <limits>

namespace dsnd {

/// SplitMix64: tiny generator used to expand seeds (Vigna, public domain
/// algorithm; reimplemented here). Passes through every 64-bit value
/// exactly once over its period, which makes it a good seed mixer.
class SplitMix64 {
 public:
  using result_type = std::uint64_t;

  explicit SplitMix64(std::uint64_t seed) : state_(seed) {}

  std::uint64_t operator()() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

  static constexpr std::uint64_t min() { return 0; }
  static constexpr std::uint64_t max() {
    return std::numeric_limits<std::uint64_t>::max();
  }

 private:
  std::uint64_t state_;
};

/// SplitMix64's output from state h + word: a running fold with full
/// avalanche, so permuted word sequences land on different hashes. Graph
/// fingerprints and the result cache's schedule signatures use it.
inline std::uint64_t mix_word(std::uint64_t h, std::uint64_t word) {
  return SplitMix64(h + word)();
}

/// xoshiro256**: fast, high-quality 64-bit generator (Blackman & Vigna
/// algorithm; reimplemented here). State is seeded via SplitMix64 so that
/// any 64-bit seed, including 0, yields a well-mixed state.
class Xoshiro256ss {
 public:
  using result_type = std::uint64_t;

  explicit Xoshiro256ss(std::uint64_t seed) {
    SplitMix64 mixer(seed);
    for (auto& word : state_) word = mixer();
  }

  std::uint64_t operator()() {
    const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);
    return result;
  }

  static constexpr std::uint64_t min() { return 0; }
  static constexpr std::uint64_t max() {
    return std::numeric_limits<std::uint64_t>::max();
  }

 private:
  static std::uint64_t rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  std::array<std::uint64_t, 4> state_{};
};

/// Derives an independent stream seed from (seed, a, b). Used to give each
/// (phase, vertex) pair its own reproducible generator.
std::uint64_t stream_seed(std::uint64_t seed, std::uint64_t a,
                          std::uint64_t b);

/// Uniform double in [0, 1) with 53 random bits.
template <typename Rng>
double uniform_unit(Rng& rng) {
  return static_cast<double>(rng() >> 11) * 0x1.0p-53;
}

/// Uniform integer in [0, bound) without modulo bias (Lemire-style
/// rejection). bound must be positive.
template <typename Rng>
std::uint64_t uniform_below(Rng& rng, std::uint64_t bound) {
  // Rejection sampling on the top of the range keeps the result exact.
  const std::uint64_t threshold = (0 - bound) % bound;
  for (;;) {
    const std::uint64_t raw = rng();
    if (raw >= threshold) return raw % bound;
  }
}

}  // namespace dsnd
