/// \file random.hpp
/// \brief Seeded pseudo random number generation (xoshiro256**).
///
/// Every randomized component of the library draws from an explicitly
/// seeded Rng instance, which makes all algorithms reproducible: the same
/// seed yields the same partition. PEs derive independent streams by
/// hashing (seed, pe) — see Rng::fork().
#pragma once

#include <cstdint>
#include <vector>

#include "util/types.hpp"

namespace kappa {

/// xoshiro256** generator by Blackman & Vigna. Small, fast, and of far
/// better statistical quality than std::minstd; we avoid std::mt19937 for
/// its 2.5 KB of state which is wasteful with one generator per PE.
class Rng {
 public:
  using result_type = std::uint64_t;

  /// Constructs a generator from a 64-bit seed via SplitMix64 expansion.
  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL) { reseed(seed); }

  /// Re-seeds this generator in place.
  void reseed(std::uint64_t seed) {
    // SplitMix64 to fill the four state words; guarantees a non-zero state.
    for (auto& word : state_) {
      seed += 0x9e3779b97f4a7c15ULL;
      std::uint64_t z = seed;
      z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
      z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
      word = z ^ (z >> 31);
    }
  }

  /// Derives an independent stream for a PE / repetition index. Mixing the
  /// tag through SplitMix64 decorrelates the child streams.
  [[nodiscard]] Rng fork(std::uint64_t tag) const {
    std::uint64_t base = state_[0] ^ (state_[1] << 1) ^ (state_[2] >> 1) ^ state_[3];
    return Rng(base + 0x632be59bd9b4e019ULL * (tag + 1));
  }

  std::uint64_t operator()() { return next(); }

  static constexpr std::uint64_t min() { return 0; }
  static constexpr std::uint64_t max() { return ~0ULL; }

  /// Uniform integer in [0, bound) (bound > 0). Uses Lemire's multiply-shift
  /// rejection method to avoid modulo bias.
  std::uint64_t bounded(std::uint64_t bound) {
    __uint128_t mul = static_cast<__uint128_t>(next()) * bound;
    auto low = static_cast<std::uint64_t>(mul);
    if (low < bound) {
      const std::uint64_t threshold = -bound % bound;
      while (low < threshold) {
        mul = static_cast<__uint128_t>(next()) * bound;
        low = static_cast<std::uint64_t>(mul);
      }
    }
    return static_cast<std::uint64_t>(mul >> 64);
  }

  /// Uniform double in [0, 1).
  double uniform() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }

  /// Fair coin toss; used by the §5.1 edge coloring, whose block-PEs
  /// flip active/passive coins each round.
  bool coin() { return (next() & 1ULL) != 0; }

  /// Fisher–Yates shuffle.
  template <typename T>
  void shuffle(std::vector<T>& values) {
    for (std::size_t i = values.size(); i > 1; --i) {
      std::size_t j = bounded(i);
      std::swap(values[i - 1], values[j]);
    }
  }

  /// A random permutation of 0..n-1.
  std::vector<NodeID> permutation(NodeID n) {
    std::vector<NodeID> perm(n);
    for (NodeID i = 0; i < n; ++i) perm[i] = i;
    shuffle(perm);
    return perm;
  }

 private:
  std::uint64_t next() {
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

  static std::uint64_t rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  std::uint64_t state_[4];
};

}  // namespace kappa
