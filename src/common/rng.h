// Deterministic pseudo-random number generation for workload synthesis.
//
// All randomness in the repository flows through this generator so that every test, example
// and benchmark is bit-reproducible across runs and platforms. The core is SplitMix64, which
// is tiny, fast, and has well-understood statistical quality for simulation workloads.

#ifndef NIMBUS_SRC_COMMON_RNG_H_
#define NIMBUS_SRC_COMMON_RNG_H_

#include <cstdint>

namespace nimbus {

class Rng {
 public:
  constexpr explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ull) : state_(seed) {}

  // Next raw 64-bit value (SplitMix64).
  constexpr std::uint64_t NextU64() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }

  // Uniform double in [0, 1).
  constexpr double NextDouble() {
    return static_cast<double>(NextU64() >> 11) * (1.0 / 9007199254740992.0);
  }

  // Uniform double in [lo, hi).
  constexpr double NextDouble(double lo, double hi) { return lo + (hi - lo) * NextDouble(); }

  // Uniform integer in [0, bound). `bound` must be positive.
  constexpr std::uint64_t NextBounded(std::uint64_t bound) {
    // Multiply-shift rejection-free mapping; bias is negligible for simulation purposes.
    return static_cast<std::uint64_t>(
        (static_cast<unsigned __int128>(NextU64()) * bound) >> 64);
  }

  // Standard normal via Box-Muller (uses two uniforms, caches nothing for determinism).
  double NextGaussian();

 private:
  std::uint64_t state_;
};

}  // namespace nimbus

#endif  // NIMBUS_SRC_COMMON_RNG_H_
