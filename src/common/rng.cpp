#include "common/rng.hpp"

#include <cmath>

namespace overlay {

std::uint64_t SplitMix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

Rng::Rng(std::uint64_t seed) {
  std::uint64_t sm = seed;
  for (auto& s : s_) {
    s = SplitMix64(sm);
  }
}

std::int64_t Rng::NextInRange(std::int64_t lo, std::int64_t hi) {
  OVERLAY_CHECK(lo <= hi, "NextInRange requires lo <= hi");
  const std::uint64_t span = static_cast<std::uint64_t>(hi - lo) + 1;
  if (span == 0) {  // full 64-bit range
    return static_cast<std::int64_t>(Next());
  }
  return lo + static_cast<std::int64_t>(NextBelow(span));
}

double Rng::NextDouble() {
  // 53 high bits -> [0,1) with full double resolution.
  return static_cast<double>(Next() >> 11) * 0x1.0p-53;
}

bool Rng::NextBool(double p) {
  if (p <= 0.0) return false;
  if (p >= 1.0) return true;
  return NextDouble() < p;
}

double Rng::NextExponential(double beta) {
  OVERLAY_CHECK(beta > 0.0, "exponential rate must be positive");
  // Inverse CDF; guard against log(0).
  double u = NextDouble();
  if (u <= 0.0) {
    u = 0x1.0p-53;
  }
  return -std::log(1.0 - u) / beta;
}

Rng Rng::Split() {
  return Rng(Next() ^ 0xd1b54a32d192ed03ULL);
}

}  // namespace overlay
