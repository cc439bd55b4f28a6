// Cross-tier sweeps for the in-process equivalence tests. The batched/wide
// layer has one runtime path whose only dispatch input is the CPU tier, so
// a test that pins behaviour across that layer runs its body once per tier
// (util::set_forced_simd_tier) against a scalar reference or a recorded
// digest. Tiers above the CPU's ceiling clamp to it, so on a narrower host
// the widest entries repeat the ceiling.
#pragma once

#include <gtest/gtest.h>

#include <array>
#include <optional>
#include <string>

#include "util/simd.h"

namespace snd::test {

/// Every dispatch tier, narrowest first.
inline constexpr std::array<util::SimdTier, 3> kAllSimdTiers = {
    util::SimdTier::kScalar, util::SimdTier::kSse2, util::SimdTier::kAvx2};

inline const char* simd_tier_name(util::SimdTier tier) {
  switch (tier) {
    case util::SimdTier::kScalar:
      return "scalar";
    case util::SimdTier::kSse2:
      return "sse2";
    case util::SimdTier::kAvx2:
      return "avx2";
  }
  return "?";
}

/// Runs body() once per tier with dispatch pinned there, under a
/// SCOPED_TRACE naming the requested and the active tier. Detection
/// (nullopt) is restored on exit, also when body throws.
template <typename Body>
void for_each_simd_tier(Body&& body) {
  struct RestoreDetection {
    ~RestoreDetection() { util::set_forced_simd_tier(std::nullopt); }
  } restore;
  for (const util::SimdTier tier : kAllSimdTiers) {
    util::set_forced_simd_tier(tier);
    SCOPED_TRACE(std::string("simd tier ") + simd_tier_name(tier) + " (active " +
                 simd_tier_name(util::active_simd_tier()) + ")");
    body();
  }
}

}  // namespace snd::test
