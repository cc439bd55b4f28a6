// CPU-feature probe for the batched/wide execution layer: the multi-buffer
// SHA-256 engine (crypto/sha256_mb), the single-stream SHA-NI compressor
// (crypto/sha256), and the strip candidate filter in sim::Network.
//
// The wide layer is the only runtime path; the one input that selects among
// its kernels is the tier. The probe answers "which wide kernel may run",
// resolved once from CPUID (GCC/Clang __builtin_cpu_supports) on x86-64 and
// falling back to the portable 4-wide scalar kernels elsewhere. Every tier
// makes identical decisions in identical order: golden_outcome_test checks
// each tier against its recorded digests in-process, and CI checks the
// detected tier's figure reports against bench/baselines/golden.sha256.
//
// Tests and width benches pin a tier below the detected one with
// set_forced_simd_tier(); forcing a tier the CPU lacks is ignored (the probe
// result is a ceiling, never a floor).
#pragma once

#include <cstdint>
#include <optional>

namespace snd::util {

/// Widest kernel the process may use, ordered so `a < b` means "narrower".
enum class SimdTier : std::uint8_t {
  kScalar = 0,  // portable 4-wide scalar (SWAR-style) kernels
  kSse2 = 1,    // 4 x u32 (SSSE3 loads) / 2 x f64 vectors
  kAvx2 = 2,    // 8 x u32 / 4 x f64 vectors
};

/// The CPU's detected ceiling, probed once per process.
[[nodiscard]] SimdTier detected_simd_tier();

/// The tier kernels should dispatch on: min(detected, forced-or-detected).
[[nodiscard]] SimdTier active_simd_tier();

/// Pins dispatch at `tier` (clamped to the detected ceiling) for A/B
/// width-series benchmarks and cross-tier equivalence tests; nullopt
/// restores pure detection.
void set_forced_simd_tier(std::optional<SimdTier> tier);

// Big-endian word load/store shared by every SHA-256 compressor. Lane data
// is gathered from byte buffers through these (or through unaligned vector
// loads), never by casting byte pointers to wider types, so unaligned and
// aliasing-hostile inputs are defined behavior everywhere the sanitizer jobs
// look.
[[nodiscard]] inline std::uint32_t load_u32_be(const std::uint8_t* p) {
  return static_cast<std::uint32_t>(p[0]) << 24 | static_cast<std::uint32_t>(p[1]) << 16 |
         static_cast<std::uint32_t>(p[2]) << 8 | static_cast<std::uint32_t>(p[3]);
}

inline void store_u32_be(std::uint8_t* p, std::uint32_t v) {
  p[0] = static_cast<std::uint8_t>(v >> 24);
  p[1] = static_cast<std::uint8_t>(v >> 16);
  p[2] = static_cast<std::uint8_t>(v >> 8);
  p[3] = static_cast<std::uint8_t>(v);
}

}  // namespace snd::util
