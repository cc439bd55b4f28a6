// Process-wide switch and CPU-feature probe for the batched/wide execution
// layer: the multi-buffer SHA-256 engine (crypto/sha256_mb) and the strip
// candidate filter in sim::Network.
//
// Defaults to on; the environment variable SND_SIMD=0|off|false selects the
// one-at-a-time seed paths at startup (for A/B bit-identity checks and the
// before/after micro benchmarks). Both paths make identical decisions in
// identical order -- CI asserts the fig3 event stream and the fig4 canonical
// report byte-identical across the switch, and both sides match the golden
// digests in bench/baselines/golden.sha256.
//
// The tier probe answers "which wide kernel may run", resolved once from
// CPUID (GCC/Clang __builtin_cpu_supports) on x86-64 and falling back to the
// portable 4-wide scalar kernel elsewhere. Tests and benches can pin a tier
// below the detected one with set_forced_simd_tier(); forcing a tier the CPU
// lacks is ignored (the probe result is a ceiling, never a floor).
//
// Consumers that capture the flag at construction (sim::Network) flip it
// (tests only) before building the object under measurement.
#pragma once

#include <cstdint>
#include <cstring>
#include <optional>

namespace snd::util {

[[nodiscard]] bool simd_enabled();
void set_simd_enabled(bool enabled);

/// Widest kernel the process may use, ordered so `a < b` means "narrower".
enum class SimdTier : std::uint8_t {
  kScalar = 0,  // portable 4-wide scalar (SWAR-style) kernels
  kSse2 = 1,    // 4 x u32 / 2 x f64 vectors
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

// Lane load/store helpers. All wide kernels gather lane data from byte
// buffers through these (never by casting byte pointers to wider types), so
// unaligned and aliasing-hostile inputs are defined behavior everywhere the
// sanitizer jobs look.
[[nodiscard]] inline std::uint32_t load_u32_le(const std::uint8_t* p) {
  std::uint32_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

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

[[nodiscard]] inline double load_f64(const std::uint8_t* p) {
  double v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

}  // namespace snd::util
