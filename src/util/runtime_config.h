// snd::RuntimeConfig: the single resolution point for the process
// environment. One variable is read:
//
//   SND_BENCH_DIR    directory BENCH_*.json artifacts are written into
//
// Everything else a run can be told comes from its command-line flags.
// The flat node state, the cached-key crypto path and the batched/wide
// execution layer have no switch; the golden digests in
// bench/baselines/golden.sha256 and tests/golden_outcome_test.cpp pin their
// output (the latter at every SIMD dispatch tier).
#pragma once

#include <optional>
#include <string>
#include <string_view>

namespace snd {

struct RuntimeConfig {
  /// SND_BENCH_DIR; nullopt writes artifacts into the working directory.
  std::optional<std::string> bench_dir;
};

/// The process-wide configuration, resolved from the environment on first
/// use and stable afterwards. Subsystems read this instead of getenv.
[[nodiscard]] const RuntimeConfig& runtime_config();

/// A fresh read of the environment (does not touch the singleton). Tests
/// use this to check parsing without perturbing the process state.
[[nodiscard]] RuntimeConfig load_runtime_config_from_env();

/// Replaces the singleton (tests only); affects future runtime_config()
/// readers.
void set_runtime_config_for_testing(const RuntimeConfig& config);

/// `bench_dir`-aware artifact path: "<bench_dir>/<filename>" when
/// SND_BENCH_DIR is set and non-empty, `filename` unchanged otherwise.
[[nodiscard]] std::string bench_artifact_path(std::string_view filename);

}  // namespace snd
