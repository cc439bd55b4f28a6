// Addressable work units for sharded Monte-Carlo sweeps.
//
// A sweep of `total_trials` trials seeded with `base_seed` is split across
// `shard_count` shards by striding the flat trial index space: shard k owns
// every trial i with i % shard_count == k. Because shard::Session seeds
// trial i with util::derive_seed(base_seed, i) -- a function of the global
// index alone -- running the shards on different machines, in any order, at
// any --jobs count, and merging the results (shard::merge_shards) is
// bit-identical to one unsharded run. See docs/SHARDING.md.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "obs/summary.h"

namespace snd::shard {

/// Identity of one shard of one sweep. Everything except shard_index must
/// agree between shards for a merge to be meaningful; compatible_with()
/// enforces that and merge/resume refuse on any mismatch.
struct ShardSpec {
  std::string sweep_id;                   ///< e.g. "fig4_density"
  std::uint32_t shard_index = 0;          ///< in [0, shard_count)
  std::uint32_t shard_count = 1;
  std::uint64_t base_seed = 0;            ///< the sweep's derive_seed base
  std::uint64_t total_trials = 0;         ///< trials in the FULL sweep
  std::vector<std::string> metric_names;  ///< per-trial result columns

  /// True iff this shard owns global trial index `trial`.
  [[nodiscard]] bool owns(std::uint64_t trial) const {
    return trial < total_trials && trial % shard_count == shard_index;
  }

  /// All owned global trial indices, ascending.
  [[nodiscard]] std::vector<std::uint32_t> trial_indices() const;

  /// FNV-1a over a layout descriptor covering the format version, the trace
  /// counter table widths, and the metric column names. Any enum growth or
  /// metric change alters the hash, so a reader can never misinterpret
  /// columns written by a different build.
  [[nodiscard]] std::uint64_t schema_hash() const;

  /// Empty string when `other` describes another shard of the same sweep
  /// (same sweep_id/shard_count/base_seed/total_trials/metrics); otherwise a
  /// human-readable description of the first mismatch.
  [[nodiscard]] std::string mismatch(const ShardSpec& other) const;
};

/// One completed trial, as persisted in a .sndshard file: the global trial
/// index, the per-metric values (empty on failure), the trial's folded
/// trace summary, and the failure message when the trial threw.
struct TrialRecord {
  std::uint64_t trial = 0;
  bool failed = false;
  std::string error;
  std::vector<double> values;  ///< parallel to ShardSpec::metric_names
  obs::TraceSummary trace;
};

/// Parses a "--shard i/N" argument; nullopt unless 0 <= i < N and N >= 1.
[[nodiscard]] std::optional<std::pair<std::uint32_t, std::uint32_t>> parse_shard_arg(
    std::string_view text);

}  // namespace snd::shard
