// Folds N .sndshard files into one canonical BENCH report.
//
// Validation is strict: every file must describe the same sweep (sweep_id,
// shard_count, base_seed, total_trials, schema hash), shard indices must be
// distinct, every record must belong to its file's shard, and the union of
// records must cover every trial index exactly once -- overlapping or
// missing shards are rejected with a precise message, never silently
// merged. The surviving records are folded in global trial order by
// fold_records, the function a plain shard::Session run folds its own
// records with, so the canonical JSON is byte-identical to the
// `--canonical-report` output of a single-process run (CI asserts exactly
// this).
#pragma once

#include <optional>
#include <span>
#include <string>
#include <vector>

#include "runner/trial_runner.h"
#include "shard/format.h"

namespace snd::shard {

/// Per-shard telemetry for the merge summary (markdown + stdout).
struct ShardSummary {
  std::string path;
  std::uint32_t shard_index = 0;
  std::uint64_t records = 0;
  double wall_seconds = 0.0;  ///< from the shard's last checkpoint footer
};

struct MergeResult {
  runner::SweepReport report;        ///< canonical fields only (no timing)
  std::vector<ShardSummary> shards;  ///< ordered by shard_index
};

/// The one fold from trial records to a report's canonical fields. Sets
/// name (spec.sweep_id) and trials (records.size()), creates the
/// spec.metric_names columns, and folds `records` -- one per trial, in
/// trial order -- into them: a successful trial appends its values and
/// merges its trace; a failed one is counted with note_failure and adds
/// nothing else. The timing fields are left alone.
void fold_records(const ShardSpec& spec, std::span<const TrialRecord> records,
                  runner::SweepReport& report);

/// Merges the given shard files; nullopt (message in *error) on any
/// validation failure. `paths` may list the shards in any order.
[[nodiscard]] std::optional<MergeResult> merge_shards(
    const std::vector<std::string>& paths, std::string* error);

/// GitHub-flavored markdown summary: one table of per-metric mean and CI95
/// bounds, one table of per-shard record counts and wall times.
[[nodiscard]] std::string summary_markdown(const MergeResult& result);

}  // namespace snd::shard
