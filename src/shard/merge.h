// The sweep report, its one fold from trial records, and the merge that
// folds N .sndshard files into one canonical BENCH report.
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
#include <string_view>
#include <utility>
#include <vector>

#include "obs/summary.h"
#include "shard/format.h"
#include "util/stats.h"

namespace snd::shard {

/// One sweep's results plus its timing and failure telemetry; serialisable
/// as a BENCH_<name>.json perf artifact (see docs/RUNNER.md). fold_records
/// fills the canonical fields; Session::run fills the timing fields.
struct SweepReport {
  std::string name;
  std::size_t trials = 0;
  std::size_t failed = 0;
  std::size_t jobs = 1;
  double wall_seconds = 0.0;
  util::Series trial_micros;        ///< Per-trial wall time, in run order.
  std::vector<std::string> errors;  ///< First few failure messages, trial order.
  static constexpr std::size_t kMaxReportedErrors = 8;

  /// Counts one failed trial and keeps its "trial N: message" line while
  /// fewer than kMaxReportedErrors are listed.
  void note_failure(std::uint64_t trial, std::string_view message);

  /// Named per-trial result columns (e.g. "accuracy"), appended in trial
  /// order. Deterministic, so they are part of the canonical report (below)
  /// and of the .sndshard columnar format; serialized as mean/stdev/ci95
  /// per metric.
  std::vector<std::pair<std::string, util::Series>> metrics;
  /// The column named `name`, created on first use (insertion order is
  /// serialization order).
  util::Series& metric(std::string_view name);

  /// Folded per-trial trace summaries (typed per-phase traffic, drop-cause
  /// breakdown, protocol counters), merged in trial order -- identical for
  /// any --jobs.
  bool has_trace = false;
  obs::TraceSummary trace;
  void attach_trace(const obs::TraceSummary& folded) {
    has_trace = true;
    trace.merge(folded);
  }

  [[nodiscard]] double trials_per_second() const;
  [[nodiscard]] std::string to_json() const;
  /// Deterministic subset of to_json(): drops the wall-clock fields (jobs,
  /// wall_seconds, trials_per_second, trial_us) and keeps name, trials,
  /// failed, metrics, errors, and the trace block. Two runs of the same
  /// sweep -- sharded or not, any --jobs -- produce byte-identical canonical
  /// reports; CI's shard merge gate compares exactly these bytes.
  [[nodiscard]] std::string to_canonical_json() const;
  /// Writes BENCH_<name>.json into $SND_BENCH_DIR (default: the working
  /// directory); returns the path, or an empty string on I/O failure.
  [[nodiscard]] std::string write_json() const;
  /// Writes to_canonical_json() to `path`; false on I/O failure.
  [[nodiscard]] bool write_canonical(const std::string& path) const;
};

/// Per-shard telemetry for the merge summary (markdown + stdout).
struct ShardSummary {
  std::string path;
  std::uint32_t shard_index = 0;
  std::uint64_t records = 0;
  double wall_seconds = 0.0;  ///< from the shard's last checkpoint footer
};

struct MergeResult {
  SweepReport report;                ///< canonical fields only (no timing)
  std::vector<ShardSummary> shards;  ///< ordered by shard_index
};

/// The one fold from trial records to a report's canonical fields. Sets
/// name (spec.sweep_id) and trials (records.size()), creates the
/// spec.metric_names columns, and folds `records` -- one per trial, in
/// trial order -- into them: a successful trial appends its values and
/// merges its trace; a failed one is counted with note_failure and adds
/// nothing else. The timing fields are left alone.
void fold_records(const ShardSpec& spec, std::span<const TrialRecord> records,
                  SweepReport& report);

/// Merges the given shard files; nullopt (message in *error) on any
/// validation failure. `paths` may list the shards in any order.
[[nodiscard]] std::optional<MergeResult> merge_shards(
    const std::vector<std::string>& paths, std::string* error);

/// GitHub-flavored markdown summary: one table of per-metric mean and CI95
/// bounds, one table of per-shard record counts and wall times.
[[nodiscard]] std::string summary_markdown(const MergeResult& result);

}  // namespace snd::shard
