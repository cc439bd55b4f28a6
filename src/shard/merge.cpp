#include "shard/merge.h"

#include <cmath>
#include <cstdio>

namespace snd::shard {

void fold_records(const ShardSpec& spec, std::span<const TrialRecord> records,
                  runner::SweepReport& report) {
  report.name = spec.sweep_id;
  report.trials = records.size();
  for (const std::string& name : spec.metric_names) report.metric(name);
  obs::TraceSummary trace;
  for (const TrialRecord& record : records) {
    if (record.failed) {
      report.note_failure(record.trial, record.error);
      continue;
    }
    trace.merge(record.trace);
    for (std::size_t m = 0; m < spec.metric_names.size(); ++m) {
      report.metric(spec.metric_names[m])
          .add(m < record.values.size() ? record.values[m] : 0.0);
    }
  }
  report.attach_trace(trace);
}

std::optional<MergeResult> merge_shards(const std::vector<std::string>& paths,
                                        std::string* error) {
  const auto fail = [&](const std::string& message) -> std::optional<MergeResult> {
    if (error != nullptr) *error = message;
    return std::nullopt;
  };
  if (paths.empty()) return fail("no shard files given");

  std::vector<ShardFileData> files;
  files.reserve(paths.size());
  for (const std::string& path : paths) {
    std::string why;
    auto data = read_shard_file(path, &why);
    if (!data) return fail(why);
    files.push_back(std::move(*data));
  }

  // All files must describe the same sweep; shard indices must be distinct.
  const ShardSpec& first = files.front().spec;
  std::vector<const ShardFileData*> by_shard(first.shard_count, nullptr);
  for (std::size_t f = 0; f < files.size(); ++f) {
    if (const std::string why = first.mismatch(files[f].spec); !why.empty()) {
      return fail(paths[f] + ": incompatible with " + paths.front() + ": " + why);
    }
    const std::uint32_t index = files[f].spec.shard_index;
    if (by_shard[index] != nullptr) {
      return fail(paths[f] + ": shard " + std::to_string(index) +
                  " already provided by another file (overlapping shards)");
    }
    by_shard[index] = &files[f];
  }

  // Coverage: every trial index present exactly once across all files.
  // (read_shard_file already rejected duplicates within a file and records
  // outside their file's shard, so cross-file duplicates can only come from
  // two files claiming the same shard_index -- rejected above.)
  const std::size_t total = static_cast<std::size_t>(first.total_trials);
  std::vector<TrialRecord*> by_trial(total, nullptr);
  std::uint64_t present = 0;
  for (ShardFileData& file : files) {
    for (TrialRecord& record : file.records) {
      by_trial[record.trial] = &record;
      ++present;
    }
  }
  if (present != total) {
    std::string missing;
    std::size_t shown = 0;
    for (std::size_t i = 0; i < total && shown < 5; ++i) {
      if (by_trial[i] == nullptr) {
        missing += (shown > 0 ? ", " : "") + std::to_string(i);
        ++shown;
      }
    }
    return fail("incomplete coverage: " + std::to_string(total - present) + " of " +
                std::to_string(total) + " trials missing (first: " + missing +
                ") -- is a shard file absent or truncated?");
  }

  // Global trial order, the order a plain run folds its own records in.
  std::vector<TrialRecord> ordered;
  ordered.reserve(total);
  for (TrialRecord* record : by_trial) ordered.push_back(std::move(*record));
  MergeResult out;
  fold_records(first, ordered, out.report);

  for (std::uint32_t s = 0; s < first.shard_count; ++s) {
    const ShardFileData* file = by_shard[s];
    if (file == nullptr) continue;  // fully covered by other shards only if total==0
    ShardSummary summary;
    summary.shard_index = s;
    summary.records = file->records.size();
    summary.wall_seconds = file->wall_seconds;
    for (std::size_t f = 0; f < files.size(); ++f) {
      if (&files[f] == file) summary.path = paths[f];
    }
    out.shards.push_back(std::move(summary));
  }
  return out;
}

namespace {

std::string num(double v, int precision) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%.*f", precision, v);
  return buf;
}

}  // namespace

std::string summary_markdown(const MergeResult& result) {
  const runner::SweepReport& report = result.report;
  std::string md = "### Sharded sweep: `" + report.name + "`\n\n";
  md += std::to_string(report.trials) + " trials across " +
        std::to_string(result.shards.size()) + " shards, " +
        std::to_string(report.failed) + " failed\n\n";

  md += "| metric | count | mean | ci95 low | ci95 high | stdev |\n";
  md += "|---|---|---|---|---|---|\n";
  for (const auto& [name, series] : report.metrics) {
    const double mean = series.mean();
    const double stdev = series.stdev();
    const double sem =
        series.count() > 1 ? stdev / std::sqrt(static_cast<double>(series.count())) : 0.0;
    md += "| " + name + " | " + std::to_string(series.count()) + " | " +
          num(mean, 4) + " | " + num(mean - 1.96 * sem, 4) + " | " +
          num(mean + 1.96 * sem, 4) + " | " + num(stdev, 4) + " |\n";
  }

  md += "\n| shard | trials | wall seconds |\n|---|---|---|\n";
  for (const ShardSummary& shard : result.shards) {
    md += "| " + std::to_string(shard.shard_index) + " | " +
          std::to_string(shard.records) + " | " + num(shard.wall_seconds, 2) + " |\n";
  }
  return md;
}

}  // namespace snd::shard
