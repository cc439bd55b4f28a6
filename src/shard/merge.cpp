#include "shard/merge.h"

#include <cmath>
#include <cstdio>

#include "util/file.h"
#include "util/json.h"
#include "util/runtime_config.h"

namespace snd::shard {

void SweepReport::note_failure(std::uint64_t trial, std::string_view message) {
  ++failed;
  if (errors.size() < kMaxReportedErrors) {
    errors.push_back("trial " + std::to_string(trial) + ": " + std::string(message));
  }
}

util::Series& SweepReport::metric(std::string_view name) {
  for (auto& [key, series] : metrics) {
    if (key == name) return series;
  }
  metrics.emplace_back(std::string(name), util::Series{});
  return metrics.back().second;
}

double SweepReport::trials_per_second() const {
  return wall_seconds > 0.0 ? static_cast<double>(trials) / wall_seconds : 0.0;
}

namespace {

std::string json_num(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

/// mean/stdev/ci95 block for one metric column. The normal-approximation
/// 95% interval (mean +/- 1.96 * sem) is computed from the series in its
/// stored (trial) order, so it is byte-identical however the trials were
/// sharded.
std::string metric_block(const util::Series& series) {
  const double mean = series.mean();
  const double stdev = series.stdev();
  const double sem = series.count() > 1
                         ? stdev / std::sqrt(static_cast<double>(series.count()))
                         : 0.0;
  std::string out = "{\"count\": " + std::to_string(series.count());
  out += ", \"mean\": " + json_num(mean);
  out += ", \"stdev\": " + json_num(stdev);
  out += ", \"ci95\": [" + json_num(mean - 1.96 * sem) + ", " +
         json_num(mean + 1.96 * sem) + "]}";
  return out;
}

/// The report body; `timing` adds the wall-clock fields that
/// to_canonical_json() leaves out.
std::string report_json(const SweepReport& report, bool timing) {
  std::string out = "{\n  \"name\": " + util::json_quote(report.name);
  out += ",\n  \"trials\": " + std::to_string(report.trials);
  out += ",\n  \"failed\": " + std::to_string(report.failed);
  if (timing) {
    const util::Series& micros = report.trial_micros;
    out += ",\n  \"jobs\": " + std::to_string(report.jobs);
    out += ",\n  \"wall_seconds\": " + json_num(report.wall_seconds);
    out += ",\n  \"trials_per_second\": " + json_num(report.trials_per_second());
    out += ",\n  \"trial_us\": {";
    if (micros.count() > 0) {
      out += "\"mean\": " + json_num(micros.mean());
      out += ", \"p50\": " + json_num(micros.percentile(50.0));
      out += ", \"p95\": " + json_num(micros.percentile(95.0));
      out += ", \"max\": " + json_num(micros.percentile(100.0));
    }
    out += "}";
  }
  if (!report.metrics.empty()) {
    out += ",\n  \"metrics\": {";
    for (std::size_t i = 0; i < report.metrics.size(); ++i) {
      if (i > 0) out += ", ";
      out += util::json_quote(report.metrics[i].first);
      out += ": " + metric_block(report.metrics[i].second);
    }
    out += "}";
  }
  out += ",\n  \"errors\": [";
  for (std::size_t i = 0; i < report.errors.size(); ++i) {
    if (i > 0) out += ", ";
    out += util::json_quote(report.errors[i]);
  }
  out += "]";
  if (report.has_trace) out += ",\n  \"trace\": " + report.trace.to_json();
  out += "\n}\n";
  return out;
}

}  // namespace

std::string SweepReport::to_json() const { return report_json(*this, /*timing=*/true); }

std::string SweepReport::to_canonical_json() const {
  return report_json(*this, /*timing=*/false);
}

std::string SweepReport::write_json() const {
  const std::string path = bench_artifact_path("BENCH_" + name + ".json");
  return util::write_file(path, to_json()) ? path : std::string{};
}

bool SweepReport::write_canonical(const std::string& path) const {
  return util::write_file(path, to_canonical_json());
}

void fold_records(const ShardSpec& spec, std::span<const TrialRecord> records,
                  SweepReport& report) {
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
  const SweepReport& report = result.report;
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
