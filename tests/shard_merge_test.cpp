// shard::merge_shards validation and byte-identity, shard::SweepReport's
// JSON forms, and shard::Session: a sweep run as N shards (with failures,
// checkpoints, and a simulated crash + resume) must merge into a canonical
// report byte-identical to the one a plain Session run of the same sweep
// produces, and that report must hold the trials' own scores, failures and
// timings.
#include <filesystem>
#include <iostream>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "runner/trial_runner.h"
#include "shard/merge.h"
#include "shard/session.h"
#include "util/rng.h"

namespace snd::shard {
namespace {

constexpr std::uint64_t kBaseSeed = 4242;
constexpr std::uint64_t kTrials = 29;

ShardSpec sweep_spec() {
  ShardSpec spec;
  spec.sweep_id = "merge_sweep";
  spec.base_seed = kBaseSeed;
  spec.total_trials = kTrials;
  spec.metric_names = {"score"};
  return spec;
}

/// The deterministic per-trial "simulation" both the sharded and unsharded
/// paths run: a seed-derived score, with trials 4, 13 and 22 failing.
double trial_score(std::size_t i, std::uint64_t seed) {
  if (i % 9 == 4) throw std::runtime_error("synthetic failure " + std::to_string(i));
  util::Rng rng(seed);
  return rng.uniform() + static_cast<double>(i) * 1e-6;
}

TrialOutput score_trial(std::size_t i, std::uint64_t seed) {
  return {{trial_score(i, seed)}, obs::TraceSummary{}};
}

std::string temp_path(const std::string& name) { return ::testing::TempDir() + name; }

SessionOptions options_for(const std::string& path, std::uint32_t index,
                           std::uint32_t count, bool resume = false) {
  SessionOptions options;
  options.enabled = true;
  options.shard_index = index;
  options.shard_count = count;
  options.checkpoint_path = path;
  options.resume = resume;
  options.checkpoint_every = 3;
  return options;
}

/// Runs the sweep through a Session (the same path the fig3 / fig4 drivers
/// take), returning its report.
SweepReport run_session(const SessionOptions& options, std::size_t jobs = 2) {
  runner::TrialRunner pool(jobs);
  SweepReport report;
  report.name = "merge_sweep";
  Session session(options, sweep_spec());
  EXPECT_TRUE(session.open(std::cerr));
  session.run(pool, score_trial, &report);
  EXPECT_TRUE(session.finish(std::cerr));
  return report;
}

/// Runs one shard of the sweep, checkpointing to options.checkpoint_path.
void run_shard(const SessionOptions& options) { (void)run_session(options); }

/// The unsharded reference: a plain Session run of the whole sweep.
std::string unsharded_canonical() { return run_session(SessionOptions{}).to_canonical_json(); }

TEST(ShardMerge, PlainRunReportHoldsTheTrialsOwnResults) {
  // Computed from trial_score directly, not through the fold.
  std::vector<double> scores;
  for (std::size_t i = 0; i < kTrials; ++i) {
    if (i % 9 != 4) scores.push_back(trial_score(i, util::derive_seed(kBaseSeed, i)));
  }
  const std::vector<std::string> errors = {"trial 4: synthetic failure 4",
                                           "trial 13: synthetic failure 13",
                                           "trial 22: synthetic failure 22"};
  for (const std::size_t jobs : {std::size_t{1}, std::size_t{4}, std::size_t{8}}) {
    const SweepReport report = run_session(SessionOptions{}, jobs);
    EXPECT_EQ(report.trials, kTrials) << "jobs=" << jobs;
    EXPECT_EQ(report.failed, 3u) << "jobs=" << jobs;
    EXPECT_EQ(report.errors, errors) << "jobs=" << jobs;
    ASSERT_EQ(report.metrics.size(), 1u);
    EXPECT_EQ(report.metrics[0].first, "score");
    EXPECT_EQ(report.metrics[0].second.values(), scores) << "jobs=" << jobs;
    // The session times every trial, failed ones included.
    EXPECT_EQ(report.jobs, jobs);
    EXPECT_EQ(report.trial_micros.count(), kTrials);
    EXPECT_GT(report.wall_seconds, 0.0);
    EXPECT_GT(report.trials_per_second(), 0.0);
  }
}

TEST(ShardMerge, ShardFailureLinesNameTheGlobalTrial) {
  // Shard 1 of 4 runs trials 1, 5, ..., 25 as its slots 0..6; trial 13 (its
  // slot 3) throws.
  const SweepReport report =
      run_session(options_for(temp_path("global_index.sndshard"), 1, 4));
  EXPECT_EQ(report.trials, 7u);
  EXPECT_EQ(report.failed, 1u);
  EXPECT_EQ(report.errors, std::vector<std::string>{"trial 13: synthetic failure 13"});
}

TEST(ShardMerge, ShardedRunMergesByteIdenticalToUnsharded) {
  const std::uint32_t kShards = 4;
  std::vector<std::string> paths;
  for (std::uint32_t k = 0; k < kShards; ++k) {
    paths.push_back(temp_path("merge_ok_" + std::to_string(k) + ".sndshard"));
    run_shard(options_for(paths.back(), k, kShards));
  }

  std::string error;
  const auto merged = merge_shards(paths, &error);
  ASSERT_TRUE(merged.has_value()) << error;
  EXPECT_EQ(merged->report.trials, kTrials);
  EXPECT_EQ(merged->report.failed, 3u);  // trials 4, 13, 22
  EXPECT_EQ(merged->shards.size(), kShards);
  EXPECT_EQ(merged->report.to_canonical_json(), unsharded_canonical());
}

TEST(ShardMerge, CrashedShardResumesAndStillMergesByteIdentical) {
  const std::uint32_t kShards = 3;
  std::vector<std::string> paths;
  for (std::uint32_t k = 0; k < kShards; ++k) {
    paths.push_back(temp_path("merge_resume_" + std::to_string(k) + ".sndshard"));
    run_shard(options_for(paths.back(), k, kShards));
  }

  // Simulate a crash of shard 1: cut its file mid-chunk, then resume it.
  const auto size = std::filesystem::file_size(paths[1]);
  std::filesystem::resize_file(paths[1], size - 9);
  std::string error;
  {
    const auto partial = read_shard_file(paths[1], &error);
    ASSERT_TRUE(partial.has_value()) << error;
    ASSERT_LT(partial->records.size(), sweep_spec().trial_indices().size());
  }
  const auto incomplete = merge_shards(paths, &error);
  EXPECT_FALSE(incomplete.has_value());
  EXPECT_NE(error.find("incomplete coverage"), std::string::npos) << error;

  run_shard(options_for(paths[1], 1, kShards, /*resume=*/true));

  const auto merged = merge_shards(paths, &error);
  ASSERT_TRUE(merged.has_value()) << error;
  EXPECT_EQ(merged->report.to_canonical_json(), unsharded_canonical());
}

TEST(ShardMerge, RejectsOverlappingShards) {
  const std::string a = temp_path("overlap_a.sndshard");
  const std::string b = temp_path("overlap_b.sndshard");
  run_shard(options_for(a, 0, 2));
  run_shard(options_for(b, 0, 2));  // same shard index twice
  std::string error;
  EXPECT_FALSE(merge_shards({a, b}, &error).has_value());
  EXPECT_NE(error.find("overlapping"), std::string::npos) << error;
}

TEST(ShardMerge, RejectsMismatchedSpecs) {
  const std::string a = temp_path("spec_a.sndshard");
  const std::string b = temp_path("spec_b.sndshard");
  run_shard(options_for(a, 0, 2));

  // Same path shape, different base seed: a different sweep entirely.
  SessionOptions other = options_for(b, 1, 2);
  ShardSpec spec = sweep_spec();
  spec.base_seed ^= 99;
  Session session(other, spec);
  ASSERT_TRUE(session.open(std::cerr));
  ASSERT_TRUE(session.finish(std::cerr));

  std::string error;
  EXPECT_FALSE(merge_shards({a, b}, &error).has_value());
  EXPECT_NE(error.find("base_seed"), std::string::npos) << error;
}

TEST(ShardMerge, RejectsMismatchedShardCounts) {
  const std::string a = temp_path("count_a.sndshard");
  const std::string b = temp_path("count_b.sndshard");
  run_shard(options_for(a, 0, 2));
  run_shard(options_for(b, 1, 3));
  std::string error;
  EXPECT_FALSE(merge_shards({a, b}, &error).has_value());
  EXPECT_NE(error.find("shard_count"), std::string::npos) << error;
}

TEST(ShardMerge, ReportsMissingTrialsPrecisely) {
  const std::string a = temp_path("missing_a.sndshard");
  run_shard(options_for(a, 0, 2));
  std::string error;
  EXPECT_FALSE(merge_shards({a}, &error).has_value());
  EXPECT_NE(error.find("incomplete coverage"), std::string::npos) << error;
  EXPECT_NE(error.find("1"), std::string::npos);  // first missing trial listed
}

TEST(ShardMerge, SummaryMarkdownListsMetricsAndShards) {
  const std::uint32_t kShards = 2;
  std::vector<std::string> paths;
  for (std::uint32_t k = 0; k < kShards; ++k) {
    paths.push_back(temp_path("md_" + std::to_string(k) + ".sndshard"));
    run_shard(options_for(paths[k], k, kShards));
  }
  std::string error;
  const auto merged = merge_shards(paths, &error);
  ASSERT_TRUE(merged.has_value()) << error;
  const std::string md = summary_markdown(*merged);
  EXPECT_NE(md.find("merge_sweep"), std::string::npos);
  EXPECT_NE(md.find("| score |"), std::string::npos);
  EXPECT_NE(md.find("| shard | trials | wall seconds |"), std::string::npos);
}

TEST(SweepReportTest, JsonContainsTheHeadlineFields) {
  SweepReport report;
  report.name = "demo \"quoted\"";
  report.trials = 5;
  report.failed = 1;
  report.jobs = 4;
  report.wall_seconds = 2.0;
  for (double v : {1.0, 2.0, 3.0, 4.0, 5.0}) report.trial_micros.add(v);
  report.errors.push_back("trial 3: boom");
  const std::string json = report.to_json();
  EXPECT_NE(json.find("\"name\": \"demo \\\"quoted\\\"\""), std::string::npos);
  EXPECT_NE(json.find("\"trials\": 5"), std::string::npos);
  EXPECT_NE(json.find("\"failed\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"jobs\": 4"), std::string::npos);
  EXPECT_NE(json.find("\"trials_per_second\": 2.5"), std::string::npos);
  EXPECT_NE(json.find("\"p50\": 3"), std::string::npos);
  EXPECT_NE(json.find("trial 3: boom"), std::string::npos);
}

TEST(SweepReportTest, EmptyReportHasNoThroughput) {
  const SweepReport report;
  EXPECT_EQ(report.trials, 0u);
  EXPECT_EQ(report.trials_per_second(), 0.0);
}

TEST(SweepReportTest, CanonicalJsonOmitsTimingAndKeepsMetrics) {
  SweepReport report;
  report.name = "canon";
  report.trials = 3;
  report.jobs = 8;
  report.wall_seconds = 1.25;
  report.trial_micros.add(10.0);
  report.metric("accuracy").add(0.5);
  report.metric("accuracy").add(0.7);
  const std::string canonical = report.to_canonical_json();
  EXPECT_EQ(canonical.find("wall_seconds"), std::string::npos);
  EXPECT_EQ(canonical.find("trial_us"), std::string::npos);
  EXPECT_EQ(canonical.find("jobs"), std::string::npos);
  EXPECT_NE(canonical.find("\"accuracy\""), std::string::npos);
  EXPECT_NE(canonical.find("\"ci95\""), std::string::npos);

  // Same logical sweep, different timing: canonical form is identical.
  SweepReport other = report;
  other.wall_seconds = 99.0;
  other.jobs = 1;
  other.trial_micros.add(5555.0);
  EXPECT_EQ(other.to_canonical_json(), canonical);
  EXPECT_NE(other.to_json(), report.to_json());  // full form does keep timing
}

TEST(Session, ResolveSessionRejectsBadCombinations) {
  const auto check_errors = [](std::vector<const char*> argv, bool expect_error) {
    argv.insert(argv.begin(), "prog");
    const util::Cli cli(static_cast<int>(argv.size()), argv.data());
    (void)resolve_session(cli);
    EXPECT_EQ(!cli.errors().empty(), expect_error);
  };
  check_errors({"--shard", "1/4", "--checkpoint", "x.sndshard"}, false);
  check_errors({"--shard", "1/4"}, true);               // shard without checkpoint
  check_errors({"--resume"}, true);                     // resume without checkpoint
  check_errors({"--shard", "9/4", "--checkpoint", "x"}, true);  // index out of range
  check_errors({"--shard", "nope", "--checkpoint", "x"}, true);
  check_errors({"--checkpoint", "x", "--checkpoint-every", "0"}, true);
  check_errors({"--checkpoint", "x", "--checkpoint-every", "5"}, false);
}

}  // namespace
}  // namespace snd::shard
