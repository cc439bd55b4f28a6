#include "runner/trial_runner.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "util/cli.h"
#include "util/rng.h"

namespace snd::runner {
namespace {

// A trial whose result exercises the full RNG pipeline, with a work load
// that varies strongly by index so multi-worker runs actually steal.
double noisy_trial(std::size_t index, std::uint64_t seed) {
  util::Rng rng(seed);
  double acc = 0.0;
  const std::size_t spins = 100 + (index % 7) * 400;
  for (std::size_t i = 0; i < spins; ++i) acc += rng.uniform();
  return acc;
}

TEST(SeedDerivationTest, RegressionValues) {
  // Frozen outputs: a change here silently changes every recorded
  // experiment, so it must be deliberate and show up in review.
  EXPECT_EQ(util::derive_seed(0, 0), 0x8c583653daa4a85bULL);
  EXPECT_EQ(util::derive_seed(0, 1), 0x15bd583438ac28c9ULL);
  EXPECT_EQ(util::derive_seed(42, 7), 0xcdd8ded0954d9c3fULL);
  EXPECT_EQ(util::derive_seed(123, 63), 0x3d0c18f08f7574e2ULL);
}

TEST(SeedDerivationTest, DistinctPerTrialAndBase) {
  std::set<std::uint64_t> seen;
  for (std::uint64_t base : {0ULL, 1ULL, 42ULL, ~0ULL}) {
    for (std::uint64_t trial = 0; trial < 256; ++trial) {
      seen.insert(util::derive_seed(base, trial));
    }
  }
  EXPECT_EQ(seen.size(), 4u * 256u);
}

TEST(SeedDerivationTest, IndependentOfEvaluationOrder) {
  const std::uint64_t direct = util::derive_seed(7, 100);
  for (std::uint64_t i = 0; i < 100; ++i) util::derive_seed(7, i);
  EXPECT_EQ(util::derive_seed(7, 100), direct);
}

TEST(TrialRunnerTest, ResultsBitIdenticalAcrossJobCounts) {
  const std::size_t trials = 64;
  TrialRunner serial(1);
  const auto baseline = serial.run(trials, 123, noisy_trial);

  for (std::size_t jobs : {2, 3, 8}) {
    TrialRunner pool(jobs);
    const auto results = pool.run(trials, 123, noisy_trial);
    ASSERT_EQ(results.size(), baseline.size());
    for (std::size_t i = 0; i < trials; ++i) {
      ASSERT_TRUE(results[i].has_value());
      // Exact bit equality, not EXPECT_DOUBLE_EQ: sharding must not change
      // a single trial's stream.
      EXPECT_EQ(*results[i], *baseline[i]) << "trial " << i << " jobs " << jobs;
    }
  }
}

TEST(TrialRunnerTest, EveryTrialRunsExactlyOnce) {
  std::vector<std::atomic<int>> hits(503);
  TrialRunner pool(8);
  pool.run(hits.size(), 1, [&](std::size_t i, std::uint64_t) {
    hits[i].fetch_add(1, std::memory_order_relaxed);
    return 0;
  });
  for (std::size_t i = 0; i < hits.size(); ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "trial " << i;
  }
}

TEST(TrialRunnerTest, ThrowingTrialDoesNotKillTheSweep) {
  TrialRunner pool(4);
  SweepReport report;
  report.name = "throwing";
  const auto results = pool.run(
      50, 9,
      [](std::size_t i, std::uint64_t) -> int {
        if (i % 5 == 3) throw std::runtime_error("trial exploded");
        return static_cast<int>(i);
      },
      &report);

  EXPECT_EQ(report.trials, 50u);
  EXPECT_EQ(report.failed, 10u);
  ASSERT_FALSE(report.errors.empty());
  EXPECT_NE(report.errors.front().find("trial exploded"), std::string::npos);
  for (std::size_t i = 0; i < results.size(); ++i) {
    if (i % 5 == 3) {
      EXPECT_FALSE(results[i].has_value());
    } else {
      ASSERT_TRUE(results[i].has_value());
      EXPECT_EQ(*results[i], static_cast<int>(i));
    }
  }
}

TEST(TrialRunnerTest, ReportCapturesTimingAndThroughput) {
  TrialRunner pool(2);
  SweepReport report;
  report.name = "timing";
  pool.run(16, 3, noisy_trial, &report);
  EXPECT_EQ(report.trials, 16u);
  EXPECT_EQ(report.failed, 0u);
  EXPECT_EQ(report.trial_micros.count(), 16u);
  EXPECT_GT(report.wall_seconds, 0.0);
  EXPECT_GT(report.trials_per_second(), 0.0);
  EXPECT_GE(report.trial_micros.percentile(95.0), report.trial_micros.percentile(50.0));
}

TEST(TrialRunnerTest, MoreJobsThanTrials) {
  TrialRunner pool(16);
  const auto results = pool.run(3, 5, noisy_trial);
  ASSERT_EQ(results.size(), 3u);
  TrialRunner serial(1);
  const auto expected = serial.run(3, 5, noisy_trial);
  for (std::size_t i = 0; i < 3; ++i) EXPECT_EQ(*results[i], *expected[i]);
}

TEST(TrialRunnerTest, ZeroTrials) {
  TrialRunner pool(4);
  SweepReport report;
  EXPECT_TRUE(pool.run(0, 1, noisy_trial, &report).empty());
  EXPECT_EQ(report.trials, 0u);
  EXPECT_EQ(report.trials_per_second(), 0.0);
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

TEST(RunSubsetTest, UnionOfDisjointShardsIsBitIdenticalToFullRun) {
  const std::size_t trials = 61;
  TrialRunner pool(3);
  const auto full = pool.run(trials, 987, noisy_trial);

  // Strided 4-way split, shards run independently (even at other job counts).
  std::vector<std::optional<double>> stitched(trials);
  for (std::uint32_t shard = 0; shard < 4; ++shard) {
    std::vector<std::uint32_t> indices;
    for (std::size_t i = shard; i < trials; i += 4) {
      indices.push_back(static_cast<std::uint32_t>(i));
    }
    TrialRunner shard_pool(1 + shard % 3);
    const auto part = shard_pool.run_subset(indices, 987, noisy_trial);
    ASSERT_EQ(part.size(), indices.size());
    for (std::size_t k = 0; k < indices.size(); ++k) stitched[indices[k]] = part[k];
  }
  for (std::size_t i = 0; i < trials; ++i) {
    ASSERT_TRUE(stitched[i].has_value()) << i;
    EXPECT_EQ(*stitched[i], *full[i]) << i;  // bit-identical, not just close
  }
}

TEST(RunSubsetTest, ReportsGlobalTrialIndicesForFailures) {
  TrialRunner pool(2);
  SweepReport report;
  report.name = "subset";
  const std::vector<std::uint32_t> indices = {3, 10, 17};
  const auto results = pool.run_subset(
      indices, 5,
      [](std::size_t i, std::uint64_t) -> double {
        if (i == 10) throw std::runtime_error("bad trial");
        return static_cast<double>(i);
      },
      &report);
  ASSERT_EQ(results.size(), 3u);
  EXPECT_TRUE(results[0].has_value());
  EXPECT_FALSE(results[1].has_value());
  EXPECT_EQ(report.failed, 1u);
  ASSERT_EQ(report.errors.size(), 1u);
  // The message names the global trial index, not the subset slot.
  EXPECT_NE(report.errors[0].find("trial 10"), std::string::npos) << report.errors[0];
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

TEST(JobsKnobTest, FlagBeatsEnvBeatsHardware) {
  const char* argv_flag[] = {"prog", "--jobs", "6"};
  setenv("SND_JOBS", "3", 1);
  EXPECT_EQ(util::resolve_jobs(util::Cli(3, argv_flag)), 6u);

  const char* argv_plain[] = {"prog"};
  EXPECT_EQ(util::resolve_jobs(util::Cli(1, argv_plain)), 3u);

  unsetenv("SND_JOBS");
  EXPECT_GE(util::resolve_jobs(util::Cli(1, argv_plain)), 1u);

  const char* argv_zero[] = {"prog", "--jobs", "0"};
  EXPECT_EQ(util::resolve_jobs(util::Cli(3, argv_zero)), 1u);
}

TEST(CliValidateTest, RejectsUnknownFlagsAndMalformedNumbers) {
  const char* argv[] = {"prog", "--seeds", "banana", "--bogus", "1"};
  const util::Cli cli(5, argv);
  EXPECT_EQ(cli.get_int("seeds", 20), 20);  // malformed -> fallback + error
  std::ostringstream err;
  EXPECT_FALSE(cli.validate(err, {"seeds"}, "[--seeds N]"));
  EXPECT_NE(err.str().find("unknown flag --bogus"), std::string::npos);
  EXPECT_NE(err.str().find("--seeds=banana"), std::string::npos);
  EXPECT_NE(err.str().find("usage:"), std::string::npos);
}

TEST(CliValidateTest, AcceptsCleanInvocations) {
  const char* argv[] = {"prog", "--seeds", "4", "--jobs=2"};
  const util::Cli cli(4, argv);
  EXPECT_EQ(cli.get_int("seeds", 20), 4);
  EXPECT_EQ(cli.get_int("jobs", 0), 2);
  std::ostringstream err;
  EXPECT_TRUE(cli.validate(err, {"seeds", "jobs"}));
  EXPECT_TRUE(err.str().empty());
}

}  // namespace
}  // namespace snd::runner
