#include "runner/trial_runner.h"

#include <gtest/gtest.h>

#include <atomic>
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

/// Runs noisy_trial for every slot of a `trials`-trial sweep on `jobs`
/// workers, each slot seeded derive_seed(base_seed, slot) and writing its own
/// result.
std::vector<double> run_noisy(std::size_t jobs, std::size_t trials, std::uint64_t base_seed) {
  std::vector<double> results(trials, 0.0);
  TrialRunner(jobs).for_each(trials, [&](std::size_t i) {
    results[i] = noisy_trial(i, util::derive_seed(base_seed, i));
  });
  return results;
}

TEST(TrialRunnerTest, ResultsBitIdenticalAcrossJobCounts) {
  const std::size_t trials = 64;
  const std::vector<double> baseline = run_noisy(1, trials, 123);
  for (std::size_t jobs : {2, 3, 8}) {
    // Exact bit equality, not EXPECT_DOUBLE_EQ: scheduling must not change
    // a single trial's stream.
    EXPECT_EQ(run_noisy(jobs, trials, 123), baseline) << "jobs " << jobs;
  }
}

TEST(TrialRunnerTest, EveryTrialRunsExactlyOnce) {
  std::vector<std::atomic<int>> hits(503);
  TrialRunner(8).for_each(hits.size(), [&](std::size_t i) {
    hits[i].fetch_add(1, std::memory_order_relaxed);
  });
  for (std::size_t i = 0; i < hits.size(); ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "trial " << i;
  }
}

TEST(TrialRunnerTest, MoreJobsThanTrials) {
  EXPECT_EQ(run_noisy(16, 3, 5), run_noisy(1, 3, 5));
}

TEST(TrialRunnerTest, ZeroTrials) {
  bool called = false;
  TrialRunner(4).for_each(0, [&](std::size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(TrialRunnerTest, ExceptionReachesTheCallerAfterTheJoin) {
  for (const std::size_t jobs : {std::size_t{1}, std::size_t{4}}) {
    std::atomic<int> ran{0};
    EXPECT_THROW(TrialRunner(jobs).for_each(64,
                                            [&](std::size_t i) {
                                              ran.fetch_add(1);
                                              if (i == 37) throw std::runtime_error("boom");
                                            }),
                 std::runtime_error)
        << "jobs " << jobs;
    EXPECT_GE(ran.load(), 1);
  }
}

TEST(TrialRunnerTest, ZeroJobsMeansHardwareConcurrency) {
  EXPECT_GE(TrialRunner(0).jobs(), 1u);
  EXPECT_EQ(TrialRunner(3).jobs(), 3u);
}

TEST(JobsKnobTest, FlagBeatsHardware) {
  const char* argv_flag[] = {"prog", "--jobs", "6"};
  EXPECT_EQ(util::resolve_jobs(util::Cli(3, argv_flag)), 6u);

  const char* argv_plain[] = {"prog"};
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
