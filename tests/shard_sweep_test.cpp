// shard::run_sweep, the path every Monte-Carlo table driver returns
// through, driven with a synthetic trial body: its exit codes, its
// artifacts, the claims a table reports broken, and a 2-shard run that
// merges to the plain run's canonical bytes.
#include <filesystem>
#include <iostream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "shard/merge.h"
#include "shard/sweep.h"
#include "util/file.h"
#include "util/rng.h"
#include "util/runtime_config.h"

namespace snd::shard {
namespace {

const Sweep kSweep{"sweep_test", 77, 3, 4, {"score", "trial"}};

/// A seed-derived score and the trial index; trial `failing` throws.
TrialBody scoring_body(std::size_t failing = kSweep.trials()) {
  return [failing](std::size_t trial, std::uint64_t seed) {
    if (trial == failing) throw std::runtime_error("synthetic failure");
    util::Rng rng(seed);
    return TrialOutput{{rng.uniform(), static_cast<double>(trial)}, obs::TraceSummary{}};
  };
}

std::vector<std::string> table_holds(const SweepRecords&) { return {}; }

/// Points a standard stream at a string buffer while in scope.
class Capture {
 public:
  explicit Capture(std::ostream& stream)
      : stream_(stream), saved_(stream.rdbuf(buffer_.rdbuf())) {}
  Capture(const Capture&) = delete;
  Capture& operator=(const Capture&) = delete;
  ~Capture() { stream_.rdbuf(saved_); }
  [[nodiscard]] std::string text() const { return buffer_.str(); }

 private:
  std::ostream& stream_;
  std::ostringstream buffer_;
  std::streambuf* saved_;
};

struct Outcome {
  int code = 0;
  std::string out;
  std::string err;
};

class RunSweep : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = ::testing::TempDir() + "shard_sweep_" +
           ::testing::UnitTest::GetInstance()->current_test_info()->name();
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
    saved_ = runtime_config();
    RuntimeConfig config = saved_;
    config.bench_dir = dir_;
    set_runtime_config_for_testing(config);
  }
  void TearDown() override { set_runtime_config_for_testing(saved_); }

  [[nodiscard]] std::string path(const std::string& name) const { return dir_ + "/" + name; }

  /// Parses `args` like a driver's main() and runs the sweep.
  static Outcome run(std::vector<std::string> args, const TrialBody& body = scoring_body(),
                     const SweepTable& table = table_holds) {
    SweepFlags flags;
    util::cli::DriverSpec spec("sweep_test", "Synthetic sweep.");
    add_sweep_flags(spec, &flags);
    std::vector<const char*> argv = {"sweep_test"};
    for (const std::string& arg : args) argv.push_back(arg.c_str());
    std::ostringstream parse_out;
    std::ostringstream parse_err;
    const util::cli::Driver cli =
        spec.parse(static_cast<int>(argv.size()), argv.data(), parse_out, parse_err);
    if (!cli.ok()) return {cli.exit_code(), parse_out.str(), parse_err.str()};
    Outcome outcome;
    {
      const Capture out(std::cout);
      const Capture err(std::cerr);
      outcome.code = run_sweep(cli, flags, kSweep, "== synthetic ==\n", body, table);
      outcome.out = out.text();
      outcome.err = err.text();
    }
    return outcome;
  }

  std::string dir_;
  RuntimeConfig saved_;
};

TEST_F(RunSweep, PlainRunExitsZeroAndWritesBothReports) {
  // The table reads the cells through SweepRecords: cell c holds trials
  // 4c .. 4c+3 in seed order, scored by the body above.
  std::vector<double> means;
  const SweepTable table = [&](const SweepRecords& records) {
    for (std::size_t cell = 0; cell < kSweep.cells; ++cell) {
      EXPECT_EQ(records.stats(cell, 1).min(), static_cast<double>(cell * kSweep.seeds));
      EXPECT_EQ(records.stats(cell, 1).max(), static_cast<double>(cell * kSweep.seeds + 3));
      EXPECT_EQ(records.micros(cell).count(), kSweep.seeds);
      means.push_back(records.stats(cell, 0).mean());
    }
    return std::vector<std::string>{};
  };
  const Outcome outcome =
      run({"--jobs", "3", "--canonical-report", path("canonical.json")}, scoring_body(), table);
  EXPECT_EQ(outcome.code, 0) << outcome.err;
  EXPECT_EQ(outcome.out.rfind("== synthetic ==\n", 0), 0u) << outcome.out;
  EXPECT_NE(outcome.out.find("[12 trials, 0 failed"), std::string::npos) << outcome.out;

  ASSERT_EQ(means.size(), kSweep.cells);
  for (std::size_t cell = 0; cell < kSweep.cells; ++cell) {
    util::RunningStats expected;
    for (std::size_t s = 0; s < kSweep.seeds; ++s) {
      const std::size_t trial = cell * kSweep.seeds + s;
      expected.add(util::Rng(util::derive_seed(kSweep.base_seed, trial)).uniform());
    }
    EXPECT_EQ(means[cell], expected.mean()) << "cell " << cell;
  }

  const auto canonical = util::read_file(path("canonical.json"));
  ASSERT_TRUE(canonical.has_value());
  EXPECT_NE(canonical->find("\"name\": \"sweep_test\""), std::string::npos) << *canonical;
  EXPECT_EQ(canonical->find("wall_seconds"), std::string::npos) << *canonical;
  const auto artifact = util::read_file(path("BENCH_sweep_test.json"));
  ASSERT_TRUE(artifact.has_value());
  EXPECT_NE(artifact->find("\"trials\": 12"), std::string::npos) << *artifact;
  EXPECT_NE(artifact->find("wall_seconds"), std::string::npos) << *artifact;
}

TEST_F(RunSweep, ThrowingTrialExitsOne) {
  const Outcome outcome =
      run({"--jobs", "2", "--canonical-report", path("canonical.json")}, scoring_body(5));
  EXPECT_EQ(outcome.code, 1);
  EXPECT_NE(outcome.out.find("1 failed"), std::string::npos) << outcome.out;
  const auto canonical = util::read_file(path("canonical.json"));
  ASSERT_TRUE(canonical.has_value());
  EXPECT_NE(canonical->find("trial 5: synthetic failure"), std::string::npos) << *canonical;
}

TEST_F(RunSweep, BrokenClaimExitsOneAndIsNamedOnStderr) {
  const SweepTable table = [](const SweepRecords& records) {
    std::vector<std::string> broken;
    for (std::size_t cell = 0; cell < kSweep.cells; ++cell) {
      if (records.stats(cell, 1).max() > 10.0) {
        broken.push_back("claim broken at row " + std::to_string(cell));
      }
    }
    return broken;
  };
  const Outcome outcome = run({"--jobs", "2"}, scoring_body(), table);
  EXPECT_EQ(outcome.code, 1);
  EXPECT_EQ(outcome.err, "sweep_test: claim broken at row 2\n");
  // The artifact is still written: a broken claim is a result, not an I/O
  // failure.
  EXPECT_TRUE(std::filesystem::exists(path("BENCH_sweep_test.json")));
}

TEST_F(RunSweep, CanonicalReportWithCheckpointExitsTwoAtParse) {
  bool ran = false;
  const TrialBody body = [&](std::size_t trial, std::uint64_t seed) {
    ran = true;
    return scoring_body()(trial, seed);
  };
  const Outcome outcome = run({"--checkpoint", path("run.sndshard"), "--canonical-report",
                               path("canonical.json")},
                              body);
  EXPECT_EQ(outcome.code, 2);
  EXPECT_NE(outcome.err.find("--canonical-report"), std::string::npos) << outcome.err;
  EXPECT_FALSE(ran);
  EXPECT_FALSE(std::filesystem::exists(path("run.sndshard")));
}

TEST_F(RunSweep, UnwritableCanonicalPathExitsOne) {
  const Outcome outcome =
      run({"--jobs", "2", "--canonical-report", path("missing_dir/canonical.json")});
  EXPECT_EQ(outcome.code, 1);
  EXPECT_NE(outcome.err.find("cannot write"), std::string::npos) << outcome.err;
}

TEST_F(RunSweep, TwoShardRunMergesToThePlainRunsCanonicalBytes) {
  ASSERT_EQ(run({"--jobs", "2", "--canonical-report", path("plain.json")}).code, 0);
  bool tabled = false;
  const SweepTable table = [&](const SweepRecords&) {
    tabled = true;
    return std::vector<std::string>{};
  };
  std::vector<std::string> shards;
  for (const std::string k : {"0", "1"}) {
    shards.push_back(path("shard_" + k + ".sndshard"));
    const Outcome outcome = run({"--jobs", "2", "--shard", k + "/2", "--checkpoint",
                                 shards.back(), "--checkpoint-every", "2"},
                                scoring_body(), table);
    EXPECT_EQ(outcome.code, 0) << outcome.err;
    EXPECT_NE(outcome.out.find("ran 6 of 12 trials"), std::string::npos) << outcome.out;
  }
  EXPECT_FALSE(tabled);  // a shard has no table; the merged report is the result

  std::string error;
  const auto merged = merge_shards(shards, &error);
  ASSERT_TRUE(merged.has_value()) << error;
  const auto plain = util::read_file(path("plain.json"));
  ASSERT_TRUE(plain.has_value());
  EXPECT_EQ(merged->report.to_canonical_json(), *plain);
}

}  // namespace
}  // namespace snd::shard
