#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "util/cli.h"
#include "util/driver_spec.h"
#include "util/file.h"
#include "util/runtime_config.h"

namespace snd::util::cli {
namespace {

std::vector<const char*> argv_of(std::initializer_list<const char*> args) {
  return std::vector<const char*>(args);
}

DriverSpec basic_spec() {
  DriverSpec spec("demo", "A demo driver.");
  spec.int_flag("seeds", 20, "N", "independent seeds", 1)
      .double_flag("range", 50.0, "R", "radio range", 1e-9)
      .bool_flag("fast", "skip the slow pass")
      .string_flag("out", "", "PATH", "output path");
  return spec;
}

TEST(DriverSpecTest, DefaultsApplyWhenFlagsAbsent) {
  const DriverSpec spec = basic_spec();
  const auto args = argv_of({"demo"});
  std::ostringstream out, err;
  const Driver cli = spec.parse(static_cast<int>(args.size()), args.data(), out, err);
  ASSERT_TRUE(cli.ok());
  EXPECT_EQ(cli.get_int("seeds"), 20);
  EXPECT_DOUBLE_EQ(cli.get_double("range"), 50.0);
  EXPECT_FALSE(cli.get_bool("fast"));
  EXPECT_EQ(cli.get("out"), "");
}

TEST(DriverSpecTest, ParsesGivenValues) {
  const DriverSpec spec = basic_spec();
  const auto args =
      argv_of({"demo", "--seeds=7", "--range", "2.5", "--fast", "--out=x.json"});
  std::ostringstream out, err;
  const Driver cli = spec.parse(static_cast<int>(args.size()), args.data(), out, err);
  ASSERT_TRUE(cli.ok()) << err.str();
  EXPECT_EQ(cli.get_int("seeds"), 7);
  EXPECT_DOUBLE_EQ(cli.get_double("range"), 2.5);
  EXPECT_TRUE(cli.get_bool("fast"));
  EXPECT_EQ(cli.get("out"), "x.json");
}

TEST(DriverSpecTest, HelpPrintsEveryFlagAndExitsZero) {
  const DriverSpec spec = basic_spec();
  const auto args = argv_of({"demo", "--help"});
  std::ostringstream out, err;
  const Driver cli = spec.parse(static_cast<int>(args.size()), args.data(), out, err);
  EXPECT_FALSE(cli.ok());
  EXPECT_EQ(cli.exit_code(), 0);
  const std::string help = out.str();
  EXPECT_NE(help.find("A demo driver."), std::string::npos);
  EXPECT_NE(help.find("--seeds=N"), std::string::npos);
  EXPECT_NE(help.find("[default: 20]"), std::string::npos);
  EXPECT_NE(help.find("--fast"), std::string::npos);
  EXPECT_NE(help.find("--help"), std::string::npos);
}

TEST(DriverSpecTest, RejectsUnknownFlag) {
  const DriverSpec spec = basic_spec();
  const auto args = argv_of({"demo", "--sedes=7"});
  std::ostringstream out, err;
  const Driver cli = spec.parse(static_cast<int>(args.size()), args.data(), out, err);
  EXPECT_FALSE(cli.ok());
  EXPECT_EQ(cli.exit_code(), 2);
  EXPECT_NE(err.str().find("--sedes"), std::string::npos);
}

TEST(DriverSpecTest, RejectsDuplicateFlag) {
  const DriverSpec spec = basic_spec();
  const auto args = argv_of({"demo", "--seeds=7", "--seeds=9"});
  std::ostringstream out, err;
  const Driver cli = spec.parse(static_cast<int>(args.size()), args.data(), out, err);
  EXPECT_FALSE(cli.ok());
  EXPECT_EQ(cli.exit_code(), 2);
  EXPECT_NE(err.str().find("more than once"), std::string::npos);
}

TEST(DriverSpecTest, RejectsOutOfRangeAndMalformedValues) {
  const DriverSpec spec = basic_spec();
  {
    const auto args = argv_of({"demo", "--seeds=0"});
    std::ostringstream out, err;
    const Driver cli = spec.parse(static_cast<int>(args.size()), args.data(), out, err);
    EXPECT_FALSE(cli.ok());
    EXPECT_NE(err.str().find("--seeds=0"), std::string::npos);
  }
  {
    const auto args = argv_of({"demo", "--range=banana"});
    std::ostringstream out, err;
    const Driver cli = spec.parse(static_cast<int>(args.size()), args.data(), out, err);
    EXPECT_FALSE(cli.ok());
  }
}

TEST(DriverSpecTest, StringValidatorRuns) {
  DriverSpec spec("demo", "validator demo");
  spec.string_flag("mode", "a", "MODE", "a or b",
                   [](std::string_view value) -> std::optional<std::string> {
                     if (value == "a" || value == "b") return std::nullopt;
                     return "must be a or b";
                   });
  const auto bad = argv_of({"demo", "--mode=c"});
  std::ostringstream out, err;
  const Driver cli = spec.parse(static_cast<int>(bad.size()), bad.data(), out, err);
  EXPECT_FALSE(cli.ok());
  EXPECT_NE(err.str().find("must be a or b"), std::string::npos);

  const auto good = argv_of({"demo", "--mode=b"});
  std::ostringstream out2, err2;
  const Driver cli2 = spec.parse(static_cast<int>(good.size()), good.data(), out2, err2);
  ASSERT_TRUE(cli2.ok());
  EXPECT_EQ(cli2.get("mode"), "b");
}

TEST(DriverSpecTest, GroupResolverRunsAndHelpShowsGroupTitle) {
  std::size_t jobs = 0;
  DriverSpec spec("demo", "group demo");
  spec.int_flag("seeds", 1, "N", "seeds", 1).group(jobs_group(&jobs));
  const auto args = argv_of({"demo", "--jobs=3"});
  std::ostringstream out, err;
  const Driver cli = spec.parse(static_cast<int>(args.size()), args.data(), out, err);
  ASSERT_TRUE(cli.ok());
  EXPECT_EQ(jobs, 3u);

  std::ostringstream help;
  spec.print_help(help);
  EXPECT_NE(help.str().find("Parallelism:"), std::string::npos);
  EXPECT_NE(help.str().find("--jobs=N"), std::string::npos);
  // One default, and the one resolve_jobs falls back to.
  const unsigned hardware = std::max(1u, std::thread::hardware_concurrency());
  EXPECT_NE(help.str().find("worker threads [default: " + std::to_string(hardware) + "]\n"),
            std::string::npos);
}

TEST(DriverSpecTest, PositionalArityEnforced) {
  DriverSpec spec("demo", "positional demo");
  spec.string_flag("out", "", "PATH", "output").positional("FILE", "input files", 1);
  {
    const auto args = argv_of({"demo"});
    std::ostringstream out, err;
    const Driver cli = spec.parse(static_cast<int>(args.size()), args.data(), out, err);
    EXPECT_FALSE(cli.ok());
  }
  {
    const auto args = argv_of({"demo", "a.bin", "b.bin"});
    std::ostringstream out, err;
    const Driver cli = spec.parse(static_cast<int>(args.size()), args.data(), out, err);
    ASSERT_TRUE(cli.ok());
    EXPECT_EQ(cli.positional().size(), 2u);
  }
}

TEST(DriverSpecTest, RejectsUndeclaredPositionals) {
  const DriverSpec spec = basic_spec();
  const auto args = argv_of({"demo", "stray"});
  std::ostringstream out, err;
  const Driver cli = spec.parse(static_cast<int>(args.size()), args.data(), out, err);
  EXPECT_FALSE(cli.ok());
  EXPECT_NE(err.str().find("stray"), std::string::npos);
}

// Regression for the duplicate-flag hole in the pre-DriverSpec parser: the
// first value silently won and validate() accepted the line.
TEST(CliDuplicateFlagTest, ValidateRejectsRepeatedFlag) {
  const auto args = argv_of({"prog", "--seeds=3", "--seeds=9"});
  const Cli cli(static_cast<int>(args.size()), args.data());
  ASSERT_EQ(cli.duplicates().size(), 1u);
  EXPECT_NE(cli.duplicates().front().find("--seeds"), std::string::npos);
  std::ostringstream err;
  EXPECT_FALSE(cli.validate(err, {"seeds"}, "[--seeds N]"));
  EXPECT_NE(err.str().find("more than once"), std::string::npos);
  // The first occurrence stays readable for error reporting.
  EXPECT_EQ(cli.get_int("seeds", 0), 3);
}

TEST(CliDuplicateFlagTest, DistinctFlagsStillValidate) {
  const auto args = argv_of({"prog", "--seeds=3", "--tmax=10"});
  const Cli cli(static_cast<int>(args.size()), args.data());
  EXPECT_TRUE(cli.duplicates().empty());
  std::ostringstream err;
  EXPECT_TRUE(cli.validate(err, {"seeds", "tmax"}, ""));
}

}  // namespace
}  // namespace snd::util::cli

namespace snd {
namespace {

TEST(RuntimeConfigTest, LoadsFromEnvironment) {
  ::setenv("SND_BENCH_DIR", "/tmp/artifacts", 1);
  const RuntimeConfig config = load_runtime_config_from_env();
  ASSERT_TRUE(config.bench_dir.has_value());
  EXPECT_EQ(*config.bench_dir, "/tmp/artifacts");
  ::unsetenv("SND_BENCH_DIR");
}

TEST(RuntimeConfigTest, UnsetVariablesStayDefault) {
  ::unsetenv("SND_BENCH_DIR");
  const RuntimeConfig config = load_runtime_config_from_env();
  EXPECT_FALSE(config.bench_dir.has_value());
}

TEST(RuntimeConfigTest, BenchArtifactPathRespectsOverride) {
  const RuntimeConfig saved = runtime_config();
  RuntimeConfig with_dir = saved;
  with_dir.bench_dir = "/tmp/bench";
  set_runtime_config_for_testing(with_dir);
  EXPECT_EQ(bench_artifact_path("BENCH_x.json"), "/tmp/bench/BENCH_x.json");
  RuntimeConfig without_dir = saved;
  without_dir.bench_dir.reset();
  set_runtime_config_for_testing(without_dir);
  EXPECT_EQ(bench_artifact_path("BENCH_x.json"), "BENCH_x.json");
  set_runtime_config_for_testing(saved);
}

TEST(TextFileTest, WriteThenReadRoundTripsEveryByte) {
  const std::string path = ::testing::TempDir() + "text_file_round_trip.json";
  // Longer than one read buffer, with quotes, escapes and a bare CR.
  const std::string text = "{\"k\": \"a\\\"b\"}\r\n" + std::string(10000, 'x') + "\n";
  ASSERT_TRUE(util::write_file(path, text));
  EXPECT_EQ(util::read_file(path), text);
  ASSERT_TRUE(util::write_file(path, ""));  // truncates
  EXPECT_EQ(util::read_file(path), "");
}

TEST(TextFileTest, UnwritablePathFailsInsteadOfDroppingTheText) {
  const std::string path = ::testing::TempDir() + "no_such_dir/BENCH_x.json";
  EXPECT_FALSE(util::write_file(path, "{}\n"));
  EXPECT_FALSE(util::read_file(path).has_value());
}

}  // namespace
}  // namespace snd
