// Property-suite CLI: randomized fault-injection trials over the SND
// protocol with invariant oracles, automatic fault-plan shrinking, and
// FAILCASE replay.
//
//   ./proptest_driver [--trials 20] [--seed 1] [--jobs N]
//                     [--failcase-dir .] [--max-failures 5]
//                     [--plant none|uncounted_drop|verify_bypass|replay_window_bypass]
//                     [--adversary FAMILIES | --adversary-config PATH]
//                     [--replay-failcase PATH]
//                     [--log warn] [--trace off]
//
// --plant arms a deliberate, test-only bug inside fault::Injector so CI can
// prove the harness actually catches, shrinks, and replays real defects.
// --replay-failcase re-runs the exact (seed, plan) recorded in a FAILCASE
// artifact and verifies the run is bit-identical to the recorded failure.
#include <iostream>

#include "adversary/scenario.h"
#include "fault/injector.h"
#include "obs/config.h"
#include "proptest/runner.h"
#include "util/driver_spec.h"

namespace {

using namespace snd;

int replay(const std::string& path) {
  const proptest::ReplayResult result = proptest::replay_failcase(path);
  if (!result.loaded) {
    std::cerr << "replay: " << result.error << "\n";
    return 2;
  }
  std::cout << "== FAILCASE replay: " << path << " ==\n"
            << "expected digest: " << result.expected_digest << "\n"
            << "observed digest: " << result.outcome.digest << "\n"
            << "digest match:    " << (result.digest_matches ? "yes" : "NO") << "\n"
            << "reproduced:      " << (result.reproduced ? "yes" : "NO") << "\n";
  for (const proptest::Violation& v : result.outcome.violations) {
    std::cout << "  [" << v.oracle << "] " << v.message << "\n";
  }
  // Success means the artifact reproduces bit-identically: same digest and
  // the violation fires again.
  return result.digest_matches && result.reproduced ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  std::size_t jobs = 1;
  obs::ObsConfig obs_config;
  std::optional<adversary::ScenarioConfig> scenario;
  util::cli::DriverSpec driver_spec(
      "proptest_driver",
      "Property-based invariant fuzzing over random fault-injected\n"
      "deployments; failing trials are persisted as replayable failcases.");
  driver_spec.int_flag("trials", 20, "N", "random trials to run", 1)
      .int_flag("seed", 1, "S", "base seed for trial derivation")
      .string_flag("failcase-dir", ".", "DIR", "directory for failcase JSON files")
      .int_flag("max-failures", 5, "N", "stop after N failing trials", 1)
      .string_flag("plant", "none", "BUG",
                   "plant a known bug (none|...) to exercise the harness",
                   [](std::string_view value) -> std::optional<std::string> {
                     if (fault::planted_bug_from_name(std::string(value))) return std::nullopt;
                     return "unknown bug '" + std::string(value) + "'";
                   })
      .string_flag("replay-failcase", "", "PATH", "replay one failcase file and exit")
      .group(util::cli::jobs_group(&jobs))
      .group(obs::obs_flag_group(&obs_config))
      .group(adversary::scenario_flag_group(&scenario));
  const util::cli::Driver cli = driver_spec.parse(argc, argv);
  if (!cli.ok()) return cli.exit_code();
  if (!obs::apply_obs(obs_config, std::cerr)) return 2;

  proptest::PropConfig config;
  config.trials = static_cast<std::size_t>(cli.get_int("trials"));
  config.base_seed = static_cast<std::uint64_t>(cli.get_int("seed"));
  config.jobs = jobs;
  config.failcase_dir = cli.get("failcase-dir");
  config.max_failures = static_cast<std::size_t>(cli.get_int("max-failures"));
  const std::string replay_path = cli.get("replay-failcase");
  const std::string plant = cli.get("plant");
  const fault::PlantedBug planted = *fault::planted_bug_from_name(plant);
  fault::set_planted_bug(planted);
  if (scenario) proptest::set_scenario_override(scenario);

  if (!replay_path.empty()) return replay(replay_path);

  std::cout << "== SND property suite: " << config.trials << " randomized trials, seed "
            << config.base_seed << ", " << config.jobs << " jobs ==\n";
  if (planted != fault::PlantedBug::kNone) {
    std::cout << "(planted bug armed: " << plant << ")\n";
  }
  if (scenario) {
    std::cout << "(adversary scenario override: " << scenario->to_json() << ")\n";
  }

  const proptest::PropReport report = proptest::run_property_suite(config);

  std::cout << "\npassed " << report.passed << "/" << report.trials << ", failed "
            << report.failed << ", errored " << report.errored << "\n";
  for (const std::string& error : report.errors) std::cout << "  " << error << "\n";
  for (const proptest::FailCase& failcase : report.failcases) {
    std::cout << "\nFAILCASE " << failcase.kind << " trial=" << failcase.trial
              << " seed=" << failcase.trial_seed << " plan " << failcase.plan.actions.size()
              << "/" << failcase.unshrunk_actions << " actions after "
              << failcase.shrink_runs << " shrink runs\n";
    for (const proptest::Violation& v : failcase.violations) {
      std::cout << "  [" << v.oracle << "] " << v.message << "\n";
    }
    if (!failcase.path.empty()) std::cout << "  artifact: " << failcase.path << "\n";
  }
  std::cout << (report.all_green() ? "\nALL INVARIANTS HELD\n" : "\nINVARIANT FAILURES\n");
  return report.all_green() ? 0 : 1;
}
