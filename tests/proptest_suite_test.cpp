// The property harness's own tests: every invariant oracle provably fires
// on a hand-built violating observation (no vacuous oracles), trials are
// deterministic, and the planted-bug pipeline -- catch, shrink to a minimal
// plan, emit a FAILCASE, replay it bit-identically -- works end to end.
#include <gtest/gtest.h>

#include "proptest/oracles.h"
#include "proptest/runner.h"
#include "proptest/scenario.h"
#include "proptest/shrink.h"
#include "util/file.h"
#include "util/rng.h"

namespace snd::proptest {
namespace {

std::size_t drop_index(obs::DropCause cause) { return static_cast<std::size_t>(cause); }

/// A consistent all-green observation the violation tests perturb.
Observation green_observation() {
  Observation o;
  o.trial_seed = 1;
  o.candidates = 100;
  o.deliveries = 80;
  o.drops[drop_index(obs::DropCause::kLoss)] = 10;
  o.drops[drop_index(obs::DropCause::kCollision)] = 4;
  o.drops[drop_index(obs::DropCause::kInjected)] = 6;
  o.drops[drop_index(obs::DropCause::kReplay)] = 3;
  o.fault_plan_armed = true;
  o.injected_drops = 5;
  o.injected_bursts = 1;
  o.safety_d = 100.0;
  o.safety_holds = true;

  AgentObservation alive;
  alive.id = 1;
  alive.alive = true;
  alive.discovery_complete = true;
  alive.has_record = true;
  alive.record_valid = true;
  alive.record_lists_tentative = true;
  alive.master_present = false;
  alive.replay_rejects = 3;
  o.agents.push_back(alive);

  AgentObservation dead;
  dead.id = 2;
  dead.alive = false;
  dead.discovery_complete = false;
  dead.master_present = true;  // crashed before erasure: exempt
  o.agents.push_back(dead);
  return o;
}

std::vector<std::string> firing_oracles(const Observation& o) {
  std::vector<std::string> names;
  for (const Violation& v : check_all(o)) names.push_back(v.oracle);
  return names;
}

TEST(OracleTest, GreenObservationPasses) {
  EXPECT_TRUE(check_all(green_observation()).empty());
}

TEST(OracleTest, ChannelConservationFires) {
  Observation o = green_observation();
  o.candidates += 1;  // one candidate unaccounted for
  EXPECT_EQ(firing_oracles(o), std::vector<std::string>{"conservation.channel"});
}

TEST(OracleTest, InjectedConservationFires) {
  Observation o = green_observation();
  o.injected_drops -= 1;  // injector under-reports (the planted bug's shape)
  EXPECT_EQ(firing_oracles(o), std::vector<std::string>{"conservation.injected"});
}

TEST(OracleTest, ReplayBoundedFiresOnImpossibleCounts) {
  Observation o = green_observation();
  o.drops[drop_index(obs::DropCause::kReplay)] = o.deliveries + 1;
  auto names = firing_oracles(o);
  ASSERT_FALSE(names.empty());
  EXPECT_EQ(names[0], "replay.bounded");

  Observation p = green_observation();
  p.agents[0].replay_rejects = 50;  // agents report more rejects than counted
  EXPECT_EQ(firing_oracles(p), std::vector<std::string>{"replay.bounded"});
}

TEST(OracleTest, RecordConsistencyFires) {
  Observation missing = green_observation();
  missing.agents[0].has_record = false;  // completed discovery, no record
  EXPECT_EQ(firing_oracles(missing), std::vector<std::string>{"record.consistency"});

  Observation invalid = green_observation();
  invalid.agents[0].record_valid = false;  // commitment fails under K
  EXPECT_EQ(firing_oracles(invalid), std::vector<std::string>{"record.consistency"});

  Observation wrong_list = green_observation();
  wrong_list.agents[0].record_lists_tentative = false;
  EXPECT_EQ(firing_oracles(wrong_list), std::vector<std::string>{"record.consistency"});
}

TEST(OracleTest, KeyErasureFires) {
  Observation o = green_observation();
  o.agents[0].master_present = true;  // alive + complete + K still in memory
  EXPECT_EQ(firing_oracles(o), std::vector<std::string>{"key.erasure"});
  // The dead agent's K is exempt (set in green_observation already).
}

TEST(OracleTest, SafetyFires) {
  Observation o = green_observation();
  o.safety_holds = false;
  o.safety_violations = 2;
  o.max_impact_radius = 140.0;
  EXPECT_EQ(firing_oracles(o), std::vector<std::string>{"safety.d"});
}

TEST(OracleTest, RelayBoundedFires) {
  Observation o = green_observation();
  o.adversary_armed = true;
  o.verifier_authenticated = true;
  o.relay_armed = true;
  o.relay_tunneled = 40;
  o.relay_overreach = 3;  // out-of-range identities in benign tentative lists
  EXPECT_EQ(firing_oracles(o), std::vector<std::string>{"relay.bounded"});

  // Not gated on relay_armed: any armed adversary admitting an unreachable
  // identity under claimed authentication is the same defect.
  Observation sybil_only = o;
  sybil_only.relay_armed = false;
  EXPECT_EQ(firing_oracles(sybil_only), std::vector<std::string>{"relay.bounded"});

  // Overreach is undefined once nodes move after acceptance: exempt.
  Observation moving = o;
  moving.mobility_armed = true;
  EXPECT_TRUE(firing_oracles(moving).empty());

  // A naive (non-authenticating) verifier is *expected* to admit relays.
  Observation naive = o;
  naive.verifier_authenticated = false;
  EXPECT_TRUE(firing_oracles(naive).empty());
}

TEST(OracleTest, SybilBoundedFires) {
  Observation o = green_observation();
  o.adversary_armed = true;
  o.verifier_authenticated = true;
  o.sybil_armed = true;
  o.sybil_admitted = 5;  // credential-less identities admitted anyway
  EXPECT_EQ(firing_oracles(o), std::vector<std::string>{"sybil.bounded"});

  Observation naive = o;
  naive.verifier_authenticated = false;
  EXPECT_TRUE(firing_oracles(naive).empty());
}

TEST(OracleTest, ReplayNeverAcceptedFires) {
  // Unconditional: a window-flagged duplicate delivered to the protocol is
  // a transport defect whether or not any adversary is armed.
  Observation o = green_observation();
  o.agents[0].replay_accepts = 1;
  EXPECT_EQ(firing_oracles(o), std::vector<std::string>{"replay.never_accepted"});
}

TEST(OracleTest, RecordVersionBoundFires) {
  Observation o = green_observation();
  o.max_updates = 2;
  o.agents[0].record_version = 3;  // one past the server's allowance
  EXPECT_EQ(firing_oracles(o), std::vector<std::string>{"record.version_bound"});

  Observation at_bound = green_observation();
  at_bound.max_updates = 2;
  at_bound.agents[0].record_version = 2;
  EXPECT_TRUE(firing_oracles(at_bound).empty());

  // Dead agents that never formed a record are exempt (has_record gates).
  Observation no_record = green_observation();
  no_record.agents[1].record_version = 9;
  EXPECT_TRUE(firing_oracles(no_record).empty());
}

TEST(ObservationTest, DigestIsCanonical) {
  const Observation a = green_observation();
  const Observation b = green_observation();
  EXPECT_EQ(a.to_json(), b.to_json());
  EXPECT_EQ(a.digest(), b.digest());
  Observation c = green_observation();
  c.deliveries += 1;
  EXPECT_NE(a.digest(), c.digest());
}

TEST(ScenarioTest, FullyDerivedFromSeed) {
  const Scenario a = make_scenario(0xfeedface);
  const Scenario b = make_scenario(0xfeedface);
  EXPECT_EQ(a.deployment.seed, b.deployment.seed);
  EXPECT_EQ(a.round1_nodes, b.round1_nodes);
  EXPECT_EQ(a.round2_nodes, b.round2_nodes);
  EXPECT_EQ(a.attack, b.attack);
  EXPECT_EQ(a.plan.to_json(), b.plan.to_json());
  EXPECT_NE(a.plan.to_json(), make_scenario(0xfeedfacf).plan.to_json());
}

TEST(ScenarioTest, RunTrialIsDeterministic) {
  const std::uint64_t seed = util::derive_seed(1, 0);
  const TrialOutcome a = run_trial(seed);
  const TrialOutcome b = run_trial(seed);
  EXPECT_EQ(a.digest, b.digest);
  EXPECT_EQ(a.observation.to_json(), b.observation.to_json());
  EXPECT_TRUE(a.passed()) << (a.violations.empty() ? std::string() : a.violations[0].message);
}

TEST(ScenarioTest, PlanOverrideOnlyChangesThePlan) {
  // Shrinking depends on this: overriding the plan must hold deployment,
  // attack, and every non-plan random choice fixed.
  const std::uint64_t seed = util::derive_seed(99, 3);
  fault::FaultPlan empty;
  const TrialOutcome a = run_trial(seed, empty);
  const TrialOutcome b = run_trial(seed, empty);
  EXPECT_EQ(a.digest, b.digest);
  EXPECT_FALSE(a.observation.fault_plan_armed);
}

/// Scoped planted-bug arm/disarm so a failing test cannot poison the rest
/// of the process.
struct PlantedBugGuard {
  explicit PlantedBugGuard(fault::PlantedBug bug) { fault::set_planted_bug(bug); }
  ~PlantedBugGuard() { fault::set_planted_bug(fault::PlantedBug::kNone); }
};

TEST(PropSuiteTest, CleanSuiteIsAllGreen) {
  PropConfig config;
  config.trials = 16;
  config.base_seed = 7;
  config.jobs = 1;
  config.failcase_dir.clear();  // no artifacts from the green path
  const PropReport report = run_property_suite(config);
  EXPECT_EQ(report.passed, 16u);
  EXPECT_EQ(report.failed, 0u);
  EXPECT_EQ(report.errored, 0u);
  EXPECT_TRUE(report.all_green());
  EXPECT_TRUE(report.failcases.empty());
}

TEST(PropSuiteTest, PlantedBugIsCaughtShrunkAndReplayedBitIdentically) {
  const PlantedBugGuard guard(fault::PlantedBug::kUncountedDrop);

  PropConfig config;
  config.trials = 30;
  config.base_seed = 1;
  config.jobs = 1;
  config.max_failures = 2;
  config.failcase_dir = ::testing::TempDir();
  const PropReport report = run_property_suite(config);

  ASSERT_GT(report.failed, 0u) << "planted bug not caught";
  ASSERT_FALSE(report.failcases.empty());
  const FailCase& failcase = report.failcases.front();
  EXPECT_EQ(failcase.kind, "invariant");
  ASSERT_FALSE(failcase.violations.empty());
  EXPECT_EQ(failcase.violations[0].oracle, "conservation.injected");
  // Shrunk to the minimal reproduction: a single injection action.
  EXPECT_EQ(failcase.plan.actions.size(), 1u);
  EXPECT_GT(failcase.unshrunk_actions, 0u);

  // The artifact replays bit-identically while the bug is still armed.
  ASSERT_FALSE(failcase.path.empty());
  const ReplayResult replay = replay_failcase(failcase.path);
  ASSERT_TRUE(replay.loaded) << replay.error;
  EXPECT_TRUE(replay.reproduced);
  EXPECT_TRUE(replay.digest_matches);
  EXPECT_EQ(replay.outcome.digest, failcase.digest);
}

/// Scoped adversary-scenario override (process-global like the planted
/// bug); restores the previous override on scope exit.
struct ScenarioOverrideGuard {
  explicit ScenarioOverrideGuard(adversary::ScenarioConfig config)
      : previous_(scenario_override()) {
    set_scenario_override(std::move(config));
  }
  ~ScenarioOverrideGuard() { set_scenario_override(previous_); }
  std::optional<adversary::ScenarioConfig> previous_;
};

TEST(PropSuiteTest, PlantedReplayWindowBypassIsCaughtAndReplayed) {
  // Force the delayed-replay attacker into every trial so window-flagged
  // duplicates actually occur, then let the planted bug deliver them.
  adversary::ScenarioConfig scenario;
  ASSERT_TRUE(scenario.arm_family("replay"));
  const ScenarioOverrideGuard scenario_guard(scenario);
  const PlantedBugGuard guard(fault::PlantedBug::kReplayWindowBypass);

  PropConfig config;
  config.trials = 8;
  config.base_seed = 7;
  config.jobs = 1;
  config.max_failures = 1;
  config.failcase_dir = ::testing::TempDir();
  const PropReport report = run_property_suite(config);

  ASSERT_GT(report.failed, 0u) << "planted replay-window bypass not caught";
  ASSERT_FALSE(report.failcases.empty());
  const FailCase& failcase = report.failcases.front();
  bool found = false;
  for (const Violation& v : failcase.violations) {
    found = found || v.oracle == "replay.never_accepted";
  }
  EXPECT_TRUE(found) << "replay.never_accepted did not fire";

  // The artifact records the scenario override, so replay is self-contained
  // and bit-identical while the bug stays armed.
  ASSERT_FALSE(failcase.path.empty());
  const ReplayResult replay = replay_failcase(failcase.path);
  ASSERT_TRUE(replay.loaded) << replay.error;
  EXPECT_TRUE(replay.reproduced);
  EXPECT_TRUE(replay.digest_matches);
  EXPECT_EQ(replay.outcome.digest, failcase.digest);
}

TEST(PropSuiteTest, PlantedVerifyBypassIsCaughtUnderSybilFlood) {
  // verify_bypass silently swaps in the naive verifier while the
  // observation still claims authentication; with a sybil flood armed the
  // minted identities land in tentative lists and sybil.bounded objects.
  adversary::ScenarioConfig scenario;
  ASSERT_TRUE(scenario.arm_family("sybil"));
  const ScenarioOverrideGuard scenario_guard(scenario);
  const PlantedBugGuard guard(fault::PlantedBug::kVerifyBypass);

  PropConfig config;
  config.trials = 8;
  config.base_seed = 3;
  config.jobs = 1;
  config.max_failures = 1;
  config.failcase_dir = ::testing::TempDir();
  const PropReport report = run_property_suite(config);

  ASSERT_GT(report.failed, 0u) << "planted verifier bypass not caught";
  ASSERT_FALSE(report.failcases.empty());
  const FailCase& failcase = report.failcases.front();
  bool found = false;
  for (const Violation& v : failcase.violations) {
    found = found || v.oracle == "sybil.bounded";
  }
  EXPECT_TRUE(found) << "sybil.bounded did not fire";

  ASSERT_FALSE(failcase.path.empty());
  const ReplayResult replay = replay_failcase(failcase.path);
  ASSERT_TRUE(replay.loaded) << replay.error;
  EXPECT_TRUE(replay.reproduced);
  EXPECT_TRUE(replay.digest_matches);
}

TEST(ShrinkTest, PassingPlanShrinksToNothing) {
  // A trial that passes has nothing to shrink; the shrinker reports the
  // original outcome untouched.
  const std::uint64_t seed = util::derive_seed(1, 0);
  const Scenario scenario = make_scenario(seed);
  const ShrinkResult result = shrink_failing_plan(seed, scenario.plan);
  EXPECT_TRUE(result.outcome.passed());
  EXPECT_EQ(result.removed_actions, 0u);
  EXPECT_EQ(result.runs, 1u);
}

TEST(ReplayTest, RejectsGarbageArtifacts) {
  EXPECT_FALSE(replay_failcase("/no/such/file.json").loaded);
  const std::string path = ::testing::TempDir() + "bad_failcase.json";
  ASSERT_TRUE(util::write_file(path, "{\"kind\":\"invariant\"}"));
  const ReplayResult result = replay_failcase(path);
  EXPECT_FALSE(result.loaded);
  EXPECT_FALSE(result.error.empty());
}

}  // namespace
}  // namespace snd::proptest
