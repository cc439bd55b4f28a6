// The adversary scenario subsystem's own tests: ScenarioConfig canonical
// JSON (round trip, canonicalization, rejection of malformed input), the
// shared --adversary flag group, and each attacker/mobility family armed
// end-to-end against a live deployment with the defense holding.
#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>
#include <vector>

#include "adversary/mobility.h"
#include "adversary/replayer.h"
#include "adversary/scenario.h"
#include "adversary/sybil.h"
#include "core/deployment_driver.h"
#include "util/driver_spec.h"

namespace snd::adversary {
namespace {

TEST(ScenarioConfigTest, EmptySerializesToEmptyObject) {
  ScenarioConfig config;
  EXPECT_TRUE(config.empty());
  EXPECT_EQ(config.to_json(), "{}");
  const auto parsed = ScenarioConfig::parse("{}");
  ASSERT_TRUE(parsed.has_value());
  EXPECT_TRUE(parsed->empty());
}

TEST(ScenarioConfigTest, ArmFamilyDefaultsOmitEveryField) {
  ScenarioConfig config;
  ASSERT_TRUE(config.arm_family("relay"));
  EXPECT_EQ(config.to_json(), "{\"relay\":{\"on\":true}}");
  ASSERT_TRUE(config.arm_family("churn"));
  EXPECT_EQ(config.to_json(), "{\"relay\":{\"on\":true},\"churn\":{\"on\":true}}");
  EXPECT_FALSE(config.arm_family("quantum"));
}

TEST(ScenarioConfigTest, RoundTripsAllFamiliesWithNonDefaultFields) {
  ScenarioConfig config;
  config.relay = RelayConfig{0.2, 0.3, 0.8, 0.7, 500'000};
  config.sybil = SybilConfig{0.4, 0.6, 32, 0x5b110000};
  config.replay = ReplayConfig{0.25, 0.75, 80'000'000, 512};
  config.mobility = MobilityConfig{12, 6.5, 10'000'000, 40, 99};
  config.churn = ChurnConfig{3, 2, 300'000'000, 500'000'000, 100'000'000, 7};

  const std::string json = config.to_json();
  const auto parsed = ScenarioConfig::parse(json);
  ASSERT_TRUE(parsed.has_value());
  // parse -> to_json is idempotent: the canonical form reproduces itself.
  EXPECT_EQ(parsed->to_json(), json);
  EXPECT_EQ(parsed->relay->tunnel_latency_ns, 500'000);
  EXPECT_EQ(parsed->sybil->identities, 32u);
  EXPECT_EQ(parsed->replay->max_captures, 512u);
  EXPECT_EQ(parsed->mobility->steps, 40u);
  EXPECT_EQ(parsed->churn->victims, 3u);
}

TEST(ScenarioConfigTest, ParseCanonicalizesDefaultsSpelledOut) {
  // A hand-written config that spells out default values parses fine, but
  // the canonical re-serialization strips them.
  const auto parsed =
      ScenarioConfig::parse("{\"sybil\":{\"on\":true,\"identities\":8,\"x\":0.5}}");
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->to_json(), "{\"sybil\":{\"on\":true}}");
}

TEST(ScenarioConfigTest, RejectsMalformedInput) {
  EXPECT_FALSE(ScenarioConfig::parse("[").has_value());
  EXPECT_FALSE(ScenarioConfig::parse("[]").has_value());
  EXPECT_FALSE(ScenarioConfig::parse("{\"wormhole\":{}}").has_value());  // unknown family
  EXPECT_FALSE(ScenarioConfig::parse("{\"relay\":5}").has_value());      // not an object
  EXPECT_FALSE(ScenarioConfig::parse("{\"relay\":{\"ax\":1.5}}").has_value());
  EXPECT_FALSE(ScenarioConfig::parse("{\"relay\":{\"latency_ns\":-1}}").has_value());
  EXPECT_FALSE(ScenarioConfig::parse("{\"sybil\":{\"identities\":0}}").has_value());
  EXPECT_FALSE(ScenarioConfig::parse("{\"sybil\":{\"identities\":5000}}").has_value());
  EXPECT_FALSE(ScenarioConfig::parse("{\"replay\":{\"delay_ns\":-5}}").has_value());
  EXPECT_FALSE(ScenarioConfig::parse("{\"replay\":{\"max_captures\":0}}").has_value());
  EXPECT_FALSE(ScenarioConfig::parse("{\"mobility\":{\"movers\":0}}").has_value());
  EXPECT_FALSE(ScenarioConfig::parse("{\"mobility\":{\"speed_mps\":-1}}").has_value());
  EXPECT_FALSE(ScenarioConfig::parse("{\"churn\":{\"period_ns\":0}}").has_value());
  EXPECT_FALSE(ScenarioConfig::parse("{\"churn\":{\"cycles\":0}}").has_value());
}

TEST(ScenarioConfigTest, SaveLoadRoundTrip) {
  ScenarioConfig config;
  ASSERT_TRUE(config.arm_family("replay"));
  config.replay->delay_ns = 123'456'789;
  const std::string path = ::testing::TempDir() + "scenario_roundtrip.json";
  ASSERT_TRUE(config.save(path));
  const auto loaded = ScenarioConfig::load(path);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->to_json(), config.to_json());
  EXPECT_FALSE(ScenarioConfig::load("/no/such/scenario.json").has_value());
}

// -- Flag group -------------------------------------------------------------

util::cli::Driver parse_flags(std::optional<ScenarioConfig>* out,
                              std::initializer_list<const char*> args) {
  util::cli::DriverSpec spec("demo", "scenario flag group under test");
  spec.group(scenario_flag_group(out));
  const std::vector<const char*> argv(args);
  std::ostringstream sink;
  return spec.parse(static_cast<int>(argv.size()), argv.data(), sink, sink);
}

TEST(ScenarioFlagGroupTest, ArmsCommaSeparatedFamilies) {
  std::optional<ScenarioConfig> out;
  const auto cli = parse_flags(&out, {"demo", "--adversary=sybil,churn"});
  ASSERT_TRUE(cli.ok());
  ASSERT_TRUE(out.has_value());
  EXPECT_TRUE(out->sybil.has_value());
  EXPECT_TRUE(out->churn.has_value());
  EXPECT_FALSE(out->relay.has_value());
}

TEST(ScenarioFlagGroupTest, AbsentFlagsLeaveNullopt) {
  std::optional<ScenarioConfig> out;
  const auto cli = parse_flags(&out, {"demo"});
  ASSERT_TRUE(cli.ok());
  EXPECT_FALSE(out.has_value());
}

TEST(ScenarioFlagGroupTest, RejectsUnknownFamilyAndExclusiveFlags) {
  std::optional<ScenarioConfig> out;
  EXPECT_FALSE(parse_flags(&out, {"demo", "--adversary=bogus"}).ok());
  EXPECT_FALSE(parse_flags(&out, {"demo", "--adversary=,"}).ok());
  EXPECT_FALSE(
      parse_flags(&out, {"demo", "--adversary=sybil", "--adversary-config=x.json"}).ok());
  EXPECT_FALSE(parse_flags(&out, {"demo", "--adversary-config=/no/such.json"}).ok());
}

TEST(ScenarioFlagGroupTest, LoadsConfigFile) {
  ScenarioConfig config;
  ASSERT_TRUE(config.arm_family("mobility"));
  const std::string path = ::testing::TempDir() + "scenario_flag.json";
  ASSERT_TRUE(config.save(path));
  std::optional<ScenarioConfig> out;
  const auto cli = parse_flags(&out, {"demo", ("--adversary-config=" + path).c_str()});
  ASSERT_TRUE(cli.ok());
  ASSERT_TRUE(out.has_value());
  EXPECT_TRUE(out->mobility.has_value());
}

// -- Armed runtimes against live deployments --------------------------------

core::DeploymentConfig small_config(std::uint64_t seed) {
  core::DeploymentConfig config;
  config.field = {{0.0, 0.0}, {100.0, 100.0}};
  config.radio_range = 50.0;
  config.protocol.threshold_t = 5;
  config.seed = seed;
  return config;
}

/// Deploys `nodes`, arms `scenario` over the round, runs to quiescence.
struct ArmedRun {
  explicit ArmedRun(const core::DeploymentConfig& config, const ScenarioConfig& scenario,
                    std::size_t nodes)
      : deployment(config), runtime(deployment, scenario) {
    pool = deployment.deploy_round(nodes);
    runtime.arm(pool);
    deployment.run();
  }
  core::SndDeployment deployment;
  ScenarioRuntime runtime;
  std::vector<NodeId> pool;
};

TEST(ScenarioRuntimeTest, SybilFloodStaysOutOfTentativeLists) {
  ScenarioConfig scenario;
  ASSERT_TRUE(scenario.arm_family("sybil"));
  const SybilConfig& sybil = *scenario.sybil;
  ArmedRun run(small_config(42), scenario, 24);

  EXPECT_GT(run.runtime.sybil_sent(), 0u);
  // The default oracle verifier authenticates positions; no credential-less
  // minted identity may enter any benign tentative list.
  for (const core::SndNode* agent : run.deployment.agents()) {
    for (const NodeId neighbor : agent->tentative_neighbors()) {
      EXPECT_FALSE(neighbor > sybil.base && neighbor <= sybil.base + sybil.identities)
          << "sybil identity " << neighbor << " admitted by node " << agent->identity();
    }
  }
}

TEST(ScenarioRuntimeTest, ReplayAttackerIsFullyRejected) {
  ScenarioConfig scenario;
  ASSERT_TRUE(scenario.arm_family("replay"));
  ArmedRun run(small_config(43), scenario, 24);

  EXPECT_GT(run.runtime.replay_captured(), 0u);
  EXPECT_GT(run.runtime.replay_injected(), 0u);
  std::uint64_t rejects = 0;
  std::uint64_t accepts = 0;
  for (const core::SndNode* agent : run.deployment.agents()) {
    rejects += agent->replay_rejects();
    accepts += agent->replay_accepts();
  }
  EXPECT_GT(rejects, 0u) << "replayed copies were never window-flagged";
  EXPECT_EQ(accepts, 0u) << "a window-flagged duplicate reached the protocol";
}

TEST(ScenarioRuntimeTest, ReplayAttackerDoesNotPerturbProtocolState) {
  // The replayed copies authenticate but every one dies at the replay
  // window, so the final protocol state must be exactly the no-attacker
  // run's (the channel is lossless here: no RNG consumption differs).
  const auto snapshot = [](bool attack) {
    ScenarioConfig scenario;
    if (attack) {
      EXPECT_TRUE(scenario.arm_family("replay"));
    }
    ArmedRun run(small_config(44), scenario, 20);
    std::vector<std::pair<NodeId, topology::NeighborList>> state;
    for (const core::SndNode* agent : run.deployment.agents()) {
      state.emplace_back(agent->identity(), agent->functional_neighbors());
    }
    return state;
  };
  EXPECT_EQ(snapshot(true), snapshot(false));
}

TEST(ScenarioRuntimeTest, MobilityWalksStayInsideTheField) {
  ScenarioConfig scenario;
  ASSERT_TRUE(scenario.arm_family("mobility"));
  scenario.mobility->movers = 6;
  scenario.mobility->steps = 15;
  const core::DeploymentConfig config = small_config(45);
  ArmedRun run(config, scenario, 24);

  EXPECT_GT(run.runtime.moves_applied(), 0u);
  for (const sim::Device& d : run.deployment.network().devices()) {
    EXPECT_TRUE(config.field.contains(d.position))
        << "device " << d.id << " walked out of the field";
  }
}

TEST(ScenarioRuntimeTest, ChurnCrashesAndRebootsEveryScheduledVictim) {
  ScenarioConfig scenario;
  ASSERT_TRUE(scenario.arm_family("churn"));
  scenario.churn->victims = 2;
  scenario.churn->cycles = 2;
  ArmedRun run(small_config(46), scenario, 20);

  EXPECT_EQ(run.runtime.churn_crashes(), 4u);
  EXPECT_EQ(run.runtime.churn_reboots(), 4u);
  // Every rebooted device runs a fresh agent with an advanced boot epoch.
  std::size_t rebooted = 0;
  for (const sim::Device& d : run.deployment.network().devices()) {
    if (run.deployment.boot_epoch(d.id) > 0) ++rebooted;
  }
  EXPECT_GE(rebooted, 1u);
  EXPECT_LE(rebooted, 4u);
}

TEST(ScenarioRuntimeTest, ArmedRunsAreDeterministic) {
  ScenarioConfig scenario;
  ASSERT_TRUE(scenario.arm_family("relay"));
  ASSERT_TRUE(scenario.arm_family("replay"));
  const auto summary = [&scenario]() {
    ArmedRun run(small_config(47), scenario, 20);
    return run.deployment.network().trace_summary().to_json();
  };
  EXPECT_EQ(summary(), summary());
}

TEST(SybilAttackerTest, MintedRangeExcludesBaseAndOutsiders) {
  core::SndDeployment deployment(small_config(48));
  SybilAttacker attacker(deployment.network(), {50.0, 50.0}, 0x5b110000, 4);
  EXPECT_FALSE(attacker.minted(0x5b110000));      // the marker identity itself
  EXPECT_TRUE(attacker.minted(0x5b110001));
  EXPECT_TRUE(attacker.minted(0x5b110004));
  EXPECT_FALSE(attacker.minted(0x5b110005));
  EXPECT_FALSE(attacker.minted(7));
}

}  // namespace
}  // namespace snd::adversary
