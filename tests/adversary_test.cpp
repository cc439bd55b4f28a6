#include <gtest/gtest.h>

#include "adversary/attacker.h"
#include "adversary/chaff.h"
#include "adversary/theorem_attack.h"
#include "core/safety.h"
#include "topology/stats.h"

namespace snd::adversary {
namespace {

using core::DeploymentConfig;
using core::SndDeployment;

DeploymentConfig attack_config(std::uint64_t seed = 11) {
  DeploymentConfig config;
  config.field = {{0.0, 0.0}, {300.0, 300.0}};
  config.radio_range = 50.0;
  config.protocol.threshold_t = 5;
  config.seed = seed;
  return config;
}

// --- Replication attack, post-erasure (the protocol's core guarantee) ----

class ReplicationTest : public ::testing::Test {
 protected:
  ReplicationTest() : deployment_(attack_config()) {
    deployment_.deploy_round(350);
    deployment_.run();  // every node erases K
  }
  SndDeployment deployment_;
};

TEST_F(ReplicationTest, CompromiseStealsNoMasterKey) {
  Attacker attacker(deployment_);
  ASSERT_TRUE(attacker.compromise(10));
  EXPECT_FALSE(attacker.master_key_leaked());
  const auto* secrets = attacker.stolen_secrets(10);
  ASSERT_NE(secrets, nullptr);
  EXPECT_TRUE(secrets->verification_key.present());
  EXPECT_TRUE(secrets->record.has_value());
}

TEST_F(ReplicationTest, CompromiseUnknownIdentityFails) {
  Attacker attacker(deployment_);
  EXPECT_FALSE(attacker.compromise(99999));
}

TEST_F(ReplicationTest, DoubleCompromiseFails) {
  Attacker attacker(deployment_);
  EXPECT_TRUE(attacker.compromise(10));
  EXPECT_FALSE(attacker.compromise(10));
}

TEST_F(ReplicationTest, ReplicaWithoutCompromiseFails) {
  Attacker attacker(deployment_);
  EXPECT_EQ(attacker.place_replica(10, {0, 0}), sim::kNoDevice);
}

TEST_F(ReplicationTest, RemoteReplicaRejectedByNewNodes) {
  Attacker attacker(deployment_);
  attacker.compromise(10);
  attacker.place_replica(10, {290, 290});  // far from node 10's origin
  deployment_.run();

  // New nodes deployed near the replica must not validate identity 10.
  std::vector<NodeId> fresh;
  for (int i = 0; i < 6; ++i) {
    fresh.push_back(deployment_.deploy_node_at({265.0 + 5 * i, 275.0}));
  }
  deployment_.run();
  for (NodeId id : fresh) {
    const core::SndNode* agent = deployment_.agent(id);
    EXPECT_FALSE(topology::contains(agent->functional_neighbors(), 10))
        << "fresh node " << id << " accepted the replica";
    // It may appear tentatively (the replica answers hellos)...
    // ...but never functionally.
  }
}

TEST_F(ReplicationTest, TwoRSafetyHoldsUnderReplication) {
  Attacker attacker(deployment_);
  attacker.compromise(10);
  for (const util::Vec2 pos :
       {util::Vec2{30, 30}, util::Vec2{270, 40}, util::Vec2{150, 280}}) {
    attacker.place_replica(10, pos);
  }
  deployment_.run();
  deployment_.deploy_round(150);  // fresh nodes everywhere
  deployment_.run();

  const core::SafetyReport report =
      core::audit_safety(deployment_, 2.0 * deployment_.config().radio_range);
  EXPECT_TRUE(report.holds()) << "impact radius " << report.max_impact_radius();
}

TEST_F(ReplicationTest, LocalReplicaStillAcceptedNearOrigin) {
  // A replica placed inside the victim's own neighborhood is
  // indistinguishable and harmless: acceptance there is within 2R anyway.
  Attacker attacker(deployment_);
  attacker.compromise(10);
  deployment_.run();
  const core::IdentitySafetyReport report =
      core::audit_identity(deployment_, 10, 2.0 * deployment_.config().radio_range);
  // The original functional neighbors still count identity 10.
  EXPECT_FALSE(report.accepting_nodes.empty());
  EXPECT_FALSE(report.violates);
}

// --- Early compromise: the master key leaks (§6 caveat) ---------------

TEST(EarlyCompromiseTest, MasterKeyBreaksContainment) {
  SndDeployment deployment(attack_config(13));
  deployment.deploy_round(350);
  deployment.run_for(sim::Time::milliseconds(30));  // mid-discovery

  Attacker attacker(deployment);
  ASSERT_TRUE(attacker.compromise(10));
  EXPECT_TRUE(attacker.master_key_leaked());
  deployment.run();

  attacker.place_replica(10, {290, 290});
  deployment.run();
  deployment.deploy_round(120);
  deployment.run();

  const core::SafetyReport report =
      core::audit_safety(deployment, 2.0 * deployment.config().radio_range);
  EXPECT_FALSE(report.holds());
  EXPECT_GT(report.max_impact_radius(), 2.0 * deployment.config().radio_range);
}

// --- Theorem 1 construction ------------------------------------------

class Theorem1Test : public ::testing::TestWithParam<std::size_t> {};

TEST_P(Theorem1Test, AttackDefeatsTopologyOnlyValidator) {
  const std::size_t t = GetParam();
  core::CommonNeighborValidator validator(t);
  const std::size_t m = validator.minimum_deployment_size();
  const auto attack = build_theorem1_attack(validator, 2 * m - 1);
  EXPECT_TRUE(attack.succeeds(validator)) << "t = " << t;
  // u and f(u) are distinct benign identities, so the attacker's functional
  // neighbors cannot be enclosed in any fixed circle: both views accept w.
  EXPECT_NE(attack.u, attack.fu);
  EXPECT_TRUE(validator.validate(attack.u, attack.w, attack.original_view));
  EXPECT_TRUE(validator.validate(attack.fu, attack.w, attack.victim_view));
}

INSTANTIATE_TEST_SUITE_P(Thresholds, Theorem1Test, ::testing::Values(0, 1, 2, 5, 10, 25));

TEST(Theorem1Test2, RequiresTheBound) {
  core::CommonNeighborValidator validator(3);  // m = 6
  EXPECT_THROW(build_theorem1_attack(validator, 10), std::invalid_argument);  // < 2m-1
  EXPECT_NO_THROW(build_theorem1_attack(validator, 11));
}

TEST(Theorem1Test2, HonestGraphContainsAllNodes) {
  core::CommonNeighborValidator validator(2);  // m = 5
  const auto attack = build_theorem1_attack(validator, 20);
  EXPECT_EQ(attack.honest_graph.node_count(), 20u);
}

TEST(Theorem1Test2, ForgedRelationsOnlyInvolveW) {
  core::CommonNeighborValidator validator(2);
  const auto attack = build_theorem1_attack(validator, 9);
  for (const auto& [u, v] : attack.forged_relations.edges()) {
    EXPECT_TRUE(u == attack.w || v == attack.w);
  }
}

// --- Theorem 2 construction -------------------------------------------

TEST(Theorem2Test, RemoteVictimAcceptedViaRenamedRelations) {
  // Build a benign network where node 1 is extendable (its neighborhood
  // could admit a new node), then show a far-away compromised node 50 gets
  // accepted once the attacker renames the hypothetical newcomer's edges.
  core::CommonNeighborValidator validator(3);
  topology::Digraph g;
  for (NodeId c = 2; c <= 8; ++c) {
    g.add_edge(1, c);
    g.add_edge(c, 1);
  }
  g.add_node(50);  // remote node, no connection to 1's region

  EXPECT_FALSE(validator.validate(1, 50, g));
  const auto attack = build_theorem2_attack(g, 1, {2, 3, 4, 5}, 50);
  EXPECT_TRUE(attack.succeeds(validator));
}

TEST(Theorem2Test, FailsWithTooSmallNeighborhood) {
  core::CommonNeighborValidator validator(3);
  topology::Digraph g;
  for (NodeId c = 2; c <= 8; ++c) {
    g.add_edge(1, c);
    g.add_edge(c, 1);
  }
  const auto attack = build_theorem2_attack(g, 1, {2, 3}, 50);  // only 2 < t+1
  EXPECT_FALSE(attack.succeeds(validator));
}

// --- Replica state sync (creeping-attack substrate) --------------------

TEST(StateSyncTest, ReplicasAdoptFreshestRecord) {
  SndDeployment deployment(attack_config(17));
  deployment.deploy_round(350);
  deployment.run();

  Attacker attacker(deployment);
  attacker.compromise(10);
  attacker.place_replica(10, {250.0, 250.0});
  attacker.place_replica(10, {250.0, 30.0});
  deployment.run();

  // Manually hand one agent a fresher record; sync must spread it.
  const auto* secrets = attacker.stolen_secrets(10);
  ASSERT_TRUE(secrets->record.has_value());
  core::BindingRecord fresher = *secrets->record;
  fresher.version = 2;
  const_cast<MaliciousAgent*>(attacker.agents_for(10)[0])
      ->adopt_state(fresher, {{999, crypto::Sha256::hash("e")}});
  attacker.sync_replica_state(10);

  for (const MaliciousAgent* agent : attacker.agents_for(10)) {
    ASSERT_TRUE(agent->record().has_value());
    EXPECT_EQ(agent->record()->version, 2u);
    EXPECT_TRUE(agent->evidence().contains(999));
  }
}

TEST(StateSyncTest, AdoptIgnoresStaleRecords) {
  SndDeployment deployment(attack_config(19));
  deployment.deploy_round(350);
  deployment.run();
  Attacker attacker(deployment);
  attacker.compromise(10);
  MaliciousAgent* agent = const_cast<MaliciousAgent*>(attacker.agents_for(10)[0]);
  core::BindingRecord fresher = *agent->record();
  fresher.version = 3;
  agent->adopt_state(fresher, {});
  core::BindingRecord stale = fresher;
  stale.version = 1;
  agent->adopt_state(stale, {});
  EXPECT_EQ(agent->record()->version, 3u);
}

// --- Chaff attack (hostile accuracy, §4.5.2) ----------------------------

TEST(ChaffTest, DoesNotReduceBenignAccuracy) {
  DeploymentConfig config;
  config.field = {{0.0, 0.0}, {100.0, 100.0}};
  config.radio_range = 50.0;
  config.protocol.threshold_t = 8;
  config.seed = 21;

  // Clean run.
  SndDeployment clean(config);
  clean.deploy_round(120);
  clean.run();
  const double clean_accuracy =
      topology::edge_recall(clean.actual_benign_graph(), clean.functional_graph());

  // Identical run with a chaff attacker planted mid-field.
  SndDeployment attacked(config);
  const sim::DeviceId chaff_device = attacked.network().add_device(90000, {50, 50});
  attacked.network().mark_compromised(chaff_device);
  ChaffAttacker chaff(attacked.network(), chaff_device, 100000, 5);
  chaff.start();
  attacked.deploy_round(120);
  attacked.run();
  const double attacked_accuracy =
      topology::edge_recall(attacked.actual_benign_graph(), attacked.functional_graph());

  EXPECT_GT(chaff.fakes_sent(), 0u);
  // The paper's claim: without jamming, the attacker cannot push benign
  // accuracy down (fake identities never produce binding records, and
  // entries cannot be removed from anyone's list).
  EXPECT_GE(attacked_accuracy + 1e-9, clean_accuracy);
}

TEST(ChaffTest, FakeIdentitiesNeverBecomeFunctionalEvenUnverified) {
  // Defense in depth: even with direct verification removed (fake ids DO
  // enter tentative lists), a fabricated identity holds no master-key
  // material, so it can never produce a binding record that verifies --
  // the record check alone keeps it out of every functional list.
  DeploymentConfig config;
  config.field = {{0.0, 0.0}, {100.0, 100.0}};
  config.radio_range = 50.0;
  config.protocol.threshold_t = 3;
  config.seed = 25;

  SndDeployment deployment(config);
  deployment.set_verifier(std::make_shared<verify::NaiveVerifier>());
  const sim::DeviceId chaff_device = deployment.network().add_device(90000, {50, 50});
  deployment.network().mark_compromised(chaff_device);
  ChaffAttacker chaff(deployment.network(), chaff_device, 100000, 6);
  chaff.start();
  deployment.deploy_round(80);
  deployment.run();

  bool any_polluted_tentative = false;
  for (const core::SndNode* agent : deployment.agents()) {
    for (NodeId v : agent->tentative_neighbors()) {
      if (v >= 100000) any_polluted_tentative = true;
    }
    for (NodeId v : agent->functional_neighbors()) {
      EXPECT_LT(v, 100000u) << "fake identity validated by node " << agent->identity();
    }
  }
  EXPECT_TRUE(any_polluted_tentative);  // the attack did land in stage one
}

TEST(JammingTest, JammedRegionBlocksDiscoveryLocally) {
  DeploymentConfig config;
  config.field = {{0.0, 0.0}, {100.0, 100.0}};
  config.radio_range = 40.0;
  config.protocol.threshold_t = 2;
  config.seed = 23;

  SndDeployment deployment(config);
  deployment.network().add_jammer({{50, 50}, 25.0});
  deployment.deploy_round(120);
  deployment.run();

  // Nodes deep inside the jammed disk heard nothing.
  for (const core::SndNode* agent : deployment.agents()) {
    const auto& device = deployment.network().device(agent->device());
    if (util::distance(device.position, {50, 50}) < 20.0) {
      EXPECT_TRUE(agent->tentative_neighbors().empty())
          << "node " << agent->identity() << " discovered through jamming";
    }
  }
}

}  // namespace
}  // namespace snd::adversary
