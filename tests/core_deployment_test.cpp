#include "core/deployment_driver.h"

#include <gtest/gtest.h>

#include "crypto/eg_pool.h"
#include "topology/stats.h"

namespace snd::core {
namespace {

DeploymentConfig small_config(std::uint64_t seed = 2) {
  DeploymentConfig config;
  config.field = {{0.0, 0.0}, {120.0, 120.0}};
  config.radio_range = 50.0;
  config.protocol.threshold_t = 3;
  config.seed = seed;
  return config;
}

TEST(DeploymentDriverTest, IdentitiesSequentialFromOne) {
  SndDeployment deployment(small_config());
  const auto ids = deployment.deploy_round(5);
  EXPECT_EQ(ids, (std::vector<NodeId>{1, 2, 3, 4, 5}));
  EXPECT_EQ(deployment.deploy_node_at({1, 1}), 6u);
}

TEST(DeploymentDriverTest, PositionsInsideField) {
  SndDeployment deployment(small_config());
  deployment.deploy_round(100);
  for (const sim::Device& d : deployment.network().devices()) {
    EXPECT_TRUE(deployment.config().field.contains(d.position));
  }
}

TEST(DeploymentDriverTest, AgentLookupByIdentityAndDevice) {
  SndDeployment deployment(small_config());
  deployment.deploy_round(10);
  SndNode* by_identity = deployment.agent(3);
  ASSERT_NE(by_identity, nullptr);
  EXPECT_EQ(by_identity->identity(), 3u);
  EXPECT_EQ(deployment.agent_for_device(by_identity->device()), by_identity);
  EXPECT_EQ(deployment.agent(999), nullptr);
  EXPECT_EQ(deployment.agent_for_device(999), nullptr);
}

TEST(DeploymentDriverTest, DetachRemovesAgent) {
  SndDeployment deployment(small_config());
  deployment.deploy_round(10);
  const sim::DeviceId device = deployment.agent(5)->device();
  EXPECT_TRUE(deployment.detach_agent(device));
  EXPECT_EQ(deployment.agent(5), nullptr);
  EXPECT_EQ(deployment.agent_for_device(device), nullptr);
  EXPECT_FALSE(deployment.detach_agent(device));
}

TEST(DeploymentDriverTest, KillDeviceStopsParticipation) {
  SndDeployment deployment(small_config());
  deployment.deploy_round(20);
  const sim::DeviceId victim = deployment.agent(1)->device();
  deployment.kill_device(victim);
  deployment.run();
  EXPECT_FALSE(deployment.network().device(victim).alive);
  // Dead node's identity must not appear in anyone's functional list.
  for (const SndNode* agent : deployment.agents()) {
    EXPECT_FALSE(topology::contains(agent->functional_neighbors(), 1));
  }
}

TEST(DeploymentDriverTest, ActualGraphExcludesCompromisedDevices) {
  SndDeployment deployment(small_config());
  deployment.deploy_round(20);
  deployment.run();
  deployment.network().mark_compromised(deployment.agent(2)->device());
  const topology::Digraph actual = deployment.actual_benign_graph();
  EXPECT_FALSE(actual.has_node(2));
}

TEST(DeploymentDriverTest, GraphsCoverAllAgents) {
  SndDeployment deployment(small_config());
  deployment.deploy_round(30);
  deployment.run();
  EXPECT_EQ(deployment.tentative_graph().node_count(), 30u);
  EXPECT_EQ(deployment.functional_graph().node_count(), 30u);
}

TEST(DeploymentDriverTest, RunForAdvancesBoundedTime) {
  SndDeployment deployment(small_config());
  deployment.deploy_round(10);
  deployment.run_for(sim::Time::milliseconds(100));
  EXPECT_LE(deployment.network().now(), sim::Time::milliseconds(101));
  EXPECT_FALSE(deployment.agent(1)->discovery_complete());
  deployment.run();
  EXPECT_TRUE(deployment.agent(1)->discovery_complete());
}

TEST(DeploymentDriverTest, CustomKeySchemeLimitsRelations) {
  // A sparse EG pool denies some pairs a key; those pairs cannot complete
  // the authenticated exchanges and functional relations thin out.
  SndDeployment restricted(small_config(7));
  restricted.set_key_scheme(std::make_shared<crypto::EschenauerGligorScheme>(7, 2000, 15));
  restricted.deploy_round(40);
  restricted.run();

  SndDeployment full(small_config(7));
  full.deploy_round(40);
  full.run();

  EXPECT_LT(restricted.functional_graph().edge_count(), full.functional_graph().edge_count());
}

TEST(DeploymentDriverTest, MasterKeyAccessibleForAudit) {
  SndDeployment deployment(small_config());
  deployment.deploy_round(5);
  deployment.run();
  EXPECT_TRUE(deployment.master_key().present());
  EXPECT_TRUE(deployment.agent(1)->record().verify(deployment.master_key()));
}

TEST(DeploymentDriverTest, LogNormalConfigBuildsShadowedNetwork) {
  DeploymentConfig config = small_config();
  config.log_normal_shadowing = true;
  config.shadowing_sigma_db = 8.0;
  SndDeployment deployment(config);
  deployment.deploy_round(60);
  deployment.run();
  // Shadowing should produce an irregular graph: strictly fewer edges than
  // the unit disk would at sigma -> some long links fail.
  SndDeployment disk(small_config());
  disk.deploy_round(60);
  disk.run();
  EXPECT_NE(deployment.actual_benign_graph().edge_count(),
            disk.actual_benign_graph().edge_count());
}

}  // namespace
}  // namespace snd::core
