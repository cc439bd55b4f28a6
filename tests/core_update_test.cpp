// Tests of the §4.4 binding-record update extension.
#include <gtest/gtest.h>

#include "core/deployment_driver.h"
#include "core/protocol.h"

namespace snd::core {
namespace {

DeploymentConfig extension_config(std::uint32_t m, std::uint64_t seed = 1) {
  DeploymentConfig config;
  config.field = {{0.0, 0.0}, {60.0, 60.0}};
  config.radio_range = 100.0;
  config.protocol.threshold_t = 2;
  config.protocol.max_updates = m;
  config.seed = seed;
  return config;
}

TEST(UpdateExtensionTest, EvidenceBufferedByOldNodes) {
  SndDeployment deployment(extension_config(2));
  deployment.deploy_round(8);
  deployment.run();
  const NodeId fresh = deployment.deploy_node_at({30, 30});
  deployment.run();
  // Every old node got E(fresh, old) from the new node.
  for (NodeId old_id = 1; old_id <= 8; ++old_id) {
    const auto& buffer = deployment.agent(old_id)->evidence_buffer();
    EXPECT_TRUE(buffer.contains(fresh)) << "old node " << old_id;
  }
}

TEST(UpdateExtensionTest, NoEvidenceWhenExtensionOff) {
  SndDeployment deployment(extension_config(0));
  deployment.deploy_round(8);
  deployment.run();
  deployment.deploy_node_at({30, 30});
  deployment.run();
  for (NodeId old_id = 1; old_id <= 8; ++old_id) {
    EXPECT_TRUE(deployment.agent(old_id)->evidence_buffer().empty());
  }
}

TEST(UpdateExtensionTest, AutoUpdateRefreshesRecord) {
  SndDeployment deployment(extension_config(2));
  deployment.deploy_round(8);
  deployment.run();

  // Round 2 leaves evidence with the old nodes.
  const NodeId r2 = deployment.deploy_node_at({30, 30});
  deployment.run();
  SndNode* old_node = deployment.agent(1);
  old_node->set_auto_update(true);
  EXPECT_EQ(old_node->record_version(), 0u);

  // Round 3: the old node hears the newcomer's Hello and requests an
  // update; the newcomer still holds K and re-issues the record.
  const NodeId r3 = deployment.deploy_node_at({25, 25});
  deployment.run();

  EXPECT_EQ(old_node->record_version(), 1u);
  EXPECT_TRUE(topology::contains(old_node->record().neighbors, r2));
  EXPECT_TRUE(old_node->record().verify(deployment.master_key()));
  EXPECT_TRUE(old_node->evidence_buffer().empty() ||
              !old_node->evidence_buffer().contains(r2));
  (void)r3;
}

TEST(UpdateExtensionTest, ManualRequestUpdate) {
  SndDeployment deployment(extension_config(3));
  deployment.deploy_round(6);
  deployment.run();
  const NodeId r2 = deployment.deploy_node_at({30, 30});
  deployment.run();

  SndNode* old_node = deployment.agent(2);
  ASSERT_TRUE(old_node->evidence_buffer().contains(r2));

  // A third round provides a K-holding server; ask it explicitly.
  const NodeId server = deployment.deploy_node_at({28, 28});
  deployment.run_for(sim::Time::milliseconds(50));  // server deployed, K alive
  EXPECT_TRUE(old_node->request_update(server));
  deployment.run();
  EXPECT_EQ(old_node->record_version(), 1u);
}

TEST(UpdateExtensionTest, RequestUpdateFailsWithoutEvidence) {
  SndDeployment deployment(extension_config(3));
  deployment.deploy_round(6);
  deployment.run();
  // No second round ever happened: nothing to add.
  EXPECT_FALSE(deployment.agent(1)->request_update(2));
}

TEST(UpdateExtensionTest, VersionCapEnforcedClientSide) {
  SndDeployment deployment(extension_config(1));
  deployment.deploy_round(6);
  deployment.run();
  SndNode* old_node = deployment.agent(1);
  old_node->set_auto_update(true);

  deployment.deploy_node_at({30, 30});
  deployment.run();
  deployment.deploy_node_at({25, 25});
  deployment.run();
  EXPECT_EQ(old_node->record_version(), 1u);  // reached the cap m = 1

  // Another round leaves fresh evidence, but the cap blocks any update.
  deployment.deploy_node_at({20, 20});
  deployment.run();
  deployment.deploy_node_at({35, 35});
  deployment.run();
  EXPECT_EQ(old_node->record_version(), 1u);
}

TEST(UpdateExtensionTest, ServerFiltersForgedEvidence) {
  SndDeployment deployment(extension_config(2));
  deployment.deploy_round(6);
  deployment.run();
  const NodeId r2 = deployment.deploy_node_at({30, 30});
  deployment.run();

  SndNode* old_node = deployment.agent(1);
  ASSERT_TRUE(old_node->evidence_buffer().contains(r2));
  const crypto::Digest genuine = *old_node->evidence_buffer().find(r2);

  // Hand-roll an update request mixing the genuine evidence with a forged
  // entry for a never-deployed issuer 9999. The K-holding server must admit
  // the genuine issuer and silently drop the forged one.
  const NodeId server = deployment.deploy_node_at({28, 28});
  deployment.run_for(sim::Time::milliseconds(20));

  UpdateRequestPayload request{old_node->record(), {}};
  request.evidences.emplace_back(r2, genuine);
  request.evidences.emplace_back(9999, crypto::Sha256::hash("forged"));

  Messenger as_old(deployment.network(), old_node->device(), 1, deployment.key_scheme());
  as_old.send(server, static_cast<std::uint8_t>(MessageType::kUpdateRequest),
              request.serialize(), snd::obs::Phase::kOther);
  deployment.run();

  EXPECT_EQ(old_node->record_version(), 1u);
  EXPECT_TRUE(topology::contains(old_node->record().neighbors, r2));
  EXPECT_FALSE(topology::contains(old_node->record().neighbors, 9999));
}

TEST(UpdateExtensionTest, UpdatedRecordEnablesNewFunctionalRelations) {
  // The §4.4 motivation: old nodes whose binding records grow can form
  // functional relations with later deployments.
  DeploymentConfig config = extension_config(3, 5);
  config.protocol.threshold_t = 6;  // too strict for round-1 records alone
  SndDeployment deployment(config);

  // Round 1: only 5 nodes -> overlap 3 < t+1 = 7; nothing validates.
  deployment.deploy_round(5);
  deployment.run();
  EXPECT_TRUE(deployment.agent(1)->functional_neighbors().empty());
  for (NodeId id = 1; id <= 5; ++id) deployment.agent(id)->set_auto_update(true);

  // Rounds 2..4 add nodes; old records absorb them via updates, so
  // eventually new nodes find >= 7 common neighbors with old nodes.
  for (int round = 0; round < 4; ++round) {
    deployment.deploy_round(3);
    deployment.run();
  }

  const SndNode* old_node = deployment.agent(1);
  EXPECT_GT(old_node->record_version(), 0u);
  EXPECT_FALSE(old_node->functional_neighbors().empty());
}

}  // namespace
}  // namespace snd::core
