// Tests of the record-exchange transport design: aggregated broadcast
// replies and the highest-version-wins defense against stale-record
// substitution (see docs/PROTOCOL.md §4).
#include <gtest/gtest.h>

#include "core/deployment_driver.h"
#include "core/wire.h"

namespace snd::core {
namespace {

DeploymentConfig exchange_config(std::uint64_t seed = 14) {
  DeploymentConfig config;
  config.field = {{0.0, 0.0}, {80.0, 80.0}};
  config.radio_range = 100.0;
  config.protocol.threshold_t = 2;
  config.protocol.max_updates = 2;
  config.seed = seed;
  return config;
}

TEST(RecordExchangeTest, OneBroadcastServesTheWholeRound) {
  SndDeployment deployment(exchange_config());
  deployment.deploy_round(12);
  deployment.run();
  // 12 nodes each requested 11 records; without aggregation that would be
  // 132 record replies. With broadcast aggregation each node answers its
  // burst once (repeat requests from later Hellos may add a few).
  const auto records = deployment.network().metrics().phase(obs::Phase::kRecord);
  // requests (12*11 unicast) + replies: replies must be ~12, not ~132.
  EXPECT_LT(records.messages, 12 * 11 + 40);
}

TEST(RecordExchangeTest, LateRequesterStillServed) {
  SndDeployment deployment(exchange_config());
  deployment.deploy_round(8);
  deployment.run();
  // A second-round node arrives long after the round-1 broadcasts; its
  // requests must trigger fresh replies.
  const NodeId late = deployment.deploy_node_at({40, 40});
  deployment.run();
  const SndNode* agent = deployment.agent(late);
  EXPECT_EQ(agent->functional_neighbors().size(), 8u);
}

TEST(RecordExchangeTest, StaleRecordSubstitutionDefeated) {
  // v's record gets re-issued at version 1 (update extension); an attacker
  // who captured the version-0 broadcast replays it while a fresh node is
  // collecting records. Highest-version-wins must keep the fresh node on
  // the updated record.
  SndDeployment deployment(exchange_config());
  const std::vector<NodeId> first = deployment.deploy_round(8);
  deployment.run();
  const NodeId victim = first[0];
  const BindingRecord stale = deployment.agent(victim)->record();  // version 0

  // Round 2 leaves evidence; round 3 serves the update.
  deployment.agent(victim)->set_auto_update(true);
  deployment.deploy_node_at({40, 40});
  deployment.run();
  deployment.deploy_node_at({42, 40});
  deployment.run();
  ASSERT_EQ(deployment.agent(victim)->record_version(), 1u);

  // Attacker radio replays the stale version-0 record continuously while a
  // fresh node discovers.
  const sim::DeviceId attacker = deployment.network().add_device(90000, {41, 41});
  deployment.network().mark_compromised(attacker);
  auto replay = [&deployment, attacker, &stale]() {
    deployment.network().transmit(
        attacker,
        sim::Packet{.src = stale.node,
                    .dst = kNoNode,
                    .type = static_cast<std::uint8_t>(MessageType::kRelationCommit),
                    .payload = {}},
        obs::Phase::kAttack);
    // The actual stale record reply:
    deployment.network().transmit(
        attacker,
        sim::Packet{.src = stale.node,
                    .dst = kNoNode,
                    .type = static_cast<std::uint8_t>(MessageType::kRecordReply),
                    .payload = stale.serialize()},
        obs::Phase::kAttack);
  };
  // Schedule replays across the fresh node's whole exchange window.
  for (int ms = 0; ms <= 600; ms += 25) {
    deployment.network().scheduler().schedule_at(
        deployment.network().now() + sim::Time::milliseconds(ms), replay);
  }
  const NodeId fresh = deployment.deploy_node_at({41, 40});
  deployment.run();

  // The fresh node shares round-2/3 nodes with the victim only via the
  // updated record; had the stale replay won, the victim would still
  // validate (v0 lists the original 7 others, which is enough here), so
  // assert the *version* the fresh node acted on via the update machinery:
  // fresh left evidence citing version 1.
  const auto& buffer = deployment.agent(victim)->evidence_buffer();
  EXPECT_TRUE(buffer.contains(fresh))
      << "fresh node's evidence missing: it acted on a stale record version";
  // And the relation formed despite the replay barrage.
  EXPECT_TRUE(topology::contains(deployment.agent(fresh)->functional_neighbors(), victim));
}

TEST(RecordExchangeTest, ForgedRecordBroadcastIgnored) {
  // A record broadcast whose commitment does not verify under K must never
  // enter anyone's validation, whatever identity it claims.
  SndDeployment deployment(exchange_config(15));
  const sim::DeviceId attacker = deployment.network().add_device(90000, {40, 40});
  deployment.network().mark_compromised(attacker);

  // Forge a record for identity 1 naming everyone (wrong key -> bad C).
  const crypto::SymmetricKey wrong_key = crypto::SymmetricKey::from_seed(777);
  topology::NeighborList everyone;
  for (NodeId id = 2; id <= 10; ++id) everyone.push_back(id);
  const BindingRecord forged = BindingRecord::make(wrong_key, 1, 0, everyone);
  for (int ms = 0; ms <= 600; ms += 20) {
    deployment.network().scheduler().schedule_at(
        deployment.network().now() + sim::Time::milliseconds(ms),
        [&deployment, attacker, forged]() {
          deployment.network().transmit(
              attacker,
              sim::Packet{.src = 1,
                          .dst = kNoNode,
                          .type = static_cast<std::uint8_t>(MessageType::kRecordReply),
                          .payload = forged.serialize()},
              obs::Phase::kAttack);
        });
  }

  deployment.deploy_round(10);
  deployment.run();
  // Node 1 is genuine and nearby; relations with it must reflect its REAL
  // record, which lists all 9 others -- identical to the forgery's claim,
  // so instead verify nobody stored the forged version: a node that used
  // the forgery would have validated 1 even if 1's genuine record had
  // failed to arrive. Strongest observable: every functional edge is
  // genuine (precision 1 against ground truth).
  const auto actual = deployment.actual_benign_graph();
  const auto functional = deployment.functional_graph();
  for (const auto& [u, v] : functional.edges()) {
    EXPECT_TRUE(actual.has_edge(u, v)) << u << "->" << v;
  }
}

}  // namespace
}  // namespace snd::core
