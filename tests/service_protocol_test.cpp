// The service against the protocol the paper specifies, one round: a
// benign, lossless deployment on a unit disk with the oracle verifier and
// the default ProtocolConfig, and a ValidationService seeded with the same
// (identity, position) pairs, must agree node by node. The service's
// tentative list equals the agent's, and both the snapshot's and rebuild()'s
// validated lists equal the agent's functional list.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/deployment_driver.h"
#include "core/protocol.h"
#include "service/validation_service.h"

namespace snd::service {
namespace {

struct Field {
  const char* name;
  util::Rect area;
  std::size_t nodes;
  std::vector<std::size_t> thresholds;
};

TEST(ServiceProtocolTest, OneRoundMatchesTheSimulatedProtocol) {
  constexpr double kRange = 50.0;
  const Field fields[] = {
      {"fig3", {{0.0, 0.0}, {100.0, 100.0}}, 200, {10, 70}},
      {"sparse", {{0.0, 0.0}, {400.0, 400.0}}, 300, {0, 1, 3}},
  };
  for (const Field& field : fields) {
    for (const std::size_t t : field.thresholds) {
      for (std::uint64_t seed = 1; seed <= 2; ++seed) {
        const std::string context = std::string(field.name) + " t=" + std::to_string(t) +
                                    " seed=" + std::to_string(seed);
        core::DeploymentConfig config;
        config.field = field.area;
        config.radio_range = kRange;
        config.protocol.threshold_t = t;
        config.seed = seed;
        core::SndDeployment deployment(config);
        deployment.deploy_round(field.nodes);
        deployment.run();

        const std::vector<const core::SndNode*> agents = deployment.agents();
        ASSERT_EQ(agents.size(), field.nodes) << context;
        std::vector<std::pair<NodeId, util::Vec2>> placements;
        for (const core::SndNode* agent : agents) {
          placements.emplace_back(agent->identity(),
                                  deployment.network().device(agent->device()).position);
        }
        ValidationService service({.radio_range = kRange, .threshold_t = t});
        ASSERT_TRUE(service.seed_topology(placements).ok) << context;
        const auto snapshot = service.snapshot();
        const auto rebuilt = service.rebuild();
        EXPECT_EQ(snapshot->first_difference(*rebuilt).value_or(""), "") << context;

        std::size_t functional_edges = 0;
        for (const core::SndNode* agent : agents) {
          const NodeId id = agent->identity();
          const std::string where = context + ": node " + std::to_string(id);
          const NodeState* seeded = snapshot->find(id);
          const NodeState* derived = rebuilt->find(id);
          ASSERT_NE(seeded, nullptr) << where;
          ASSERT_NE(derived, nullptr) << where;
          EXPECT_EQ(seeded->neighbors, agent->tentative_neighbors()) << where;
          EXPECT_EQ(seeded->validated, agent->functional_neighbors()) << where;
          EXPECT_EQ(derived->validated, agent->functional_neighbors()) << where;
          functional_edges += agent->functional_neighbors().size();
        }
        EXPECT_GT(functional_edges, 0u) << context;  // every case accepts some links
      }
    }
  }
}

}  // namespace
}  // namespace snd::service
