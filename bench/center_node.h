// The trial behind the Figure 3 and Figure 4 reproductions (paper §4.5.1):
// a field of sensors with R = 50 m, one of them pinned to the field center,
// scored by how many of the center node's actual neighbors it validated.
#pragma once

#include <optional>
#include <vector>

#include "adversary/scenario.h"
#include "core/deployment_driver.h"
#include "fault/plan.h"
#include "shard/session.h"

namespace snd::bench {

/// The paper's 100x100 m field.
inline constexpr util::Rect kPaperField{{0.0, 0.0}, {100.0, 100.0}};

/// One trial: `nodes` sensors in kPaperField (the center node plus
/// nodes - 1 random ones) at security threshold `threshold`. Its one metric
/// is the fraction of the center node's actual neighbors that it
/// validated. `plan` (optional) injects channel faults and `scenario`
/// (optional) arms adversaries.
inline shard::TrialOutput center_node_accuracy(std::size_t nodes, std::size_t threshold,
                                               std::uint64_t seed,
                                               const fault::FaultPlan* plan,
                                               const adversary::ScenarioConfig* scenario) {
  core::DeploymentConfig config;
  config.field = kPaperField;
  config.radio_range = 50.0;
  config.protocol.threshold_t = threshold;
  config.seed = seed;

  core::SndDeployment deployment(config);
  if (plan != nullptr && !plan->empty()) deployment.apply_fault_plan(*plan);
  std::optional<adversary::ScenarioRuntime> runtime;
  if (scenario != nullptr && !scenario->empty()) runtime.emplace(deployment, *scenario);
  const NodeId center = deployment.deploy_node_at(config.field.center());
  std::vector<NodeId> deployed = deployment.deploy_round(nodes - 1);
  if (runtime) {
    deployed.insert(deployed.begin(), center);
    runtime->arm(deployed);
  }
  deployment.run();

  const core::SndNode* agent = deployment.agent(center);
  std::size_t actual = 0;
  std::size_t validated = 0;
  for (const sim::Device& d : deployment.network().devices()) {
    if (d.identity == center) continue;
    if (!deployment.network().link(agent->device(), d.id)) continue;
    ++actual;
    if (topology::contains(agent->functional_neighbors(), d.identity)) ++validated;
  }
  const double accuracy =
      actual == 0 ? 0.0 : static_cast<double>(validated) / static_cast<double>(actual);
  return {{accuracy}, deployment.network().trace_summary()};
}

}  // namespace snd::bench
