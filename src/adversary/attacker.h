// The attack orchestrator: compromises deployed nodes (respecting erasure
// semantics -- it learns only what is still in memory), creates replicas at
// chosen positions, and installs MaliciousAgents on every device it owns.
#pragma once

#include <map>
#include <memory>
#include <vector>

#include "adversary/malicious_agent.h"
#include "core/deployment_driver.h"

namespace snd::adversary {

class Attacker {
 public:
  Attacker(core::SndDeployment& deployment, MaliciousBehavior behavior = {});

  /// Physically compromises the original device of `identity`: steals every
  /// secret still in memory, flags the device, and replaces its protocol
  /// agent with a malicious one. Returns false if the identity is unknown
  /// or already compromised.
  bool compromise(NodeId identity);

  /// Deploys a replica of a previously compromised identity at `position`.
  /// The replica carries a copy of the stolen secrets.
  sim::DeviceId place_replica(NodeId identity, util::Vec2 position);

  [[nodiscard]] const core::SndNode::Secrets* stolen_secrets(NodeId identity) const;
  [[nodiscard]] const std::vector<std::unique_ptr<MaliciousAgent>>& agents() const {
    return agents_;
  }
  /// Agents speaking as `identity` (original device's agent + replicas).
  [[nodiscard]] std::vector<const MaliciousAgent*> agents_for(NodeId identity) const;

  /// Whether any stolen secret set still contained the master key K
  /// (deployment-window violation).
  [[nodiscard]] bool master_key_leaked() const;

  /// Models the adversary's out-of-band channel: every agent speaking as
  /// `identity` adopts the freshest binding record any of them holds and
  /// the union of their harvested evidences. Central to the §4.4 creeping
  /// attack, where updates obtained at one replica site must benefit the
  /// next site.
  void sync_replica_state(NodeId identity);

 private:
  core::SndDeployment& deployment_;
  MaliciousBehavior behavior_;
  std::map<NodeId, core::SndNode::Secrets> stolen_;
  std::vector<std::unique_ptr<MaliciousAgent>> agents_;
};

}  // namespace snd::adversary
