// SndDeployment: harness that assembles a complete simulated deployment --
// network, key predistribution, direct verifier, protocol agents -- and
// exposes the graph views (actual / tentative / functional) the paper's
// metrics are computed on. Used by every bench, example, and integration
// test; the adversary attaches to it to mount attacks.
#pragma once

#include <memory>
#include <vector>

#include "core/config.h"
#include "core/protocol.h"
#include "crypto/keypredist.h"
#include "fault/injector.h"
#include "sim/deployment.h"
#include "sim/network.h"
#include "topology/graph.h"
#include "verify/verifier.h"

namespace snd::core {

struct DeploymentConfig {
  util::Rect field{{0.0, 0.0}, {100.0, 100.0}};
  double radio_range = 50.0;
  /// Per-delivery loss probability on the channel.
  double channel_loss = 0.0;
  /// Half-duplex MAC ablation (see sim::ChannelConfig::half_duplex).
  bool half_duplex = false;
  /// Optional per-device battery accounting; exhausted devices die.
  sim::EnergyConfig energy;
  ProtocolConfig protocol;
  std::uint64_t seed = 1;
  /// Use log-normal shadowing instead of the unit disk.
  bool log_normal_shadowing = false;
  double shadowing_sigma_db = 4.0;
  double path_loss_exponent = 3.0;
};

class SndDeployment {
 public:
  explicit SndDeployment(DeploymentConfig config);

  /// Optional overrides; call before the first deploy.
  void set_verifier(std::shared_ptr<verify::DirectVerifier> verifier);
  void set_key_scheme(std::shared_ptr<crypto::KeyPredistribution> keys);

  /// Deploys `n` nodes uniformly at the current simulation time and starts
  /// their protocol agents. Returns their identities.
  std::vector<NodeId> deploy_round(std::size_t n);

  /// Deploys one node at an explicit position.
  NodeId deploy_node_at(util::Vec2 position);

  /// Runs the scheduler to quiescence (all protocol phases complete).
  void run();
  /// Runs for a bounded additional duration.
  void run_for(sim::Time duration);

  // -- Access -----------------------------------------------------------
  [[nodiscard]] sim::Network& network() { return *network_; }
  [[nodiscard]] const sim::Network& network() const { return *network_; }
  [[nodiscard]] const crypto::SymmetricKey& master_key() const { return master_; }
  [[nodiscard]] const DeploymentConfig& config() const { return config_; }
  [[nodiscard]] std::shared_ptr<crypto::KeyPredistribution> key_scheme() { return keys_; }
  [[nodiscard]] std::shared_ptr<verify::DirectVerifier> verifier() { return verifier_; }
  [[nodiscard]] std::shared_ptr<const verify::DirectVerifier> verifier() const {
    return verifier_;
  }

  /// Agent for a device; null if detached (compromised) or unknown.
  [[nodiscard]] SndNode* agent_for_device(sim::DeviceId device);
  /// Agent for an identity's *original* device.
  [[nodiscard]] SndNode* agent(NodeId identity);
  [[nodiscard]] const SndNode* agent(NodeId identity) const;
  [[nodiscard]] std::vector<const SndNode*> agents() const;

  /// Destroys the device's agent (used when the adversary takes over a
  /// device); returns whether there was one.
  bool detach_agent(sim::DeviceId device);

  /// Marks a device dead (battery exhaustion): the agent stops receiving.
  void kill_device(sim::DeviceId device);

  // -- Fault injection ---------------------------------------------------
  /// Arms `plan` for this run: installs a fault::Injector as the network's
  /// fault hook (delivery perturbation + clock skew) and schedules the
  /// plan's crash/reboot actions. Call before run(); the deployment owns
  /// the injector. An empty plan is a no-op, keeping the run bit-identical
  /// to an unfaulted one.
  void apply_fault_plan(const fault::FaultPlan& plan);
  /// The armed injector, or nullptr when no plan was applied.
  [[nodiscard]] fault::Injector* injector() { return injector_.get(); }
  [[nodiscard]] const fault::Injector* injector() const { return injector_.get(); }

  /// Crashes `identity`'s original device right now: the device dies and
  /// its agent stops (same observable state as battery exhaustion).
  /// Returns false for unknown identities.
  bool crash_node(NodeId identity);
  /// Revives `identity`'s original device and boots a *fresh* agent on it:
  /// new protocol state, new Messenger with the next boot epoch (so peers
  /// accept its traffic while stale pre-crash packets stay rejectable).
  /// Restores the energy budget when accounting is on.
  bool reboot_node(NodeId identity);
  /// Reboots this device's agent (0 = never rebooted).
  [[nodiscard]] std::uint32_t boot_epoch(sim::DeviceId device) const;

  // -- Graph views ----------------------------------------------------------
  /// Ground truth: radio links among benign devices (directed both ways).
  [[nodiscard]] topology::Digraph actual_benign_graph() const;
  /// Union of all agents' tentative neighbor lists.
  [[nodiscard]] topology::Digraph tentative_graph() const;
  /// Union of all agents' functional neighbor lists.
  [[nodiscard]] topology::Digraph functional_graph() const;

 private:
  NodeId next_identity_ = 1;
  DeploymentConfig config_;
  crypto::SymmetricKey master_;
  std::unique_ptr<sim::Network> network_;
  std::shared_ptr<verify::DirectVerifier> verifier_;
  std::shared_ptr<crypto::KeyPredistribution> keys_;
  util::Rng deploy_rng_;
  /// Agents in sim::Network layout: parallel to the device table, indexed by
  /// DeviceId (dense from 0). A null slot is a device with no agent -- never
  /// deployed by this driver, or detached/compromised. Iteration ascends by
  /// device id, exactly as the seed std::map did.
  std::vector<std::unique_ptr<SndNode>> agents_;
  std::unique_ptr<fault::Injector> injector_;
  /// Reboot counts, parallel to agents_ (0 = never rebooted).
  std::vector<std::uint32_t> boot_epochs_;

  /// Grows the parallel vectors to cover `device`.
  void ensure_slot(sim::DeviceId device);

  /// The non-replica device claiming `identity`; kNoDevice when unknown.
  [[nodiscard]] sim::DeviceId original_device(NodeId identity) const;
};

}  // namespace snd::core
