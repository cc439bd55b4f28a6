#include "core/deployment_driver.h"

#include <cassert>

namespace snd::core {

SndDeployment::SndDeployment(DeploymentConfig config)
    : config_(config),
      master_(crypto::SymmetricKey::from_seed(config.seed ^ 0x6d61737465724bULL)),
      deploy_rng_(config.seed) {
  std::unique_ptr<sim::PropagationModel> propagation;
  if (config_.log_normal_shadowing) {
    propagation = std::make_unique<sim::LogNormalModel>(
        config_.radio_range, config_.path_loss_exponent, config_.shadowing_sigma_db,
        config_.seed);
  } else {
    propagation = std::make_unique<sim::UnitDiskModel>(config_.radio_range);
  }
  sim::ChannelConfig channel;
  channel.loss_probability = config_.channel_loss;
  channel.half_duplex = config_.half_duplex;
  network_ = std::make_unique<sim::Network>(std::move(propagation), channel, config_.seed ^ 1,
                                            config_.energy);
  verifier_ = std::make_shared<verify::OracleVerifier>();
  keys_ = crypto::KdcScheme::from_seed(config_.seed ^ 2);
}

void SndDeployment::set_verifier(std::shared_ptr<verify::DirectVerifier> verifier) {
  assert(agents_.empty() && "set_verifier must precede the first deploy");
  verifier_ = std::move(verifier);
}

void SndDeployment::set_key_scheme(std::shared_ptr<crypto::KeyPredistribution> keys) {
  assert(agents_.empty() && "set_key_scheme must precede the first deploy");
  keys_ = std::move(keys);
}

std::vector<NodeId> SndDeployment::deploy_round(std::size_t n) {
  const auto positions = sim::deploy_uniform(n, config_.field, deploy_rng_);
  std::vector<NodeId> identities;
  identities.reserve(n);
  for (const util::Vec2& position : positions) identities.push_back(deploy_node_at(position));
  return identities;
}

NodeId SndDeployment::deploy_node_at(util::Vec2 position) {
  const NodeId identity = next_identity_++;
  const sim::DeviceId device = network_->add_device(identity, position);
  auto agent = std::make_unique<SndNode>(*network_, device, identity, master_, verifier_, keys_,
                                         config_.protocol);
  agent->start();
  ensure_slot(device);
  agents_[device] = std::move(agent);
  return identity;
}

void SndDeployment::ensure_slot(sim::DeviceId device) {
  if (device >= agents_.size()) {
    agents_.resize(device + 1);
    boot_epochs_.resize(device + 1, 0);
  }
}

void SndDeployment::run() { network_->scheduler().run(); }

void SndDeployment::run_for(sim::Time duration) {
  network_->scheduler().run_until(network_->now() + duration);
}

SndNode* SndDeployment::agent_for_device(sim::DeviceId device) {
  return device < agents_.size() ? agents_[device].get() : nullptr;
}

SndNode* SndDeployment::agent(NodeId identity) {
  for (sim::DeviceId device = 0; device < agents_.size(); ++device) {
    SndNode* agent = agents_[device].get();
    if (agent != nullptr && agent->identity() == identity && !network_->device(device).replica) {
      return agent;
    }
  }
  return nullptr;
}

const SndNode* SndDeployment::agent(NodeId identity) const {
  for (sim::DeviceId device = 0; device < agents_.size(); ++device) {
    const SndNode* agent = agents_[device].get();
    if (agent != nullptr && agent->identity() == identity && !network_->device(device).replica) {
      return agent;
    }
  }
  return nullptr;
}

std::vector<const SndNode*> SndDeployment::agents() const {
  std::vector<const SndNode*> out;
  out.reserve(agents_.size());
  for (const auto& agent : agents_) {
    if (agent != nullptr) out.push_back(agent.get());
  }
  return out;
}

bool SndDeployment::detach_agent(sim::DeviceId device) {
  if (device >= agents_.size() || agents_[device] == nullptr) return false;
  agents_[device].reset();  // ~SndNode stops it
  return true;
}

void SndDeployment::kill_device(sim::DeviceId device) {
  network_->set_alive(device, false);
  if (SndNode* agent = agent_for_device(device)) agent->stop();
}

namespace {

void trace_inject(sim::Network& network, obs::InjectKind kind, NodeId node) {
  obs::Tracer& tracer = network.tracer();
  if (!tracer.active()) return;
  tracer.emit(obs::Event{.kind = obs::EventKind::kInject,
                         .code = static_cast<std::uint8_t>(kind),
                         .node = node,
                         .t_ns = network.now().ns()});
}

}  // namespace

sim::DeviceId SndDeployment::original_device(NodeId identity) const {
  for (const sim::Device& d : network_->devices()) {
    if (d.identity == identity && !d.replica) return d.id;
  }
  return sim::kNoDevice;
}

void SndDeployment::apply_fault_plan(const fault::FaultPlan& plan) {
  injector_ = std::make_unique<fault::Injector>(plan);
  network_->set_fault_hook(injector_.get());
  for (const fault::Injector::Lifecycle& action : injector_->lifecycle_actions()) {
    // A fire time already in the past executes at the current instant.
    const sim::Time at = std::max(network_->now(), sim::Time::nanoseconds(action.at_ns));
    const NodeId node = action.node;
    if (action.kind == fault::ActionKind::kCrash) {
      network_->scheduler().schedule_at(at, [this, node]() { crash_node(node); });
    } else {
      network_->scheduler().schedule_at(at, [this, node]() { reboot_node(node); });
    }
  }
}

bool SndDeployment::crash_node(NodeId identity) {
  const sim::DeviceId device = original_device(identity);
  if (device == sim::kNoDevice) return false;
  kill_device(device);
  trace_inject(*network_, obs::InjectKind::kCrash, identity);
  return true;
}

bool SndDeployment::reboot_node(NodeId identity) {
  const sim::DeviceId device = original_device(identity);
  if (device == sim::kNoDevice) return false;
  network_->set_alive(device, true);
  if (config_.energy.enabled) network_->set_energy_j(device, config_.energy.initial_j);
  // Destroy the old incarnation first: its stop() deregisters the radio
  // receiver, which must not clobber the fresh agent's registration.
  ensure_slot(device);
  agents_[device].reset();
  const std::uint32_t epoch = ++boot_epochs_[device];
  auto agent = std::make_unique<SndNode>(*network_, device, identity, master_, verifier_, keys_,
                                         config_.protocol, epoch);
  agent->start();
  agents_[device] = std::move(agent);
  trace_inject(*network_, obs::InjectKind::kReboot, identity);
  return true;
}

std::uint32_t SndDeployment::boot_epoch(sim::DeviceId device) const {
  return device < boot_epochs_.size() ? boot_epochs_[device] : 0;
}

topology::Digraph SndDeployment::actual_benign_graph() const {
  topology::Digraph graph;
  for (const sim::Device& a : network_->devices()) {
    if (!a.benign() || !a.alive) continue;
    graph.add_node(a.identity);
    // Grid-indexed neighbor query (id-ordered, alive-filtered) instead of a
    // second pass over every device -- this audit runs per trial on fields
    // where the O(n^2) scan rivaled the simulation itself.
    for (const sim::DeviceId b : network_->devices_in_range(a.id)) {
      const sim::Device& device = network_->device(b);
      if (device.benign()) graph.add_edge(a.identity, device.identity);
    }
  }
  return graph;
}

topology::Digraph SndDeployment::tentative_graph() const {
  topology::Digraph graph;
  for (const auto& agent : agents_) {
    if (agent == nullptr) continue;
    graph.add_node(agent->identity());
    for (NodeId v : agent->tentative_neighbors()) graph.add_edge(agent->identity(), v);
  }
  return graph;
}

topology::Digraph SndDeployment::functional_graph() const {
  topology::Digraph graph;
  for (const auto& agent : agents_) {
    if (agent == nullptr) continue;
    graph.add_node(agent->identity());
    for (NodeId v : agent->functional_neighbors()) graph.add_edge(agent->identity(), v);
  }
  return graph;
}

}  // namespace snd::core
