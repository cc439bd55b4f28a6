#include "adversary/attacker.h"

namespace snd::adversary {

namespace {
core::SndNode::Secrets copy_secrets(const core::SndNode::Secrets& s) {
  core::SndNode::Secrets out;
  out.master = s.master;
  out.verification_key = s.verification_key;
  out.record = s.record;
  out.tentative = s.tentative;
  out.functional = s.functional;
  out.evidence_buffer = s.evidence_buffer;
  return out;
}
}  // namespace

Attacker::Attacker(core::SndDeployment& deployment, MaliciousBehavior behavior)
    : deployment_(deployment), behavior_(behavior) {}

bool Attacker::compromise(NodeId identity) {
  if (stolen_.contains(identity)) return false;
  core::SndNode* agent = deployment_.agent(identity);
  if (agent == nullptr) return false;

  const sim::DeviceId device = agent->device();
  stolen_.emplace(identity, agent->steal_secrets());
  deployment_.network().mark_compromised(device);
  deployment_.detach_agent(device);  // the benign stack is gone

  auto malicious = std::make_unique<MaliciousAgent>(
      deployment_.network(), device, copy_secrets(stolen_.at(identity)),
      deployment_.key_scheme(), deployment_.config().protocol, behavior_);
  malicious->start();
  agents_.push_back(std::move(malicious));
  return true;
}

sim::DeviceId Attacker::place_replica(NodeId identity, util::Vec2 position) {
  const auto it = stolen_.find(identity);
  if (it == stolen_.end()) return sim::kNoDevice;

  const sim::DeviceId device = deployment_.network().add_replica(identity, position);
  auto malicious = std::make_unique<MaliciousAgent>(
      deployment_.network(), device, copy_secrets(it->second), deployment_.key_scheme(),
      deployment_.config().protocol, behavior_);
  malicious->start();
  agents_.push_back(std::move(malicious));
  return device;
}

const core::SndNode::Secrets* Attacker::stolen_secrets(NodeId identity) const {
  const auto it = stolen_.find(identity);
  return it != stolen_.end() ? &it->second : nullptr;
}

std::vector<const MaliciousAgent*> Attacker::agents_for(NodeId identity) const {
  std::vector<const MaliciousAgent*> out;
  for (const auto& agent : agents_) {
    if (agent->identity() == identity) out.push_back(agent.get());
  }
  return out;
}

void Attacker::sync_replica_state(NodeId identity) {
  std::optional<core::BindingRecord> best;
  std::map<NodeId, crypto::Digest> merged;
  for (const auto& agent : agents_) {
    if (agent->identity() != identity) continue;
    if (agent->record() && (!best || agent->record()->version > best->version)) {
      best = agent->record();
    }
    for (const auto& [issuer, digest] : agent->evidence()) {
      merged.insert_or_assign(issuer, digest);
    }
  }
  for (const auto& agent : agents_) {
    if (agent->identity() == identity) agent->adopt_state(best, merged);
  }
}

bool Attacker::master_key_leaked() const {
  for (const auto& [identity, secrets] : stolen_) {
    if (secrets.master.present()) return true;
  }
  return false;
}

}  // namespace snd::adversary
