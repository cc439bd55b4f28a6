#include "adversary/malicious_agent.h"

#include "core/commitment.h"

namespace snd::adversary {

namespace {
constexpr obs::Phase kCatAttack = obs::Phase::kAttack;
using core::MessageType;
}  // namespace

MaliciousAgent::MaliciousAgent(sim::Network& network, sim::DeviceId device,
                               core::SndNode::Secrets stolen_secrets,
                               std::shared_ptr<crypto::KeyPredistribution> keys,
                               core::ProtocolConfig protocol_config, MaliciousBehavior behavior)
    : network_(network),
      device_(device),
      secrets_(std::move(stolen_secrets)),
      protocol_config_(protocol_config),
      behavior_(behavior),
      messenger_(network, device, secrets_.record ? secrets_.record->node
                                                  : network.device(device).identity,
                 std::move(keys)),
      evidence_buffer_(secrets_.evidence_buffer) {}

MaliciousAgent::~MaliciousAgent() { network_.set_receiver(device_, nullptr); }

void MaliciousAgent::start() {
  network_.set_receiver(device_, [this](const sim::Packet& packet) { on_packet(packet); });
}

void MaliciousAgent::note_identity(NodeId id) {
  if (id == identity()) return;
  heard_.insert(id);

  // Master-key attack: mint C(us, id) = H(K_id | us); the victim's own
  // verification key confirms it and the victim adds us unconditionally.
  if (behavior_.push_commitments_with_master && secrets_.master.present() &&
      !commitments_pushed_.contains(id)) {
    commitments_pushed_.insert(id);
    const crypto::Digest commit = core::relation_commitment(
        core::verification_key(secrets_.master, id), identity());
    messenger_.send(id, static_cast<std::uint8_t>(MessageType::kRelationCommit),
                    core::RelationCommitPayload{commit}.serialize(), kCatAttack);
  }
}

void MaliciousAgent::on_packet(const sim::Packet& packet) {
  if (packet.src == identity()) return;

  switch (static_cast<MessageType>(packet.type)) {
    case MessageType::kHello: {
      note_identity(packet.src);
      if (behavior_.respond_to_hello) {
        messenger_.send_unauth(packet.src, static_cast<std::uint8_t>(MessageType::kHelloAck),
                               {}, kCatAttack);
      }
      if (behavior_.creep_with_updates && !secrets_.master.present()) {
        try_creep_update(packet.src);
      }
      return;
    }
    case MessageType::kHelloAck:
      note_identity(packet.src);
      return;
    default:
      break;
  }

  const auto payload = messenger_.open(packet);
  if (!payload) return;
  note_identity(packet.src);

  switch (static_cast<MessageType>(packet.type)) {
    case MessageType::kRecordRequest:
      if (behavior_.serve_record) serve_record_to(packet.src);
      break;
    case MessageType::kEvidence: {
      // Benign new nodes near a replica leave evidence for our identity;
      // hoard it for the creeping attack.
      const auto evidence = core::EvidencePayload::parse(*payload);
      if (evidence && secrets_.record && evidence->record_version == secrets_.record->version) {
        evidence_buffer_.insert_or_assign(packet.src, evidence->evidence);
      }
      break;
    }
    case MessageType::kUpdateReply: {
      const auto reply = core::UpdateReplyPayload::parse(*payload);
      if (reply && secrets_.record && reply->record.node == identity() &&
          reply->record.version == secrets_.record->version + 1) {
        secrets_.record = reply->record;
        evidence_buffer_.clear();
        ++updates_obtained_;
      }
      break;
    }
    default:
      break;
  }
}

void MaliciousAgent::adopt_state(const std::optional<core::BindingRecord>& record,
                                 const std::map<NodeId, crypto::Digest>& evidence) {
  if (record && (!secrets_.record || record->version > secrets_.record->version)) {
    secrets_.record = *record;
  }
  for (const auto& [issuer, digest] : evidence) {
    evidence_buffer_.insert_or_assign(issuer, digest);
  }
}

void MaliciousAgent::serve_record_to(NodeId requester) {
  (void)requester;
  core::BindingRecord to_serve;
  if (behavior_.forge_records_with_master && secrets_.master.present()) {
    // Forge a binding record naming exactly the nodes around this replica:
    // the requester's threshold check will then pass.
    topology::NeighborList forged(heard_.begin(), heard_.end());
    to_serve = core::BindingRecord::make(secrets_.master, identity(), 0, std::move(forged));
  } else if (secrets_.record) {
    to_serve = *secrets_.record;  // replay the stolen record
  } else {
    return;
  }
  // Record replies are local broadcasts (self-authenticating under K).
  messenger_.broadcast(static_cast<std::uint8_t>(MessageType::kRecordReply),
                       to_serve.serialize(), kCatAttack);
}

void MaliciousAgent::try_creep_update(NodeId new_node) {
  // No client-side copy of §4.4's version cap: the attacker asks at every
  // version, so the K-holding server's own check is what stops it at m.
  if (!secrets_.record || protocol_config_.max_updates == 0) return;

  core::UpdateRequestPayload request{*secrets_.record, {}};
  for (const auto& [issuer, digest] : evidence_buffer_) {
    if (!topology::contains(secrets_.record->neighbors, issuer)) {
      request.evidences.emplace_back(issuer, digest);
    }
  }
  if (request.evidences.empty()) return;
  messenger_.send(new_node, static_cast<std::uint8_t>(MessageType::kUpdateRequest),
                  request.serialize(), kCatAttack);
}

}  // namespace snd::adversary
