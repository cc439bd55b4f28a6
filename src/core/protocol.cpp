#include "core/protocol.h"

#include <algorithm>
#include <vector>

#include "core/validation.h"

namespace snd::core {

namespace {

/// Emits one protocol event through the network's tracer. `code` is any of
/// the kind-discriminated enums; `bytes` carries small counts (list sizes).
template <typename Code>
void trace_event(sim::Network& network, NodeId node, obs::EventKind kind, Code code,
                 NodeId peer = kNoNode, std::uint32_t bytes = 0) {
  obs::Tracer& tracer = network.tracer();
  if (!tracer.active()) return;
  tracer.emit(obs::Event{.kind = kind,
                         .code = static_cast<std::uint8_t>(code),
                         .node = node,
                         .peer = peer,
                         .bytes = bytes,
                         .t_ns = network.now().ns()});
}

}  // namespace

SndNode::SndNode(sim::Network& network, sim::DeviceId device, NodeId identity,
                 const crypto::SymmetricKey& master_key,
                 std::shared_ptr<verify::DirectVerifier> verifier,
                 std::shared_ptr<crypto::KeyPredistribution> keys, ProtocolConfig config,
                 std::uint32_t boot_epoch)
    : network_(network),
      device_(device),
      identity_(identity),
      owner_(network.scheduler().new_owner()),
      master_(master_key),
      verification_key_(verification_key(master_key, identity)),
      verifier_(std::move(verifier)),
      keys_(keys),
      config_(config),
      messenger_(network, device, identity, std::move(keys), boot_epoch) {
  keys_->provision(identity);
}

SndNode::~SndNode() { stop(); }

void SndNode::schedule(sim::Time at, sim::EventAction action) {
  network_.scheduler().schedule_at(at, owner_, std::move(action));
}

sim::Time SndNode::skewed(sim::Time delay) const {
  const sim::FaultHook* hook = network_.fault_hook();
  if (hook == nullptr || !hook->skews_timers()) return delay;
  const double drift = hook->timer_drift(identity_);
  if (drift == 1.0) return delay;
  return sim::Time::nanoseconds(
      static_cast<std::int64_t>(static_cast<double>(delay.ns()) * drift));
}

sim::Time SndNode::jittered_now() {
  const auto max_ns = static_cast<double>(config_.tx_jitter.ns());
  // The RNG draw happens unconditionally (and first) so armed skew never
  // changes the shared stream's consumption order.
  const auto jitter =
      sim::Time::nanoseconds(static_cast<std::int64_t>(network_.rng().uniform(0.0, max_ns)));
  return network_.now() + skewed(jitter);
}

void SndNode::start() {
  if (started_) return;
  started_ = true;
  deployed_at_ = network_.now();
  trace_event(network_, identity_, obs::EventKind::kPhase, obs::NodePhase::kDeployed);

  // Of a unicast addressed to another identity, on_packet acts only on the
  // types it handles before the messenger's destination check; open()
  // drops the rest unread. In clean runs only HelloAcks are unicast among
  // these three.
  network_.set_receiver(
      device_, [this](const sim::Packet& packet) { on_packet(packet); },
      {static_cast<std::uint8_t>(MessageType::kHello),
       static_cast<std::uint8_t>(MessageType::kHelloAck),
       static_cast<std::uint8_t>(MessageType::kRecordReply)});

  const sim::Time jitter = sim::Time::nanoseconds(static_cast<std::int64_t>(
      network_.rng().uniform(0.0, static_cast<double>(config_.hello_jitter.ns()))));
  schedule(network_.now() + skewed(jitter), [this]() { send_hellos(config_.hello_repeats); });
  schedule(network_.now() + skewed(config_.discovery_window), [this]() { finish_discovery(); });
  schedule(network_.now() + skewed(config_.discovery_window + config_.exchange_window),
           [this]() { run_validation(); });
}

void SndNode::stop() {
  network_.set_receiver(device_, nullptr);
  network_.scheduler().retire(owner_);
}

void SndNode::send_hellos(std::size_t remaining) {
  if (remaining == 0 || discovery_complete_) return;
  messenger_.broadcast(static_cast<std::uint8_t>(MessageType::kHello), {}, obs::Phase::kHello);
  schedule(network_.now() + skewed(config_.hello_spacing),
           [this, remaining]() { send_hellos(remaining - 1); });
}

void SndNode::on_packet(const sim::Packet& packet) {
  if (packet.src == identity_) return;  // our own identity (e.g. a replica)

  switch (static_cast<MessageType>(packet.type)) {
    case MessageType::kHello:
      on_hello(packet);
      return;
    case MessageType::kHelloAck:
      on_hello_ack(packet);
      return;
    default:
      break;
  }

  // Record replies are local broadcasts: the record is self-authenticating
  // (its commitment verifies under K), so one transmission serves every
  // requester in range.
  if (static_cast<MessageType>(packet.type) == MessageType::kRecordReply) {
    on_record_reply(packet, packet.payload);
    return;
  }

  // Everything else is authenticated unicast. A failed open() on a packet
  // actually addressed to us is an authentication/replay reject; overheard
  // unicasts for other identities return nullopt too and are not rejects.
  const auto payload = messenger_.open(packet);
  if (!payload) {
    if (packet.dst == identity_) {
      trace_event(network_, identity_, obs::EventKind::kReject, obs::RejectReason::kAuthFailed,
                  packet.src);
    }
    return;
  }

  switch (static_cast<MessageType>(packet.type)) {
    case MessageType::kRecordRequest:
      on_record_request(packet);
      break;
    case MessageType::kRelationCommit:
      on_relation_commit(packet, *payload);
      break;
    case MessageType::kEvidence:
      on_evidence(packet, *payload);
      break;
    case MessageType::kUpdateRequest:
      on_update_request(packet, *payload);
      break;
    case MessageType::kUpdateReply:
      on_update_reply(packet, *payload);
      break;
    default:
      break;
  }
}

void SndNode::on_hello(const sim::Packet& packet) {
  // Make ourselves discoverable to the new node (once per identity --
  // repeated Hellos from the same node need no duplicate ACKs).
  if (acked_identities_.insert(packet.src)) {
    messenger_.send_unauth(packet.src, static_cast<std::uint8_t>(MessageType::kHelloAck), {},
                           obs::Phase::kAck);
  }
  // If we are still discovering, a Hello also reveals a candidate neighbor.
  consider_tentative(packet);

  // Update extension: a Hello marks a freshly deployed node that still
  // holds K and can re-issue our binding record.
  if (auto_update_ && validated_) request_update(packet.src);
}

void SndNode::on_hello_ack(const sim::Packet& packet) { consider_tentative(packet); }

void SndNode::consider_tentative(const sim::Packet& packet) {
  if (!started_ || discovery_complete_) return;
  // Direct verification is a (potentially expensive) challenge-response:
  // it runs once per candidate identity and the verdict is remembered, not
  // re-rolled for every overheard packet. One probe settles every later
  // copy: an accepted sender is in tentative_ already, a rejected one stays
  // out.
  const auto [verdict, first_copy] = verdicts_.try_emplace(packet.src, false);
  if (!first_copy) return;
  // verify() is a synchronous check that never reaches this agent's
  // handlers, so `verdict` is still valid when it returns.
  *verdict = verifier_->verify(network_, device_, packet.sender_device, packet.src);
  if (!*verdict) return;
  topology::insert_sorted(tentative_, packet.src);
}

void SndNode::finish_discovery() {
  if (discovery_complete_) return;
  discovery_complete_ = true;
  verdicts_ = {};  // only consider_tentative reads it, and only until now

  record_ = BindingRecord::make(master_, identity_, 0, tentative_);
  trace_event(network_, identity_, obs::EventKind::kPhase, obs::NodePhase::kDiscoveryDone,
              kNoNode, static_cast<std::uint32_t>(tentative_.size()));

  // Serve record requests that raced ahead of our record creation.
  if (pending_record_request_) broadcast_record();
  pending_record_request_ = false;

  // Collect the binding record of every tentative neighbor. Every node in
  // the round hits this point simultaneously, so requests are individually
  // jittered to avoid a synchronized burst.
  for (NodeId v : tentative_) {
    schedule(jittered_now(), [this, v]() {
      messenger_.send(v, static_cast<std::uint8_t>(MessageType::kRecordRequest), {},
                      obs::Phase::kRecord);
    });
  }
}

void SndNode::on_record_request(const sim::Packet& packet) {
  (void)packet;
  if (!record_) {
    pending_record_request_ = true;
    return;
  }
  // Requests burst in together (all new neighbors finish discovery at the
  // same window edge); aggregate them into a single, jittered broadcast
  // reply.
  if (record_broadcast_scheduled_) return;
  record_broadcast_scheduled_ = true;
  schedule(jittered_now() + skewed(sim::Time::milliseconds(20)),
           [this]() { broadcast_record(); });
}

void SndNode::broadcast_record() {
  record_broadcast_scheduled_ = false;
  if (!record_) return;
  messenger_.broadcast(static_cast<std::uint8_t>(MessageType::kRecordReply),
                       record_->serialize(), obs::Phase::kRecord);
}

void SndNode::on_record_reply(const sim::Packet& packet, std::span<const std::uint8_t> payload) {
  if (validated_ || !master_.present()) return;
  // Only records of tentative neighbors matter (bounds memory under chaff).
  if (!topology::contains(tentative_, packet.src)) {
    trace_event(network_, identity_, obs::EventKind::kReject, obs::RejectReason::kNotTentative,
                packet.src);
    return;
  }
  const auto reply = RecordReplyPayload::parse(payload);
  if (!reply) {
    trace_event(network_, identity_, obs::EventKind::kReject, obs::RejectReason::kParseError,
                packet.src);
    return;
  }
  const BindingRecord& record = reply->record;
  if (record.node != packet.src) {
    trace_event(network_, identity_, obs::EventKind::kReject, obs::RejectReason::kWrongSubject,
                packet.src);
    return;
  }
  if (!record.verify(master_)) {  // forged or corrupted commitment
    trace_event(network_, identity_, obs::EventKind::kReject, obs::RejectReason::kBadCommitment,
                packet.src);
    return;
  }

  // Keep the highest version. The broadcast channel lets anyone replay an
  // OLD (still commitment-valid) record of a node that has since updated;
  // preferring the higher version neutralizes that substitution, and the
  // adversary cannot mint higher versions without K.
  const BindingRecord* existing = neighbor_records_.find(record.node);
  if (existing != nullptr && existing->version >= record.version) {
    trace_event(network_, identity_, obs::EventKind::kReject, obs::RejectReason::kStaleVersion,
                packet.src);
    return;
  }
  neighbor_records_.insert_or_assign(record.node, record);

  // Early-erasure variant (§6): every tentative neighbor has answered, so
  // there is nothing left that needs K -- validate and erase immediately
  // rather than waiting out the exchange window.
  if (config_.early_erasure && discovery_complete_ &&
      neighbor_records_.size() == tentative_.size()) {
    run_validation();
  }
}

void SndNode::run_validation() {
  if (validated_) return;
  validated_ = true;

  // Phase A -- decide. Trace emission and functional_ insertion happen in
  // the original per-neighbor order; surviving peers are queued for the
  // batched derivations below.
  struct PendingPeer {
    NodeId v;
    const BindingRecord* record;
    bool accepted;
  };
  std::vector<PendingPeer> pending;
  pending.reserve(tentative_.size());
  for (NodeId v : tentative_) {
    const BindingRecord* found = neighbor_records_.find(v);
    if (found == nullptr) {
      trace_event(network_, identity_, obs::EventKind::kReject, obs::RejectReason::kNoRecord, v);
      continue;
    }
    const bool accepted = meets_threshold(tentative_, found->neighbors, config_.threshold_t);
    if (accepted) {
      topology::insert_sorted(functional_, v);
      trace_event(network_, identity_, obs::EventKind::kAccept, obs::AcceptVia::kThreshold, v);
    } else {
      trace_event(network_, identity_, obs::EventKind::kReject,
                  obs::RejectReason::kThresholdNotMet, v);
    }
    pending.push_back({v, found, accepted});
  }

  // Phase B -- derive. All of the round's commitments and evidences are
  // computed now, while K is in hand, in batched drains of the multi-buffer
  // hash engine (bit-identical to the scalar derivations and the same
  // hash-op count; see core/commitment.h).
  std::vector<NodeId> accepted_ids;
  for (const PendingPeer& p : pending) {
    if (p.accepted) accepted_ids.push_back(p.v);
  }
  std::vector<crypto::SymmetricKey> vkeys(accepted_ids.size());
  std::vector<crypto::Digest> commits(accepted_ids.size());
  verification_keys(master_, accepted_ids, vkeys);
  relation_commitments(vkeys, identity_, commits);

  // Extension: leave evidence with every tentative neighbor so a future
  // new deployment can re-issue their records including us.
  std::vector<crypto::Digest> evidences(config_.max_updates > 0 ? pending.size() : 0);
  if (config_.max_updates > 0) {
    std::vector<EvidenceSpec> specs;
    specs.reserve(pending.size());
    for (const PendingPeer& p : pending) {
      specs.push_back({identity_, p.v, p.record->version});
    }
    relation_evidences(master_, specs, evidences);
  }

  // Phase C -- transmit. The whole round goes on the air as one jittered
  // burst (commit then evidence per neighbor, in the decision order) whose
  // MACs also drain wide through Messenger::send_many. Payloads are
  // serialized now: neighbor_records_ is released before the burst fires.
  std::vector<Messenger::Outgoing> burst;
  std::size_t commit_index = 0;
  for (std::size_t i = 0; i < pending.size(); ++i) {
    const PendingPeer& p = pending[i];
    if (p.accepted) {
      burst.push_back({p.v, static_cast<std::uint8_t>(MessageType::kRelationCommit),
                       RelationCommitPayload{commits[commit_index]}.serialize(),
                       obs::Phase::kCommit});
      ++commit_index;
    }
    if (config_.max_updates > 0) {
      burst.push_back({p.v, static_cast<std::uint8_t>(MessageType::kEvidence),
                       EvidencePayload{p.record->version, evidences[i]}.serialize(),
                       obs::Phase::kEvidence});
    }
  }
  if (!burst.empty()) {
    schedule(jittered_now(),
             [this, burst = std::move(burst)]() { messenger_.send_many(burst); });
  }

  trace_event(network_, identity_, obs::EventKind::kPhase, obs::NodePhase::kValidated, kNoNode,
              static_cast<std::uint32_t>(functional_.size()));

  // Binding records of neighbors are no longer needed (paper §4.3); the
  // map's storage goes with them.
  neighbor_records_ = {};

  if (config_.max_updates > 0) {
    // Keep K alive briefly to serve update requests, then erase.
    schedule(network_.now() + skewed(config_.update_service_window),
             [this]() { erase_master_key(); });
  } else {
    erase_master_key();
  }
}

void SndNode::erase_master_key() {
  if (master_.present()) {
    master_.erase();
    erased_at_ = network_.now();
    trace_event(network_, identity_, obs::EventKind::kPhase, obs::NodePhase::kKeyErased);
  }
}

sim::Time SndNode::key_exposure() const {
  return (erased_at_ ? *erased_at_ : network_.now()) - deployed_at_;
}

std::size_t SndNode::footprint_bytes() const {
  const auto list_bytes = [](const topology::NeighborList& list) {
    return list.capacity() * sizeof(NodeId);
  };
  std::size_t bytes = sizeof(SndNode) + messenger_.footprint_bytes() + list_bytes(tentative_) +
                      list_bytes(functional_) + evidence_buffer_.footprint_bytes() +
                      acked_identities_.footprint_bytes() +
                      verdicts_.footprint_bytes() +
                      neighbor_records_.footprint_bytes();
  if (record_) bytes += list_bytes(record_->neighbors);
  for (const auto& [id, record] : neighbor_records_) bytes += list_bytes(record.neighbors);
  return bytes;
}

void SndNode::on_relation_commit(const sim::Packet& packet,
                                 std::span<const std::uint8_t> payload) {
  const auto commit = RelationCommitPayload::parse(payload);
  if (!commit) {
    trace_event(network_, identity_, obs::EventKind::kReject, obs::RejectReason::kParseError,
                packet.src);
    return;
  }
  // Only a node that held K (i.e. one that was newly deployed) can compute
  // C(x, us) = H(K_us | x); our own K_us verifies it.
  if (commit->commitment != relation_commitment(verification_key_, packet.src)) {
    trace_event(network_, identity_, obs::EventKind::kReject, obs::RejectReason::kCommitMismatch,
                packet.src);
    return;
  }
  topology::insert_sorted(functional_, packet.src);
  trace_event(network_, identity_, obs::EventKind::kAccept, obs::AcceptVia::kCommitment,
              packet.src);
}

void SndNode::on_evidence(const sim::Packet& packet, std::span<const std::uint8_t> payload) {
  if (config_.max_updates == 0 || !record_) return;
  const auto evidence = EvidencePayload::parse(payload);
  if (!evidence) {
    trace_event(network_, identity_, obs::EventKind::kReject, obs::RejectReason::kParseError,
                packet.src);
    return;
  }
  // Evidence must bind our *current* record version; we cannot check the
  // digest itself (K is gone) -- the update server will.
  if (evidence->record_version != record_->version) {
    trace_event(network_, identity_, obs::EventKind::kReject,
                obs::RejectReason::kVersionMismatch, packet.src);
    return;
  }
  evidence_buffer_.insert_or_assign(packet.src, evidence->evidence);
}

bool SndNode::request_update(NodeId server) {
  if (config_.max_updates == 0 || !record_) return false;
  if (record_->version >= config_.max_updates) return false;

  UpdateRequestPayload request{*record_, {}};
  for (const auto& [issuer, digest] : evidence_buffer_) {
    if (!topology::contains(record_->neighbors, issuer)) {
      request.evidences.emplace_back(issuer, digest);
    }
  }
  if (request.evidences.empty()) return false;

  ++updates_requested_;
  return messenger_.send(server, static_cast<std::uint8_t>(MessageType::kUpdateRequest),
                         request.serialize(), obs::Phase::kUpdate);
}

void SndNode::on_update_request(const sim::Packet& packet,
                                std::span<const std::uint8_t> payload) {
  // Only a newly deployed node still holding K can serve updates.
  if (!master_.present() || config_.max_updates == 0) return;
  const auto request = UpdateRequestPayload::parse(payload);
  if (!request) {
    trace_event(network_, identity_, obs::EventKind::kReject, obs::RejectReason::kParseError,
                packet.src);
    return;
  }
  const BindingRecord& old_record = request->record;
  if (old_record.node != packet.src || !old_record.verify(master_) ||
      old_record.version >= config_.max_updates) {  // cap reached (§4.4)
    trace_event(network_, identity_, obs::EventKind::kReject, obs::RejectReason::kUpdateRefused,
                packet.src);
    return;
  }

  topology::NeighborList updated = old_record.neighbors;

  // Precompute the expected evidences in one wide hash drain. Only safe
  // when no issuer repeats: with duplicates, the scalar loop's "already in
  // `updated`" check depends on earlier insertions, so fall back to
  // deriving inside the loop. Either way the derivations (and hash-op
  // counts) are exactly the ones the scalar loop performs.
  std::vector<const crypto::Digest*> expected(request->evidences.size(), nullptr);
  std::vector<crypto::Digest> batch_digests;
  {
    std::vector<NodeId> issuers;
    issuers.reserve(request->evidences.size());
    for (const auto& [issuer, digest] : request->evidences) issuers.push_back(issuer);
    std::sort(issuers.begin(), issuers.end());
    const bool unique = std::adjacent_find(issuers.begin(), issuers.end()) == issuers.end();
    if (unique) {
      std::vector<EvidenceSpec> specs;
      std::vector<std::size_t> where;
      for (std::size_t i = 0; i < request->evidences.size(); ++i) {
        const NodeId issuer = request->evidences[i].first;
        if (topology::contains(updated, issuer)) continue;
        specs.push_back({issuer, old_record.node, old_record.version});
        where.push_back(i);
      }
      batch_digests.resize(specs.size());
      relation_evidences(master_, specs, batch_digests);
      for (std::size_t j = 0; j < where.size(); ++j) expected[where[j]] = &batch_digests[j];
    }
  }

  bool any_verified = false;
  for (std::size_t i = 0; i < request->evidences.size(); ++i) {
    const auto& [issuer, digest] = request->evidences[i];
    if (topology::contains(updated, issuer)) continue;
    const crypto::Digest want =
        expected[i] != nullptr
            ? *expected[i]
            : relation_evidence(master_, issuer, old_record.node, old_record.version);
    if (digest != want) {
      continue;  // unverifiable claim; skip it, keep the rest
    }
    topology::insert_sorted(updated, issuer);
    any_verified = true;
  }
  if (!any_verified) {
    trace_event(network_, identity_, obs::EventKind::kReject, obs::RejectReason::kUpdateRefused,
                packet.src);
    return;
  }

  const BindingRecord updated_record =
      BindingRecord::make(master_, old_record.node, old_record.version + 1, std::move(updated));
  messenger_.send(packet.src, static_cast<std::uint8_t>(MessageType::kUpdateReply),
                  updated_record.serialize(), obs::Phase::kUpdate);
}

void SndNode::on_update_reply(const sim::Packet& packet, std::span<const std::uint8_t> payload) {
  if (config_.max_updates == 0 || !record_) return;
  const auto reply = UpdateReplyPayload::parse(payload);
  if (!reply) {
    trace_event(network_, identity_, obs::EventKind::kReject, obs::RejectReason::kParseError,
                packet.src);
    return;
  }
  const BindingRecord& updated = reply->record;
  if (updated.node != identity_) {
    trace_event(network_, identity_, obs::EventKind::kReject, obs::RejectReason::kWrongSubject,
                packet.src);
    return;
  }
  if (updated.version != record_->version + 1) {
    trace_event(network_, identity_, obs::EventKind::kReject,
                obs::RejectReason::kVersionMismatch, packet.src);
    return;
  }
  // We cannot re-verify the commitment (K is erased); authenticity rests on
  // the pairwise-authenticated channel to the newly deployed server.
  record_ = updated;
  // All buffered evidence was bound to the previous version; new evidence
  // must cite the new version number (§4.4).
  evidence_buffer_.clear();
}

SndNode::Secrets SndNode::steal_secrets() const {
  Secrets secrets;
  secrets.master = master_;  // copies only if still present
  secrets.verification_key = verification_key_;
  secrets.record = record_;
  secrets.tentative = tentative_;
  secrets.functional = functional_;
  for (const auto& [issuer, digest] : evidence_buffer_) {
    secrets.evidence_buffer.emplace(issuer, digest);
  }
  return secrets;
}

}  // namespace snd::core
