// SndNode: the per-device agent running the localized neighbor validation
// protocol of paper §4.1 (plus the §4.4 update extension).
//
// Lifecycle of a node deployed at time T:
//   T            Hello broadcasts (repeated, jittered).
//   ..T+W_d      collects HelloAcks/Hellos, direct-verifying each sender
//                once (one verdict-table probe per overheard copy);
//                frozen into the tentative list N(u) at T+W_d, when the
//                verdict table is released.
//   T+W_d        binding record R(u) = {0, N(u), C(u)} created; K_u = H(K|u)
//                derived; RecordRequests sent to every tentative neighbor.
//   ..T+W_d+W_e  RecordReplies collected and verified with K.
//   T+W_d+W_e    threshold check |N(u) ∩ N(v)| >= t+1 for every v with a
//                verified record; functional neighbors chosen; relation
//                commitments C(u,v) = H(K_v|u) sent; evidences E(u,v) sent
//                to update-capable neighbors; the collected records are
//                released.
//   +W_u         (extension only) serves binding-record updates with K.
//   then         *** K erased ***. The node keeps only R(u), K_u, N(u),
//                the functional list, and the evidence buffer.
//
// At any later time the node answers RecordRequests, accepts relation
// commitments verified against its own K_u, buffers evidences, and (if the
// extension is on) requests record updates from newly deployed nodes.
#pragma once

#include <map>
#include <memory>
#include <optional>
#include <set>
#include <span>
#include <vector>

#include "core/binding_record.h"
#include "core/config.h"
#include "core/messenger.h"
#include "core/wire.h"
#include "crypto/keypredist.h"
#include "sim/network.h"
#include "util/flat.h"
#include "util/peer_table.h"
#include "verify/verifier.h"

namespace snd::core {

/// Evidence issuers -> E(x, u), iterated in ascending issuer order.
using EvidenceMap = util::FlatMap<NodeId, crypto::Digest>;

class SndNode {
 public:
  /// `boot_epoch` counts reboots of this device (0 on first boot); it only
  /// offsets the Messenger's nonce counters so a restarted node's traffic
  /// is accepted by peers that remember the previous incarnation.
  SndNode(sim::Network& network, sim::DeviceId device, NodeId identity,
          const crypto::SymmetricKey& master_key,
          std::shared_ptr<verify::DirectVerifier> verifier,
          std::shared_ptr<crypto::KeyPredistribution> keys, ProtocolConfig config,
          std::uint32_t boot_epoch = 0);

  SndNode(const SndNode&) = delete;
  SndNode& operator=(const SndNode&) = delete;
  /// Detaches from the network: scheduled protocol events capture `this`
  /// and must not outlive the agent (stop() retires them).
  ~SndNode();

  /// Registers the radio receiver and schedules the discovery sequence
  /// starting at the current simulation time.
  void start();

  /// Stops participating (battery death or compromise): deregisters the
  /// receiver and retires this agent's scheduler owner, so none of its
  /// queued or later events fire.
  void stop();

  // -- State queries ----------------------------------------------------
  [[nodiscard]] NodeId identity() const { return identity_; }
  [[nodiscard]] sim::DeviceId device() const { return device_; }
  [[nodiscard]] const topology::NeighborList& tentative_neighbors() const { return tentative_; }
  [[nodiscard]] const topology::NeighborList& functional_neighbors() const { return functional_; }
  [[nodiscard]] bool has_record() const { return record_.has_value(); }
  [[nodiscard]] const BindingRecord& record() const { return *record_; }
  [[nodiscard]] bool master_key_present() const { return master_.present(); }
  [[nodiscard]] bool discovery_complete() const { return discovery_complete_; }
  /// Authenticated messages this node's transport rejected as replays.
  [[nodiscard]] std::uint64_t replay_rejects() const { return messenger_.replay_rejects(); }
  /// Window-flagged duplicates delivered anyway (nonzero only under the
  /// kReplayWindowBypass planted bug).
  [[nodiscard]] std::uint64_t replay_accepts() const { return messenger_.replay_accepts(); }

  /// Evidences buffered since the last record update: (issuer, E(x, u)).
  [[nodiscard]] const EvidenceMap& evidence_buffer() const { return evidence_buffer_; }

  // -- Update extension (§4.4) -------------------------------------------
  /// Asks `server` (a newly deployed node that should still hold K) to
  /// re-issue this node's binding record using the buffered evidences.
  /// Returns false if the extension is off or there is nothing to add.
  bool request_update(NodeId server);

  /// Whether this node automatically requests an update from every newly
  /// deployed node it hears, whenever it holds unused evidences. Default
  /// off; benches and the creeping attack turn it on.
  void set_auto_update(bool enabled) { auto_update_ = enabled; }

  [[nodiscard]] std::size_t updates_requested() const { return updates_requested_; }
  [[nodiscard]] std::uint32_t record_version() const { return record_ ? record_->version : 0; }

  /// How long this node held the master key K: deployment to erasure.
  /// Returns the running exposure if K is still present.
  [[nodiscard]] sim::Time key_exposure() const;

  /// Bytes this agent holds: the object itself plus every container's
  /// capacity × element size (the Messenger's included). Deterministic for
  /// a given run, so bench/scale gates it exactly as `node_bytes`.
  [[nodiscard]] std::size_t footprint_bytes() const;

  // -- Adversary interface ------------------------------------------------
  /// Everything an attacker physically extracting this node's memory gets
  /// *right now*. Honors erasure: `master` is absent after key deletion.
  struct Secrets {
    crypto::SymmetricKey master;            // present only before erasure
    crypto::SymmetricKey verification_key;  // K_u (kept forever)
    std::optional<BindingRecord> record;
    topology::NeighborList tentative;
    topology::NeighborList functional;
    std::map<NodeId, crypto::Digest> evidence_buffer;
  };
  [[nodiscard]] Secrets steal_secrets() const;

 private:
  /// Schedules `action` under this agent's owner, so stop() retires it.
  void schedule(sim::Time at, sim::EventAction action);
  /// A relative delay as measured by this node's local clock: scaled by the
  /// fault layer's per-node timer drift when a skew fault is armed,
  /// otherwise returned untouched (the common, bit-identical path).
  [[nodiscard]] sim::Time skewed(sim::Time delay) const;
  /// Now plus a uniform draw from [0, tx_jitter] (per-message backoff),
  /// measured on the local (possibly skewed) clock.
  sim::Time jittered_now();
  void send_hellos(std::size_t remaining);
  void on_packet(const sim::Packet& packet);
  void on_hello(const sim::Packet& packet);
  void on_hello_ack(const sim::Packet& packet);
  void consider_tentative(const sim::Packet& packet);
  void finish_discovery();
  void on_record_request(const sim::Packet& packet);
  void broadcast_record();
  // Payload spans alias the packet (or the Messenger's view of it) and are
  // only valid for the duration of the handler.
  void on_record_reply(const sim::Packet& packet, std::span<const std::uint8_t> payload);
  void run_validation();
  void on_relation_commit(const sim::Packet& packet, std::span<const std::uint8_t> payload);
  void on_evidence(const sim::Packet& packet, std::span<const std::uint8_t> payload);
  void on_update_request(const sim::Packet& packet, std::span<const std::uint8_t> payload);
  void on_update_reply(const sim::Packet& packet, std::span<const std::uint8_t> payload);
  void erase_master_key();

  sim::Network& network_;
  sim::DeviceId device_;
  NodeId identity_;
  /// Owns every event this agent schedules; retired by stop().
  sim::Owner owner_;
  crypto::SymmetricKey master_;
  crypto::SymmetricKey verification_key_;
  std::shared_ptr<verify::DirectVerifier> verifier_;
  std::shared_ptr<crypto::KeyPredistribution> keys_;
  ProtocolConfig config_;
  Messenger messenger_;

  bool started_ = false;
  bool discovery_complete_ = false;
  bool validated_ = false;
  bool auto_update_ = false;

  topology::NeighborList tentative_;
  topology::NeighborList functional_;
  std::optional<BindingRecord> record_;
  /// Verified binding records of tentative neighbors (kept only until
  /// validation, which releases the map; the paper notes R(v) can be
  /// deleted after use).
  util::FlatMap<NodeId, BindingRecord> neighbor_records_;
  /// A record request arrived before our record existed.
  bool pending_record_request_ = false;
  /// An aggregated record broadcast is already scheduled.
  bool record_broadcast_scheduled_ = false;
  /// Evidences received from later deployments: issuer -> E(x, u).
  EvidenceMap evidence_buffer_;
  /// Identities already answered with a HelloAck (duplicate suppression).
  util::FlatSet<NodeId> acked_identities_;
  /// Direct-verification verdicts, one per candidate identity heard during
  /// discovery; released when discovery ends.
  util::PeerTable<NodeId, bool> verdicts_;
  /// Update requests this node has issued (diagnostics).
  std::size_t updates_requested_ = 0;
  sim::Time deployed_at_;
  std::optional<sim::Time> erased_at_;
};

}  // namespace snd::core
