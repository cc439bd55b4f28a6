// Authenticated unicast transport over the broadcast radio.
//
// Implements the paper's blanket assumption that "the communication between
// any two nodes is encrypted and authenticated by their shared key, and a
// sequence number is used to remove replayed messages" (§2/§4), in a form
// that tolerates replicas: authentication is per-message (pairwise-key MAC
// over src|dst|type|payload|nonce) with a sliding-window replay cache
// rather than per-session counters, because a replica legitimately re-keys
// the same identity from a different radio.
//
// Hot path: the HMAC midstates of each peer's pairwise key are memoized
// (crypto::PairKeyCache, one probe per lookup; the key itself is not kept)
// and the MAC input is streamed straight into the hash context, so a
// steady-state send()/open() does no key derivation and no heap
// allocation. The tag is HMAC(K_uv, u32 src | u32 dst | u8 type |
// u16 len | payload | u64 nonce) truncated to crypto::kShortMacSize bytes;
// tests/core_messenger_test.cpp checks it against crypto::short_mac over
// those bytes framed independently.
//
// Note the protocol's *security* does not rest on this layer -- binding
// records, relation commitments, and evidences are self-authenticating
// under K / K_v -- but the layer is faithful to the paper's cost model and
// shields the honest protocol from trivial spoofing.
#pragma once

#include <memory>
#include <optional>
#include <span>

#include "crypto/hmac.h"
#include "crypto/keypredist.h"
#include "crypto/session_cache.h"
#include "obs/event.h"
#include "sim/network.h"
#include "util/flat.h"
#include "util/ids.h"

namespace snd::core {

class Messenger {
 public:
  /// `identity` is the identity this endpoint speaks as (a replica speaks
  /// as its stolen identity). `boot_epoch` counts reboots of the device: a
  /// rebooted node loses its counter state, so each epoch starts its nonce
  /// counters 2^20 ahead of the previous one -- peers' replay windows see
  /// strictly fresh counters, while stale pre-reboot traffic replayed later
  /// still lands behind the window and is rejected.
  Messenger(sim::Network& network, sim::DeviceId device, NodeId identity,
            std::shared_ptr<crypto::KeyPredistribution> keys, std::uint32_t boot_epoch = 0);

  /// Sends an authenticated unicast. Returns false if no pairwise key with
  /// `to` could be established. Cost is charged to `phase`.
  bool send(NodeId to, std::uint8_t type, const util::Bytes& payload, obs::Phase phase);

  /// One message of a send_many() burst.
  struct Outgoing {
    NodeId to = kNoNode;
    std::uint8_t type = 0;
    util::Bytes payload;
    obs::Phase phase = obs::Phase::kOther;
  };

  /// Sends a burst of authenticated unicasts, exactly equivalent to calling
  /// send() on each element in order: same key-cache touch order, same
  /// nonce assignment (a message with no establishable pairwise key is
  /// skipped without consuming a nonce), same wire bytes, same transmit
  /// order. The difference is purely mechanical -- the burst's MACs drain
  /// through the multi-buffer hash engine (inner contexts wide, then outer
  /// contexts over the inner digests). Returns the number of messages
  /// actually sent.
  std::size_t send_many(std::span<const Outgoing> messages);

  /// Broadcasts without per-pair authentication (Hello/HelloAck carry no
  /// secrets; authenticity of what matters is established end-to-end).
  void broadcast(std::uint8_t type, const util::Bytes& payload, obs::Phase phase);

  /// Addressed but unauthenticated send (HelloAck: the pairwise key may not
  /// be checkable yet and the content is covered by direct verification).
  void send_unauth(NodeId to, std::uint8_t type, const util::Bytes& payload, obs::Phase phase);

  /// Verifies an incoming unicast addressed to this identity: MAC check
  /// with the pairwise key for the claimed src, replay check on the nonce.
  /// Returns a view of the bare payload (aliasing `packet.payload`, valid
  /// while the packet is), or nullopt if the packet is not for us / fails
  /// authentication / is a replay.
  std::optional<std::span<const std::uint8_t>> open(const sim::Packet& packet);

  [[nodiscard]] NodeId identity() const { return identity_; }

  /// Per-message wire overhead added by send(): nonce + MAC.
  static constexpr std::size_t kAuthOverhead = 8 + crypto::kShortMacSize;

  /// Width of a replay window: out-of-order delivery within this many
  /// counter steps of the newest seen nonce is tolerated; older packets are
  /// rejected. Honest senders use strictly increasing counters, so only
  /// pathologically-delayed or replayed traffic lands outside the window.
  static constexpr std::uint64_t kReplayWindow = 64;

  /// Number of (peer, sender-device) replay windows held. Each is O(1)
  /// memory, so this -- not the message count -- bounds replay state.
  [[nodiscard]] std::size_t replay_window_count() const { return replay_windows_.size(); }

  /// Heap bytes held by the pairwise-key cache and the replay windows
  /// (capacity × element size).
  [[nodiscard]] std::size_t footprint_bytes() const {
    return key_cache_.footprint_bytes() + replay_windows_.footprint_bytes();
  }

  /// Messages that authenticated but were rejected by the replay window
  /// (also charged to obs::DropCause::kReplay on the network's metrics).
  [[nodiscard]] std::uint64_t replay_rejects() const { return replay_rejects_; }

  /// Messages the replay window flagged as duplicates that were delivered
  /// anyway. Always 0 unless the kReplayWindowBypass planted bug is armed;
  /// the replay.never_accepted oracle audits it.
  [[nodiscard]] std::uint64_t replay_accepts() const { return replay_accepts_; }

  /// Per-epoch nonce-counter stride (see the constructor comment).
  static constexpr std::uint64_t kEpochStride = 1ULL << 20;

 private:
  /// IPsec-style sliding window over one sender-device's nonce counters:
  /// a 64-bit mask of recently seen counters below the highest seen.
  struct ReplayWindow {
    std::uint64_t highest = 0;
    std::uint64_t mask = 0;
    bool any = false;

    bool accept(std::uint64_t counter);
  };

  bool replay_accept(NodeId src, std::uint64_t nonce);

  /// Frames payload | nonce | mac and hands the packet to the radio.
  void transmit_authenticated(NodeId to, std::uint8_t type,
                              std::span<const std::uint8_t> payload, std::uint64_t nonce,
                              const crypto::ShortMac& mac, obs::Phase phase);

  sim::Network& network_;
  sim::DeviceId device_;
  NodeId identity_;
  crypto::PairKeyCache key_cache_;
  std::uint64_t nonce_counter_;
  std::uint64_t replay_rejects_ = 0;
  std::uint64_t replay_accepts_ = 0;
  /// Nonces are (device << 32) + counter, so windows are keyed per
  /// (claimed src identity, sending device): replicas of one identity get
  /// independent windows and never collide. One sorted array keyed
  /// (src << 32) | device.
  util::FlatMap<std::uint64_t, ReplayWindow> replay_windows_;
};

}  // namespace snd::core
