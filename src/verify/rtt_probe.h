// Message-level authenticated distance bounding.
//
// The RttVerifier in verifier.h is an *abstraction* of this protocol: a
// challenger sends a nonce, the claimed identity MACs it back under their
// pairwise key with its (declared, bounded) turnaround time, and the
// challenger converts   RTT - turnaround   into a distance estimate at the
// speed of light. Nothing can answer faster than light, and only a holder
// of the claimed identity's keys can answer at all, so:
//   * genuine neighbors and nearby replicas pass,
//   * wormhole-relayed far identities fail (tunnel latency inflates RTT),
//   * fabricated identities produce no authentic response (timeout).
// This module runs the exchange as real packets over the simulator --
// challenge type 0x21, response type 0x22 -- and exists to validate that
// abstraction; see tests/verify_rtt_probe_test.cpp.
#pragma once

#include <functional>
#include <map>
#include <optional>

#include "crypto/hmac.h"
#include "crypto/keypredist.h"
#include "crypto/session_cache.h"
#include "sim/network.h"

namespace snd::verify {

/// Message types used by the probe (outside the core protocol's 1..8).
inline constexpr std::uint8_t kRttChallengeType = 0x21;
inline constexpr std::uint8_t kRttResponseType = 0x22;

/// The fixed turnaround a responder commits to: it answers exactly this
/// long after reception. Receivers subtract it from the measured RTT.
inline constexpr sim::Time kRttTurnaround = sim::Time::microseconds(50);

/// Responder half: answers authenticated challenges addressed to its
/// identity. Attach alongside (or instead of) other per-device handlers.
class RttResponder {
 public:
  RttResponder(sim::Network& network, sim::DeviceId device, NodeId identity,
               std::shared_ptr<crypto::KeyPredistribution> keys);

  /// Handles a packet if it is a challenge for us; returns true if consumed.
  bool handle(const sim::Packet& packet);

 private:
  sim::Network& network_;
  sim::DeviceId device_;
  NodeId identity_;
  crypto::PairKeyCache key_cache_;
};

/// Challenger half: issues a challenge to `target` and reports the distance
/// estimate (meters) or std::nullopt on timeout / bad MAC.
class RttChallenger {
 public:
  RttChallenger(sim::Network& network, sim::DeviceId device, NodeId identity,
                std::shared_ptr<crypto::KeyPredistribution> keys);

  using Callback = std::function<void(std::optional<double> distance_m)>;

  /// Starts a probe of `target`; invokes `done` once (response or timeout).
  void probe(NodeId target, sim::Time timeout, Callback done);

  /// Handles a packet if it is a response to one of our probes; returns
  /// true if consumed.
  bool handle(const sim::Packet& packet);

 private:
  struct Pending {
    NodeId target;
    sim::Time sent_at;
    Callback done;
    bool finished = false;
  };

  sim::Network& network_;
  sim::DeviceId device_;
  NodeId identity_;
  crypto::PairKeyCache key_cache_;
  std::uint64_t next_nonce_ = 1;
  std::map<std::uint64_t, Pending> pending_;
};

/// The expected response MAC: HMAC(K_uv, "snd.rtt" | nonce | responder),
/// computed from the pair's cached midstates.
crypto::ShortMac rtt_response_mac(const crypto::HmacKey& pairwise, std::uint64_t nonce,
                                  NodeId responder);

}  // namespace snd::verify
