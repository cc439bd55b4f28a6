#include "adversary/wormhole.h"

namespace snd::adversary {

namespace {
/// Identity tag for wormhole hardware; it never speaks for itself.
constexpr NodeId kWormholeIdentity = 0xdeadbeef;
}  // namespace

Wormhole::Wormhole(sim::Network& network, util::Vec2 end_a, util::Vec2 end_b,
                   sim::Time tunnel_latency)
    : network_(network),
      end_a_(network.add_device(kWormholeIdentity, end_a)),
      end_b_(network.add_device(kWormholeIdentity, end_b)),
      tunnel_latency_(tunnel_latency) {
  network_.mark_compromised(end_a_);
  network_.mark_compromised(end_b_);
}

Wormhole::~Wormhole() {
  network_.set_receiver(end_a_, nullptr);
  network_.set_receiver(end_b_, nullptr);
}

void Wormhole::start() {
  network_.set_receiver(end_a_, [this](const sim::Packet& packet) {
    relay(end_a_, end_b_, packet);
  });
  network_.set_receiver(end_b_, [this](const sim::Packet& packet) {
    relay(end_b_, end_a_, packet);
  });
}

void Wormhole::relay(sim::DeviceId from_end, sim::DeviceId to_end, const sim::Packet& packet) {
  (void)from_end;
  // Never re-tunnel traffic the peer endpoint itself put on the air (the
  // endpoints are out of range of each other, but replicas of relayed
  // traffic must not bounce if that assumption is violated).
  if (network_.device(packet.sender_device).identity == kWormholeIdentity) return;

  ++tunneled_;
  sim::Packet copy = packet;  // same claimed src, payload, type
  network_.scheduler().schedule_at(network_.now() + tunnel_latency_,
                                   [this, to_end, copy = std::move(copy)]() {
                                     network_.transmit(to_end, copy, obs::Phase::kAttackWormhole);
                                   });
}

}  // namespace snd::adversary
