#include "adversary/replayer.h"

#include "core/wire.h"

namespace snd::adversary {

namespace {
/// Identity tag for the capture radio; it never speaks for itself.
constexpr NodeId kReplayerIdentity = 0xdeadfeed;
}  // namespace

ReplayAttacker::ReplayAttacker(sim::Network& network, util::Vec2 position, sim::Time delay,
                               std::uint32_t max_captures)
    : network_(network),
      device_(network.add_device(kReplayerIdentity, position)),
      delay_(delay),
      max_captures_(max_captures) {
  network_.mark_compromised(device_);
}

ReplayAttacker::~ReplayAttacker() { network_.set_receiver(device_, nullptr); }

void ReplayAttacker::start() {
  network_.set_receiver(device_, [this](const sim::Packet& packet) { on_packet(packet); });
}

void ReplayAttacker::on_packet(const sim::Packet& packet) {
  // Only authenticated protocol unicast is worth replaying; Hello/HelloAck
  // carry no MAC and replaying them is indistinguishable from chaff.
  const auto type = static_cast<core::MessageType>(packet.type);
  if (type < core::MessageType::kRecordRequest || type > core::MessageType::kUpdateReply) {
    return;
  }
  // Never re-capture our own injections (delivery loops forever otherwise).
  if (network_.device(packet.sender_device).identity == kReplayerIdentity) return;
  if (captured_ >= max_captures_) return;

  ++captured_;
  sim::Packet copy = packet;  // verbatim: claimed src, dst, payload, MAC trailer
  network_.scheduler().schedule_at(network_.now() + delay_,
                                   [this, copy = std::move(copy)]() {
                                     network_.transmit(device_, copy, obs::Phase::kAttack);
                                     ++injected_;
                                   });
}

}  // namespace snd::adversary
