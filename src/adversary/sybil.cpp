#include "adversary/sybil.h"

#include "core/wire.h"

namespace snd::adversary {

SybilAttacker::SybilAttacker(sim::Network& network, util::Vec2 position, NodeId base,
                             std::uint32_t identities)
    : network_(network),
      device_(network.add_device(base, position)),
      base_(base),
      identities_(identities) {
  network_.mark_compromised(device_);
}

SybilAttacker::~SybilAttacker() { network_.set_receiver(device_, nullptr); }

void SybilAttacker::start() {
  network_.set_receiver(device_, [this](const sim::Packet& packet) { on_packet(packet); });
  // Announce every minted identity. Staggered 1 ms apart so the flood is
  // heard even by half-duplex neighbors busy with their own Hellos.
  for (std::uint32_t i = 1; i <= identities_; ++i) {
    const NodeId fake = base_ + i;
    network_.scheduler().schedule_at(
        network_.now() + sim::Time::milliseconds(i), [this, fake]() {
          sim::Packet hello{.src = fake,
                            .dst = kNoNode,
                            .type = static_cast<std::uint8_t>(core::MessageType::kHello),
                            .payload = {}};
          network_.transmit(device_, std::move(hello), obs::Phase::kAttack);
          ++sent_;
        });
  }
}

void SybilAttacker::on_packet(const sim::Packet& packet) {
  if (static_cast<core::MessageType>(packet.type) != core::MessageType::kHello) return;
  if (minted(packet.src) || packet.src == base_) return;  // never answer ourselves
  for (std::uint32_t i = 1; i <= identities_; ++i) {
    sim::Packet ack{.src = base_ + i,
                    .dst = packet.src,
                    .type = static_cast<std::uint8_t>(core::MessageType::kHelloAck),
                    .payload = {}};
    network_.transmit(device_, std::move(ack), obs::Phase::kAttack);
    ++sent_;
  }
}

}  // namespace snd::adversary
