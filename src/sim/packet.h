// The radio-layer frame exchanged between physical devices.
//
// The library distinguishes *devices* (physical radios, unique DeviceId)
// from *identities* (NodeId, what protocols see). Replication attacks make
// several devices claim one identity, so the claimed source identity in a
// packet is data, not truth: `sender_device` records which physical radio
// actually transmitted (used only by the channel and by ground-truth
// auditing, never by protocol logic).
#pragma once

#include <bitset>
#include <cstdint>
#include <initializer_list>

#include "util/bytes.h"
#include "util/ids.h"

namespace snd::sim {

using DeviceId = std::uint32_t;
inline constexpr DeviceId kNoDevice = 0xffffffffu;

struct Packet {
  DeviceId sender_device = kNoDevice;
  /// Claimed source identity (unauthenticated at this layer).
  NodeId src = kNoNode;
  /// Destination identity; kNoNode means local broadcast.
  NodeId dst = kNoNode;
  /// Protocol discriminator (each module defines its own message types).
  std::uint8_t type = 0;
  util::Bytes payload;

  /// 802.15.4-style MAC/PHY framing overhead per transmission.
  static constexpr std::size_t kHeaderBytes = 11;

  [[nodiscard]] std::size_t wire_bytes() const { return kHeaderBytes + payload.size(); }
  [[nodiscard]] bool is_broadcast() const { return dst == kNoNode; }
};

/// A set of Packet::type values. A receiver names the types it still reads
/// when it overhears a unicast addressed to another identity
/// (Network::set_receiver); the radio does not hand it the others.
class PacketTypes {
 public:
  /// Every type: the receiver reads all the traffic it overhears.
  static PacketTypes all() {
    PacketTypes types;
    types.bits_.set();
    return types;
  }
  PacketTypes() = default;
  PacketTypes(std::initializer_list<std::uint8_t> types) {
    for (const std::uint8_t type : types) bits_.set(type);
  }
  [[nodiscard]] bool contains(std::uint8_t type) const { return bits_[type]; }

 private:
  std::bitset<256> bits_;
};

}  // namespace snd::sim
