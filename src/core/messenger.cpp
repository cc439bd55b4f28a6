#include "core/messenger.h"

#include <algorithm>
#include <array>
#include <vector>

#include "crypto/sha256_mb.h"
#include "fault/injector.h"

namespace snd::core {

Messenger::Messenger(sim::Network& network, sim::DeviceId device, NodeId identity,
                     std::shared_ptr<crypto::KeyPredistribution> keys, std::uint32_t boot_epoch)
    : network_(network),
      device_(device),
      identity_(identity),
      key_cache_(std::move(keys), identity),
      // Device-distinct starting nonce so replicas of one identity never
      // collide in the receiver's replay cache; the epoch stride jumps a
      // rebooted device's counters ahead of everything it sent before.
      nonce_counter_((static_cast<std::uint64_t>(device) << 32) +
                     static_cast<std::uint64_t>(boot_epoch) * kEpochStride) {}

namespace {

// Streams the MAC input directly into the hash context, with no framing
// buffer: u32 src | u32 dst | u8 type | u16 len | payload | u64 nonce.
// core_messenger_test frames the same bytes by hand and checks the wire
// MAC against crypto::short_mac over them. Templated over the context so a
// crypto::HashBatch::Job (send_many's wide MAC path) absorbs exactly the
// bytes a scalar crypto::Sha256 would.
template <typename Ctx>
void mac_absorb(Ctx& h, NodeId src, NodeId dst, std::uint8_t type,
                std::span<const std::uint8_t> payload, std::uint64_t nonce) {
  std::array<std::uint8_t, 11> head;
  head[0] = static_cast<std::uint8_t>(src >> 24);
  head[1] = static_cast<std::uint8_t>(src >> 16);
  head[2] = static_cast<std::uint8_t>(src >> 8);
  head[3] = static_cast<std::uint8_t>(src);
  head[4] = static_cast<std::uint8_t>(dst >> 24);
  head[5] = static_cast<std::uint8_t>(dst >> 16);
  head[6] = static_cast<std::uint8_t>(dst >> 8);
  head[7] = static_cast<std::uint8_t>(dst);
  head[8] = type;
  head[9] = static_cast<std::uint8_t>(payload.size() >> 8);
  head[10] = static_cast<std::uint8_t>(payload.size());
  h.update(head);
  h.update(payload);
  h.update_u64(nonce);
}

}  // namespace

void Messenger::transmit_authenticated(NodeId to, std::uint8_t type,
                                       std::span<const std::uint8_t> payload,
                                       std::uint64_t nonce, const crypto::ShortMac& mac,
                                       obs::Phase phase) {
  util::Bytes body;
  body.reserve(payload.size() + kAuthOverhead);
  util::put_bytes(body, payload);
  util::put_u64(body, nonce);
  util::put_bytes(body, mac);

  sim::Packet packet{.src = identity_, .dst = to, .type = type, .payload = std::move(body)};
  network_.transmit(device_, std::move(packet), phase);
}

bool Messenger::send(NodeId to, std::uint8_t type, const util::Bytes& payload,
                     obs::Phase phase) {
  const crypto::PairKeyCache::Entry& entry = key_cache_.get(to);
  if (!entry.present()) return false;
  const std::uint64_t nonce = ++nonce_counter_;
  crypto::Sha256 inner = entry.mac.inner_context();
  mac_absorb(inner, identity_, to, type, payload, nonce);
  transmit_authenticated(to, type, payload, nonce, entry.mac.finish_short(std::move(inner)),
                         phase);
  return true;
}

std::size_t Messenger::send_many(std::span<const Outgoing> messages) {
  // A burst of one goes through send() itself: a second hash lane would
  // never fill.
  if (messages.size() < 2) {
    std::size_t sent = 0;
    for (const Outgoing& m : messages) {
      if (send(m.to, m.type, m.payload, m.phase)) ++sent;
    }
    return sent;
  }

  struct Pending {
    std::size_t index;  // into `messages`
    std::uint64_t nonce;
    crypto::Sha256 outer;  // outer midstate, captured before the cache entry can move
  };
  std::vector<Pending> pending;
  pending.reserve(messages.size());
  crypto::HashBatch inner;
  for (std::size_t i = 0; i < messages.size(); ++i) {
    const Outgoing& m = messages[i];
    const crypto::PairKeyCache::Entry& entry = key_cache_.get(m.to);
    if (!entry.present()) continue;  // skipped without a nonce, like send() == false
    const std::uint64_t nonce = ++nonce_counter_;
    crypto::HashBatch::Job job = inner.add(entry.mac.inner_context());
    mac_absorb(job, identity_, m.to, m.type, m.payload, nonce);
    pending.push_back({i, nonce, entry.mac.outer_context()});
  }
  inner.run();

  crypto::HashBatch outer;
  for (std::size_t j = 0; j < pending.size(); ++j) {
    outer.add(pending[j].outer).update(inner.digest(j).bytes);
  }
  outer.run();

  for (std::size_t j = 0; j < pending.size(); ++j) {
    const Pending& p = pending[j];
    const Outgoing& m = messages[p.index];
    crypto::ShortMac mac;
    std::copy_n(outer.digest(j).bytes.begin(), crypto::kShortMacSize, mac.begin());
    transmit_authenticated(m.to, m.type, m.payload, p.nonce, mac, m.phase);
  }
  return pending.size();
}

void Messenger::broadcast(std::uint8_t type, const util::Bytes& payload, obs::Phase phase) {
  sim::Packet packet{.src = identity_, .dst = kNoNode, .type = type, .payload = payload};
  network_.transmit(device_, std::move(packet), phase);
}

void Messenger::send_unauth(NodeId to, std::uint8_t type, const util::Bytes& payload,
                            obs::Phase phase) {
  sim::Packet packet{.src = identity_, .dst = to, .type = type, .payload = payload};
  network_.transmit(device_, std::move(packet), phase);
}

std::optional<std::span<const std::uint8_t>> Messenger::open(const sim::Packet& packet) {
  if (packet.dst != identity_) return std::nullopt;
  if (packet.payload.size() < kAuthOverhead) return std::nullopt;

  const std::size_t payload_size = packet.payload.size() - kAuthOverhead;
  const std::span<const std::uint8_t> payload = std::span(packet.payload).first(payload_size);
  util::ByteReader tail(std::span(packet.payload).subspan(payload_size));
  const auto nonce = tail.u64();
  const auto mac = tail.bytes_view(crypto::kShortMacSize);
  if (!nonce || !mac) return std::nullopt;

  const crypto::PairKeyCache::Entry& entry = key_cache_.get(packet.src);
  if (!entry.present()) return std::nullopt;
  crypto::Sha256 inner = entry.mac.inner_context();
  mac_absorb(inner, packet.src, identity_, packet.type, payload, *nonce);
  const crypto::ShortMac expected = entry.mac.finish_short(std::move(inner));
  if (!util::constant_time_equal(expected, *mac)) return std::nullopt;

  if (!replay_accept(packet.src, *nonce)) {
    if (fault::planted_bug() == fault::PlantedBug::kReplayWindowBypass) {
      // Planted defect: the window said replay, deliver anyway (and count
      // nothing). The replay.never_accepted oracle must catch this.
      ++replay_accepts_;
      return payload;
    }
    // The packet authenticated but its counter is a duplicate or too old:
    // a replayed (or pathologically reordered) message. Charged as a typed
    // post-delivery drop so traces distinguish it from silent discard.
    ++replay_rejects_;
    network_.metrics().count_drop(obs::DropCause::kReplay);
    obs::Tracer& tracer = network_.tracer();
    if (tracer.active()) {
      tracer.emit(obs::Event{.kind = obs::EventKind::kDrop,
                             .code = static_cast<std::uint8_t>(obs::DropCause::kReplay),
                             .node = identity_,
                             .peer = packet.src,
                             .bytes = static_cast<std::uint32_t>(packet.wire_bytes()),
                             .t_ns = network_.now().ns()});
    }
    return std::nullopt;
  }
  return payload;
}

bool Messenger::ReplayWindow::accept(std::uint64_t counter) {
  if (!any) {
    any = true;
    highest = counter;
    mask = 1;
    return true;
  }
  if (counter > highest) {
    const std::uint64_t advance = counter - highest;
    mask = advance >= kReplayWindow ? 0 : mask << advance;
    mask |= 1;
    highest = counter;
    return true;
  }
  const std::uint64_t age = highest - counter;
  if (age >= kReplayWindow) return false;  // too old to distinguish from replay
  const std::uint64_t bit = std::uint64_t{1} << age;
  if ((mask & bit) != 0) return false;  // replay
  mask |= bit;
  return true;
}

bool Messenger::replay_accept(NodeId src, std::uint64_t nonce) {
  const std::uint32_t sender_device = static_cast<std::uint32_t>(nonce >> 32);
  const std::uint64_t counter = nonce & 0xffffffffULL;
  const std::uint64_t key = (static_cast<std::uint64_t>(src) << 32) | sender_device;
  return replay_windows_.get_or_insert(key).accept(counter);
}

}  // namespace snd::core
