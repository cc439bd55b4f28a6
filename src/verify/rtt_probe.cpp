#include "verify/rtt_probe.h"

namespace snd::verify {

namespace {
constexpr obs::Phase kCategory = obs::Phase::kRtt;
constexpr double kSpeedOfLight = 299'792'458.0;  // m/s
constexpr std::size_t kChallengeBytes = 8;
constexpr std::size_t kResponseBytes = 8 + crypto::kShortMacSize;
}  // namespace

crypto::ShortMac rtt_response_mac(const crypto::HmacKey& pairwise, std::uint64_t nonce,
                                  NodeId responder) {
  util::Bytes input;
  util::put_var_bytes(input, util::Bytes{'s', 'n', 'd', '.', 'r', 't', 't'});
  util::put_u64(input, nonce);
  util::put_u32(input, responder);
  return pairwise.short_mac(input);
}

RttResponder::RttResponder(sim::Network& network, sim::DeviceId device, NodeId identity,
                           std::shared_ptr<crypto::KeyPredistribution> keys)
    : network_(network),
      device_(device),
      identity_(identity),
      key_cache_(std::move(keys), identity) {}

bool RttResponder::handle(const sim::Packet& packet) {
  if (packet.type != kRttChallengeType || packet.dst != identity_) return false;
  util::ByteReader reader(packet.payload);
  const auto nonce = reader.u64();
  if (!nonce || !reader.exhausted()) return true;  // consumed but malformed

  const crypto::PairKeyCache::Entry& entry = key_cache_.get(packet.src);
  if (!entry.key.present()) return true;  // cannot authenticate a response
  const crypto::ShortMac mac = rtt_response_mac(entry.mac, *nonce, identity_);

  // Respond after the declared fixed turnaround; the challenger subtracts
  // it from the measured round trip.
  util::Bytes payload;
  util::put_u64(payload, *nonce);
  util::put_bytes(payload, mac);
  const NodeId challenger = packet.src;
  network_.scheduler().schedule_at(
      network_.now() + kRttTurnaround, [this, challenger, payload = std::move(payload)]() {
        network_.transmit(device_,
                          sim::Packet{.src = identity_,
                                      .dst = challenger,
                                      .type = kRttResponseType,
                                      .payload = payload},
                          kCategory);
      });
  return true;
}

RttChallenger::RttChallenger(sim::Network& network, sim::DeviceId device, NodeId identity,
                             std::shared_ptr<crypto::KeyPredistribution> keys)
    : network_(network),
      device_(device),
      identity_(identity),
      key_cache_(std::move(keys), identity) {}

void RttChallenger::probe(NodeId target, sim::Time timeout, Callback done) {
  const std::uint64_t nonce = next_nonce_++;
  pending_.emplace(nonce, Pending{target, network_.now(), std::move(done)});

  util::Bytes payload;
  util::put_u64(payload, nonce);
  network_.transmit(
      device_,
      sim::Packet{
          .src = identity_, .dst = target, .type = kRttChallengeType, .payload = payload},
      kCategory);

  network_.scheduler().schedule_at(network_.now() + timeout, [this, nonce]() {
    const auto it = pending_.find(nonce);
    if (it == pending_.end() || it->second.finished) return;
    it->second.finished = true;
    it->second.done(std::nullopt);
    pending_.erase(it);
  });
}

bool RttChallenger::handle(const sim::Packet& packet) {
  if (packet.type != kRttResponseType || packet.dst != identity_) return false;
  util::ByteReader reader(packet.payload);
  const auto nonce = reader.u64();
  const auto mac = reader.bytes_view(crypto::kShortMacSize);
  if (!nonce || !mac || !reader.exhausted()) return true;

  const auto it = pending_.find(*nonce);
  if (it == pending_.end() || it->second.finished) return true;

  const crypto::PairKeyCache::Entry& entry = key_cache_.get(it->second.target);
  if (!entry.key.present() ||
      !util::constant_time_equal(rtt_response_mac(entry.mac, *nonce, it->second.target), *mac)) {
    return true;  // forged response: keep waiting for an authentic one
  }

  // Subtract every deterministic overhead; what is left is 2x propagation.
  const sim::Time rtt = network_.now() - it->second.sent_at;
  const sim::Time known =
      network_.transmission_time(kChallengeBytes + sim::Packet::kHeaderBytes) +
      network_.transmission_time(kResponseBytes + sim::Packet::kHeaderBytes) +
      kRttTurnaround + network_.channel_config().processing_delay +
      network_.channel_config().processing_delay;
  const double flight_ns = static_cast<double>((rtt - known).ns());
  const double distance = std::max(0.0, flight_ns * 1e-9 * kSpeedOfLight / 2.0);

  it->second.finished = true;
  it->second.done(distance);
  pending_.erase(it);
  return true;
}

}  // namespace snd::verify
