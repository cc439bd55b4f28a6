#include "crypto/hmac.h"

#include <array>
#include <cstring>

namespace snd::crypto {

namespace {
constexpr std::size_t kBlockSize = 64;

struct Pads {
  std::array<std::uint8_t, kBlockSize> ipad;
  std::array<std::uint8_t, kBlockSize> opad;
};

Pads make_pads(const SymmetricKey& key) {
  // Keys are at most kKeySize (32) < kBlockSize, so no pre-hash step needed.
  std::array<std::uint8_t, kBlockSize> padded{};
  const auto material = key.material();
  std::memcpy(padded.data(), material.data(), material.size());

  Pads pads;
  for (std::size_t i = 0; i < kBlockSize; ++i) {
    pads.ipad[i] = static_cast<std::uint8_t>(padded[i] ^ 0x36);
    pads.opad[i] = static_cast<std::uint8_t>(padded[i] ^ 0x5c);
  }
  return pads;
}
}  // namespace

Digest hmac_sha256(const SymmetricKey& key, std::span<const std::uint8_t> message) {
  const Pads pads = make_pads(key);
  const Digest inner = Sha256().update(pads.ipad).update(message).finalize();
  return Sha256().update(pads.opad).update(inner.bytes).finalize();
}

Digest hmac_sha256(const SymmetricKey& key, std::string_view message) {
  return hmac_sha256(
      key, std::span(reinterpret_cast<const std::uint8_t*>(message.data()), message.size()));
}

ShortMac short_mac(const SymmetricKey& key, std::span<const std::uint8_t> message) {
  const Digest full = hmac_sha256(key, message);
  ShortMac mac;
  std::memcpy(mac.data(), full.bytes.data(), mac.size());
  return mac;
}

bool verify_short_mac(const SymmetricKey& key, std::span<const std::uint8_t> message,
                      std::span<const std::uint8_t> mac) {
  const ShortMac expected = short_mac(key, message);
  return util::constant_time_equal(expected, mac);
}

HmacKey::HmacKey(const SymmetricKey& key) {
  if (!key.present()) return;
  const Pads pads = make_pads(key);
  inner_ = Sha256().update(pads.ipad).midstate().state;
  outer_ = Sha256().update(pads.opad).midstate().state;
  present_ = true;
}

Digest HmacKey::mac(std::span<const std::uint8_t> message) const {
  Sha256 inner = inner_context();
  inner.update(message);
  return finish(std::move(inner));
}

ShortMac HmacKey::short_mac(std::span<const std::uint8_t> message) const {
  const Digest full = mac(message);
  ShortMac tag;
  std::memcpy(tag.data(), full.bytes.data(), tag.size());
  return tag;
}

bool HmacKey::verify_short_mac(std::span<const std::uint8_t> message,
                               std::span<const std::uint8_t> mac) const {
  const ShortMac expected = short_mac(message);
  return util::constant_time_equal(expected, mac);
}

Digest HmacKey::finish(Sha256&& inner) const {
  const Digest inner_digest = inner.finalize();
  return outer_context().update(inner_digest.bytes).finalize();
}

ShortMac HmacKey::finish_short(Sha256&& inner) const {
  const Digest full = finish(std::move(inner));
  ShortMac tag;
  std::memcpy(tag.data(), full.bytes.data(), tag.size());
  return tag;
}

}  // namespace snd::crypto
