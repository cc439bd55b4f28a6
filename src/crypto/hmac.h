// HMAC-SHA256 (RFC 2104) and a short truncated-MAC helper sized for sensor
// network packets (TinySec-style 8-byte MACs).
#pragma once

#include <cstdint>
#include <span>

#include "crypto/key.h"
#include "crypto/sha256.h"
#include "util/bytes.h"

namespace snd::crypto {

/// Full 32-byte HMAC-SHA256 tag.
Digest hmac_sha256(const SymmetricKey& key, std::span<const std::uint8_t> message);
Digest hmac_sha256(const SymmetricKey& key, std::string_view message);

inline constexpr std::size_t kShortMacSize = 8;
using ShortMac = std::array<std::uint8_t, kShortMacSize>;

/// Truncated MAC for byte-budgeted sensor packets.
ShortMac short_mac(const SymmetricKey& key, std::span<const std::uint8_t> message);
/// Constant-time verification.
bool verify_short_mac(const SymmetricKey& key, std::span<const std::uint8_t> message,
                      std::span<const std::uint8_t> mac);

/// Precomputed HMAC key: the ipad and opad blocks are hashed once at
/// construction, and only the two 32-byte chaining values they leave are
/// kept (a pad is exactly one block, so nothing else of either context is
/// live). Each MAC afterwards resumes from them through Sha256::resume
/// instead of re-deriving and re-compressing the pads; for the protocol's
/// short messages that halves the compression calls per tag. The raw key is
/// not kept. Tags are bit-identical to hmac_sha256() by construction: both
/// paths feed the same byte sequence through the same compressions.
class HmacKey {
 public:
  /// Absent key; mac() must not be called until assigned from a real key.
  HmacKey() = default;
  explicit HmacKey(const SymmetricKey& key);

  [[nodiscard]] bool present() const { return present_; }

  [[nodiscard]] Digest mac(std::span<const std::uint8_t> message) const;
  [[nodiscard]] ShortMac short_mac(std::span<const std::uint8_t> message) const;
  [[nodiscard]] bool verify_short_mac(std::span<const std::uint8_t> message,
                                      std::span<const std::uint8_t> mac) const;

  /// Streaming interface: take the inner context, update() it with the
  /// message fields directly (no intermediate buffer), then finish().
  [[nodiscard]] Sha256 inner_context() const { return Sha256::resume(inner_, kPadBytes); }
  [[nodiscard]] Digest finish(Sha256&& inner) const;
  [[nodiscard]] ShortMac finish_short(Sha256&& inner) const;
  /// Outer context for the batched engine (crypto::HashBatch): a batched
  /// MAC drains the inner contexts wide, then the outer contexts over the
  /// inner digests -- the same byte flow as finish(), in two phases.
  [[nodiscard]] Sha256 outer_context() const { return Sha256::resume(outer_, kPadBytes); }

 private:
  /// One SHA-256 block: the key zero-padded and XORed with a pad byte.
  static constexpr std::uint64_t kPadBytes = 64;

  std::array<std::uint32_t, 8> inner_{};  // chaining value after key ^ ipad
  std::array<std::uint32_t, 8> outer_{};  // chaining value after key ^ opad
  bool present_ = false;
};

}  // namespace snd::crypto
