// SHA-256 (FIPS 180-4), implemented from scratch so the library has no
// external crypto dependency. This is the one-way hash H(.) the paper's
// protocol is built on; all commitments, verification keys, and MACs reduce
// to it. A per-thread operation counter feeds the §4.3 overhead bench.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <string_view>

#include "util/bytes.h"

namespace snd::crypto {

inline constexpr std::size_t kDigestSize = 32;

/// A 256-bit hash value with value semantics.
struct Digest {
  std::array<std::uint8_t, kDigestSize> bytes{};

  friend bool operator==(const Digest&, const Digest&) = default;
  [[nodiscard]] std::span<const std::uint8_t> span() const { return bytes; }
  [[nodiscard]] std::string hex() const { return util::to_hex(bytes); }
  /// First 8 bytes as a big-endian integer, for hashing into containers.
  [[nodiscard]] std::uint64_t prefix64() const;
};

/// Incremental SHA-256 context.
class Sha256 {
 public:
  Sha256();

  Sha256& update(std::span<const std::uint8_t> data);
  Sha256& update(std::string_view text);
  /// Appends a single length-framed field: u32 length then the bytes.
  /// Framing makes multi-field hashes injective (no ambiguity between
  /// H(a|bc) and H(ab|c)), which the paper's commitments implicitly need.
  Sha256& update_framed(std::span<const std::uint8_t> data);
  Sha256& update_framed(std::string_view text);
  /// Appends a big-endian u64 field. Header-inline: id/counter fields are
  /// absorbed once per MAC on the hot path, so the encode is cheaper than an
  /// out-of-line call.
  Sha256& update_u64(std::uint64_t v) {
    std::array<std::uint8_t, 8> buf;
    for (int i = 7; i >= 0; --i) {
      buf[static_cast<std::size_t>(i)] = static_cast<std::uint8_t>(v);
      v >>= 8;
    }
    return update(buf);
  }

  /// Finalizes and returns the digest; the context must not be reused after.
  Digest finalize();

  /// One-shot convenience.
  static Digest hash(std::span<const std::uint8_t> data);
  static Digest hash(std::string_view text);

  /// Snapshot of a streaming context for the multi-buffer engine
  /// (crypto/sha256_mb): the chaining state after the blocks absorbed so
  /// far, plus the buffered sub-block tail.
  struct Midstate {
    std::array<std::uint32_t, 8> state{};
    std::array<std::uint8_t, 64> tail{};
    std::size_t tail_len = 0;
    /// Total bytes absorbed so far, tail included.
    std::uint64_t total_bytes = 0;
  };
  [[nodiscard]] Midstate midstate() const;
  /// Rebuilds a context from a snapshot; behaves exactly like the context
  /// midstate() was taken from (same digest, same compression count).
  static Sha256 resume(const Midstate& m);
  /// The same for a snapshot taken at a block boundary, which is all its
  /// chaining state: `total_bytes` (a multiple of 64) absorbed, nothing
  /// buffered. This is how HmacKey stores its pad midstates.
  static Sha256 resume(const std::array<std::uint32_t, 8>& chaining,
                       std::uint64_t total_bytes) {
    return Sha256(chaining, total_bytes);
  }

 private:
  Sha256(const std::array<std::uint32_t, 8>& chaining, std::uint64_t total_bytes)
      : state_(chaining), total_bytes_(total_bytes) {}

  void process_block(const std::uint8_t* block);

  std::array<std::uint32_t, 8> state_{};
  std::array<std::uint8_t, 64> buffer_{};
  std::size_t buffered_ = 0;
  std::uint64_t total_bytes_ = 0;
  bool finalized_ = false;
};

/// Number of SHA-256 compression-function invocations on the *calling
/// thread* since thread start or the last reset. Per-thread (plain
/// thread_local increment) so parallel trial workers account independently;
/// fold per trial where a cross-thread total is wanted.
std::uint64_t hash_op_count();
void reset_hash_op_count();

namespace detail {

/// One scalar compression-function application, shared between Sha256 and
/// the multi-buffer engine's single-lane tail so the two can never diverge.
/// Does NOT touch the per-thread op counter -- callers account explicitly
/// (Sha256 counts 1 per block, a W-lane wide pass counts W).
void sha256_compress(std::array<std::uint32_t, 8>& state, const std::uint8_t* block);

/// Op-counter hook for the wide engine.
void add_hash_ops(std::uint64_t n);

/// FIPS 180-4 round constants / initial state, shared with the wide kernels.
inline constexpr std::array<std::uint32_t, 64> kRoundConstants = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1,
    0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
    0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786,
    0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
    0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
    0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a,
    0x5b9cca4f, 0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
    0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2};

inline constexpr std::array<std::uint32_t, 8> kInitialState = {
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
    0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19};

}  // namespace detail

}  // namespace snd::crypto
