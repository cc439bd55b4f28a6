// Byte-buffer utilities: hex encoding, integer (de)serialization, and a
// bounds-checked reader used by all wire formats in the library.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace snd::util {

using Bytes = std::vector<std::uint8_t>;

/// Lowercase hex encoding of a byte span.
std::string to_hex(std::span<const std::uint8_t> data);

/// Decode a hex string; returns std::nullopt on odd length or bad digits.
std::optional<Bytes> from_hex(std::string_view hex);

/// Append big-endian fixed-width integers (wire formats are big-endian).
void put_u8(Bytes& out, std::uint8_t v);
void put_u16(Bytes& out, std::uint16_t v);
void put_u32(Bytes& out, std::uint32_t v);
void put_u64(Bytes& out, std::uint64_t v);
void put_bytes(Bytes& out, std::span<const std::uint8_t> data);
/// Length-prefixed (u16) byte string.
void put_var_bytes(Bytes& out, std::span<const std::uint8_t> data);

/// Append an unsigned LEB128 varint (7 value bits per byte, little-endian
/// groups, high bit = continuation). 1 byte for values < 128; at most 10
/// bytes for a full 64-bit value. The columnar shard format stores all its
/// event counts this way (docs/SHARDING.md).
void put_varint(Bytes& out, std::uint64_t v);

/// Sequential bounds-checked reader over an immutable byte span.
/// All getters return std::nullopt once the buffer is exhausted; after a
/// failed read the reader is poisoned and every further read fails, so
/// callers may check a single read at the end of a parse sequence.
class ByteReader {
 public:
  explicit ByteReader(std::span<const std::uint8_t> data) : data_(data) {}

  // The fixed-width getters live in the header: wire parsing runs once per
  // delivered packet copy (hundreds of millions of reads per sweep), and an
  // out-of-line call per field costs more than the read itself.
  std::optional<std::uint8_t> u8() {
    if (!take(1)) return std::nullopt;
    return data_[pos_++];
  }
  std::optional<std::uint16_t> u16() {
    if (!take(2)) return std::nullopt;
    const auto v = static_cast<std::uint16_t>(data_[pos_] << 8 | data_[pos_ + 1]);
    pos_ += 2;
    return v;
  }
  std::optional<std::uint32_t> u32() {
    if (!take(4)) return std::nullopt;
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) v = v << 8 | data_[pos_ + static_cast<std::size_t>(i)];
    pos_ += 4;
    return v;
  }
  std::optional<std::uint64_t> u64() {
    if (!take(8)) return std::nullopt;
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) v = v << 8 | data_[pos_ + static_cast<std::size_t>(i)];
    pos_ += 8;
    return v;
  }
  /// Unsigned LEB128 varint. Rejects encodings longer than 10 bytes and
  /// 10-byte encodings whose final group overflows 64 bits, so every value
  /// has exactly one accepted encoding length bound.
  std::optional<std::uint64_t> varint();
  /// Read exactly n raw bytes.
  std::optional<Bytes> bytes(std::size_t n);
  /// Read a u16 length prefix followed by that many bytes.
  std::optional<Bytes> var_bytes();
  /// Zero-copy variants: the returned span aliases the reader's underlying
  /// buffer and is valid only as long as that buffer is.
  std::optional<std::span<const std::uint8_t>> bytes_view(std::size_t n);
  std::optional<std::span<const std::uint8_t>> var_bytes_view();

  [[nodiscard]] std::size_t remaining() const { return ok_ ? data_.size() - pos_ : 0; }
  [[nodiscard]] bool exhausted() const { return remaining() == 0; }
  /// True iff no read has failed so far.
  [[nodiscard]] bool ok() const { return ok_; }

 private:
  bool take(std::size_t n) {
    if (!ok_ || data_.size() - pos_ < n) {
      ok_ = false;
      return false;
    }
    return true;
  }

  std::span<const std::uint8_t> data_;
  std::size_t pos_ = 0;
  bool ok_ = true;
};

/// Constant-time byte-span equality (length leak only). Used for MAC checks.
bool constant_time_equal(std::span<const std::uint8_t> a, std::span<const std::uint8_t> b);

}  // namespace snd::util
