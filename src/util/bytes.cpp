#include "util/bytes.h"

#include <array>

namespace snd::util {

namespace {
constexpr char kHexDigits[] = "0123456789abcdef";

int hex_value(char c) {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  if (c >= 'A' && c <= 'F') return c - 'A' + 10;
  return -1;
}
}  // namespace

std::string to_hex(std::span<const std::uint8_t> data) {
  std::string out;
  out.reserve(data.size() * 2);
  for (std::uint8_t b : data) {
    out.push_back(kHexDigits[b >> 4]);
    out.push_back(kHexDigits[b & 0x0f]);
  }
  return out;
}

std::optional<Bytes> from_hex(std::string_view hex) {
  if (hex.size() % 2 != 0) return std::nullopt;
  Bytes out;
  out.reserve(hex.size() / 2);
  for (std::size_t i = 0; i < hex.size(); i += 2) {
    const int hi = hex_value(hex[i]);
    const int lo = hex_value(hex[i + 1]);
    if (hi < 0 || lo < 0) return std::nullopt;
    out.push_back(static_cast<std::uint8_t>(hi << 4 | lo));
  }
  return out;
}

void put_u8(Bytes& out, std::uint8_t v) { out.push_back(v); }

void put_u16(Bytes& out, std::uint16_t v) {
  out.push_back(static_cast<std::uint8_t>(v >> 8));
  out.push_back(static_cast<std::uint8_t>(v));
}

void put_u32(Bytes& out, std::uint32_t v) {
  for (int shift = 24; shift >= 0; shift -= 8) {
    out.push_back(static_cast<std::uint8_t>(v >> shift));
  }
}

void put_u64(Bytes& out, std::uint64_t v) {
  for (int shift = 56; shift >= 0; shift -= 8) {
    out.push_back(static_cast<std::uint8_t>(v >> shift));
  }
}

void put_bytes(Bytes& out, std::span<const std::uint8_t> data) {
  out.insert(out.end(), data.begin(), data.end());
}

void put_var_bytes(Bytes& out, std::span<const std::uint8_t> data) {
  put_u16(out, static_cast<std::uint16_t>(data.size()));
  put_bytes(out, data);
}

void put_varint(Bytes& out, std::uint64_t v) {
  while (v >= 0x80) {
    out.push_back(static_cast<std::uint8_t>(v) | 0x80);
    v >>= 7;
  }
  out.push_back(static_cast<std::uint8_t>(v));
}

std::optional<std::uint64_t> ByteReader::varint() {
  std::uint64_t v = 0;
  for (int shift = 0; shift < 64; shift += 7) {
    const auto byte = u8();
    if (!byte) return std::nullopt;
    // The 10th group holds the top single bit of a 64-bit value; anything
    // above it would silently truncate, so reject it as malformed.
    if (shift == 63 && (*byte & 0xfe) != 0) {
      ok_ = false;
      return std::nullopt;
    }
    v |= static_cast<std::uint64_t>(*byte & 0x7f) << shift;
    if ((*byte & 0x80) == 0) return v;
  }
  ok_ = false;
  return std::nullopt;
}

std::optional<Bytes> ByteReader::bytes(std::size_t n) {
  if (!take(n)) return std::nullopt;
  Bytes out(data_.begin() + static_cast<std::ptrdiff_t>(pos_),
            data_.begin() + static_cast<std::ptrdiff_t>(pos_ + n));
  pos_ += n;
  return out;
}

std::optional<Bytes> ByteReader::var_bytes() {
  const auto len = u16();
  if (!len) return std::nullopt;
  return bytes(*len);
}

std::optional<std::span<const std::uint8_t>> ByteReader::bytes_view(std::size_t n) {
  if (!take(n)) return std::nullopt;
  const auto view = data_.subspan(pos_, n);
  pos_ += n;
  return view;
}

std::optional<std::span<const std::uint8_t>> ByteReader::var_bytes_view() {
  const auto len = u16();
  if (!len) return std::nullopt;
  return bytes_view(*len);
}

bool constant_time_equal(std::span<const std::uint8_t> a, std::span<const std::uint8_t> b) {
  if (a.size() != b.size()) return false;
  std::uint8_t acc = 0;
  for (std::size_t i = 0; i < a.size(); ++i) acc |= static_cast<std::uint8_t>(a[i] ^ b[i]);
  return acc == 0;
}

}  // namespace snd::util
