#include "crypto/sha256.h"

#include <bit>
#include <cassert>
#include <cstring>

#include "util/simd.h"

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#endif

namespace snd::crypto {

namespace {

// Per-thread so parallel trial workers (--jobs > 1) never cross-contaminate
// each other's overhead accounting; each worker resets/reads around its own
// trial and folds the count into the trial result.
thread_local std::uint64_t t_hash_ops = 0;

using util::load_u32_be;
using util::store_u32_be;

#if defined(__x86_64__) || defined(__i386__)

/// One block through the SHA extension (sha256rnds2 / sha256msg1 /
/// sha256msg2). This is the same function computed by dedicated hardware, so
/// digests are bit-identical to the portable compressor and dispatch is
/// purely a speed decision. Round constants are loaded from
/// detail::kRoundConstants instead of being re-typed as vector literals so
/// the two compressors cannot drift apart.
__attribute__((target("sha,sse4.1,ssse3"))) void sha256_compress_shani(
    std::array<std::uint32_t, 8>& state, const std::uint8_t* block) {
  const __m128i bswap = _mm_set_epi64x(0x0c0d0e0f08090a0bLL, 0x0405060700010203LL);
  const auto* quads = reinterpret_cast<const __m128i*>(block);
  const auto* k = reinterpret_cast<const __m128i*>(detail::kRoundConstants.data());

  // Repack {a..d},{e..h} into the ABEF/CDGH register layout sha256rnds2 wants.
  __m128i tmp = _mm_loadu_si128(reinterpret_cast<const __m128i*>(state.data()));
  __m128i st1 = _mm_loadu_si128(reinterpret_cast<const __m128i*>(state.data() + 4));
  tmp = _mm_shuffle_epi32(tmp, 0xB1);
  st1 = _mm_shuffle_epi32(st1, 0x1B);
  __m128i st0 = _mm_alignr_epi8(tmp, st1, 8);
  st1 = _mm_blend_epi16(st1, tmp, 0xF0);
  const __m128i save0 = st0;
  const __m128i save1 = st1;

  __m128i m[4];
  for (int i = 0; i < 4; ++i) m[i] = _mm_shuffle_epi8(_mm_loadu_si128(quads + i), bswap);

  // Sixteen groups of four rounds; the message quads rotate through m[0..3]
  // with msg1/msg2 extending the schedule in place (constant trip count, so
  // the compiler unrolls this back into the canonical straight-line form).
  for (int g = 0; g < 16; ++g) {
    __m128i msg = _mm_add_epi32(m[g & 3], _mm_loadu_si128(k + g));
    st1 = _mm_sha256rnds2_epu32(st1, st0, msg);
    if (g >= 3 && g < 15) {
      const __m128i shifted = _mm_alignr_epi8(m[g & 3], m[(g + 3) & 3], 4);
      m[(g + 1) & 3] = _mm_sha256msg2_epu32(_mm_add_epi32(m[(g + 1) & 3], shifted), m[g & 3]);
    }
    msg = _mm_shuffle_epi32(msg, 0x0E);
    st0 = _mm_sha256rnds2_epu32(st0, st1, msg);
    if (g >= 1 && g < 13) m[(g + 3) & 3] = _mm_sha256msg1_epu32(m[(g + 3) & 3], m[g & 3]);
  }

  st0 = _mm_add_epi32(st0, save0);
  st1 = _mm_add_epi32(st1, save1);

  tmp = _mm_shuffle_epi32(st0, 0x1B);
  st1 = _mm_shuffle_epi32(st1, 0xB1);
  st0 = _mm_blend_epi16(tmp, st1, 0xF0);
  st1 = _mm_alignr_epi8(st1, tmp, 8);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state.data()), st0);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state.data() + 4), st1);
}

bool shani_supported() {
  static const bool ok = __builtin_cpu_supports("sha") != 0 &&
                         __builtin_cpu_supports("sse4.1") != 0 &&
                         __builtin_cpu_supports("ssse3") != 0;
  return ok;
}

#endif  // x86

}  // namespace

std::uint64_t Digest::prefix64() const {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v = v << 8 | bytes[static_cast<std::size_t>(i)];
  return v;
}

namespace detail {

void sha256_compress(std::array<std::uint32_t, 8>& state, const std::uint8_t* block) {
  // Single-stream hardware path for the traffic that cannot ride the
  // multi-buffer engine (receive-side HMAC verifies, one-off derivations).
  // A forced-scalar tier restores the portable loop below, which is also the
  // non-x86 and pre-SHA-NI path.
#if defined(__x86_64__) || defined(__i386__)
  if (shani_supported() && util::active_simd_tier() != util::SimdTier::kScalar) {
    sha256_compress_shani(state, block);
    return;
  }
#endif
  std::array<std::uint32_t, 64> w;
  for (int i = 0; i < 16; ++i) w[static_cast<std::size_t>(i)] = load_u32_be(block + 4 * i);
  for (std::size_t i = 16; i < 64; ++i) {
    const std::uint32_t s0 =
        std::rotr(w[i - 15], 7) ^ std::rotr(w[i - 15], 18) ^ (w[i - 15] >> 3);
    const std::uint32_t s1 =
        std::rotr(w[i - 2], 17) ^ std::rotr(w[i - 2], 19) ^ (w[i - 2] >> 10);
    w[i] = w[i - 16] + s0 + w[i - 7] + s1;
  }

  auto [a, b, c, d, e, f, g, h] = state;
  for (std::size_t i = 0; i < 64; ++i) {
    const std::uint32_t s1 = std::rotr(e, 6) ^ std::rotr(e, 11) ^ std::rotr(e, 25);
    const std::uint32_t ch = (e & f) ^ (~e & g);
    const std::uint32_t temp1 = h + s1 + ch + kRoundConstants[i] + w[i];
    const std::uint32_t s0 = std::rotr(a, 2) ^ std::rotr(a, 13) ^ std::rotr(a, 22);
    const std::uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
    const std::uint32_t temp2 = s0 + maj;
    h = g;
    g = f;
    f = e;
    e = d + temp1;
    d = c;
    c = b;
    b = a;
    a = temp1 + temp2;
  }

  state[0] += a;
  state[1] += b;
  state[2] += c;
  state[3] += d;
  state[4] += e;
  state[5] += f;
  state[6] += g;
  state[7] += h;
}

void add_hash_ops(std::uint64_t n) { t_hash_ops += n; }

}  // namespace detail

Sha256::Sha256() : state_(detail::kInitialState) {}

void Sha256::process_block(const std::uint8_t* block) {
  ++t_hash_ops;
  detail::sha256_compress(state_, block);
}

Sha256::Midstate Sha256::midstate() const {
  assert(!finalized_);
  Midstate m;
  m.state = state_;
  m.tail = buffer_;
  m.tail_len = buffered_;
  m.total_bytes = total_bytes_;
  return m;
}

Sha256 Sha256::resume(const Midstate& m) {
  Sha256 ctx;
  ctx.state_ = m.state;
  ctx.buffer_ = m.tail;
  ctx.buffered_ = m.tail_len;
  ctx.total_bytes_ = m.total_bytes;
  return ctx;
}

Sha256& Sha256::update(std::span<const std::uint8_t> data) {
  assert(!finalized_);
  if (data.empty()) return *this;  // empty spans may carry a null data()
  total_bytes_ += data.size();
  std::size_t offset = 0;
  if (buffered_ > 0) {
    const std::size_t take = std::min(data.size(), buffer_.size() - buffered_);
    std::memcpy(buffer_.data() + buffered_, data.data(), take);
    buffered_ += take;
    offset = take;
    if (buffered_ == buffer_.size()) {
      process_block(buffer_.data());
      buffered_ = 0;
    }
  }
  while (data.size() - offset >= 64) {
    process_block(data.data() + offset);
    offset += 64;
  }
  if (offset < data.size()) {
    std::memcpy(buffer_.data(), data.data() + offset, data.size() - offset);
    buffered_ = data.size() - offset;
  }
  return *this;
}

Sha256& Sha256::update(std::string_view text) {
  return update(std::span(reinterpret_cast<const std::uint8_t*>(text.data()), text.size()));
}

Sha256& Sha256::update_framed(std::span<const std::uint8_t> data) {
  std::array<std::uint8_t, 4> len;
  store_u32_be(len.data(), static_cast<std::uint32_t>(data.size()));
  update(len);
  return update(data);
}

Sha256& Sha256::update_framed(std::string_view text) {
  return update_framed(std::span(reinterpret_cast<const std::uint8_t*>(text.data()), text.size()));
}

Digest Sha256::finalize() {
  assert(!finalized_);
  const std::uint64_t bit_length = total_bytes_ * 8;
  // The 0x80 marker, zero run, and length field go through one update() as a
  // prebuilt trailer: the byte-at-a-time padding loop this replaces cost a
  // call per zero byte, which dominated finalize on the per-MAC hot path.
  // The absorbed byte sequence (and thus every block boundary) is unchanged.
  std::array<std::uint8_t, 72> trailer{};
  trailer[0] = 0x80;
  const std::size_t pad = (buffered_ < 56 ? 56 : 120) - buffered_;
  for (int i = 0; i < 8; ++i)
    trailer[pad + static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>(bit_length >> (8 * (7 - i)));
  update(std::span(trailer.data(), pad + 8));
  assert(buffered_ == 0);
  // Only now: the padding went through update(), which refuses a finalized
  // context.
  finalized_ = true;

  Digest out;
  for (int i = 0; i < 8; ++i) store_u32_be(out.bytes.data() + 4 * i, state_[static_cast<std::size_t>(i)]);
  return out;
}

Digest Sha256::hash(std::span<const std::uint8_t> data) { return Sha256().update(data).finalize(); }

Digest Sha256::hash(std::string_view text) { return Sha256().update(text).finalize(); }

std::uint64_t hash_op_count() { return t_hash_ops; }

void reset_hash_op_count() { t_hash_ops = 0; }

}  // namespace snd::crypto
