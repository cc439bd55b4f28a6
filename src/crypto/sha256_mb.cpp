#include "crypto/sha256_mb.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstring>
#include <numeric>

#include "util/simd.h"

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#define SND_SHA256_MB_X86 1
#else
#define SND_SHA256_MB_X86 0
#endif

namespace snd::crypto {

namespace {

using util::load_u32_be;
using util::store_u32_be;

/// Widest lane count any kernel uses; transposed state rows are padded to
/// this stride so every kernel shares one layout.
constexpr int kMaxWidth = 8;

/// One job's block stream: the full 64-byte blocks of its data buffer
/// followed by 1-2 padding blocks materialized in `pad` (FIPS 180-4: 0x80,
/// zeros, 64-bit bit length of the whole message including the midstate's
/// processed prefix).
struct Lane {
  std::size_t job = 0;
  const std::uint8_t* data = nullptr;
  std::size_t full_blocks = 0;
  std::array<std::uint8_t, 128> pad{};
  std::size_t pad_blocks = 0;
  std::size_t next = 0;

  [[nodiscard]] std::size_t total_blocks() const { return full_blocks + pad_blocks; }
  [[nodiscard]] const std::uint8_t* block(std::size_t i) const {
    return i < full_blocks ? data + 64 * i : pad.data() + 64 * (i - full_blocks);
  }
};

void build_lane(Lane& lane, std::size_t job, std::span<const std::uint8_t> data,
                std::uint64_t absorbed) {
  lane.job = job;
  lane.data = data.data();
  lane.full_blocks = data.size() / 64;
  lane.next = 0;
  const std::size_t rem = data.size() % 64;
  lane.pad.fill(0);
  if (rem > 0) std::memcpy(lane.pad.data(), data.data() + 64 * lane.full_blocks, rem);
  lane.pad[rem] = 0x80;
  const std::size_t pad_len = rem + 9 <= 64 ? 64 : 128;
  lane.pad_blocks = pad_len / 64;
  const std::uint64_t bit_length = (absorbed + data.size()) * 8;
  for (int i = 0; i < 8; ++i) {
    lane.pad[pad_len - 8 + static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>(bit_length >> (8 * (7 - i)));
  }
}

// ---- Portable W-lane kernel ----------------------------------------------
// Identical 32-bit arithmetic to detail::sha256_compress, applied lane by
// lane; the compiler is free to vectorize the inner loops (SWAR-style), and
// on targets without SSE2/AVX2 this is the dispatch floor.
void compress_lanes_generic(std::uint32_t state[8][kMaxWidth],
                            const std::uint8_t* const blocks[kMaxWidth], int lanes) {
  std::uint32_t w[64][kMaxWidth];
  for (int i = 0; i < 16; ++i) {
    for (int l = 0; l < lanes; ++l) w[i][l] = load_u32_be(blocks[l] + 4 * i);
  }
  for (int i = 16; i < 64; ++i) {
    for (int l = 0; l < lanes; ++l) {
      const std::uint32_t x15 = w[i - 15][l];
      const std::uint32_t x2 = w[i - 2][l];
      const std::uint32_t s0 = std::rotr(x15, 7) ^ std::rotr(x15, 18) ^ (x15 >> 3);
      const std::uint32_t s1 = std::rotr(x2, 17) ^ std::rotr(x2, 19) ^ (x2 >> 10);
      w[i][l] = w[i - 16][l] + s0 + w[i - 7][l] + s1;
    }
  }
  std::uint32_t v[8][kMaxWidth];
  for (int r = 0; r < 8; ++r) {
    for (int l = 0; l < lanes; ++l) v[r][l] = state[r][l];
  }
  for (int i = 0; i < 64; ++i) {
    for (int l = 0; l < lanes; ++l) {
      const std::uint32_t a = v[0][l];
      const std::uint32_t e = v[4][l];
      const std::uint32_t s1 = std::rotr(e, 6) ^ std::rotr(e, 11) ^ std::rotr(e, 25);
      const std::uint32_t ch = (e & v[5][l]) ^ (~e & v[6][l]);
      const std::uint32_t t1 = v[7][l] + s1 + ch + detail::kRoundConstants[static_cast<std::size_t>(i)] + w[i][l];
      const std::uint32_t s0 = std::rotr(a, 2) ^ std::rotr(a, 13) ^ std::rotr(a, 22);
      const std::uint32_t maj = (a & v[1][l]) ^ (a & v[2][l]) ^ (v[1][l] & v[2][l]);
      const std::uint32_t t2 = s0 + maj;
      v[7][l] = v[6][l];
      v[6][l] = v[5][l];
      v[5][l] = e;
      v[4][l] = v[3][l] + t1;
      v[3][l] = v[2][l];
      v[2][l] = v[1][l];
      v[1][l] = a;
      v[0][l] = t1 + t2;
    }
  }
  for (int r = 0; r < 8; ++r) {
    for (int l = 0; l < lanes; ++l) state[r][l] += v[r][l];
  }
}

#if SND_SHA256_MB_X86

// ---- SSSE3 x4 ------------------------------------------------------------
// Wide integer adds are mod-2^32 exactly like the scalar code, so lanes are
// bit-identical by construction. Per-function target attributes keep the
// rest of the library buildable without -msse2/-mavx2 globally.

__attribute__((target("sse2"))) inline __m128i rotr32_sse2(__m128i v, int n) {
  return _mm_or_si128(_mm_srli_epi32(v, n), _mm_slli_epi32(v, 32 - n));
}

/// SSSE3 loader: 4x4 u32 transposes (unpack) plus pshufb byte swaps load the
/// four lanes' message words, the same w[] values bit for bit as 64 scalar
/// big-endian loads; the rounds themselves need only SSE2. Every x86-64 CPU
/// since Core 2 / Bulldozer has SSSE3; an SSE2-tier CPU without it runs the
/// portable 4-lane kernel instead.
__attribute__((target("ssse3"))) void compress_lanes_ssse3(
    std::uint32_t state[8][kMaxWidth], const std::uint8_t* const blocks[kMaxWidth]) {
  const __m128i bswap =
      _mm_setr_epi8(3, 2, 1, 0, 7, 6, 5, 4, 11, 10, 9, 8, 15, 14, 13, 12);
  __m128i w[64];
  for (int g = 0; g < 4; ++g) {
    const __m128i q0 =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(blocks[0] + 16 * g));
    const __m128i q1 =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(blocks[1] + 16 * g));
    const __m128i q2 =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(blocks[2] + 16 * g));
    const __m128i q3 =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(blocks[3] + 16 * g));
    const __m128i t0 = _mm_unpacklo_epi32(q0, q1);
    const __m128i t1 = _mm_unpackhi_epi32(q0, q1);
    const __m128i t2 = _mm_unpacklo_epi32(q2, q3);
    const __m128i t3 = _mm_unpackhi_epi32(q2, q3);
    w[4 * g + 0] = _mm_shuffle_epi8(_mm_unpacklo_epi64(t0, t2), bswap);
    w[4 * g + 1] = _mm_shuffle_epi8(_mm_unpackhi_epi64(t0, t2), bswap);
    w[4 * g + 2] = _mm_shuffle_epi8(_mm_unpacklo_epi64(t1, t3), bswap);
    w[4 * g + 3] = _mm_shuffle_epi8(_mm_unpackhi_epi64(t1, t3), bswap);
  }
  for (int i = 16; i < 64; ++i) {
    const __m128i x15 = w[i - 15];
    const __m128i x2 = w[i - 2];
    const __m128i s0 = _mm_xor_si128(
        _mm_xor_si128(rotr32_sse2(x15, 7), rotr32_sse2(x15, 18)), _mm_srli_epi32(x15, 3));
    const __m128i s1 = _mm_xor_si128(
        _mm_xor_si128(rotr32_sse2(x2, 17), rotr32_sse2(x2, 19)), _mm_srli_epi32(x2, 10));
    w[i] = _mm_add_epi32(_mm_add_epi32(w[i - 16], s0), _mm_add_epi32(w[i - 7], s1));
  }
  __m128i v[8];
  for (int r = 0; r < 8; ++r) {
    v[r] = _mm_loadu_si128(reinterpret_cast<const __m128i*>(state[r]));
  }
#pragma GCC unroll 8
  for (int i = 0; i < 64; ++i) {
    const __m128i a = v[0];
    const __m128i e = v[4];
    const __m128i s1 = _mm_xor_si128(
        _mm_xor_si128(rotr32_sse2(e, 6), rotr32_sse2(e, 11)), rotr32_sse2(e, 25));
    const __m128i ch = _mm_xor_si128(_mm_and_si128(e, v[5]), _mm_andnot_si128(e, v[6]));
    const __m128i k =
        _mm_set1_epi32(static_cast<int>(detail::kRoundConstants[static_cast<std::size_t>(i)]));
    const __m128i t1 = _mm_add_epi32(_mm_add_epi32(_mm_add_epi32(v[7], s1), _mm_add_epi32(ch, k)),
                                     w[i]);
    const __m128i s0 = _mm_xor_si128(
        _mm_xor_si128(rotr32_sse2(a, 2), rotr32_sse2(a, 13)), rotr32_sse2(a, 22));
    const __m128i maj = _mm_xor_si128(
        _mm_xor_si128(_mm_and_si128(a, v[1]), _mm_and_si128(a, v[2])), _mm_and_si128(v[1], v[2]));
    const __m128i t2 = _mm_add_epi32(s0, maj);
    v[7] = v[6];
    v[6] = v[5];
    v[5] = e;
    v[4] = _mm_add_epi32(v[3], t1);
    v[3] = v[2];
    v[2] = v[1];
    v[1] = a;
    v[0] = _mm_add_epi32(t1, t2);
  }
  for (int r = 0; r < 8; ++r) {
    const __m128i sum =
        _mm_add_epi32(_mm_loadu_si128(reinterpret_cast<const __m128i*>(state[r])), v[r]);
    _mm_storeu_si128(reinterpret_cast<__m128i*>(state[r]), sum);
  }
}

[[nodiscard]] bool ssse3_supported() {
  static const bool supported = __builtin_cpu_supports("ssse3");
  return supported;
}

// ---- AVX2 x8 -------------------------------------------------------------

__attribute__((target("avx2"))) inline __m256i rotr32_avx2(__m256i v, int n) {
  return _mm256_or_si256(_mm256_srli_epi32(v, n), _mm256_slli_epi32(v, 32 - n));
}

/// AVX2 loader: 8x8 u32 transpose (unpack32 / unpack64 / 128-bit permute)
/// plus vpshufb byte swaps, run once per 32-byte half of the block. Replaces
/// 128 scalar big-endian loads per block with 16 loads and 64 shuffles.
__attribute__((target("avx2"))) void compress_lanes_avx2(
    std::uint32_t state[8][kMaxWidth], const std::uint8_t* const blocks[kMaxWidth]) {
  const __m256i bswap = _mm256_broadcastsi128_si256(
      _mm_setr_epi8(3, 2, 1, 0, 7, 6, 5, 4, 11, 10, 9, 8, 15, 14, 13, 12));
  __m256i w[64];
  for (int half = 0; half < 2; ++half) {
    __m256i r[8];
    for (int l = 0; l < 8; ++l) {
      r[l] = _mm256_loadu_si256(
          reinterpret_cast<const __m256i*>(blocks[l] + 32 * half));
    }
    __m256i t[8];
    for (int p = 0; p < 4; ++p) {
      t[2 * p] = _mm256_unpacklo_epi32(r[2 * p], r[2 * p + 1]);
      t[2 * p + 1] = _mm256_unpackhi_epi32(r[2 * p], r[2 * p + 1]);
    }
    __m256i u[8];
    u[0] = _mm256_unpacklo_epi64(t[0], t[2]);
    u[1] = _mm256_unpackhi_epi64(t[0], t[2]);
    u[2] = _mm256_unpacklo_epi64(t[1], t[3]);
    u[3] = _mm256_unpackhi_epi64(t[1], t[3]);
    u[4] = _mm256_unpacklo_epi64(t[4], t[6]);
    u[5] = _mm256_unpackhi_epi64(t[4], t[6]);
    u[6] = _mm256_unpacklo_epi64(t[5], t[7]);
    u[7] = _mm256_unpackhi_epi64(t[5], t[7]);
    for (int i = 0; i < 4; ++i) {
      w[8 * half + i] =
          _mm256_shuffle_epi8(_mm256_permute2x128_si256(u[i], u[i + 4], 0x20), bswap);
      w[8 * half + i + 4] =
          _mm256_shuffle_epi8(_mm256_permute2x128_si256(u[i], u[i + 4], 0x31), bswap);
    }
  }
  for (int i = 16; i < 64; ++i) {
    const __m256i x15 = w[i - 15];
    const __m256i x2 = w[i - 2];
    const __m256i s0 = _mm256_xor_si256(
        _mm256_xor_si256(rotr32_avx2(x15, 7), rotr32_avx2(x15, 18)), _mm256_srli_epi32(x15, 3));
    const __m256i s1 = _mm256_xor_si256(
        _mm256_xor_si256(rotr32_avx2(x2, 17), rotr32_avx2(x2, 19)), _mm256_srli_epi32(x2, 10));
    w[i] = _mm256_add_epi32(_mm256_add_epi32(w[i - 16], s0), _mm256_add_epi32(w[i - 7], s1));
  }
  __m256i v[8];
  for (int r = 0; r < 8; ++r) {
    v[r] = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(state[r]));
  }
#pragma GCC unroll 8
  for (int i = 0; i < 64; ++i) {
    const __m256i a = v[0];
    const __m256i e = v[4];
    const __m256i s1 = _mm256_xor_si256(
        _mm256_xor_si256(rotr32_avx2(e, 6), rotr32_avx2(e, 11)), rotr32_avx2(e, 25));
    const __m256i ch =
        _mm256_xor_si256(_mm256_and_si256(e, v[5]), _mm256_andnot_si256(e, v[6]));
    const __m256i k = _mm256_set1_epi32(
        static_cast<int>(detail::kRoundConstants[static_cast<std::size_t>(i)]));
    const __m256i t1 = _mm256_add_epi32(
        _mm256_add_epi32(_mm256_add_epi32(v[7], s1), _mm256_add_epi32(ch, k)), w[i]);
    const __m256i s0 = _mm256_xor_si256(
        _mm256_xor_si256(rotr32_avx2(a, 2), rotr32_avx2(a, 13)), rotr32_avx2(a, 22));
    const __m256i maj =
        _mm256_xor_si256(_mm256_xor_si256(_mm256_and_si256(a, v[1]), _mm256_and_si256(a, v[2])),
                         _mm256_and_si256(v[1], v[2]));
    const __m256i t2 = _mm256_add_epi32(s0, maj);
    v[7] = v[6];
    v[6] = v[5];
    v[5] = e;
    v[4] = _mm256_add_epi32(v[3], t1);
    v[3] = v[2];
    v[2] = v[1];
    v[1] = a;
    v[0] = _mm256_add_epi32(t1, t2);
  }
  for (int r = 0; r < 8; ++r) {
    const __m256i sum =
        _mm256_add_epi32(_mm256_loadu_si256(reinterpret_cast<const __m256i*>(state[r])), v[r]);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(state[r]), sum);
  }
}

#endif  // SND_SHA256_MB_X86

}  // namespace

HashBatch::JobState& HashBatch::start_job() {
  assert(!ran_);
  if (live_ == jobs_.size()) jobs_.emplace_back();
  JobState& job = jobs_[live_++];
  job.data.clear();
  return job;
}

HashBatch::Job HashBatch::add() {
  JobState& job = start_job();
  job.state = detail::kInitialState;
  job.absorbed = 0;
  return Job(this, live_ - 1);
}

HashBatch::Job HashBatch::add(const Sha256& base) {
  JobState& job = start_job();
  const Sha256::Midstate m = base.midstate();
  job.state = m.state;
  // The sub-block tail moves into the data buffer, so `absorbed` (the
  // already-compressed prefix) is always a multiple of 64 and block
  // boundaries land at data offsets 0 mod 64.
  job.absorbed = m.total_bytes - m.tail_len;
  job.data.assign(m.tail.begin(), m.tail.begin() + static_cast<std::ptrdiff_t>(m.tail_len));
  return Job(this, live_ - 1);
}

HashBatch::Job& HashBatch::Job::update(std::span<const std::uint8_t> data) {
  if (!data.empty()) {
    util::Bytes& out = batch_->jobs_[index_].data;
    out.insert(out.end(), data.begin(), data.end());
  }
  return *this;
}

HashBatch::Job& HashBatch::Job::update(std::string_view text) {
  return update(std::span(reinterpret_cast<const std::uint8_t*>(text.data()), text.size()));
}

HashBatch::Job& HashBatch::Job::update_framed(std::span<const std::uint8_t> data) {
  std::array<std::uint8_t, 4> len;
  store_u32_be(len.data(), static_cast<std::uint32_t>(data.size()));
  update(len);
  return update(data);
}

HashBatch::Job& HashBatch::Job::update_framed(std::string_view text) {
  return update_framed(std::span(reinterpret_cast<const std::uint8_t*>(text.data()), text.size()));
}

HashBatch::Job& HashBatch::Job::update_u64(std::uint64_t v) {
  std::array<std::uint8_t, 8> buf;
  for (int i = 7; i >= 0; --i) {
    buf[static_cast<std::size_t>(i)] = static_cast<std::uint8_t>(v);
    v >>= 8;
  }
  return update(buf);
}

void HashBatch::run() {
  assert(!ran_);
  ran_ = true;
  const util::SimdTier tier = util::active_simd_tier();
#if SND_SHA256_MB_X86
  const int width = tier == util::SimdTier::kAvx2 ? 8 : 4;
#else
  const int width = 4;
#endif

  // Scheduling scratch, reused across drains (ingest loops drain thousands
  // of batches; re-allocating 256 lanes per drain showed up in profiles).
  static thread_local std::vector<Lane> lanes;
  static thread_local std::vector<std::size_t> active;
  lanes.resize(live_);
  for (std::size_t i = 0; i < live_; ++i) {
    build_lane(lanes[i], i, jobs_[i].data, jobs_[i].absorbed);
  }
  active.resize(live_);
  std::iota(active.begin(), active.end(), std::size_t{0});

  std::uint32_t st[8][kMaxWidth];
  const std::uint8_t* blocks[kMaxWidth];

  // A group is the first min(width, active) lanes; it runs as many blocks
  // as its shortest member has left, so the state transposes amortize over
  // the whole run (uniform batches -- the common case -- transpose once per
  // job, not once per block). Exhausted lanes then retire, and when only
  // one remains (or the batch held a single job) it finishes on the shared
  // scalar compressor, so its digest and op count are exactly Sha256's.
  while (active.size() >= 2) {
    const int k = static_cast<int>(std::min<std::size_t>(static_cast<std::size_t>(width),
                                                         active.size()));
    std::size_t run = lanes[active[0]].total_blocks() - lanes[active[0]].next;
    for (int l = 0; l < k; ++l) {
      Lane& lane = lanes[active[static_cast<std::size_t>(l)]];
      run = std::min(run, lane.total_blocks() - lane.next);
      for (int r = 0; r < 8; ++r) st[r][l] = jobs_[lane.job].state[static_cast<std::size_t>(r)];
    }
    // Idle vector lanes replay the last real lane so every load is defined.
    for (int l = k; l < kMaxWidth; ++l) {
      for (int r = 0; r < 8; ++r) st[r][l] = st[r][k - 1];
    }

    for (std::size_t b = 0; b < run; ++b) {
      for (int l = 0; l < k; ++l) {
        Lane& lane = lanes[active[static_cast<std::size_t>(l)]];
        blocks[l] = lane.block(lane.next + b);
      }
      for (int l = k; l < kMaxWidth; ++l) blocks[l] = blocks[k - 1];

#if SND_SHA256_MB_X86
      if (width == 8) {
        compress_lanes_avx2(st, blocks);
      } else if (tier == util::SimdTier::kSse2 && ssse3_supported()) {
        compress_lanes_ssse3(st, blocks);
      } else {
        compress_lanes_generic(st, blocks, k);
      }
#else
      compress_lanes_generic(st, blocks, k);
#endif
    }
    detail::add_hash_ops(static_cast<std::uint64_t>(k) * run);

    for (int l = 0; l < k; ++l) {
      Lane& lane = lanes[active[static_cast<std::size_t>(l)]];
      for (int r = 0; r < 8; ++r) jobs_[lane.job].state[static_cast<std::size_t>(r)] = st[r][l];
      lane.next += run;
    }
    active.erase(std::remove_if(active.begin(), active.end(),
                                [&](std::size_t i) {
                                  return lanes[i].next == lanes[i].total_blocks();
                                }),
                 active.end());
  }

  if (active.size() == 1) {
    Lane& lane = lanes[active[0]];
    JobState& job = jobs_[lane.job];
    std::uint64_t n = 0;
    while (lane.next < lane.total_blocks()) {
      detail::sha256_compress(job.state, lane.block(lane.next));
      ++lane.next;
      ++n;
    }
    detail::add_hash_ops(n);
  }

  for (std::size_t i = 0; i < live_; ++i) {
    for (int r = 0; r < 8; ++r) {
      store_u32_be(jobs_[i].digest.bytes.data() + 4 * r,
                   jobs_[i].state[static_cast<std::size_t>(r)]);
    }
  }
}

const Digest& HashBatch::digest(std::size_t index) const {
  assert(ran_ && index < live_);
  return jobs_[index].digest;
}

void HashBatch::clear() {
  live_ = 0;
  ran_ = false;
}

}  // namespace snd::crypto
