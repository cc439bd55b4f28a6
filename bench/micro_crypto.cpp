// Microbenchmarks of the cryptographic substrate (google-benchmark): the
// paper's efficiency argument is that the whole protocol costs "a few
// efficient one-way hash operations"; these benches put numbers on each
// primitive as implemented here.
//
// Besides the google-benchmark suite, main() always measures the
// authenticated Messenger send+open round trip (cached pairwise keys + HMAC
// midstates + zero-alloc wire handling) against a derive-per-call reference
// over the same radio, and writes the comparison as BENCH_micro_crypto.json
// into $SND_BENCH_DIR (default: the working directory), the per-PR perf
// artifact CI uploads.
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "core/binding_record.h"
#include "core/commitment.h"
#include "core/messenger.h"
#include "crypto/blundo.h"
#include "crypto/eg_pool.h"
#include "crypto/hmac.h"
#include "crypto/session_cache.h"
#include "crypto/sha256.h"
#include "util/file.h"
#include "util/runtime_config.h"
#include "util/simd.h"
#include "sim/network.h"

namespace {

using namespace snd;

void BM_Sha256(benchmark::State& state) {
  const util::Bytes data(static_cast<std::size_t>(state.range(0)), 0xab);
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::Sha256::hash(data));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * state.range(0));
}
BENCHMARK(BM_Sha256)->Arg(32)->Arg(256)->Arg(4096);

void BM_HmacSha256(benchmark::State& state) {
  const crypto::SymmetricKey key = crypto::SymmetricKey::from_seed(1);
  const util::Bytes data(static_cast<std::size_t>(state.range(0)), 0xcd);
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::hmac_sha256(key, data));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * state.range(0));
}
BENCHMARK(BM_HmacSha256)->Arg(32)->Arg(256);

void BM_VerificationKey(benchmark::State& state) {
  const crypto::SymmetricKey master = crypto::SymmetricKey::from_seed(2);
  NodeId node = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::verification_key(master, node++));
  }
}
BENCHMARK(BM_VerificationKey);

void BM_BindingCommitment(benchmark::State& state) {
  const crypto::SymmetricKey master = crypto::SymmetricKey::from_seed(3);
  topology::NeighborList neighbors;
  for (NodeId i = 0; i < static_cast<NodeId>(state.range(0)); ++i) neighbors.push_back(i);
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::binding_commitment(master, 1, 0, neighbors));
  }
}
BENCHMARK(BM_BindingCommitment)->Arg(10)->Arg(50)->Arg(150);

/// The tier that runs commitment derivation at lane width `width`. Width 1
/// pins kScalar, so one-at-a-time hashing runs the portable compressor and
/// never SHA-NI: the width series compares batching with one-at-a-time
/// portable hashing.
util::SimdTier tier_for_width(int width) {
  return width == 8   ? util::SimdTier::kAvx2
         : width == 4 ? util::SimdTier::kSse2
                      : util::SimdTier::kScalar;
}

/// Derives one binding commitment per spec: through the multi-buffer engine
/// at widths 4 and 8, one core::binding_commitment at a time at width 1.
/// The caller pins tier_for_width(width).
void derive_commitments(int width, const crypto::SymmetricKey& master,
                        std::span<const core::BindingSpec> specs,
                        std::span<crypto::Digest> out) {
  if (width > 1) {
    core::binding_commitments(master, specs, out);
    return;
  }
  for (std::size_t i = 0; i < specs.size(); ++i) {
    out[i] = core::binding_commitment(master, specs[i].node, specs[i].version,
                                      *specs[i].neighbors);
  }
}

/// Batched commitment derivation through the multi-buffer engine. Arg 0 is
/// the neighbor-list length, arg 1 the lane width (1 = one at a time on the
/// portable compressor, 4 = SSSE3, 8 = AVX2); unsupported widths are
/// skipped.
void BM_BindingCommitmentBatch(benchmark::State& state) {
  const int width = static_cast<int>(state.range(1));
  if (width == 4 && util::detected_simd_tier() < util::SimdTier::kSse2) {
    state.SkipWithError("SSE2 not available");
    return;
  }
  if (width == 8 && util::detected_simd_tier() < util::SimdTier::kAvx2) {
    state.SkipWithError("AVX2 not available");
    return;
  }
  util::set_forced_simd_tier(tier_for_width(width));

  constexpr std::size_t kBatch = 256;
  std::vector<topology::NeighborList> lists(kBatch);
  std::vector<core::BindingSpec> specs(kBatch);
  for (std::size_t i = 0; i < kBatch; ++i) {
    for (NodeId n = 0; n < static_cast<NodeId>(state.range(0)); ++n)
      lists[i].push_back(static_cast<NodeId>(i) + n);
    specs[i] = {static_cast<NodeId>(i + 1), 0, &lists[i]};
  }
  const crypto::SymmetricKey master = crypto::SymmetricKey::from_seed(12);
  std::vector<crypto::Digest> out(kBatch);
  for (auto _ : state) {
    derive_commitments(width, master, specs, out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * kBatch);
  util::set_forced_simd_tier(std::nullopt);
}
BENCHMARK(BM_BindingCommitmentBatch)
    ->Args({50, 1})
    ->Args({50, 4})
    ->Args({50, 8});

void BM_BindingRecordVerify(benchmark::State& state) {
  const crypto::SymmetricKey master = crypto::SymmetricKey::from_seed(4);
  topology::NeighborList neighbors;
  for (NodeId i = 0; i < static_cast<NodeId>(state.range(0)); ++i) neighbors.push_back(i);
  const core::BindingRecord record = core::BindingRecord::make(master, 1, 0, neighbors);
  for (auto _ : state) {
    benchmark::DoNotOptimize(record.verify(master));
  }
}
BENCHMARK(BM_BindingRecordVerify)->Arg(50);

void BM_RelationCommitment(benchmark::State& state) {
  const crypto::SymmetricKey kv =
      core::verification_key(crypto::SymmetricKey::from_seed(5), 7);
  NodeId u = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::relation_commitment(kv, u++));
  }
}
BENCHMARK(BM_RelationCommitment);

void BM_BlundoPairwise(benchmark::State& state) {
  crypto::BlundoScheme scheme(7, static_cast<std::size_t>(state.range(0)));
  scheme.provision(1);
  scheme.provision(2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(scheme.pairwise(1, 2));
  }
}
BENCHMARK(BM_BlundoPairwise)->Arg(5)->Arg(20)->Arg(50);

void BM_BlundoProvision(benchmark::State& state) {
  crypto::BlundoScheme scheme(8, 20);
  NodeId node = 1;
  for (auto _ : state) {
    scheme.provision(node++);
  }
}
BENCHMARK(BM_BlundoProvision);

void BM_EgPairwise(benchmark::State& state) {
  crypto::EschenauerGligorScheme scheme(9, 10000, 150);
  scheme.provision(1);
  scheme.provision(2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(scheme.pairwise(1, 2));
  }
}
BENCHMARK(BM_EgPairwise);

void BM_ShortMacFromScratch(benchmark::State& state) {
  const crypto::SymmetricKey key = crypto::SymmetricKey::from_seed(11);
  const util::Bytes data(static_cast<std::size_t>(state.range(0)), 0x33);
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::short_mac(key, data));
  }
}
BENCHMARK(BM_ShortMacFromScratch)->Arg(32)->Arg(256);

void BM_ShortMacFromMidstate(benchmark::State& state) {
  const crypto::SymmetricKey key = crypto::SymmetricKey::from_seed(11);
  const crypto::HmacKey cached(key);
  const util::Bytes data(static_cast<std::size_t>(state.range(0)), 0x33);
  for (auto _ : state) {
    benchmark::DoNotOptimize(cached.short_mac(data));
  }
}
BENCHMARK(BM_ShortMacFromMidstate)->Arg(32)->Arg(256);

void BM_PairKeyCacheHit(benchmark::State& state) {
  std::shared_ptr<const crypto::KeyPredistribution> scheme = crypto::KdcScheme::from_seed(5);
  crypto::PairKeyCache cache(scheme, 1);
  (void)cache.get(2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(&cache.get(2));
  }
}
BENCHMARK(BM_PairKeyCacheHit);

std::shared_ptr<crypto::KeyPredistribution> blundo_lambda20() {
  auto blundo = std::make_shared<crypto::BlundoScheme>(7, 20);
  blundo->provision(1);
  blundo->provision(2);
  return blundo;
}

/// Authenticated unicast round trip through the simulated radio: send() on
/// one Messenger, delivery via the scheduler, open() on the peer. Arg 0
/// selects the key scheme (0 = KDC, 1 = Blundo lambda=20).
void BM_AuthRoundTrip(benchmark::State& state) {
  const std::shared_ptr<crypto::KeyPredistribution> keys =
      state.range(0) == 0 ? crypto::KdcScheme::from_seed(5) : blundo_lambda20();

  sim::Network network(std::make_unique<sim::UnitDiskModel>(100.0), sim::ChannelConfig{}, 1);
  const sim::DeviceId a = network.add_device(1, {0, 0});
  const sim::DeviceId b = network.add_device(2, {10, 0});
  core::Messenger alice(network, a, 1, keys);
  core::Messenger bob(network, b, 2, keys);
  std::size_t accepted = 0;
  network.set_receiver(b, [&bob, &accepted](const sim::Packet& p) {
    if (bob.open(p)) ++accepted;
  });
  network.set_receiver(a, [](const sim::Packet&) {});
  const util::Bytes payload(24, 0x42);
  for (auto _ : state) {
    alice.send(2, 9, payload, obs::Phase::kOther);
    network.scheduler().run();
  }
  benchmark::DoNotOptimize(accepted);
  state.SetLabel(state.range(0) == 0 ? "kdc" : "blundo20");
}
BENCHMARK(BM_AuthRoundTrip)->Arg(0)->Arg(1);

/// The derive-per-call reference the cached Messenger path is measured
/// against: same wire format, same radio, but every send() and every open()
/// derives the pairwise key and MACs a freshly framed copy of
/// u32 src | u32 dst | u8 type | u16 len | payload | u64 nonce.
class DerivePerCallEndpoint {
 public:
  DerivePerCallEndpoint(sim::Network& network, sim::DeviceId device, NodeId identity,
                        std::shared_ptr<crypto::KeyPredistribution> keys)
      : network_(network), device_(device), identity_(identity), keys_(std::move(keys)) {}

  bool send(NodeId to, std::uint8_t type, const util::Bytes& payload, obs::Phase phase) {
    const auto key = keys_->pairwise(identity_, to);
    if (!key) return false;
    const std::uint64_t nonce = ++nonce_;
    util::Bytes body = payload;
    util::put_u64(body, nonce);
    util::put_bytes(body, crypto::short_mac(*key, framed(identity_, to, type, payload, nonce)));
    network_.transmit(
        device_, sim::Packet{.src = identity_, .dst = to, .type = type, .payload = std::move(body)},
        phase);
    return true;
  }

  std::optional<std::span<const std::uint8_t>> open(const sim::Packet& packet) {
    if (packet.dst != identity_ || packet.payload.size() < core::Messenger::kAuthOverhead) {
      return std::nullopt;
    }
    const std::size_t size = packet.payload.size() - core::Messenger::kAuthOverhead;
    const std::span<const std::uint8_t> payload = std::span(packet.payload).first(size);
    util::ByteReader tail(std::span(packet.payload).subspan(size));
    const auto nonce = tail.u64();
    const auto mac = tail.bytes_view(crypto::kShortMacSize);
    const auto key = keys_->pairwise(identity_, packet.src);
    if (!nonce || !mac || !key ||
        !crypto::verify_short_mac(*key, framed(packet.src, identity_, packet.type, payload, *nonce),
                                  *mac) ||
        *nonce <= highest_seen_) {
      return std::nullopt;
    }
    highest_seen_ = *nonce;
    return payload;
  }

 private:
  static util::Bytes framed(NodeId src, NodeId dst, std::uint8_t type,
                            std::span<const std::uint8_t> payload, std::uint64_t nonce) {
    util::Bytes input;
    util::put_u32(input, src);
    util::put_u32(input, dst);
    util::put_u8(input, type);
    util::put_var_bytes(input, payload);
    util::put_u64(input, nonce);
    return input;
  }

  sim::Network& network_;
  sim::DeviceId device_;
  NodeId identity_;
  std::shared_ptr<crypto::KeyPredistribution> keys_;
  std::uint64_t nonce_ = 0;
  std::uint64_t highest_seen_ = 0;
};

struct RoundTripCost {
  double us_per_msg = 0.0;
  double hash_ops_per_msg = 0.0;
};

/// Wall-clock of `messages` authenticated send+open round trips between two
/// `Endpoint`s (delivery included: open() runs inside the scheduled delivery
/// event, exactly as the protocol drives it).
template <typename Endpoint>
RoundTripCost measure_roundtrip(const std::shared_ptr<crypto::KeyPredistribution>& keys,
                                int messages) {
  sim::Network network(std::make_unique<sim::UnitDiskModel>(100.0), sim::ChannelConfig{}, 1);
  const sim::DeviceId a = network.add_device(1, {0, 0});
  const sim::DeviceId b = network.add_device(2, {10, 0});
  Endpoint alice(network, a, 1, keys);
  Endpoint bob(network, b, 2, keys);
  std::size_t accepted = 0;
  network.set_receiver(b, [&bob, &accepted](const sim::Packet& p) {
    if (bob.open(p)) ++accepted;
  });
  network.set_receiver(a, [](const sim::Packet&) {});
  const util::Bytes payload(24, 0x42);

  alice.send(2, 9, payload, obs::Phase::kOther);  // warm-up: primes the cache
  network.scheduler().run();

  crypto::reset_hash_op_count();
  const auto begin = std::chrono::steady_clock::now();
  for (int i = 0; i < messages; ++i) {
    alice.send(2, 9, payload, obs::Phase::kOther);
    // Drain periodically so deliveries stay inside the replay window and the
    // event queue stays small; the drain is part of the timed round trip.
    if ((i & 31) == 31) network.scheduler().run();
  }
  network.scheduler().run();
  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - begin).count();
  if (accepted != static_cast<std::size_t>(messages) + 1) {
    std::fprintf(stderr, "round trip dropped messages: %zu of %d accepted\n", accepted,
                 messages + 1);
    std::exit(1);
  }
  return {seconds / messages * 1e6,
          static_cast<double>(crypto::hash_op_count()) / messages};
}

struct CommitmentCost {
  double us_per_commit = 0.0;
  double commits_per_s = 0.0;
};

/// Wall-clock of binding-commitment derivation (256 commitments per drain,
/// 50-entry neighbor lists) at one lane width: 1 derives one at a time on
/// the portable compressor, 4/8 pin the SSSE3/AVX2 multi-buffer kernels.
CommitmentCost measure_commitments(int width, int rounds) {
  util::set_forced_simd_tier(tier_for_width(width));
  constexpr std::size_t kBatch = 256;
  constexpr std::size_t kNeighbors = 50;
  std::vector<topology::NeighborList> lists(kBatch);
  std::vector<core::BindingSpec> specs(kBatch);
  for (std::size_t i = 0; i < kBatch; ++i) {
    for (std::size_t n = 0; n < kNeighbors; ++n)
      lists[i].push_back(static_cast<NodeId>(i + n));
    specs[i] = {static_cast<NodeId>(i + 1), 0, &lists[i]};
  }
  const crypto::SymmetricKey master = crypto::SymmetricKey::from_seed(12);
  std::vector<crypto::Digest> out(kBatch);

  derive_commitments(width, master, specs, out);  // warm-up
  const auto begin = std::chrono::steady_clock::now();
  for (int r = 0; r < rounds; ++r) derive_commitments(width, master, specs, out);
  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - begin).count();
  util::set_forced_simd_tier(std::nullopt);
  const double total = static_cast<double>(rounds) * kBatch;
  return {seconds / total * 1e6, total / seconds};
}

/// Commitment-throughput width series (one at a time vs 4-lane vs 8-lane),
/// appended to the artifact. Returns 0 when the headline >= 2x win at width
/// 4 holds (gated only where SSE2 exists; elsewhere the scalar fallback is
/// the point, not the speedup).
int write_commitment_batch_block(char* json, std::size_t cap) {
  constexpr int kRounds = 200;
  const bool have_sse2 = util::detected_simd_tier() >= util::SimdTier::kSse2;
  const bool have_avx2 = util::detected_simd_tier() >= util::SimdTier::kAvx2;

  const CommitmentCost w1 = measure_commitments(1, kRounds);
  const CommitmentCost w4 = have_sse2 ? measure_commitments(4, kRounds) : CommitmentCost{};
  const CommitmentCost w8 = have_avx2 ? measure_commitments(8, kRounds) : CommitmentCost{};

  const double w4_speedup = w4.us_per_commit > 0.0 ? w1.us_per_commit / w4.us_per_commit : 0.0;
  const double w8_speedup = w8.us_per_commit > 0.0 ? w1.us_per_commit / w8.us_per_commit : 0.0;

  std::snprintf(json, cap,
                "  \"commitment_batch\": {\n"
                "    \"batch_size\": 256,\n"
                "    \"neighbors\": 50,\n"
                "    \"w1_us_per_commit\": %.3f,\n"
                "    \"w4_us_per_commit\": %.3f,\n"
                "    \"w8_us_per_commit\": %.3f,\n"
                "    \"w4_speedup\": %.2f,\n"
                "    \"w8_speedup\": %.2f,\n"
                "    \"w1_commits_per_s\": %.0f,\n"
                "    \"w4_commits_per_s\": %.0f,\n"
                "    \"w8_commits_per_s\": %.0f\n"
                "  }\n",
                w1.us_per_commit, w4.us_per_commit, w8.us_per_commit, w4_speedup, w8_speedup,
                w1.commits_per_s, w4.commits_per_s, w8.commits_per_s);
  std::printf("commitment batch: serial %.2f us, w4 %.2f us (%.2fx), w8 %.2f us (%.2fx)\n",
              w1.us_per_commit, w4.us_per_commit, w4_speedup, w8.us_per_commit, w8_speedup);
  return (!have_sse2 || w4_speedup >= 2.0) ? 0 : 1;
}

/// The before/after artifact: authenticated send+open round trip, the
/// derive-per-call reference ("slow") vs Messenger's cached path ("fast"),
/// written as BENCH_micro_crypto.json.
int write_crypto_artifact() {
  constexpr int kMessages = 20000;
  const std::shared_ptr<crypto::KeyPredistribution> kdc = crypto::KdcScheme::from_seed(5);
  const std::shared_ptr<crypto::KeyPredistribution> blundo = blundo_lambda20();

  const RoundTripCost kdc_slow = measure_roundtrip<DerivePerCallEndpoint>(kdc, kMessages);
  const RoundTripCost kdc_fast = measure_roundtrip<core::Messenger>(kdc, kMessages);
  const RoundTripCost blundo_slow = measure_roundtrip<DerivePerCallEndpoint>(blundo, kMessages);
  const RoundTripCost blundo_fast = measure_roundtrip<core::Messenger>(blundo, kMessages);

  const double kdc_speedup =
      kdc_fast.us_per_msg > 0.0 ? kdc_slow.us_per_msg / kdc_fast.us_per_msg : 0.0;
  const double blundo_speedup =
      blundo_fast.us_per_msg > 0.0 ? blundo_slow.us_per_msg / blundo_fast.us_per_msg : 0.0;

  char json[1024];
  std::snprintf(json, sizeof(json),
                "{\n"
                "  \"name\": \"micro_crypto_auth_roundtrip\",\n"
                "  \"messages\": %d,\n"
                "  \"payload_bytes\": 24,\n"
                "  \"kdc\": {\n"
                "    \"slow_us_per_msg\": %.3f,\n"
                "    \"fast_us_per_msg\": %.3f,\n"
                "    \"speedup\": %.2f,\n"
                "    \"slow_hash_ops_per_msg\": %.2f,\n"
                "    \"fast_hash_ops_per_msg\": %.2f\n"
                "  },\n"
                "  \"blundo_lambda20\": {\n"
                "    \"slow_us_per_msg\": %.3f,\n"
                "    \"fast_us_per_msg\": %.3f,\n"
                "    \"speedup\": %.2f,\n"
                "    \"slow_hash_ops_per_msg\": %.2f,\n"
                "    \"fast_hash_ops_per_msg\": %.2f\n"
                "  },\n",
                kMessages, kdc_slow.us_per_msg, kdc_fast.us_per_msg, kdc_speedup,
                kdc_slow.hash_ops_per_msg, kdc_fast.hash_ops_per_msg, blundo_slow.us_per_msg,
                blundo_fast.us_per_msg, blundo_speedup, blundo_slow.hash_ops_per_msg,
                blundo_fast.hash_ops_per_msg);

  char batch_json[1024];
  const int batch_gate = write_commitment_batch_block(batch_json, sizeof(batch_json));

  const std::string path = bench_artifact_path("BENCH_micro_crypto.json");
  if (!util::write_file(path, std::string(json) + batch_json + "}\n")) {
    std::fprintf(stderr, "micro_crypto: cannot write %s\n", path.c_str());
    return 1;
  }
  std::printf("auth round trip, %d msgs: kdc %.2f -> %.2f us/msg (%.2fx), "
              "blundo20 %.2f -> %.2f us/msg (%.2fx) -> %s\n",
              kMessages, kdc_slow.us_per_msg, kdc_fast.us_per_msg, kdc_speedup,
              blundo_slow.us_per_msg, blundo_fast.us_per_msg, blundo_speedup, path.c_str());
  std::printf("hash ops/msg: kdc %.1f -> %.1f, blundo20 %.1f -> %.1f\n",
              kdc_slow.hash_ops_per_msg, kdc_fast.hash_ops_per_msg,
              blundo_slow.hash_ops_per_msg, blundo_fast.hash_ops_per_msg);
  // Gate: the expensive-derivation scheme must hold the headline >= 2x win
  // over deriving per call (measured 4.8x locally); KDC gets slack for noisy
  // CI runners since its derivation is already cheap (measured 2.6x
  // locally). The batched commitment path must hold its own >= 2x at width
  // 4 wherever SSE2 exists.
  return (kdc_speedup >= 1.2 && blundo_speedup >= 2.0 && batch_gate == 0) ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return write_crypto_artifact();
}
