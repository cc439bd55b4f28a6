// Adversarial parser robustness: every wire parser must reject arbitrary
// byte garbage cleanly (no crash, no partial acceptance of junk), and
// survive random mutations of valid messages. The adversary controls the
// radio, so these paths are attack surface.
#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <span>
#include <vector>

#include "core/binding_record.h"
#include "core/deployment_driver.h"
#include "core/wire.h"
#include "proptest/observation.h"
#include "proptest/oracles.h"
#include "util/bytes.h"
#include "util/rng.h"

namespace snd::core {
namespace {

const crypto::SymmetricKey kMaster = crypto::SymmetricKey::from_seed(1);

util::Bytes random_bytes(util::Rng& rng, std::size_t max_size) {
  util::Bytes out(rng.uniform_int(max_size + 1));
  for (auto& b : out) b = static_cast<std::uint8_t>(rng.next());
  return out;
}

class RandomGarbageTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RandomGarbageTest, AllParsersRejectOrSurvive) {
  util::Rng rng(GetParam());
  for (int i = 0; i < 200; ++i) {
    const util::Bytes garbage = random_bytes(rng, 300);
    // Parsers must never crash; acceptance of random bytes is astronomically
    // unlikely for structured payloads but not a hard failure -- what
    // matters is clean behaviour. The record parser is checked strictly:
    // even if the structure parses, the commitment cannot verify.
    if (auto record = BindingRecord::parse(garbage)) {
      EXPECT_FALSE(record->verify(kMaster));
    }
    (void)RecordReplyPayload::parse(garbage);
    (void)RelationCommitPayload::parse(garbage);
    (void)EvidencePayload::parse(garbage);
    (void)UpdateRequestPayload::parse(garbage);
    (void)UpdateReplyPayload::parse(garbage);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomGarbageTest, ::testing::Range<std::uint64_t>(1, 9));

class MutationTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(MutationTest, MutatedRecordsNeverVerify) {
  util::Rng rng(GetParam() * 977);
  const BindingRecord record = BindingRecord::make(kMaster, 42, 1, {2, 3, 5, 8, 13});
  const util::Bytes valid = record.serialize();

  for (int i = 0; i < 300; ++i) {
    util::Bytes mutated = valid;
    const std::size_t flips = 1 + rng.uniform_int(4);
    for (std::size_t f = 0; f < flips; ++f) {
      const auto pos = rng.uniform_int(mutated.size());
      mutated[pos] ^= static_cast<std::uint8_t>(1 + rng.uniform_int(255));
    }
    if (mutated == valid) continue;
    const auto parsed = BindingRecord::parse(mutated);
    if (parsed) {
      // Structurally intact but tampered: the commitment must catch it.
      EXPECT_FALSE(parsed->verify(kMaster)) << "mutation accepted at iteration " << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MutationTest, ::testing::Range<std::uint64_t>(1, 6));

TEST(MutationTest, TruncatedUpdateRequestsRejected) {
  util::Rng rng(55);
  UpdateRequestPayload payload{BindingRecord::make(kMaster, 9, 2, {4, 5, 6}), {}};
  payload.evidences.emplace_back(11, crypto::Sha256::hash("e1"));
  payload.evidences.emplace_back(12, crypto::Sha256::hash("e2"));
  const util::Bytes valid = payload.serialize();
  for (std::size_t cut = 0; cut < valid.size(); ++cut) {
    const util::Bytes prefix(valid.begin(), valid.begin() + static_cast<std::ptrdiff_t>(cut));
    EXPECT_FALSE(UpdateRequestPayload::parse(prefix).has_value()) << "cut " << cut;
  }
}

TEST(MutationTest, ExtendedPayloadsRejected) {
  const BindingRecord record = BindingRecord::make(kMaster, 1, 0, {7});
  for (std::size_t extra : {1u, 7u, 100u}) {
    util::Bytes extended = record.serialize();
    extended.insert(extended.end(), extra, 0xcc);
    EXPECT_FALSE(BindingRecord::parse(extended).has_value()) << "extra " << extra;
  }
}

/// The record decode BindingRecord::parse replaced: one bounds-checked
/// reader call per field. The one-pass parse must accept and reject exactly
/// the inputs this does, and decode the same record.
std::optional<BindingRecord> reader_parse(std::span<const std::uint8_t> data) {
  util::ByteReader reader(data);
  BindingRecord record;
  const auto node = reader.u32();
  const auto version = reader.u32();
  const auto count = reader.u16();
  if (!node || !version || !count) return std::nullopt;
  record.node = *node;
  record.version = *version;
  record.neighbors.reserve(*count);
  for (std::uint16_t i = 0; i < *count; ++i) {
    const auto n = reader.u32();
    if (!n) return std::nullopt;
    record.neighbors.push_back(*n);
  }
  const auto digest = reader.bytes_view(crypto::kDigestSize);
  if (!digest || !reader.exhausted()) return std::nullopt;
  std::copy(digest->begin(), digest->end(), record.commitment.bytes.begin());
  return record;
}

TEST(RecordParseDifferentialTest, OnePassParseMatchesReaderDecode) {
  util::Rng rng(20090622);
  std::size_t accepted = 0;
  std::size_t checked = 0;
  const auto check = [&](const util::Bytes& data) {
    const auto fast = BindingRecord::parse(data);
    const auto reference = reader_parse(data);
    ASSERT_EQ(fast.has_value(), reference.has_value()) << util::to_hex(data);
    if (fast) {
      EXPECT_EQ(*fast, *reference);
      ++accepted;
    }
    ++checked;
  };
  // Random bytes, with the count field forced to fit the length half the
  // time so that well-formed structures are drawn too.
  for (int i = 0; i < 2000; ++i) {
    util::Bytes data = random_bytes(rng, 120);
    if (data.size() >= 10 && rng.chance(0.5)) {
      const std::size_t count = data.size() >= 42 ? (data.size() - 42) / 4 : 0;
      data[8] = static_cast<std::uint8_t>(count >> 8);
      data[9] = static_cast<std::uint8_t>(count);
    }
    check(data);
  }
  // Every prefix and several extensions of valid records, including the
  // empty neighbor list and a count whose u16 high byte is set.
  std::vector<NodeId> many(300);
  for (std::size_t i = 0; i < many.size(); ++i) many[i] = static_cast<NodeId>(7 * i + 1);
  for (const topology::NeighborList& neighbors :
       {topology::NeighborList{}, topology::NeighborList{2, 3, 5, 8, 13}, many}) {
    const util::Bytes valid = BindingRecord::make(kMaster, 42, 3, neighbors).serialize();
    for (std::size_t cut = 0; cut <= valid.size(); ++cut) {
      check(util::Bytes(valid.begin(), valid.begin() + static_cast<std::ptrdiff_t>(cut)));
    }
    for (const std::size_t extra : {1u, 3u, 4u, 32u, 1000u}) {
      util::Bytes extended = valid;
      extended.insert(extended.end(), extra, static_cast<std::uint8_t>(extra));
      check(extended);
    }
  }
  EXPECT_GT(accepted, 3u);  // the three valid records, plus lucky random ones
  EXPECT_GT(checked, 2500u);
}

// -- Corruption through the fault layer ------------------------------------
//
// The table above mutates serialized messages directly; these tests mutate
// them in flight via fault::Injector so the full receive path -- radio,
// Messenger MAC check, wire parsers, protocol handlers -- sees the damage.
// Both corruption modes across several seeds and probabilities: nothing may
// crash (ASan/UBSan builds make this bite), corrupted authenticated traffic
// must die at the MAC, and the conservation/record oracles stay green.

struct FaultFuzzCase {
  fault::CorruptMode mode;
  double probability;
  std::uint64_t seed;
};

class FaultLayerCorruptionTest : public ::testing::TestWithParam<FaultFuzzCase> {};

TEST_P(FaultLayerCorruptionTest, CorruptedTrafficRejectedWithoutCrashing) {
  const FaultFuzzCase& param = GetParam();
  core::DeploymentConfig config;
  config.field = {{0.0, 0.0}, {30.0, 30.0}};
  config.radio_range = 60.0;
  config.protocol.threshold_t = 1;
  config.seed = param.seed;

  fault::FaultPlan plan;
  fault::FaultAction corrupt;
  corrupt.kind = fault::ActionKind::kCorrupt;
  corrupt.corrupt_mode = param.mode;
  corrupt.match.probability = param.probability;
  plan.actions.push_back(corrupt);

  core::SndDeployment deployment(config);
  deployment.apply_fault_plan(plan);
  deployment.deploy_round(6);
  deployment.run();  // must terminate and must not crash

  ASSERT_NE(deployment.injector(), nullptr);
  EXPECT_GT(deployment.injector()->counters().corrupts, 0u);

  const proptest::Observation observation =
      proptest::observe(deployment, 2.0 * config.radio_range);
  // Candidate/drop conservation survives corruption (a corrupted copy is
  // still delivered -- it dies in the parser, not the channel), and no
  // agent ever holds a record whose commitment fails to verify.
  for (const proptest::Violation& v : proptest::check_all(observation)) {
    ADD_FAILURE() << v.oracle << ": " << v.message;
  }
}

INSTANTIATE_TEST_SUITE_P(
    ModesAndSeeds, FaultLayerCorruptionTest,
    ::testing::Values(FaultFuzzCase{fault::CorruptMode::kBitFlip, 1.0, 71},
                      FaultFuzzCase{fault::CorruptMode::kBitFlip, 0.5, 72},
                      FaultFuzzCase{fault::CorruptMode::kBitFlip, 0.1, 73},
                      FaultFuzzCase{fault::CorruptMode::kTruncate, 1.0, 74},
                      FaultFuzzCase{fault::CorruptMode::kTruncate, 0.5, 75},
                      FaultFuzzCase{fault::CorruptMode::kTruncate, 0.1, 76}));

}  // namespace
}  // namespace snd::core
