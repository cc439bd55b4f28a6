// Golden outcome digests of four seeded deployments. Each variant's
// observable outcome -- trace summary, every agent's tentative and
// functional lists, evidence buffer and record version, and the total of
// replay rejects -- is serialized into one canonical text and hashed with
// SHA-256. The expected digests were recorded before the seed std::map /
// std::set node state, the derive-per-call crypto path and the
// one-at-a-time hashing and link filtering were retired, and all of those
// implementations produced them too. Every variant must reproduce its digest
// at every SIMD dispatch tier, since each tier runs different batched-hash
// and strip-filter kernels. A change that moves a decision or an RNG draw
// anywhere in discovery, exchange or validation changes a digest; the
// failure message prints the digest computed and the tier, so an intended
// behaviour change re-records it here and says why.
#include <gtest/gtest.h>

#include <string>

#include "core/deployment_driver.h"
#include "crypto/sha256.h"
#include "simd_tiers.h"

namespace snd::core {
namespace {

struct Variant {
  DeploymentConfig config;
  std::size_t first_round = 14;
  std::size_t second_round = 0;
  bool auto_update = false;
};

void append_list(std::string& out, const char* tag, const topology::NeighborList& list) {
  out += tag;
  for (const NodeId v : list) out += " " + std::to_string(v);
}

/// Runs the variant and serializes what it decided into one canonical text.
std::string snapshot(const Variant& variant) {
  SndDeployment deployment(variant.config);
  deployment.deploy_round(variant.first_round);
  deployment.run();
  if (variant.second_round > 0) {
    if (variant.auto_update) {
      for (const SndNode* agent : deployment.agents()) {
        deployment.agent(agent->identity())->set_auto_update(true);
      }
    }
    deployment.deploy_round(variant.second_round);
    deployment.run();
  }
  std::string text = deployment.network().trace_summary().to_json() + "\n";
  std::uint64_t replay_rejects = 0;
  for (const SndNode* agent : deployment.agents()) {
    text += std::to_string(agent->identity());
    append_list(text, " T", agent->tentative_neighbors());
    append_list(text, " F", agent->functional_neighbors());
    text += " E";
    for (const auto& [issuer, digest] : agent->evidence_buffer()) {
      text += " " + std::to_string(issuer) + ":" + digest.hex();
    }
    text += " V" + std::to_string(agent->record_version()) + "\n";
    replay_rejects += agent->replay_rejects();
  }
  text += "replay_rejects " + std::to_string(replay_rejects) + "\n";
  return text;
}

std::string outcome_digest(const Variant& variant) {
  return crypto::Sha256::hash(snapshot(variant)).hex();
}

void expect_digest_at_every_tier(const Variant& variant, const std::string& expected) {
  test::for_each_simd_tier([&] { EXPECT_EQ(outcome_digest(variant), expected); });
}

Variant base_variant(std::uint64_t seed) {
  Variant variant;
  variant.config.field = {{0.0, 0.0}, {140.0, 140.0}};
  variant.config.radio_range = 50.0;
  variant.config.protocol.threshold_t = 3;
  variant.config.seed = seed;
  return variant;
}

TEST(GoldenOutcomeTest, CleanDeployment) {
  expect_digest_at_every_tier(
      base_variant(11), "92ab504087c5a6a0fb03c4adf0b2659e8ca7383bf53496d8e31c131c94ee2144");
  expect_digest_at_every_tier(
      base_variant(12), "c8ab4eb1734bf115aa7d9d07ca7761bbc688d37385389f300cd8013d49ddc031");
}

TEST(GoldenOutcomeTest, LossyShadowedChannel) {
  // Loss consumes one RNG draw per delivery candidate, shadowing more per
  // link test: a container that iterated out of key order, or a dropped
  // draw, would desynchronize the stream and change the digest.
  Variant variant = base_variant(21);
  variant.config.channel_loss = 0.25;
  variant.config.log_normal_shadowing = true;
  variant.config.shadowing_sigma_db = 4.0;
  expect_digest_at_every_tier(variant,
                              "afb87a37fbe0cd707c89181d89095a0b8f531310bfe301172233afed91afc1b0");
}

TEST(GoldenOutcomeTest, UpdateExtension) {
  // Incremental deployment with the §4.4 extension armed (max_updates,
  // auto_update): the second round's evidences fill the first round's
  // buffers. Exercises EvidenceMap iteration in issuer order and the replay
  // windows under two-round traffic.
  Variant variant = base_variant(31);
  variant.config.protocol.max_updates = 2;
  variant.second_round = 6;
  variant.auto_update = true;
  expect_digest_at_every_tier(variant,
                              "de1ca03d238a9f4671bece8760c1cb7057fad7e4fca8fd87d556f6abd40f942d");
}

TEST(GoldenOutcomeTest, EarlyErasureHalfDuplex) {
  Variant variant = base_variant(41);
  variant.config.protocol.early_erasure = true;
  variant.config.half_duplex = true;
  expect_digest_at_every_tier(variant,
                              "ef97f5cb7835f61990ff7625297eef8d5fc42f426b85f60c1ef5c01bcdc9fada");
}

}  // namespace
}  // namespace snd::core
