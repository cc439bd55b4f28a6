#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "core/commitment.h"
#include "crypto/key.h"
#include "service/events.h"
#include "service/snapshot.h"
#include "service/validation_service.h"
#include "service/wire.h"
#include "simd_tiers.h"
#include "util/bytes.h"

namespace snd::service {
namespace {

ServiceConfig small_config() {
  ServiceConfig config;
  config.radio_range = 10.0;
  config.threshold_t = 1;
  return config;
}

// A 4-clique inside one radio disc: every pair shares the two other nodes,
// so with t = 1 every link is validated.
std::vector<std::pair<NodeId, util::Vec2>> clique4() {
  return {{1, {0.0, 0.0}}, {2, {1.0, 0.0}}, {3, {0.0, 1.0}}, {4, {1.0, 1.0}}};
}

TEST(ValidationServiceTest, EmptyServiceValidatesNothing) {
  ValidationService service(small_config());
  EXPECT_FALSE(service.validate(1, 2));
  EXPECT_EQ(service.node_count(), 0u);
  EXPECT_EQ(service.snapshot()->node_count(), 0u);
}

TEST(ValidationServiceTest, CliqueFullyValidated) {
  ValidationService service(small_config());
  const auto nodes = clique4();
  service.seed_topology(nodes);
  for (const auto& [u, pu] : nodes) {
    for (const auto& [v, pv] : nodes) {
      if (u == v) continue;
      EXPECT_TRUE(service.validate(u, v)) << u << " -> " << v;
    }
  }
  EXPECT_EQ(service.snapshot()->validated_edge_count(), 12u);
}

TEST(ValidationServiceTest, IsolatedPairBelowThresholdRejected) {
  ValidationService service(small_config());
  // Two nodes in range of each other but with no common neighbor: the
  // threshold rule |N(u) ∩ N(v)| >= t+1 = 2 cannot be met.
  ASSERT_TRUE(service.apply(TopologyEvent::deploy(1, {0.0, 0.0})).ok);
  ASSERT_TRUE(service.apply(TopologyEvent::deploy(2, {1.0, 0.0})).ok);
  EXPECT_FALSE(service.validate(1, 2));
  const NodeState* state = service.snapshot()->find(1);
  ASSERT_NE(state, nullptr);
  EXPECT_EQ(state->neighbors.size(), 1u);
  EXPECT_TRUE(state->validated.empty());
}

TEST(ValidationServiceTest, DeployUpdateRevokeLifecycle) {
  ValidationService service(small_config());
  // A 5-clique; with t = 1 every pair needs 2 common neighbors, so pairs
  // survive one removal (3 -> 2 witnesses) but not two.
  const std::vector<std::pair<NodeId, util::Vec2>> clique5 = {{1, {0.0, 0.0}},
                                                              {2, {1.0, 0.0}},
                                                              {3, {0.0, 1.0}},
                                                              {4, {1.0, 1.0}},
                                                              {5, {0.5, 0.5}}};
  service.seed_topology(clique5);
  ASSERT_TRUE(service.validate(1, 2));

  // Move node 5 out of range: the 4-clique pairs still have 2 witnesses.
  ASSERT_TRUE(service.apply(TopologyEvent::update(5, {100.0, 100.0})).ok);
  EXPECT_FALSE(service.validate(1, 5));
  EXPECT_TRUE(service.validate(1, 2));

  // Revoking node 4 leaves 1-2 with only node 3 as witness: below t+1.
  ASSERT_TRUE(service.apply(TopologyEvent::revoke(4)).ok);
  EXPECT_FALSE(service.validate(1, 2));
  EXPECT_EQ(service.node_count(), 4u);

  // Move node 5 back: the 4-clique re-forms and validates again.
  ASSERT_TRUE(service.apply(TopologyEvent::update(5, {0.5, 0.5})).ok);
  EXPECT_TRUE(service.validate(1, 2));
  EXPECT_TRUE(service.validate(2, 5));
}

TEST(ValidationServiceTest, RejectsInvalidEvents) {
  ValidationService service(small_config());
  ASSERT_TRUE(service.apply(TopologyEvent::deploy(1, {0.0, 0.0})).ok);
  EXPECT_FALSE(service.apply(TopologyEvent::deploy(1, {5.0, 0.0})).ok);
  EXPECT_FALSE(service.apply(TopologyEvent::update(9, {0.0, 0.0})).ok);
  EXPECT_FALSE(service.apply(TopologyEvent::revoke(9)).ok);
  // Rejections do not bump the epoch or the event counter.
  EXPECT_EQ(service.events_applied(), 1u);
  EXPECT_EQ(service.snapshot()->epoch(), 1u);
}

TEST(ValidationServiceTest, SnapshotsAreImmutableVersions) {
  ValidationService service(small_config());
  service.seed_topology(clique4());
  const auto before = service.snapshot();
  ASSERT_TRUE(service.apply(TopologyEvent::revoke(3)).ok);
  const auto after = service.snapshot();
  EXPECT_LT(before->epoch(), after->epoch());
  // The retained snapshot still answers with the old world.
  EXPECT_TRUE(before->validate(1, 2));
  EXPECT_FALSE(after->validate(1, 2));
  EXPECT_EQ(before->node_count(), 4u);
  EXPECT_EQ(after->node_count(), 3u);
}

TEST(ValidationServiceTest, DigestMatchesRebuildAfterEvents) {
  ValidationService service(small_config());
  service.seed_topology(clique4());
  ASSERT_TRUE(service.apply(TopologyEvent::update(2, {2.0, 2.0})).ok);
  ASSERT_TRUE(service.apply(TopologyEvent::deploy(7, {0.5, 1.5})).ok);
  ASSERT_TRUE(service.apply(TopologyEvent::revoke(1)).ok);
  EXPECT_EQ(service.snapshot()->first_difference(*service.rebuild()).value_or(""), "");
  EXPECT_EQ(service.snapshot()->digest(), service.rebuild()->digest());
}

TEST(ServiceEventsTest, RandomEventsAreDeterministicAndValid) {
  const util::Rect field{{0.0, 0.0}, {100.0, 100.0}};
  const auto a = random_events(200, field, {1, 2, 3}, 42);
  const auto b = random_events(200, field, {1, 2, 3}, 42);
  ASSERT_EQ(a.size(), 200u);
  EXPECT_TRUE(a == b);
  const auto c = random_events(200, field, {1, 2, 3}, 43);
  EXPECT_FALSE(a == c);
  // Replaying against a service seeded with the same live set never hits a
  // rejection: the generator only moves/revokes live ids.
  ValidationService service(small_config());
  const std::vector<std::pair<NodeId, util::Vec2>> initial = {
      {1, {0.0, 0.0}}, {2, {1.0, 0.0}}, {3, {0.0, 1.0}}};
  service.seed_topology(initial);
  for (const TopologyEvent& event : a) {
    EXPECT_TRUE(service.apply(event).ok) << event_kind_name(event.kind) << " "
                                         << event.node;
  }
}

TEST(ServiceWireTest, QueryRoundTrip) {
  ValidationService service(small_config());
  service.seed_topology(clique4());

  util::Bytes out;
  ASSERT_TRUE(wire::handle_request(service, wire::encode_query(1, 2), out));
  const auto reply = wire::decode_query_reply(out);
  ASSERT_TRUE(reply.has_value());
  EXPECT_TRUE(reply->accepted);
  EXPECT_EQ(reply->epoch, service.snapshot()->epoch());

  out.clear();
  ASSERT_TRUE(wire::handle_request(service, wire::encode_query(1, 99), out));
  const auto miss = wire::decode_query_reply(out);
  ASSERT_TRUE(miss.has_value());
  EXPECT_FALSE(miss->accepted);
}

TEST(ServiceWireTest, EventStatsDigestAndShutdown) {
  ValidationService service(small_config());
  service.seed_topology(clique4());

  util::Bytes out;
  ASSERT_TRUE(
      wire::handle_request(service, wire::encode_event(TopologyEvent::revoke(4)), out));
  EXPECT_EQ(service.node_count(), 3u);

  out.clear();
  ASSERT_TRUE(wire::handle_request(service, wire::encode_stats(), out));
  const auto stats = wire::decode_stats_reply(out);
  ASSERT_TRUE(stats.has_value());
  EXPECT_EQ(stats->nodes, 3u);
  EXPECT_EQ(stats->events_applied, 1u);

  out.clear();
  ASSERT_TRUE(wire::handle_request(service, wire::encode_digest(), out));
  const auto digest = wire::decode_digest_reply(out);
  ASSERT_TRUE(digest.has_value());
  EXPECT_EQ(digest->digest, service.snapshot()->digest());

  out.clear();
  EXPECT_FALSE(wire::handle_request(service, wire::encode_shutdown(), out));
}

TEST(ServiceWireTest, MalformedRequestsAnswerErrorWithoutMutating) {
  ValidationService service(small_config());
  service.seed_topology(clique4());
  const std::string before = service.snapshot()->canonical_json();

  const std::vector<util::Bytes> bad = {
      {},                    // empty payload
      {0x7F},                // unknown opcode
      {wire::kQuery, 0x01},  // truncated query
      {wire::kEvent, 0x09},  // unknown event kind + truncated body
  };
  for (const util::Bytes& payload : bad) {
    util::Bytes out;
    EXPECT_TRUE(wire::handle_request(service, payload, out));
    ASSERT_FALSE(out.empty());
    EXPECT_EQ(out[0], wire::kError);
  }
  EXPECT_EQ(service.snapshot()->canonical_json(), before);
}

// -- Position validation -----------------------------------------------------

/// 50 * (2^31 - 1) - 25: with R = 50 the deploy's disc ends in cell
/// INT32_MAX, where the grid's old int32 cell loop wrapped and never returned.
constexpr double kBoundary = 107374182325.0;

ServiceConfig range50_config() {
  ServiceConfig config;
  config.radio_range = 50.0;
  config.threshold_t = 1;
  return config;
}

TEST(ServicePositionTest, DeployAtCellRangeLimitIsRejected) {
  ValidationService service(range50_config());
  for (const util::Vec2 position : {util::Vec2{kBoundary, 0.0}, util::Vec2{0.0, kBoundary},
                                    util::Vec2{-kBoundary, 0.0}, util::Vec2{0.0, -kBoundary}}) {
    const ApplyResult result = service.apply(TopologyEvent::deploy(1, position));
    EXPECT_FALSE(result.ok);
    EXPECT_NE(result.error.find("out of range"), std::string::npos) << result.error;
  }
  EXPECT_EQ(service.snapshot()->epoch(), 0u);
  EXPECT_EQ(service.events_applied(), 0u);
  EXPECT_EQ(service.node_count(), 0u);

  // One cell further in, positions are indexed exactly and find each other.
  ASSERT_TRUE(service.apply(TopologyEvent::deploy(2, {kBoundary - 50.0, 0.0})).ok);
  ASSERT_TRUE(service.apply(TopologyEvent::deploy(3, {kBoundary - 60.0, 0.0})).ok);
  ASSERT_TRUE(service.apply(TopologyEvent::deploy(4, {-kBoundary + 50.0, 0.0})).ok);
  EXPECT_EQ(service.snapshot()->find(2)->neighbors, topology::NeighborList{3});
  EXPECT_TRUE(service.snapshot()->find(4)->neighbors.empty());
  EXPECT_EQ(service.snapshot()->first_difference(*service.rebuild()).value_or(""), "");
}

TEST(ServicePositionTest, DeployAtCellRangeLimitAnswersWireError) {
  ValidationService service(range50_config());
  service.seed_topology(clique4());
  const std::uint64_t epoch = service.snapshot()->epoch();
  util::Bytes out;
  ASSERT_TRUE(wire::handle_request(
      service, wire::encode_event(TopologyEvent::deploy(9, {kBoundary, 0.0})), out));
  ASSERT_FALSE(out.empty());
  EXPECT_EQ(out[0], wire::kError);
  EXPECT_EQ(service.snapshot()->epoch(), epoch);
  EXPECT_EQ(service.node_count(), 4u);
}

TEST(ServicePositionTest, NonFiniteOrOutOfRangeEventsLeaveTheWorldAlone) {
  ValidationService service(range50_config());
  service.seed_topology(clique4());
  const std::string before = service.snapshot()->canonical_json();
  const std::uint64_t epoch = service.snapshot()->epoch();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  for (const double bad : {nan, inf, -inf, kBoundary, -kBoundary}) {
    for (const util::Vec2 position : {util::Vec2{bad, 0.0}, util::Vec2{0.0, bad}}) {
      EXPECT_FALSE(service.apply(TopologyEvent::deploy(9, position)).ok) << bad;
      EXPECT_FALSE(service.apply(TopologyEvent::update(2, position)).ok) << bad;
    }
  }
  // Batches skip the rejected events and apply the rest.
  const std::vector<TopologyEvent> batch = {TopologyEvent::update(2, {nan, nan}),
                                            TopologyEvent::update(2, {1.5, 0.0})};
  EXPECT_EQ(service.snapshot()->canonical_json(), before);
  EXPECT_EQ(service.snapshot()->epoch(), epoch);
  EXPECT_EQ(service.apply_all(batch), 1u);
  EXPECT_EQ(service.snapshot()->find(2)->position, (util::Vec2{1.5, 0.0}));
  EXPECT_EQ(service.snapshot()->first_difference(*service.rebuild()).value_or(""), "");
}

TEST(ServicePositionTest, SeedWithAnUnindexablePositionChangesNothing) {
  // R·(2³¹−2): accepted coordinates are [-limit, limit).
  const double limit = 50.0 * 2147483646.0;
  const double below_limit = std::nextafter(limit, 0.0);
  const double beyond_minus_limit = std::nextafter(-limit, -limit - 1.0);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  ValidationService service(range50_config());
  for (const double bad : {nan, inf, -inf, limit, beyond_minus_limit}) {
    for (const util::Vec2 position : {util::Vec2{bad, 0.0}, util::Vec2{0.0, bad}}) {
      auto nodes = clique4();
      nodes.emplace_back(9, position);
      nodes.emplace_back(10, util::Vec2{nan, nan});
      const ApplyResult result = service.seed_topology(nodes);
      EXPECT_FALSE(result.ok) << bad;
      EXPECT_NE(result.error.find("node 9 position out of range"), std::string::npos)
          << result.error;
    }
  }
  EXPECT_EQ(service.snapshot()->epoch(), 0u);
  EXPECT_EQ(service.node_count(), 0u);
  EXPECT_EQ(service.common_counts(1), nullptr);

  // A valid bootstrap afterwards, with nodes at the innermost rejected
  // positions' accepted neighbors.
  auto nodes = clique4();
  nodes.emplace_back(11, util::Vec2{below_limit, -limit});
  nodes.emplace_back(12, util::Vec2{limit - 10.0, -limit});
  ASSERT_TRUE(service.seed_topology(nodes).ok);
  EXPECT_EQ(service.snapshot()->epoch(), 1u);
  EXPECT_EQ(service.node_count(), 6u);
  EXPECT_EQ(service.snapshot()->find(11)->neighbors, topology::NeighborList{12});
  EXPECT_EQ(service.snapshot()->validated_edge_count(), 12u);
  EXPECT_EQ(service.snapshot()->first_difference(*service.rebuild()).value_or(""), "");
}

using Bootstrap = std::vector<std::pair<NodeId, util::Vec2>>;

ServiceConfig keyed_range10_config() {
  return {.radio_range = 10.0, .threshold_t = 0,
          .master_key = crypto::SymmetricKey::from_seed(0x5eed)};
}

TEST(ServiceSeedTest, RepeatedIdChangesNothing) {
  ValidationService service(keyed_range10_config());
  const std::string empty = service.snapshot()->canonical_json();
  const ApplyResult result = service.seed_topology(
      Bootstrap{{1, {0.0, 0.0}}, {2, {1.0, 0.0}}, {1, {2.0, 0.0}}, {3, {3.0, 0.0}}});
  EXPECT_FALSE(result.ok);
  EXPECT_NE(result.error.find("node 1 listed twice"), std::string::npos) << result.error;
  EXPECT_EQ(service.snapshot()->canonical_json(), empty);
  EXPECT_EQ(service.snapshot()->epoch(), 0u);
  EXPECT_EQ(service.node_count(), 0u);
  EXPECT_EQ(service.common_counts(1), nullptr);
  EXPECT_EQ(service.commitment_count(), 0u);

  // The first repeat in input order, not the least repeated id.
  const ApplyResult later = service.seed_topology(
      Bootstrap{{5, {0.0, 0.0}}, {7, {1.0, 0.0}}, {7, {2.0, 0.0}}, {5, {3.0, 0.0}}});
  EXPECT_FALSE(later.ok);
  EXPECT_NE(later.error.find("node 7 listed twice"), std::string::npos) << later.error;
  EXPECT_EQ(service.snapshot()->canonical_json(), empty);

  // The grid holds none of them: a deploy where they were finds no neighbor.
  ASSERT_TRUE(service.apply(TopologyEvent::deploy(4, {1.5, 0.0})).ok);
  EXPECT_TRUE(service.snapshot()->find(4)->neighbors.empty());
  EXPECT_EQ(service.snapshot()->first_difference(*service.rebuild()).value_or(""), "");
}

TEST(ServiceSeedTest, NonEmptyServiceChangesNothing) {
  ValidationService service(keyed_range10_config());
  ASSERT_TRUE(service.seed_topology(Bootstrap{{1, {0.0, 0.0}}, {2, {1.0, 0.0}}}).ok);
  const std::string before = service.snapshot()->canonical_json();
  const std::vector<std::uint32_t> counts = *service.common_counts(1);
  const crypto::Digest commitment = *service.binding_commitment_of(1);

  for (const bool empty_input : {false, true}) {
    const Bootstrap nodes = empty_input ? Bootstrap{} : Bootstrap{{3, {2.0, 0.0}}};
    const ApplyResult result = service.seed_topology(nodes);
    EXPECT_FALSE(result.ok);
    EXPECT_NE(result.error.find("not empty"), std::string::npos) << result.error;
    EXPECT_EQ(service.snapshot()->canonical_json(), before);
    EXPECT_EQ(service.snapshot()->epoch(), 1u);
    EXPECT_EQ(service.node_count(), 2u);
    EXPECT_EQ(*service.common_counts(1), counts);
    EXPECT_EQ(service.common_counts(3), nullptr);
    EXPECT_EQ(service.commitment_count(), 2u);
    EXPECT_EQ(*service.binding_commitment_of(1), commitment);
  }

  // The grid still holds exactly nodes 1 and 2.
  ASSERT_TRUE(service.apply(TopologyEvent::deploy(4, {2.0, 0.0})).ok);
  EXPECT_EQ(service.snapshot()->find(4)->neighbors, (topology::NeighborList{1, 2}));
  EXPECT_EQ(service.snapshot()->first_difference(*service.rebuild()).value_or(""), "");
}

// -- Commitment maintenance --------------------------------------------------

/// Every live node's maintained commitment must equal the scalar
/// core::binding_commitment over its snapshot tentative list.
void expect_commitments_match_scalar(const ValidationService& service,
                                     const crypto::SymmetricKey& master) {
  const auto snapshot = service.snapshot();
  std::size_t live = 0;
  for (const auto& [id, state] : snapshot->nodes()) {
    ++live;
    const crypto::Digest* maintained = service.binding_commitment_of(id);
    ASSERT_NE(maintained, nullptr) << "node " << id;
    EXPECT_EQ(*maintained, core::binding_commitment(master, id, 0, state->neighbors))
        << "node " << id;
  }
  EXPECT_EQ(service.commitment_count(), live);
}

TEST(ServiceCommitmentTest, MaintainedIncrementallyAcrossLifecycle) {
  const crypto::SymmetricKey master = crypto::SymmetricKey::from_seed(0xc0117);
  ServiceConfig config = small_config();
  config.master_key = master;
  ValidationService service(config);

  service.seed_topology(clique4());
  expect_commitments_match_scalar(service, master);

  // Deploy a fifth node: its own commitment appears and every in-range
  // neighbor's is refreshed.
  ASSERT_TRUE(service.apply(TopologyEvent::deploy(5, {0.5, 0.5})).ok);
  expect_commitments_match_scalar(service, master);

  // Move it out of the clique's disc, then back near one corner.
  ASSERT_TRUE(service.apply(TopologyEvent::update(5, {100.0, 100.0})).ok);
  expect_commitments_match_scalar(service, master);
  ASSERT_TRUE(service.apply(TopologyEvent::update(5, {1.5, 1.0})).ok);
  expect_commitments_match_scalar(service, master);

  // Revocation erases the node's commitment and refreshes its neighbors'.
  ASSERT_TRUE(service.apply(TopologyEvent::revoke(5)).ok);
  EXPECT_EQ(service.binding_commitment_of(5), nullptr);
  expect_commitments_match_scalar(service, master);

  // Rejected events leave the commitment table untouched.
  EXPECT_FALSE(service.apply(TopologyEvent::revoke(99)).ok);
  expect_commitments_match_scalar(service, master);
}

// The batched commitment maintenance must match the scalar derivation at
// every SIMD dispatch tier, through seeding, a deploy and a move.
TEST(ServiceCommitmentTest, BatchedMaintenanceMatchesScalarAtEveryTier) {
  const crypto::SymmetricKey master = crypto::SymmetricKey::from_seed(0xc0118);
  ServiceConfig config = small_config();
  config.master_key = master;

  test::for_each_simd_tier([&] {
    ValidationService service(config);
    service.seed_topology(clique4());
    expect_commitments_match_scalar(service, master);
    ASSERT_TRUE(service.apply(TopologyEvent::deploy(5, {0.5, 0.5})).ok);
    expect_commitments_match_scalar(service, master);
    ASSERT_TRUE(service.apply(TopologyEvent::update(2, {0.5, 1.5})).ok);
    expect_commitments_match_scalar(service, master);
  });
}

TEST(ServiceCommitmentTest, AbsentMasterKeyDisablesMaintenance) {
  ValidationService service(small_config());
  service.seed_topology(clique4());
  EXPECT_EQ(service.commitment_count(), 0u);
  EXPECT_EQ(service.binding_commitment_of(1), nullptr);
}

}  // namespace
}  // namespace snd::service
