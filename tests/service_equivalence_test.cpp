// The service's correctness gate: after ANY event sequence, the
// incrementally-maintained topology must serialize byte-identically to a
// from-scratch rebuild of the same world. This is what licenses the
// R-disc locality optimization in ValidationService::apply_locked -- if the
// affected-region bound were ever too tight, these tests would diverge.
// seed_topology and rebuild() derive N(u) through one cell-sorted pass, so
// both are also held to a brute-force all-pairs derivation that shares no
// cell arithmetic with that pass.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/validation.h"
#include "fault/plan.h"
#include "service/events.h"
#include "service/validation_service.h"
#include "topology/graph.h"
#include "util/rng.h"

namespace snd::service {
namespace {

std::vector<std::pair<NodeId, util::Vec2>> random_field(std::size_t count,
                                                        const util::Rect& field,
                                                        std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<std::pair<NodeId, util::Vec2>> nodes;
  nodes.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    nodes.emplace_back(static_cast<NodeId>(i + 1),
                       util::Vec2{rng.uniform(field.lo.x, field.hi.x),
                                  rng.uniform(field.lo.y, field.hi.y)});
  }
  return nodes;
}

void expect_equivalent(const ValidationService& service, const char* context) {
  const auto incremental = service.snapshot();
  const auto rebuilt = service.rebuild();
  ASSERT_EQ(incremental->first_difference(*rebuilt).value_or(""), "") << context;
  EXPECT_EQ(incremental->digest(), rebuilt->digest()) << context;
}

/// Every live node's row of the count index equals a from-scratch recount
/// of |N(u) ∩ N(v)| over v in N(u).
void expect_counts_recount(const ValidationService& service, const std::string& context) {
  const auto snapshot = service.snapshot();
  for (const auto& [id, state] : snapshot->nodes()) {
    const std::vector<std::uint32_t>* counts = service.common_counts(id);
    ASSERT_NE(counts, nullptr) << context << ": node " << id;
    ASSERT_EQ(counts->size(), state->neighbors.size()) << context << ": node " << id;
    for (std::size_t i = 0; i < counts->size(); ++i) {
      const NodeId other = state->neighbors[i];
      const NodeState* peer = snapshot->find(other);
      ASSERT_NE(peer, nullptr) << context << ": node " << id << " lists dead " << other;
      ASSERT_EQ((*counts)[i], topology::intersection_size(state->neighbors, peer->neighbors))
          << context << ": c(" << id << ", " << other << ")";
    }
  }
}

void expect_consistent(const ValidationService& service, const std::string& context) {
  expect_equivalent(service, context.c_str());
  expect_counts_recount(service, context);
}

std::vector<NodeId> ids_of(const std::vector<std::pair<NodeId, util::Vec2>>& nodes) {
  std::vector<NodeId> ids;
  ids.reserve(nodes.size());
  for (const auto& [id, position] : nodes) ids.push_back(id);
  return ids;
}

/// The world `nodes` (distinct ids) by brute force: SpatialGrid::in_range
/// over every pair, with no cells, then core::meets_threshold on the
/// resulting lists. It shares no cell arithmetic with seed_topology or
/// rebuild().
Snapshot brute_force(std::vector<std::pair<NodeId, util::Vec2>> nodes, double radius,
                     std::size_t t) {
  std::sort(nodes.begin(), nodes.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  std::vector<topology::NeighborList> lists(nodes.size());
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    for (std::size_t j = 0; j < nodes.size(); ++j) {
      if (j != i && SpatialGrid::in_range(nodes[i].second, nodes[j].second, radius)) {
        lists[i].push_back(nodes[j].first);
      }
    }
  }
  Snapshot::NodeMap map;
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    auto state = std::make_shared<NodeState>();
    state->position = nodes[i].second;
    for (const NodeId other : lists[i]) {
      const auto j = static_cast<std::size_t>(
          std::lower_bound(nodes.begin(), nodes.end(), other,
                           [](const auto& node, NodeId id) { return node.first < id; }) -
          nodes.begin());
      if (core::meets_threshold(lists[i], lists[j], t)) state->validated.push_back(other);
    }
    state->neighbors = lists[i];
    map.insert_or_assign(nodes[i].first, std::move(state));
  }
  return Snapshot(0, t, radius, std::make_shared<const Snapshot::NodeMap>(std::move(map)));
}

/// The snapshot and rebuild() both equal the brute-force derivation of the
/// service's live (id, position) pairs.
void expect_brute_force(const ValidationService& service, const std::string& context) {
  const auto snapshot = service.snapshot();
  std::vector<std::pair<NodeId, util::Vec2>> live;
  for (const auto& [id, state] : snapshot->nodes()) live.emplace_back(id, state->position);
  const Snapshot expected =
      brute_force(live, service.config().radio_range, service.config().threshold_t);
  ASSERT_EQ(snapshot->first_difference(expected).value_or(""), "") << context << ": snapshot";
  ASSERT_EQ(service.rebuild()->first_difference(expected).value_or(""), "")
      << context << ": rebuild()";
}

TEST(ServiceEquivalenceTest, SeededTopologyMatchesRebuild) {
  const util::Rect field{{0.0, 0.0}, {200.0, 200.0}};
  ValidationService service({.radio_range = 25.0, .threshold_t = 2});
  ASSERT_EQ(service.seed_topology(random_field(300, field, 11)).error, "");
  expect_equivalent(service, "after seed_topology");
}

TEST(ServiceEquivalenceTest, RandomizedSequencesMatchRebuild) {
  const util::Rect field{{0.0, 0.0}, {150.0, 150.0}};
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    ValidationService service({.radio_range = 25.0, .threshold_t = 2});
    const auto initial = random_field(120, field, util::derive_seed(500, seed));
    ASSERT_EQ(service.seed_topology(initial).error, "");
    std::vector<NodeId> live;
    for (const auto& [id, position] : initial) live.push_back(id);
    const auto events = random_events(250, field, std::move(live), seed);
    for (const TopologyEvent& event : events) {
      ASSERT_TRUE(service.apply(event).ok);
    }
    expect_equivalent(service, "after randomized per-event ingestion");
    expect_brute_force(service, "after randomized per-event ingestion, seed " +
                                    std::to_string(seed));
  }
}

TEST(ServiceEquivalenceTest, BatchIngestionMatchesRebuild) {
  const util::Rect field{{0.0, 0.0}, {150.0, 150.0}};
  ValidationService service({.radio_range = 25.0, .threshold_t = 2});
  const auto initial = random_field(150, field, 77);
  ASSERT_EQ(service.seed_topology(initial).error, "");
  std::vector<NodeId> live;
  for (const auto& [id, position] : initial) live.push_back(id);
  const auto events = random_events(400, field, std::move(live), 78);
  EXPECT_EQ(service.apply_all(events), events.size());
  expect_equivalent(service, "after apply_all batch");
}

TEST(ServiceEquivalenceTest, RejectedEventsLeaveTopologyEquivalent) {
  const util::Rect field{{0.0, 0.0}, {100.0, 100.0}};
  ValidationService service({.radio_range = 25.0, .threshold_t = 1});
  ASSERT_EQ(service.seed_topology(random_field(50, field, 5)).error, "");
  EXPECT_FALSE(service.apply(TopologyEvent::deploy(3, {1.0, 1.0})).ok);
  EXPECT_FALSE(service.apply(TopologyEvent::revoke(9999)).ok);
  EXPECT_FALSE(service.apply(TopologyEvent::update(9999, {1.0, 1.0})).ok);
  expect_equivalent(service, "after rejected events");
}

TEST(ServiceEquivalenceTest, DenseClusterStressMatchesRebuild) {
  // Everything inside a couple of radio ranges: every event touches a large
  // fraction of the network, exercising the pair-recheck pass heavily.
  const util::Rect field{{0.0, 0.0}, {40.0, 40.0}};
  ValidationService service({.radio_range = 25.0, .threshold_t = 3});
  const auto initial = random_field(80, field, 21);
  ASSERT_EQ(service.seed_topology(initial).error, "");
  std::vector<NodeId> live;
  for (const auto& [id, position] : initial) live.push_back(id);
  const auto events = random_events(300, field, std::move(live), 22);
  for (std::size_t i = 0; i < events.size(); ++i) {
    ASSERT_TRUE(service.apply(events[i]).ok);
    // Spot-check equivalence mid-sequence, not just at the end.
    if (i % 97 == 0) expect_equivalent(service, "mid-sequence");
  }
  expect_equivalent(service, "after dense-cluster sequence");
}

// The count index against a recount, across the threshold range: the
// paper's Fig. 3 field (200 nodes in 100x100 m, R = 50, about 100
// neighbors) and a sparse one, at t from 0 to past every degree, where
// verdicts all hold, flip often, or never hold.
TEST(ServiceEquivalenceTest, CountIndexMatchesRecountAcrossThresholds) {
  struct Field {
    const char* name;
    util::Rect area;
    std::size_t nodes;
    std::size_t events;
  };
  const Field fields[] = {
      {"paper", {{0.0, 0.0}, {100.0, 100.0}}, 200, 120},
      {"sparse", {{0.0, 0.0}, {400.0, 400.0}}, 150, 300},
  };
  for (const Field& field : fields) {
    for (const std::size_t t : {0u, 1u, 5u, 50u, 150u, 1000u}) {
      for (std::uint64_t seed = 1; seed <= 2; ++seed) {
        const std::string context = std::string(field.name) + " t=" + std::to_string(t) +
                                    " seed=" + std::to_string(seed);
        ValidationService service({.radio_range = 50.0, .threshold_t = t});
        const auto initial = random_field(field.nodes, field.area, util::derive_seed(900, seed));
        ASSERT_EQ(service.seed_topology(initial).error, "");
        expect_counts_recount(service, context + " after seed_topology");
        const auto events = random_events(field.events, field.area, ids_of(initial), seed);
        for (const TopologyEvent& event : events) {
          ASSERT_TRUE(service.apply(event).ok) << context;
        }
        expect_consistent(service, context);
      }
    }
  }
}

TEST(ServiceEquivalenceTest, CountIndexEdgeCases) {
  const util::Rect field{{0.0, 0.0}, {100.0, 100.0}};
  ValidationService service({.radio_range = 50.0, .threshold_t = 5});
  const auto initial = random_field(200, field, 41);
  ASSERT_EQ(service.seed_topology(initial).error, "");

  const util::Vec2 home = service.snapshot()->find(7)->position;
  ASSERT_TRUE(service.apply(TopologyEvent::update(7, home)).ok);
  expect_consistent(service, "update to the same position");

  const util::Vec2 start = service.snapshot()->find(8)->position;
  ASSERT_TRUE(service.apply(TopologyEvent::update(8, {start.x + 10.0, start.y - 5.0})).ok);
  expect_consistent(service, "update inside the node's own disc");

  ASSERT_TRUE(service.apply(TopologyEvent::deploy(10'000, {1000.0, 1000.0})).ok);
  ASSERT_NE(service.common_counts(10'000), nullptr);
  EXPECT_TRUE(service.common_counts(10'000)->empty());
  expect_consistent(service, "deploy into an empty area");

  ASSERT_TRUE(service.apply(TopologyEvent::revoke(10'000)).ok);
  EXPECT_EQ(service.common_counts(10'000), nullptr);
  expect_consistent(service, "revoke of an isolated node");

  const std::vector<TopologyEvent> batch = {TopologyEvent::deploy(20'000, {50.0, 50.0}),
                                            TopologyEvent::revoke(20'000)};
  EXPECT_EQ(service.apply_all(batch), 2u);
  EXPECT_EQ(service.snapshot()->find(20'000), nullptr);
  EXPECT_EQ(service.common_counts(20'000), nullptr);
  expect_consistent(service, "batch deploying and revoking one id");

  // Rejected events change nothing: not the topology, and not one count.
  std::vector<std::vector<std::uint32_t>> rows;
  for (const auto& [id, state] : service.snapshot()->nodes()) {
    rows.push_back(*service.common_counts(id));
  }
  const std::uint64_t epoch = service.snapshot()->epoch();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_FALSE(service.apply(TopologyEvent::deploy(3, {1.0, 1.0})).ok);
  EXPECT_FALSE(service.apply(TopologyEvent::deploy(30'000, {nan, 1.0})).ok);
  EXPECT_FALSE(service.apply(TopologyEvent::update(4, {1.0, nan})).ok);
  EXPECT_FALSE(service.apply(TopologyEvent::update(9999, {1.0, 1.0})).ok);
  EXPECT_FALSE(service.apply(TopologyEvent::revoke(9999)).ok);
  EXPECT_EQ(service.apply_all(std::vector<TopologyEvent>{TopologyEvent::revoke(9999)}), 0u);
  EXPECT_EQ(service.snapshot()->epoch(), epoch + 1);  // the batch still publishes
  std::size_t index = 0;
  for (const auto& [id, state] : service.snapshot()->nodes()) {
    ASSERT_EQ(*service.common_counts(id), rows[index++]) << "node " << id;
  }
  EXPECT_EQ(service.common_counts(30'000), nullptr);
  expect_consistent(service, "after rejected events");
}

// -- The bulk bootstrap against independent derivations -----------------------

using Bootstrap = std::vector<std::pair<NodeId, util::Vec2>>;

struct BootstrapCase {
  std::string name;
  double radius;
  Bootstrap nodes;
};

/// `value` moved `steps` ulps up (or down, for negative steps).
double ulps(double value, int steps) {
  const double inf = std::numeric_limits<double>::infinity();
  for (; steps > 0; --steps) value = std::nextafter(value, inf);
  for (; steps < 0; ++steps) value = std::nextafter(value, -inf);
  return value;
}

/// Ids 1, 2, ... in input order.
Bootstrap numbered(const std::vector<util::Vec2>& positions) {
  Bootstrap nodes;
  for (const util::Vec2 position : positions) {
    nodes.emplace_back(static_cast<NodeId>(nodes.size() + 1), position);
  }
  return nodes;
}

/// Nodes on the axes at multiples of `radius` from -3R to 3R, each also one
/// ulp either side: pairs exactly R apart, one ulp closer and one ulp beyond.
Bootstrap axis_pairs(double radius) {
  std::vector<util::Vec2> positions;
  for (int k = -3; k <= 3; ++k) {
    for (const int step : {-1, 0, 1}) {
      const double at = ulps(k * radius, step);
      positions.push_back({at, 0.0});
      positions.push_back({0.0, at});
    }
  }
  return numbered(positions);
}

std::vector<BootstrapCase> bootstrap_cases() {
  std::vector<BootstrapCase> cases;

  // Sparse ids, 0 and 0xFFFFFFFE among them, in shuffled input order.
  Bootstrap sparse = random_field(300, {{-120.0, -120.0}, {120.0, 120.0}}, 61);
  for (std::size_t i = 0; i < sparse.size(); ++i) {
    sparse[i].first = static_cast<NodeId>(i * 9'973'127 + 5);
  }
  sparse.front().first = 0;
  sparse.back().first = 0xFFFF'FFFE;
  util::Rng(62).shuffle(sparse.begin(), sparse.end());
  cases.push_back({"sparse shuffled ids", 25.0, sparse});

  cases.push_back({"axis pairs R=1", 1.0, axis_pairs(1.0)});
  cases.push_back({"axis pairs R=50", 50.0, axis_pairs(50.0)});
  cases.push_back({"axis pairs R=0.1", 0.1, axis_pairs(0.1)});
  // 2 and 1 - 2^-53 are 1 + 2^-53 apart, which rounds to exactly R = 1; the
  // cell range of the disc at 2 starts at cell 1 and misses cell 0.
  cases.push_back({"one ulp beyond across a cell boundary", 1.0,
                   numbered({{2.0, 0.0}, {ulps(1.0, -1), 0.0}, {2.0, 0.5}, {0.5, 0.0},
                             {0.0, 2.0}, {0.0, ulps(1.0, -1)}, {-1.0, 0.0},
                             {ulps(0.0, -1), 0.0}})});

  // A lattice on cell boundaries, around the origin into negative cells.
  std::vector<util::Vec2> lattice;
  for (int i = -4; i <= 4; ++i) {
    for (int j = -4; j <= 4; ++j) lattice.push_back({i * 25.0, j * 25.0});
  }
  cases.push_back({"cell-boundary lattice", 25.0, numbered(lattice)});

  // R = 0.1: floor((x ± R)/R) rounds, so a disc can span four columns
  // (x = 0.3 reaches cell 4). Both i/10 and i·0.1, which differ for some i.
  std::vector<util::Vec2> tenths;
  for (int i = -2; i <= 10; ++i) {
    for (int j = -2; j <= 10; ++j) {
      tenths.push_back({i / 10.0, j / 10.0});
      tenths.push_back({i * 0.1, j * 0.1});
    }
  }
  const Bootstrap scattered = random_field(150, {{-0.5, -0.5}, {1.0, 1.0}}, 63);
  for (const auto& [id, position] : scattered) tenths.push_back(position);
  cases.push_back({"R=0.1 tenths", 0.1, numbered(tenths)});

  std::vector<util::Vec2> coincident(12, util::Vec2{7.0, -3.0});
  coincident.push_back({7.0, 2.0});
  coincident.push_back({12.0, -3.0});
  coincident.push_back({40.0, 40.0});
  cases.push_back({"coincident", 5.0, numbered(coincident)});

  cases.push_back({"one cell", 50.0, random_field(60, {{50.0, -100.0}, {99.0, -51.0}}, 64)});
  cases.push_back({"single node", 50.0, numbered({{-3.5, 4.25}})});
  cases.push_back({"empty", 50.0, {}});
  return cases;
}

TEST(ServiceEquivalenceTest, BulkSeedMatchesIndependentDerivations) {
  for (const BootstrapCase& input : bootstrap_cases()) {
    // t = 0, 1, 5, and one above the largest degree. N(·) must be
    // symmetric, also where a rounded distance is exactly R but the exact
    // one is not: the count pass and ingestion rely on it.
    std::size_t largest = 0;
    {
      ValidationService probe({.radio_range = input.radius, .threshold_t = 0});
      ASSERT_TRUE(probe.seed_topology(input.nodes).ok) << input.name;
      const auto snapshot = probe.snapshot();
      for (const auto& [id, state] : snapshot->nodes()) {
        largest = std::max(largest, state->neighbors.size());
        for (const NodeId other : state->neighbors) {
          ASSERT_TRUE(topology::contains(snapshot->find(other)->neighbors, id))
              << input.name << ": " << other << " does not list " << id;
        }
      }
    }
    for (const std::size_t t : {std::size_t{0}, std::size_t{1}, std::size_t{5}, largest + 1}) {
      const std::string context = input.name + " t=" + std::to_string(t);
      const ServiceConfig config{.radio_range = input.radius, .threshold_t = t};
      ValidationService seeded(config);
      ASSERT_TRUE(seeded.seed_topology(input.nodes).ok) << context;
      EXPECT_EQ(seeded.node_count(), input.nodes.size()) << context;
      expect_consistent(seeded, context);

      ValidationService deployed(config);
      std::vector<TopologyEvent> deploys;
      for (const auto& [id, position] : input.nodes) {
        deploys.push_back(TopologyEvent::deploy(id, position));
      }
      ASSERT_EQ(deployed.apply_all(deploys), deploys.size()) << context;
      ASSERT_EQ(seeded.snapshot()->first_difference(*deployed.snapshot()).value_or(""), "")
          << context;
    }
  }
}

// seed_topology and rebuild() derive N(u) through one pass, so comparing
// them cannot catch a cell-range bug in it; the brute-force derivation can.
TEST(ServiceEquivalenceTest, BulkSeedAndRebuildMatchBruteForce) {
  for (const BootstrapCase& input : bootstrap_cases()) {
    std::size_t largest = 0;
    const Snapshot probe = brute_force(input.nodes, input.radius, 0);
    for (const auto& [id, state] : probe.nodes()) {
      largest = std::max(largest, state->neighbors.size());
    }
    for (const std::size_t t : {std::size_t{0}, std::size_t{1}, std::size_t{5}, largest + 1}) {
      const std::string context = input.name + " t=" + std::to_string(t);
      ValidationService seeded({.radio_range = input.radius, .threshold_t = t});
      ASSERT_TRUE(seeded.seed_topology(input.nodes).ok) << context;
      expect_brute_force(seeded, context);
    }
  }
}

TEST(ServiceEquivalenceTest, FaultPlanDrivenSequenceMatchesRebuild) {
  const util::Rect field{{0.0, 0.0}, {120.0, 120.0}};
  ValidationService service({.radio_range = 25.0, .threshold_t = 2});
  const auto initial = random_field(100, field, 31);
  ASSERT_EQ(service.seed_topology(initial).error, "");

  // Crash a handful of nodes, reboot some of them later; delivery actions
  // are topology-neutral and must be skipped by the projection.
  fault::FaultPlan plan;
  plan.seed = 99;
  for (NodeId node : {5u, 17u, 42u, 83u}) {
    fault::FaultAction crash;
    crash.kind = fault::ActionKind::kCrash;
    crash.node = node;
    crash.at_ns = 1'000 * node;
    plan.actions.push_back(crash);
  }
  for (NodeId node : {17u, 42u}) {
    fault::FaultAction reboot;
    reboot.kind = fault::ActionKind::kReboot;
    reboot.node = node;
    reboot.at_ns = 1'000'000 + 1'000 * node;
    plan.actions.push_back(reboot);
  }
  fault::FaultAction drop;  // no topology effect
  drop.kind = fault::ActionKind::kDrop;
  plan.actions.push_back(drop);

  const auto events = events_from_fault_plan(plan, field);
  ASSERT_EQ(events.size(), 6u);
  EXPECT_EQ(events.front().kind, EventKind::kRevoke);
  for (const TopologyEvent& event : events) {
    ASSERT_TRUE(service.apply(event).ok) << event.node;
  }
  EXPECT_EQ(service.node_count(), initial.size() - 2);
  expect_equivalent(service, "after fault-plan projection");

  // The projection itself is deterministic (reboot positions derive from
  // the plan seed).
  EXPECT_TRUE(events == events_from_fault_plan(plan, field));
}

// -- Snapshot::first_difference: the gate's comparison ------------------------

struct PlainNode {
  NodeId id = 0;
  util::Vec2 position;
  topology::NeighborList neighbors;
  topology::NeighborList validated;
};

Snapshot make_snapshot(std::size_t t, double radius, const std::vector<PlainNode>& nodes) {
  Snapshot::NodeMap map;
  for (const PlainNode& node : nodes) {
    auto state = std::make_shared<NodeState>();
    state->position = node.position;
    state->neighbors = node.neighbors;
    state->validated = node.validated;
    map.insert_or_assign(node.id, std::move(state));
  }
  return Snapshot(0, t, radius, std::make_shared<const Snapshot::NodeMap>(std::move(map)));
}

/// first_difference finds nothing exactly when the canonical strings are
/// equal, in both directions. Returns whether they were equal.
bool expect_agrees_with_canonical(const Snapshot& a, const Snapshot& b,
                                  const std::string& context) {
  const bool same_text = a.canonical_json() == b.canonical_json();
  const auto ab = a.first_difference(b);
  const auto ba = b.first_difference(a);
  EXPECT_EQ(!ab.has_value(), same_text) << context << ": " << ab.value_or("nothing");
  EXPECT_EQ(!ba.has_value(), same_text) << context << ": " << ba.value_or("nothing");
  return same_text;
}

TEST(SnapshotDifferenceTest, FindsNothingExactlyWhenCanonicalStringsAreEqual) {
  // Values whose "%a" forms collide or nearly collide: both zeros, NaNs of
  // either sign with different payloads (the format drops the payload), a
  // denormal, an infinity.
  const double nan_a = std::numeric_limits<double>::quiet_NaN();
  const double nan_b = std::bit_cast<double>(std::bit_cast<std::uint64_t>(nan_a) | 1);
  const std::vector<double> values = {0.0, -0.0, 1.0, 0.1, nan_a, -nan_a, nan_b,
                                      4.9e-324, std::numeric_limits<double>::infinity()};
  util::Rng rng(20260);
  const auto pick = [&](std::size_t n) {
    return static_cast<std::size_t>(rng.uniform_int(static_cast<std::uint64_t>(n)));
  };
  const auto random_list = [&] {
    topology::NeighborList list;
    for (NodeId v = 0; v < 6; ++v) {
      if (pick(3) == 0) list.push_back(v);
    }
    return list;
  };
  const auto random_nodes = [&] {
    std::vector<PlainNode> nodes;
    for (NodeId id = 0; id < 6; ++id) {
      if (pick(2) == 0) continue;
      nodes.push_back({id, {values[pick(values.size())], values[pick(values.size())]},
                       random_list(), random_list()});
    }
    return nodes;
  };

  std::size_t equal = 0;
  constexpr int kRounds = 2000;
  for (int round = 0; round < kRounds; ++round) {
    const std::string context = "round " + std::to_string(round);
    const std::size_t t = pick(2);
    const double radius = values[pick(values.size())];
    const std::vector<PlainNode> base = random_nodes();
    std::vector<PlainNode> other = base;
    std::size_t other_t = t;
    double other_radius = radius;
    // One edit (or none, or a whole new world) of each kind the gate sees.
    switch (pick(7)) {
      case 0:
        break;
      case 1:
        other = random_nodes();
        break;
      case 2:
        other_t = pick(2);
        other_radius = values[pick(values.size())];
        break;
      case 3:
        if (!other.empty()) other.erase(other.begin() + static_cast<long>(pick(other.size())));
        break;
      case 4:
        if (!other.empty()) {
          PlainNode& node = other[pick(other.size())];
          (pick(2) == 0 ? node.position.x : node.position.y) = values[pick(values.size())];
        }
        break;
      case 5:
        if (!other.empty()) other[pick(other.size())].neighbors = random_list();
        break;
      default:
        if (!other.empty()) other[pick(other.size())].validated = random_list();
        break;
    }
    equal += expect_agrees_with_canonical(make_snapshot(t, radius, base),
                                          make_snapshot(other_t, other_radius, other), context)
                 ? 1
                 : 0;
  }
  // Both outcomes are exercised, the equal one also through NaN payloads.
  EXPECT_GT(equal, kRounds / 10u);
  EXPECT_LT(equal, kRounds * 9u / 10u);
}

TEST(SnapshotDifferenceTest, NamesThePlantedDifference) {
  const std::vector<PlainNode> base = {{3, {1.0, 0.0}, {5, 8}, {5}},
                                       {5, {2.0, 2.0}, {3, 8}, {3}},
                                       {8, {4.0, 1.5}, {3, 5}, {}}};
  const Snapshot reference = make_snapshot(2, 25.0, base);
  EXPECT_EQ(reference.first_difference(make_snapshot(2, 25.0, base)), std::nullopt);

  std::vector<PlainNode> signed_zero = base;
  signed_zero[0].position.y = -0.0;  // equal as doubles, not as "%a" prints them
  EXPECT_EQ(reference.first_difference(make_snapshot(2, 25.0, signed_zero)).value_or(""),
            "node 3: pos.y is 0x0p+0 vs -0x0p+0");

  std::vector<PlainNode> one_element = base;
  one_element[1].neighbors = {3, 9};
  EXPECT_EQ(reference.first_difference(make_snapshot(2, 25.0, one_element)).value_or(""),
            "node 5: neighbors[1] is 8 vs 9");
  std::vector<PlainNode> shorter = base;
  shorter[2].validated = {3};
  EXPECT_EQ(reference.first_difference(make_snapshot(2, 25.0, shorter)).value_or(""),
            "node 8: validated[0] is absent vs 3");

  std::vector<PlainNode> missing = base;
  missing.erase(missing.begin() + 1);
  EXPECT_EQ(reference.first_difference(make_snapshot(2, 25.0, missing)).value_or(""),
            "node 5 is only in the first snapshot");
  EXPECT_EQ(make_snapshot(2, 25.0, missing).first_difference(reference).value_or(""),
            "node 5 is only in the second snapshot");
  std::vector<PlainNode> last_missing = base;
  last_missing.pop_back();
  EXPECT_EQ(reference.first_difference(make_snapshot(2, 25.0, last_missing)).value_or(""),
            "node 8 is only in the first snapshot");

  EXPECT_EQ(reference.first_difference(make_snapshot(3, 25.0, base)).value_or(""), "t is 2 vs 3");
  EXPECT_EQ(reference.first_difference(make_snapshot(2, 30.0, base)).value_or(""),
            "radio_range is 0x1.9p+4 vs 0x1.ep+4");
}

}  // namespace
}  // namespace snd::service
