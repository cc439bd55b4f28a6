// The service's correctness gate: after ANY event sequence, the
// incrementally-maintained topology must serialize byte-identically to a
// from-scratch rebuild of the same world. This is what licenses the
// R-disc locality optimization in ValidationService::apply_locked -- if the
// affected-region bound were ever too tight, these tests would diverge.
#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "fault/plan.h"
#include "service/events.h"
#include "service/validation_service.h"
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
  ASSERT_EQ(incremental->canonical_json(), rebuilt->canonical_json()) << context;
  EXPECT_EQ(incremental->digest(), rebuilt->digest()) << context;
}

TEST(ServiceEquivalenceTest, SeededTopologyMatchesRebuild) {
  const util::Rect field{{0.0, 0.0}, {200.0, 200.0}};
  ValidationService service({.radio_range = 25.0, .threshold_t = 2});
  service.seed_topology(random_field(300, field, 11));
  expect_equivalent(service, "after seed_topology");
}

TEST(ServiceEquivalenceTest, RandomizedSequencesMatchRebuild) {
  const util::Rect field{{0.0, 0.0}, {150.0, 150.0}};
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    ValidationService service({.radio_range = 25.0, .threshold_t = 2});
    const auto initial = random_field(120, field, util::derive_seed(500, seed));
    service.seed_topology(initial);
    std::vector<NodeId> live;
    for (const auto& [id, position] : initial) live.push_back(id);
    const auto events = random_events(250, field, std::move(live), seed);
    for (const TopologyEvent& event : events) {
      ASSERT_TRUE(service.apply(event).ok);
    }
    expect_equivalent(service, "after randomized per-event ingestion");
  }
}

TEST(ServiceEquivalenceTest, BatchIngestionMatchesRebuild) {
  const util::Rect field{{0.0, 0.0}, {150.0, 150.0}};
  ValidationService service({.radio_range = 25.0, .threshold_t = 2});
  const auto initial = random_field(150, field, 77);
  service.seed_topology(initial);
  std::vector<NodeId> live;
  for (const auto& [id, position] : initial) live.push_back(id);
  const auto events = random_events(400, field, std::move(live), 78);
  EXPECT_EQ(service.apply_all(events), events.size());
  expect_equivalent(service, "after apply_all batch");
}

TEST(ServiceEquivalenceTest, RejectedEventsLeaveTopologyEquivalent) {
  const util::Rect field{{0.0, 0.0}, {100.0, 100.0}};
  ValidationService service({.radio_range = 25.0, .threshold_t = 1});
  service.seed_topology(random_field(50, field, 5));
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
  service.seed_topology(initial);
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

TEST(ServiceEquivalenceTest, FaultPlanDrivenSequenceMatchesRebuild) {
  const util::Rect field{{0.0, 0.0}, {120.0, 120.0}};
  ValidationService service({.radio_range = 25.0, .threshold_t = 2});
  const auto initial = random_field(100, field, 31);
  service.seed_topology(initial);

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

}  // namespace
}  // namespace snd::service
