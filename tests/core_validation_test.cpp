#include "core/validation.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <utility>
#include <vector>

#include "util/rng.h"

namespace snd::core {
namespace {

TEST(ThresholdTest, ExactBoundary) {
  const topology::NeighborList nu = {1, 2, 3, 4};
  const topology::NeighborList nv = {2, 3, 4, 5};
  EXPECT_TRUE(meets_threshold(nu, nv, 2));   // |∩| = 3 >= 3
  EXPECT_FALSE(meets_threshold(nu, nv, 3));  // |∩| = 3 < 4
}

TEST(ThresholdTest, ZeroThresholdNeedsOneCommon) {
  EXPECT_TRUE(meets_threshold({1}, {1}, 0));
  EXPECT_FALSE(meets_threshold({1}, {2}, 0));
}

// meets_threshold stops merging once its verdict is decided; every stop
// must agree with the full count, at every t up to past both list sizes.
TEST(ThresholdTest, EarlyExitAgreesWithFullCount) {
  util::Rng rng(20090622);
  const auto random_list = [&rng](std::size_t size, std::uint64_t universe) {
    topology::NeighborList list;
    while (list.size() < size) {
      topology::insert_sorted(list, static_cast<NodeId>(rng.uniform_int(universe)));
    }
    return list;
  };
  std::vector<std::pair<topology::NeighborList, topology::NeighborList>> cases = {
      {{}, {}},
      {{}, {1, 2, 3}},
      {{4, 5, 6}, {}},
      {{1, 2, 3, 4}, {1, 2, 3, 4}},  // identical
      {{1, 3, 5, 7}, {2, 4, 6, 8}},  // disjoint, interleaved
      {{1, 2, 3}, {10, 11, 12}},     // disjoint, one list ahead
  };
  for (int i = 0; i < 200; ++i) {
    const std::uint64_t universe = 1 + rng.uniform_int(64);
    const std::size_t a = rng.uniform_int(std::min<std::uint64_t>(universe, 40) + 1);
    const std::size_t b = rng.uniform_int(std::min<std::uint64_t>(universe, 40) + 1);
    cases.emplace_back(random_list(a, universe), random_list(b, universe));
  }
  for (const auto& [nu, nv] : cases) {
    const std::size_t common = topology::intersection_size(nu, nv);
    for (std::size_t t = 0; t <= std::max(nu.size(), nv.size()) + 1; ++t) {
      ASSERT_EQ(meets_threshold(nu, nv, t), common >= t + 1)
          << "t=" << t << " |nu|=" << nu.size() << " |nv|=" << nv.size()
          << " common=" << common;
      ASSERT_EQ(meets_threshold(nv, nu, t), common >= t + 1) << "swapped, t=" << t;
    }
  }
}

TEST(CommonNeighborValidatorTest, ValidatesWithEnoughOverlap) {
  CommonNeighborValidator validator(2);
  topology::Digraph g;
  for (NodeId c : {10u, 11u, 12u}) {
    g.add_edge(1, c);
    g.add_edge(2, c);
  }
  EXPECT_TRUE(validator.validate(1, 2, g));
}

TEST(CommonNeighborValidatorTest, RejectsInsufficientOverlap) {
  CommonNeighborValidator validator(2);
  topology::Digraph g;
  g.add_edge(1, 10);
  g.add_edge(2, 10);
  g.add_edge(1, 11);
  g.add_edge(2, 12);
  EXPECT_FALSE(validator.validate(1, 2, g));
}

TEST(CommonNeighborValidatorTest, MinimumDeploymentSizeIsTPlus3) {
  EXPECT_EQ(CommonNeighborValidator(0).minimum_deployment_size(), 3u);
  EXPECT_EQ(CommonNeighborValidator(10).minimum_deployment_size(), 13u);
}

TEST(CommonNeighborValidatorTest, MinimumDeploymentWitnessValidates) {
  for (std::size_t t : {0u, 1u, 5u, 20u}) {
    CommonNeighborValidator validator(t);
    const auto dep = validator.minimum_deployment(100);
    EXPECT_EQ(dep.graph.node_count(), validator.minimum_deployment_size()) << "t=" << t;
    EXPECT_TRUE(validator.validate(dep.u, dep.w, dep.graph)) << "t=" << t;
  }
}

TEST(CommonNeighborValidatorTest, MinimumDeploymentIsMinimal) {
  // Removing any common neighbor from the witness graph breaks validation.
  CommonNeighborValidator validator(3);
  auto dep = validator.minimum_deployment(1);
  dep.graph.remove_node(3);  // first common neighbor id = first_id + 2
  EXPECT_FALSE(validator.validate(dep.u, dep.w, dep.graph));
}

// Definition 3's isomorphism-invariance: for random graphs B and random
// injective relabelings f, F(u, v, B) == F(f(u), f(v), B_f).
class IsomorphismInvarianceTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(IsomorphismInvarianceTest, RelabelingPreservesDecisions) {
  util::Rng rng(GetParam());
  const std::size_t n = 12;
  topology::Digraph b;
  for (NodeId u = 1; u <= n; ++u) {
    b.add_node(u);
    for (NodeId v = 1; v <= n; ++v) {
      if (u != v && rng.chance(0.35)) b.add_edge(u, v);
    }
  }

  // Random permutation of 1..n shifted into a disjoint ID range.
  std::vector<NodeId> image(n);
  for (std::size_t i = 0; i < n; ++i) image[i] = static_cast<NodeId>(1000 + i);
  rng.shuffle(image.begin(), image.end());
  const auto f = [&image](NodeId x) { return image[x - 1]; };
  const topology::Digraph bf = b.relabeled(f);

  CommonNeighborValidator validator(1 + rng.uniform_int(3));
  for (NodeId u = 1; u <= n; ++u) {
    for (NodeId v = 1; v <= n; ++v) {
      if (u == v) continue;
      EXPECT_EQ(validator.validate(u, v, b), validator.validate(f(u), f(v), bf))
          << "pair (" << u << "," << v << ")";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(RandomGraphs, IsomorphismInvarianceTest,
                         ::testing::Range<std::uint64_t>(1, 11));

TEST(CommonNeighborValidatorTest, NameIncludesThreshold) {
  EXPECT_EQ(CommonNeighborValidator(7).name(), "common-neighbor(t=7)");
}

}  // namespace
}  // namespace snd::core
