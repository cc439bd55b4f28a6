#include <gtest/gtest.h>

#include <cmath>

#include "apps/aggregation.h"
#include "apps/clustering.h"
#include "apps/flooding.h"
#include "apps/georouting.h"

namespace snd::apps {
namespace {

std::unique_ptr<sim::Network> line_network(std::size_t n, double spacing, double range) {
  auto network = std::make_unique<sim::Network>(std::make_unique<sim::UnitDiskModel>(range),
                                                sim::ChannelConfig{}, 1);
  for (std::size_t i = 0; i < n; ++i) {
    network->add_device(static_cast<NodeId>(i + 1), {static_cast<double>(i) * spacing, 0.0});
  }
  return network;
}

TEST(GeoRouterTest, RoutesAlongALine) {
  auto network = line_network(10, 10.0, 15.0);
  GeoRouter router(*network);
  const Route route = router.route(0, 9);
  EXPECT_TRUE(route.success);
  EXPECT_EQ(route.path.front(), 0u);
  EXPECT_EQ(route.path.back(), 9u);
  EXPECT_EQ(route.hops(), 9u);
  EXPECT_NEAR(route.length_m, 90.0, 1e-9);
}

TEST(GeoRouterTest, GreedyTakesLongestProgressHop) {
  auto network = line_network(10, 10.0, 25.0);  // can skip every other node
  GeoRouter router(*network);
  const Route route = router.route(0, 9);
  EXPECT_TRUE(route.success);
  EXPECT_LE(route.hops(), 5u);
}

TEST(GeoRouterTest, FailsAcrossAGap) {
  auto network = std::make_unique<sim::Network>(std::make_unique<sim::UnitDiskModel>(15.0),
                                                sim::ChannelConfig{}, 1);
  network->add_device(1, {0, 0});
  network->add_device(2, {10, 0});
  network->add_device(3, {60, 0});  // unreachable island
  GeoRouter router(*network);
  const Route route = router.route(0, 2);
  EXPECT_FALSE(route.success);
  EXPECT_EQ(route.path.back(), 1u);  // got as close as possible
}

TEST(GeoRouterTest, RouteToSelfIsTrivial) {
  auto network = line_network(3, 10.0, 15.0);
  GeoRouter router(*network);
  const Route route = router.route(1, 1);
  EXPECT_TRUE(route.success);
  EXPECT_EQ(route.hops(), 0u);
}

TEST(GeoRouterTest, RestrictedTopologyBlocksForbiddenEdges) {
  auto network = line_network(4, 10.0, 15.0);
  // Allowed graph omits the 2 -> 3 identity edge, severing the line.
  topology::Digraph allowed;
  allowed.add_edge(1, 2);
  allowed.add_edge(2, 1);
  allowed.add_edge(3, 4);
  allowed.add_edge(4, 3);
  GeoRouter router(*network, allowed);
  const Route route = router.route(0, 3);
  EXPECT_FALSE(route.success);
  EXPECT_EQ(route.path.back(), 1u);  // device index of identity 2
}

TEST(GeoRouterTest, RouteToPositionStopsAtClosestNode) {
  auto network = line_network(5, 10.0, 15.0);
  GeoRouter router(*network);
  const Route route = router.route_to_position(0, {100.0, 0.0});
  EXPECT_TRUE(route.success);
  EXPECT_EQ(route.path.back(), 4u);  // last device on the line
}

TEST(GeoRouterTest, DeadDevicesNotUsed) {
  auto network = line_network(5, 10.0, 15.0);
  network->set_alive(2, false);  // middle of the line
  GeoRouter router(*network);
  const Route route = router.route(0, 4);
  EXPECT_FALSE(route.success);
}

// --- Clustering ---------------------------------------------------------

topology::Digraph complete_graph(NodeId first, NodeId last) {
  topology::Digraph g;
  for (NodeId u = first; u <= last; ++u) {
    for (NodeId v = first; v <= last; ++v) {
      if (u != v) g.add_edge(u, v);
    }
  }
  return g;
}

TEST(ClusteringTest, CompleteGraphOneCluster) {
  const Clustering clustering = smallest_id_clustering(complete_graph(1, 6));
  EXPECT_EQ(clustering.cluster_count(), 1u);
  EXPECT_TRUE(clustering.is_head(1));
  for (NodeId u = 2; u <= 6; ++u) {
    EXPECT_EQ(clustering.head_of.at(u), 1u);
    EXPECT_FALSE(clustering.is_head(u));
  }
}

TEST(ClusteringTest, IsolatedNodeHeadsItself) {
  topology::Digraph g;
  g.add_node(5);
  const Clustering clustering = smallest_id_clustering(g);
  EXPECT_TRUE(clustering.is_head(5));
}

TEST(ClusteringTest, TwoIslandsTwoClusters) {
  topology::Digraph g = complete_graph(1, 3);
  for (const auto& [u, v] : complete_graph(10, 12).edges()) g.add_edge(u, v);
  const Clustering clustering = smallest_id_clustering(g);
  EXPECT_EQ(clustering.cluster_count(), 2u);
  EXPECT_TRUE(clustering.is_head(1));
  EXPECT_TRUE(clustering.is_head(10));
}

TEST(ClusteringTest, NonHeadWithNoHeadNeighborBecomesHead) {
  // Chain 1-2-3: 1 is head; 2 joins 1; 3's only neighbor 2 is not a head,
  // and 3 is not locally smallest... 3's neighbors = {2}, 2 < 3, so 3 is
  // not a head by rule 1, and must self-head by rule 2.
  topology::Digraph g;
  g.add_edge(1, 2);
  g.add_edge(2, 1);
  g.add_edge(2, 3);
  g.add_edge(3, 2);
  const Clustering clustering = smallest_id_clustering(g);
  EXPECT_EQ(clustering.head_of.at(1), 1u);
  EXPECT_EQ(clustering.head_of.at(2), 1u);
  EXPECT_EQ(clustering.head_of.at(3), 3u);
}

TEST(ClusteringTest, EveryNodeAssigned) {
  const topology::Digraph g = complete_graph(1, 20);
  const Clustering clustering = smallest_id_clustering(g);
  EXPECT_EQ(clustering.head_of.size(), 20u);
  std::size_t members = 0;
  for (const auto& [head, cluster] : clustering.clusters) members += cluster.size();
  EXPECT_EQ(members, 20u);
}

TEST(ClusterQualityTest, TightClusterSmallDiameter) {
  Clustering clustering;
  clustering.head_of = {{1, 1}, {2, 1}, {3, 1}};
  clustering.clusters[1] = {1, 2, 3};
  const std::map<NodeId, util::Vec2> positions = {
      {1, {0, 0}}, {2, {1, 0}}, {3, {0, 1}}};
  const ClusterQuality quality = evaluate_clusters(clustering, positions);
  EXPECT_EQ(quality.cluster_count, 1u);
  EXPECT_NEAR(quality.max_diameter_m, std::sqrt(2.0), 1e-9);
  EXPECT_NEAR(quality.max_member_to_head_m, 1.0, 1e-9);
}

TEST(ClusterQualityTest, FabricatedRelationInflatesDiameter) {
  // The paper's motivating failure: a remote member joins a local cluster.
  Clustering clustering;
  clustering.head_of = {{1, 1}, {2, 1}, {99, 1}};
  clustering.clusters[1] = {1, 2, 99};
  const std::map<NodeId, util::Vec2> positions = {
      {1, {0, 0}}, {2, {5, 0}}, {99, {400, 400}}};
  const ClusterQuality quality = evaluate_clusters(clustering, positions);
  EXPECT_GT(quality.max_diameter_m, 500.0);
}

TEST(ClusterQualityTest, UnknownPositionsSkipped) {
  Clustering clustering;
  clustering.head_of = {{1, 1}, {2, 1}};
  clustering.clusters[1] = {1, 2};
  const ClusterQuality quality = evaluate_clusters(clustering, {{1, {0, 0}}});
  EXPECT_EQ(quality.max_diameter_m, 0.0);
}

// --- Aggregation ---------------------------------------------------------

TEST(AggregationTest, SyntheticFieldVariesOverSpace) {
  EXPECT_NE(synthetic_field({0, 0}), synthetic_field({400, 400}));
  // Hot spot is the maximum neighborhood.
  EXPECT_GT(synthetic_field({120, 80}), synthetic_field({350, 20}));
}

TEST(AggregationTest, TightClusterHasSmallError) {
  Clustering clustering;
  clustering.clusters[1] = {1, 2, 3};
  const std::map<NodeId, util::Vec2> positions = {{1, {10, 10}}, {2, {12, 10}}, {3, {10, 13}}};
  const AggregationReport report = evaluate_aggregation(clustering, positions);
  EXPECT_EQ(report.clusters_evaluated, 1u);
  EXPECT_LT(report.mean_error, 0.5);
}

TEST(AggregationTest, RemoteMemberCorruptsAverage) {
  Clustering local;
  local.clusters[1] = {1, 2};
  Clustering poisoned;
  poisoned.clusters[1] = {1, 2, 99};
  const std::map<NodeId, util::Vec2> positions = {
      {1, {10, 10}}, {2, {12, 10}}, {99, {400, 400}}};
  const double clean_error = evaluate_aggregation(local, positions).mean_error;
  const double poisoned_error = evaluate_aggregation(poisoned, positions).mean_error;
  EXPECT_GT(poisoned_error, clean_error + 1.0);
}

TEST(AggregationTest, HeadWithoutPositionSkipped) {
  Clustering clustering;
  clustering.clusters[7] = {7, 8};
  const AggregationReport report =
      evaluate_aggregation(clustering, {{8, {0.0, 0.0}}});
  EXPECT_EQ(report.clusters_evaluated, 0u);
  EXPECT_EQ(report.mean_error, 0.0);
}

// --- Flooding -----------------------------------------------------------

TEST(FloodingTest, ReachesWholeConnectedComponent) {
  auto network = line_network(6, 10.0, 15.0);
  const FloodCost cost = estimate_flood(*network, 0, 50);
  EXPECT_EQ(cost.reached, 6u);
  EXPECT_EQ(cost.transmissions, 6u);
  EXPECT_EQ(cost.bytes, 6u * (50 + sim::Packet::kHeaderBytes));
}

TEST(FloodingTest, StopsAtPartitionBoundary) {
  auto network = std::make_unique<sim::Network>(std::make_unique<sim::UnitDiskModel>(15.0),
                                                sim::ChannelConfig{}, 1);
  network->add_device(1, {0, 0});
  network->add_device(2, {10, 0});
  network->add_device(3, {100, 0});  // unreachable island
  const FloodCost cost = estimate_flood(*network, 0, 10);
  EXPECT_EQ(cost.reached, 2u);
}

TEST(FloodingTest, DeadOriginCostsNothing) {
  auto network = line_network(4, 10.0, 15.0);
  network->set_alive(0, false);
  const FloodCost cost = estimate_flood(*network, 0, 10);
  EXPECT_EQ(cost.reached, 0u);
  EXPECT_EQ(cost.bytes, 0u);
}

TEST(FloodingTest, DeadNodesDoNotRelay) {
  auto network = line_network(5, 10.0, 15.0);
  network->set_alive(2, false);  // severs the chain
  const FloodCost cost = estimate_flood(*network, 0, 10);
  EXPECT_EQ(cost.reached, 2u);
}

TEST(AggregationTest, MaxErrorAtLeastMean) {
  Clustering clustering;
  clustering.clusters[1] = {1, 2};
  clustering.clusters[5] = {5, 99};
  const std::map<NodeId, util::Vec2> positions = {
      {1, {10, 10}}, {2, {11, 10}}, {5, {50, 50}}, {99, {390, 10}}};
  const AggregationReport report = evaluate_aggregation(clustering, positions);
  EXPECT_EQ(report.clusters_evaluated, 2u);
  EXPECT_GE(report.max_error, report.mean_error);
}

}  // namespace
}  // namespace snd::apps
