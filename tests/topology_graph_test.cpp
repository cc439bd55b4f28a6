#include "topology/graph.h"

#include <gtest/gtest.h>

#include <algorithm>

namespace snd::topology {
namespace {

TEST(NeighborListTest, IntersectionSize) {
  const NeighborList a = {1, 3, 5, 7};
  const NeighborList b = {2, 3, 4, 5};
  EXPECT_EQ(intersection_size(a, b), 2u);
  EXPECT_EQ(intersection_size(a, {}), 0u);
  EXPECT_EQ(intersection_size(a, a), 4u);
}

TEST(NeighborListTest, InsertSortedMaintainsOrder) {
  NeighborList list;
  for (NodeId id : {5u, 1u, 3u, 1u, 9u, 3u}) insert_sorted(list, id);
  EXPECT_EQ(list, (NeighborList{1, 3, 5, 9}));
}

TEST(NeighborListTest, Contains) {
  const NeighborList list = {2, 4, 6};
  EXPECT_TRUE(contains(list, 4));
  EXPECT_FALSE(contains(list, 5));
  EXPECT_FALSE(contains({}, 1));
  // Every length up to 40 (odd and even halvings): each member, each gap,
  // and ids below the first and above the last.
  NeighborList grown;
  for (NodeId size = 0; size <= 40; ++size) {
    for (NodeId id = 0; id <= 2 * size + 2; ++id) {
      EXPECT_EQ(contains(grown, id), std::binary_search(grown.begin(), grown.end(), id))
          << "size " << size << " id " << id;
    }
    grown.push_back(2 * size + 1);  // odd ids are members, even ids gaps
  }
}

TEST(DigraphTest, AddEdgeCreatesNodes) {
  Digraph g;
  EXPECT_TRUE(g.add_edge(1, 2));
  EXPECT_TRUE(g.has_node(1));
  EXPECT_TRUE(g.has_node(2));
  EXPECT_TRUE(g.has_edge(1, 2));
  EXPECT_FALSE(g.has_edge(2, 1));
}

TEST(DigraphTest, DuplicateEdgeNotCounted) {
  Digraph g;
  EXPECT_TRUE(g.add_edge(1, 2));
  EXPECT_FALSE(g.add_edge(1, 2));
  EXPECT_EQ(g.edge_count(), 1u);
}

TEST(DigraphTest, RemoveEdge) {
  Digraph g;
  g.add_edge(1, 2);
  EXPECT_TRUE(g.remove_edge(1, 2));
  EXPECT_FALSE(g.remove_edge(1, 2));
  EXPECT_EQ(g.edge_count(), 0u);
  EXPECT_TRUE(g.has_node(1));  // nodes survive edge removal
}

TEST(DigraphTest, RemoveNodeRemovesIncidentEdges) {
  Digraph g;
  g.add_edge(1, 2);
  g.add_edge(2, 1);
  g.add_edge(2, 3);
  g.add_edge(3, 1);
  g.remove_node(1);
  EXPECT_FALSE(g.has_node(1));
  EXPECT_EQ(g.edge_count(), 1u);  // only 2 -> 3 survives
  EXPECT_TRUE(g.has_edge(2, 3));
}

TEST(DigraphTest, SuccessorsSortedAndStable) {
  Digraph g;
  g.add_edge(1, 9);
  g.add_edge(1, 3);
  g.add_edge(1, 5);
  EXPECT_EQ(g.successor_list(1), (NeighborList{3, 5, 9}));
  EXPECT_TRUE(g.successors(42).empty());
}

TEST(DigraphTest, Predecessors) {
  Digraph g;
  g.add_edge(1, 5);
  g.add_edge(2, 5);
  g.add_edge(5, 1);
  const auto preds = g.predecessors(5);
  EXPECT_EQ(preds, (std::vector<NodeId>{1, 2}));
}

TEST(DigraphTest, EdgesEnumeration) {
  Digraph g;
  g.add_edge(2, 1);
  g.add_edge(1, 2);
  g.add_edge(1, 3);
  const auto edges = g.edges();
  ASSERT_EQ(edges.size(), 3u);
  EXPECT_EQ(edges[0], std::make_pair(NodeId{1}, NodeId{2}));
  EXPECT_EQ(edges[1], std::make_pair(NodeId{1}, NodeId{3}));
  EXPECT_EQ(edges[2], std::make_pair(NodeId{2}, NodeId{1}));
}

TEST(DigraphTest, MutualEdge) {
  Digraph g;
  g.add_edge(1, 2);
  EXPECT_FALSE(g.mutual_edge(1, 2));
  g.add_edge(2, 1);
  EXPECT_TRUE(g.mutual_edge(1, 2));
  EXPECT_TRUE(g.mutual_edge(2, 1));
}

TEST(DigraphTest, RelabeledPreservesStructure) {
  Digraph g;
  g.add_edge(1, 2);
  g.add_edge(2, 3);
  g.add_node(4);
  const Digraph h = g.relabeled([](NodeId x) { return x + 100; });
  EXPECT_TRUE(h.has_edge(101, 102));
  EXPECT_TRUE(h.has_edge(102, 103));
  EXPECT_TRUE(h.has_node(104));
  EXPECT_EQ(h.edge_count(), g.edge_count());
  EXPECT_EQ(h.node_count(), g.node_count());
}

TEST(DigraphTest, InducedSubgraph) {
  Digraph g;
  g.add_edge(1, 2);
  g.add_edge(2, 3);
  g.add_edge(3, 1);
  const Digraph sub = g.induced({1, 2});
  EXPECT_TRUE(sub.has_edge(1, 2));
  EXPECT_FALSE(sub.has_node(3));
  EXPECT_EQ(sub.edge_count(), 1u);
}

TEST(DigraphTest, EqualityIsStructural) {
  Digraph a;
  a.add_edge(1, 2);
  Digraph b;
  b.add_edge(1, 2);
  EXPECT_TRUE(a == b);
  b.add_edge(2, 1);
  EXPECT_FALSE(a == b);
}

TEST(DigraphTest, AddNodeIdempotent) {
  Digraph g;
  g.add_edge(1, 2);
  g.add_node(1);  // must not clear existing adjacency
  EXPECT_TRUE(g.has_edge(1, 2));
  EXPECT_EQ(g.node_count(), 2u);
}

}  // namespace
}  // namespace snd::topology
