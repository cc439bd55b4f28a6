// Directed graphs over node identities: the paper's tentative network
// topology G = (V, E) and functional topology Ḡ (Definitions 2 and 5).
// Adjacency is kept in ordered containers so iteration -- and therefore
// every simulation result derived from it -- is deterministic.
#pragma once

#include <algorithm>
#include <functional>
#include <map>
#include <set>
#include <vector>

#include "util/ids.h"

namespace snd::topology {

/// Sorted, duplicate-free list of neighbor identities; the representation
/// of N(u) inside binding records.
using NeighborList = std::vector<NodeId>;

/// Number of elements common to two sorted NeighborLists.
std::size_t intersection_size(const NeighborList& a, const NeighborList& b);
/// Insert preserving sort order; no-op if already present.
void insert_sorted(NeighborList& list, NodeId id);
/// Header-inline: membership runs once per delivered packet copy against the
/// receiver's neighbor list, so the call overhead outweighs the search.
[[nodiscard]] inline bool contains(const NeighborList& list, NodeId id) {
  return std::binary_search(list.begin(), list.end(), id);
}

class Digraph {
 public:
  /// Ensures `id` exists as an isolated node.
  void add_node(NodeId id);
  /// Adds edge u -> v (and both endpoints); returns false if it existed.
  bool add_edge(NodeId u, NodeId v);
  bool remove_edge(NodeId u, NodeId v);
  void remove_node(NodeId id);

  [[nodiscard]] bool has_node(NodeId id) const;
  [[nodiscard]] bool has_edge(NodeId u, NodeId v) const;
  /// Out-neighbors of u (empty set for unknown nodes).
  [[nodiscard]] const std::set<NodeId>& successors(NodeId u) const;
  /// Nodes with an edge into u. O(E); prefer successors in hot paths.
  [[nodiscard]] std::vector<NodeId> predecessors(NodeId u) const;
  [[nodiscard]] NeighborList successor_list(NodeId u) const;

  [[nodiscard]] std::vector<NodeId> nodes() const;
  [[nodiscard]] std::size_t node_count() const { return adjacency_.size(); }
  [[nodiscard]] std::size_t edge_count() const { return edge_count_; }
  /// All edges as (u, v) pairs, lexicographically ordered.
  [[nodiscard]] std::vector<std::pair<NodeId, NodeId>> edges() const;

  /// u -> v and v -> u both present (a confirmed bidirectional relation).
  [[nodiscard]] bool mutual_edge(NodeId u, NodeId v) const;

  /// Image of this graph under the identity relabeling `f` (Definition 3's
  /// B_f). `f` must be injective on the node set.
  [[nodiscard]] Digraph relabeled(const std::function<NodeId(NodeId)>& f) const;

  /// Subgraph induced by `keep`.
  [[nodiscard]] Digraph induced(const std::set<NodeId>& keep) const;

  /// Graph equality (same nodes and edges).
  friend bool operator==(const Digraph& a, const Digraph& b);

 private:
  std::map<NodeId, std::set<NodeId>> adjacency_;
  std::size_t edge_count_ = 0;
};

}  // namespace snd::topology
