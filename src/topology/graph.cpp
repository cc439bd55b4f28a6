#include "topology/graph.h"

#include <algorithm>

namespace snd::topology {

std::size_t intersection_size(const NeighborList& a, const NeighborList& b) {
  // Branchless two-pointer merge: the comparison outcomes advance the
  // iterators arithmetically instead of through a three-way branch the
  // predictor can't learn on random overlaps. Equivalent element-for-element
  // to the classic merge on sorted duplicate-free lists.
  std::size_t count = 0;
  auto ia = a.begin();
  auto ib = b.begin();
  while (ia != a.end() && ib != b.end()) {
    const NodeId va = *ia;
    const NodeId vb = *ib;
    count += static_cast<std::size_t>(va == vb);
    ia += static_cast<std::ptrdiff_t>(va <= vb);
    ib += static_cast<std::ptrdiff_t>(vb <= va);
  }
  return count;
}

void insert_sorted(NeighborList& list, NodeId id) {
  const auto it = std::lower_bound(list.begin(), list.end(), id);
  if (it == list.end() || *it != id) list.insert(it, id);
}

void Digraph::add_node(NodeId id) { adjacency_.try_emplace(id); }

bool Digraph::add_edge(NodeId u, NodeId v) {
  add_node(v);
  const bool inserted = adjacency_[u].insert(v).second;
  if (inserted) ++edge_count_;
  return inserted;
}

bool Digraph::remove_edge(NodeId u, NodeId v) {
  const auto it = adjacency_.find(u);
  if (it == adjacency_.end()) return false;
  const bool erased = it->second.erase(v) > 0;
  if (erased) --edge_count_;
  return erased;
}

void Digraph::remove_node(NodeId id) {
  const auto it = adjacency_.find(id);
  if (it != adjacency_.end()) {
    edge_count_ -= it->second.size();
    adjacency_.erase(it);
  }
  for (auto& [u, succ] : adjacency_) {
    if (succ.erase(id) > 0) --edge_count_;
  }
}

bool Digraph::has_node(NodeId id) const { return adjacency_.contains(id); }

bool Digraph::has_edge(NodeId u, NodeId v) const {
  const auto it = adjacency_.find(u);
  return it != adjacency_.end() && it->second.contains(v);
}

const std::set<NodeId>& Digraph::successors(NodeId u) const {
  static const std::set<NodeId> kEmpty;
  const auto it = adjacency_.find(u);
  return it != adjacency_.end() ? it->second : kEmpty;
}

std::vector<NodeId> Digraph::predecessors(NodeId u) const {
  std::vector<NodeId> out;
  for (const auto& [v, succ] : adjacency_) {
    if (succ.contains(u)) out.push_back(v);
  }
  return out;
}

NeighborList Digraph::successor_list(NodeId u) const {
  const auto& succ = successors(u);
  return NeighborList(succ.begin(), succ.end());
}

std::vector<NodeId> Digraph::nodes() const {
  std::vector<NodeId> out;
  out.reserve(adjacency_.size());
  for (const auto& [id, succ] : adjacency_) out.push_back(id);
  return out;
}

std::vector<std::pair<NodeId, NodeId>> Digraph::edges() const {
  std::vector<std::pair<NodeId, NodeId>> out;
  out.reserve(edge_count_);
  for (const auto& [u, succ] : adjacency_) {
    for (NodeId v : succ) out.emplace_back(u, v);
  }
  return out;
}

bool Digraph::mutual_edge(NodeId u, NodeId v) const { return has_edge(u, v) && has_edge(v, u); }

Digraph Digraph::relabeled(const std::function<NodeId(NodeId)>& f) const {
  Digraph out;
  for (const auto& [u, succ] : adjacency_) {
    out.add_node(f(u));
    for (NodeId v : succ) out.add_edge(f(u), f(v));
  }
  return out;
}

Digraph Digraph::induced(const std::set<NodeId>& keep) const {
  Digraph out;
  for (const auto& [u, succ] : adjacency_) {
    if (!keep.contains(u)) continue;
    out.add_node(u);
    for (NodeId v : succ) {
      if (keep.contains(v)) out.add_edge(u, v);
    }
  }
  return out;
}

bool operator==(const Digraph& a, const Digraph& b) { return a.adjacency_ == b.adjacency_; }

}  // namespace snd::topology
