#include "core/validation.h"

#include <algorithm>

namespace snd::core {

bool meets_threshold(const topology::NeighborList& nu, const topology::NeighborList& nv,
                     std::size_t t) {
  // The merge of topology::intersection_size, stopped as soon as the verdict
  // is decided: t+1 matches found, or fewer elements left in the shorter
  // remainder than matches still missing.
  const std::size_t need = t + 1;
  std::size_t found = 0;
  auto ia = nu.begin();
  auto ib = nv.begin();
  while (ia != nu.end() && ib != nv.end()) {
    const auto left = static_cast<std::size_t>(std::min(nu.end() - ia, nv.end() - ib));
    if (found + left < need) return false;
    const NodeId va = *ia;
    const NodeId vb = *ib;
    found += static_cast<std::size_t>(va == vb);
    if (found == need) return true;
    ia += static_cast<std::ptrdiff_t>(va <= vb);
    ib += static_cast<std::ptrdiff_t>(vb <= va);
  }
  return found >= need;
}

bool CommonNeighborValidator::validate(NodeId u, NodeId v, const topology::Digraph& B) const {
  return meets_threshold(B.successor_list(u), B.successor_list(v), t_);
}

ValidationFunction::MinimumDeployment CommonNeighborValidator::minimum_deployment(
    NodeId first_id) const {
  MinimumDeployment deployment;
  deployment.u = first_id;
  deployment.w = first_id + 1;
  deployment.graph.add_node(deployment.u);
  deployment.graph.add_node(deployment.w);
  for (std::size_t i = 0; i <= t_; ++i) {
    const NodeId common = first_id + 2 + static_cast<NodeId>(i);
    deployment.graph.add_edge(deployment.u, common);
    deployment.graph.add_edge(deployment.w, common);
    // Common neighbors see both endpoints back (physical links are mutual).
    deployment.graph.add_edge(common, deployment.u);
    deployment.graph.add_edge(common, deployment.w);
  }
  deployment.graph.add_edge(deployment.u, deployment.w);
  deployment.graph.add_edge(deployment.w, deployment.u);
  return deployment;
}

std::string CommonNeighborValidator::name() const {
  return "common-neighbor(t=" + std::to_string(t_) + ")";
}

}  // namespace snd::core
