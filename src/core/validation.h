// The abstract neighbor validation function F(u, v, B) of Definition 3, and
// the topology-only threshold validator the impossibility results (Theorems
// 1 and 2) are demonstrated against.
//
// Definition 3 requires F to be isomorphism-invariant: relabeling all IDs
// consistently must not change any decision. Both implementations here are
// invariant by construction (they look only at graph structure); the
// property is checked by tests using Digraph::relabeled.
#pragma once

#include <cstddef>
#include <string>

#include "topology/graph.h"
#include "util/ids.h"

namespace snd::core {

class ValidationFunction {
 public:
  virtual ~ValidationFunction() = default;

  /// F(u, v, B): does u, knowing the tentative relations B, accept v as a
  /// functional neighbor?
  [[nodiscard]] virtual bool validate(NodeId u, NodeId v, const topology::Digraph& B) const = 0;

  /// |G_min(F)| (Definition 7): the fewest nodes in any graph on which F
  /// outputs 1 for some pair. Drives the Theorem 1 bound n >= 2m - 1.
  [[nodiscard]] virtual std::size_t minimum_deployment_size() const = 0;

  /// A witness minimum deployment: a graph of exactly
  /// minimum_deployment_size() nodes plus a pair (u, w) it accepts. Used by
  /// the Theorem 1 attack construction.
  struct MinimumDeployment {
    topology::Digraph graph;
    NodeId u = kNoNode;
    NodeId w = kNoNode;
  };
  [[nodiscard]] virtual MinimumDeployment minimum_deployment(NodeId first_id) const = 0;

  [[nodiscard]] virtual std::string name() const = 0;
};

/// The threshold rule on its own -- u accepts v iff their tentative
/// neighbor lists in B share at least t+1 nodes -- with NO deployment-time
/// security behind it. This is exactly what the paper proves insufficient:
/// the adversary of Theorems 1/2 clones neighbor-list structure and
/// defeats it. The secure protocol (protocol.h) runs the same predicate but
/// over binding records that cannot be forged after K is erased.
class CommonNeighborValidator final : public ValidationFunction {
 public:
  explicit CommonNeighborValidator(std::size_t threshold_t) : t_(threshold_t) {}

  [[nodiscard]] bool validate(NodeId u, NodeId v, const topology::Digraph& B) const override;
  /// u, v, and t+1 shared neighbors.
  [[nodiscard]] std::size_t minimum_deployment_size() const override { return t_ + 3; }
  [[nodiscard]] MinimumDeployment minimum_deployment(NodeId first_id) const override;
  [[nodiscard]] std::string name() const override;

  [[nodiscard]] std::size_t threshold() const { return t_; }

 private:
  std::size_t t_;
};

/// Shared threshold predicate: |N(u) ∩ N(v)| >= t + 1. Used by the
/// graph-level validator above, the wire protocol's record check and the
/// validation service. Stops
/// merging as soon as the verdict is decided, so it never walks further than
/// topology::intersection_size.
bool meets_threshold(const topology::NeighborList& nu, const topology::NeighborList& nv,
                     std::size_t t);

}  // namespace snd::core
