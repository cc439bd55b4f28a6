// Immutable, versioned views of the service's functional topology.
//
// The service answers F(u, v) from a Snapshot: an epoch number plus a map
// from live node to an immutable per-node state (position, tentative
// neighbor list N(u), validated functional list). The map is a persistent
// radix trie (util::RadixMap) of shared_ptr per-node states: ingesting an
// event clones only the nodes inside the affected radio disc and the trie
// nodes on their paths, so consecutive snapshots share almost all of their
// payload and readers holding an old epoch cost nothing but its retention.
//
// canonical_json() / digest() deliberately exclude the epoch: they describe
// the topology itself, so an incrementally-maintained snapshot and a
// from-scratch rebuild of the same world serialize byte-identically. That
// equality is the service's correctness gate. first_difference() decides it
// without serializing either world and names the first node that differs;
// the service tests and serve_qps's gate (CI serve-smoke) call it.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>

#include "topology/graph.h"
#include "util/geometry.h"
#include "util/ids.h"
#include "util/radix_map.h"

namespace snd::service {

/// Everything the service knows about one live node. Immutable once
/// published (always held as shared_ptr<const NodeState>).
struct NodeState {
  util::Vec2 position;
  /// N(u): tentative neighbors, i.e. live nodes within radio range. Sorted.
  topology::NeighborList neighbors;
  /// Functional neighbors: v in neighbors with |N(u) ∩ N(v)| >= t+1. Sorted.
  topology::NeighborList validated;
};

class Snapshot {
 public:
  /// Live nodes ascending by id; iteration yields (id, state) pairs.
  using NodeMap = util::RadixMap<std::shared_ptr<const NodeState>>;

  /// `nodes` must be non-null and is shared, not copied: the service hands
  /// the same immutable map to the snapshot it publishes and to the next
  /// epoch's copy-on-write base.
  Snapshot(std::uint64_t epoch, std::size_t threshold_t, double radio_range,
           std::shared_ptr<const NodeMap> nodes)
      : epoch_(epoch), threshold_t_(threshold_t), radio_range_(radio_range),
        nodes_(std::move(nodes)) {}

  /// Monotonic version: bumped once per publish (event or batch).
  [[nodiscard]] std::uint64_t epoch() const { return epoch_; }
  [[nodiscard]] std::size_t threshold() const { return threshold_t_; }
  [[nodiscard]] double radio_range() const { return radio_range_; }

  /// F(u, v) at this epoch: both live, v in u's validated list.
  [[nodiscard]] bool validate(NodeId u, NodeId v) const;

  [[nodiscard]] const NodeState* find(NodeId id) const {
    const auto* entry = nodes_->find(id);
    return entry != nullptr ? entry->get() : nullptr;
  }
  [[nodiscard]] std::size_t node_count() const { return nodes_->size(); }
  [[nodiscard]] const NodeMap& nodes() const { return *nodes_; }

  /// Directed functional-neighbor edge count (each accepted pair counts
  /// twice, matching Digraph conventions).
  [[nodiscard]] std::size_t validated_edge_count() const;

  /// Canonical serialization of the topology -- nodes ascending by id, each
  /// with exact (hex-float) position and both lists -- excluding the epoch,
  /// so incremental == rebuild is a byte-level string comparison.
  [[nodiscard]] std::string canonical_json() const;
  /// CRC-32 of canonical_json(); the wire protocol's cheap equivalence probe.
  [[nodiscard]] std::uint32_t digest() const;

  /// The first difference between this topology and `other`, or nothing
  /// exactly when their canonical_json() strings are equal. Compares t, the
  /// radio range, then both node maps in id order: a node present in one
  /// only, each position coordinate bit for bit as "%a" prints it (so the
  /// sign of zero counts), then the neighbor and validated lists. The
  /// message names the node and field, e.g. "node 17: neighbors[3] is 5 vs
  /// 6". Serializes nothing; the epoch is ignored, as in canonical_json().
  [[nodiscard]] std::optional<std::string> first_difference(const Snapshot& other) const;

 private:
  std::uint64_t epoch_;
  std::size_t threshold_t_;
  double radio_range_;
  std::shared_ptr<const NodeMap> nodes_;
};

}  // namespace snd::service
