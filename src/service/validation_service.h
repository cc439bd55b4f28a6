// A long-lived neighbor-validation service.
//
// Where the bench drivers run one deployment, measure, and exit, the
// service owns a functional topology for the lifetime of a process: it
// ingests TopologyEvents (deploy / update / revoke) and answers
// F(u, v) queries against immutable, versioned Snapshots. This is the
// base-station role the paper's centralized scheme (§2) assumes, grown into
// an actual daemon: apps/snd_serve exposes it over a socket, or a
// simulation embeds it directly.
//
// ## Incremental recomputation
//
// An event at position p only perturbs the topology inside disc(p, 2R):
// nodes within R gain/lose the event's node in their tentative list N(·),
// and any validated pair (a, v) both endpoints of which see a changed
// neighborhood lies within 2R of p -- the locality argument behind the
// paper's Theorem 4 incremental-deployment safety.
//
// Ingestion exploits a bound sharper than that safe 2R envelope. The only
// list membership any single event changes is that of its own node x, so
// for a pair of pre-existing nodes (a, v) the predicate
//
//   v in N(a)  and  |N(a) ∩ N(v)| >= t+1
//
// can flip only when x enters or leaves N(a) ∩ N(v) (or is v itself) --
// which requires BOTH a and v within R of p. The service keeps, next to
// each live node's list, a private row of common-neighbor counts
// c(a, v) = |N(a) ∩ N(v)| parallel to N(a) (about 4 bytes per tentative
// edge; never part of a Snapshot). Removing x from a disc lowers c(a, v) by
// one for every adjacent pair inside it, and adding x raises it by one, so
// ingestion walks each a in the disc once against N(x) -- |disc| merge walks,
// O(d²) for degree d, whatever t is -- and rederives the verdicts of the
// nodes whose counts moved. An update does both, over its old and new discs.
// Everything else is structurally shared with the previous epoch: the node
// map is a persistent radix trie, so starting an epoch copies nothing and
// each changed node copies only its trie path -- O(|disc| · height) per
// event, whatever the node count. rebuild() recomputes the world from the
// live positions alone, through seed_topology's cell-sorted pass and the
// threshold predicate, reading no grid, count or commitment. The
// equivalence suite asserts both paths serialize byte-identically after
// arbitrary event sequences, that every count row matches a recount, and
// that seed and rebuild match a brute-force all-pairs derivation.
//
// ## Concurrency
//
// Mutators (apply / apply_all / seed_topology) are externally serialized by
// the caller (the daemon's ingest loop is single-threaded). Readers call
// snapshot() from any thread: publication swaps a shared_ptr under a short
// mutex, and a reader keeps its Snapshot alive for as long as it likes
// without ever blocking ingestion (tests/service_stress_test runs this
// under TSan).
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "crypto/key.h"
#include "crypto/sha256.h"
#include "service/events.h"
#include "service/snapshot.h"
#include "util/flat.h"
#include "util/geometry.h"
#include "util/ids.h"
#include "util/radix_map.h"

namespace snd::service {

/// Uniform grid over node positions with cell size R, in a hash map keyed by
/// the packed cell. Buckets hold each node's position next to its id, so a
/// disc query reads nothing else. A disc of radius R usually spans 3x3
/// cells; rounding in floor((x ± R)/R) can widen that to 4 columns or rows.
class SpatialGrid {
 public:
  /// The cells a disc query visits, inclusive on both ends of both axes.
  struct CellRange {
    std::int64_t x_lo, x_hi, y_lo, y_hi;
    friend bool operator==(const CellRange&, const CellRange&) = default;
  };

  explicit SpatialGrid(double cell_size) : cell_(cell_size) {}

  /// Whether `position` is finite and the cell range of disc(position, R)
  /// lies strictly inside int32 on both axes. Cell indices are clamped into
  /// int32, so the two extreme indices also collect every farther position;
  /// a disc that stays clear of them is indexed exactly. The service
  /// rejects events and bootstrap nodes at positions that fail this.
  [[nodiscard]] bool indexable(util::Vec2 position) const;

  /// Whether `b` is within `radius` of `a`: their rounded squared distance
  /// is at most radius², and neither coordinate differs by more than
  /// `radius` before rounding. The second clause only matters for a
  /// difference that rounds to exactly ±radius; it keeps every accepted
  /// node inside the cell range of the other's disc, so the relation is
  /// symmetric and a disc query finds every node it accepts.
  [[nodiscard]] static bool in_range(util::Vec2 a, util::Vec2 b, double radius);

  /// The cells whose nodes a query of disc(center, radius) tests.
  [[nodiscard]] CellRange disc_cells(util::Vec2 center, double radius) const;
  /// The map key of the cell holding `position`. Keys order cells by x,
  /// then y (both signed), so the cells of one column between two y
  /// indices have consecutive keys.
  [[nodiscard]] std::uint64_t cell_key(util::Vec2 position) const;
  [[nodiscard]] static std::uint64_t cell_key(std::int64_t cx, std::int64_t cy);

  void insert(NodeId id, util::Vec2 position);
  void erase(NodeId id, util::Vec2 position);

  /// Ids of indexed nodes in range (see in_range) of `center`, sorted.
  [[nodiscard]] std::vector<NodeId> query_disc(util::Vec2 center, double radius) const;

 private:
  struct Entry {
    NodeId id;
    util::Vec2 position;
  };

  [[nodiscard]] std::int64_t cell_index(double coordinate) const;

  double cell_;
  std::unordered_map<std::uint64_t, std::vector<Entry>> cells_;
};

struct ServiceConfig {
  double radio_range = 50.0;
  std::size_t threshold_t = 2;
  /// When present, the service maintains the paper's binding commitment
  /// C(u) (version 0, over u's current tentative list) for every live node
  /// -- the base-station role holds K, so it can re-issue records on
  /// demand. Absent (the default) disables commitment maintenance.
  crypto::SymmetricKey master_key{};
};

/// Outcome of one ingested event. Rejections (deploying an existing id,
/// updating/revoking an unknown one, deploying or moving a node to a
/// position the grid cannot index) leave the topology unchanged.
struct ApplyResult {
  bool ok = true;
  std::string error;

  [[nodiscard]] static ApplyResult success() { return {}; }
  [[nodiscard]] static ApplyResult failure(std::string message) {
    return {false, std::move(message)};
  }
};

class ValidationService {
 public:
  explicit ValidationService(ServiceConfig config);

  /// Ingest one event and publish the next epoch. Touches only per-node
  /// states within radio range of the event position(s), and the node-map
  /// trie nodes on their paths; see the header comment for the locality
  /// argument. Deploys and updates need a position for which
  /// SpatialGrid::indexable holds.
  ApplyResult apply(const TopologyEvent& event);

  /// Ingest a batch, publishing a single epoch at the end. Returns the
  /// number of events applied successfully (failures are skipped, matching
  /// replaying the batch through apply one by one).
  std::size_t apply_all(std::span<const TopologyEvent> events);

  /// Bulk bootstrap: deploys all nodes and publishes one epoch. One pass
  /// over the nodes sorted by grid cell derives every tentative list, and
  /// each common-neighbor count is computed once per undirected edge --
  /// O(n log n + Σ deg²). Fails, changing nothing, on a service that is not
  /// empty, when a position fails SpatialGrid::indexable (the error names
  /// the first such node), when an id appears twice (it names the first
  /// repeat in input order), or when the pass derived an asymmetric N(·)
  /// (a bug in the pass; it names the first pair listed one way only).
  ApplyResult seed_topology(std::span<const std::pair<NodeId, util::Vec2>> nodes);

  /// Current snapshot; never null, safe to call from any thread and to
  /// retain across later ingestion.
  [[nodiscard]] std::shared_ptr<const Snapshot> snapshot() const;

  /// F(u, v) at the current epoch.
  [[nodiscard]] bool validate(NodeId u, NodeId v) const {
    return snapshot()->validate(u, v);
  }

  /// From-scratch recomputation of the current world (same epoch number)
  /// from the live (id, position) pairs alone, through seed_topology's
  /// cell-sorted pass and core::meets_threshold (once per undirected edge);
  /// it reads no maintained list, grid, count or commitment. The
  /// equivalence gate asserts that snapshot()->first_difference(*rebuild())
  /// finds nothing. Throws std::logic_error naming the pair if the pass
  /// derived an asymmetric N(·), which only a bug in the pass can do.
  [[nodiscard]] std::shared_ptr<const Snapshot> rebuild() const;

  [[nodiscard]] const ServiceConfig& config() const { return config_; }
  [[nodiscard]] std::size_t node_count() const { return map_->size(); }
  /// Events accepted since construction (not counting seed_topology nodes).
  [[nodiscard]] std::uint64_t events_applied() const { return events_applied_; }

  /// C(id) over id's current tentative list, or nullptr when id is not
  /// live or no master key is configured. Maintained incrementally: each
  /// ingested event recomputes only the commitments of nodes whose
  /// tentative list changed, in one batched drain of the multi-buffer hash
  /// engine (bit-identical to core::binding_commitment). Call from the
  /// ingest thread only, like the mutators.
  [[nodiscard]] const crypto::Digest* binding_commitment_of(NodeId id) const {
    return commitments_.find(id);
  }
  [[nodiscard]] std::size_t commitment_count() const { return commitments_.size(); }

  /// id's row of the common-neighbor count index: entry i is
  /// |N(id) ∩ N(N(id)[i])|, the count the threshold rule compares with t+1.
  /// nullptr when id is not live. Call from the ingest thread only.
  [[nodiscard]] const std::vector<std::uint32_t>* common_counts(NodeId id) const;

 private:
  /// Tentative list for `id`: live nodes within R, excluding `id` itself.
  [[nodiscard]] topology::NeighborList derive_neighbors(NodeId id,
                                                        util::Vec2 position) const;

  ApplyResult apply_locked(const TopologyEvent& event, Snapshot::NodeMap& nodes);
  void publish(Snapshot::NodeMap nodes);

  /// Recomputes the binding commitments of `ids` against `nodes` in one
  /// batched hash drain; ids no longer live are erased instead. No-op
  /// without a configured master key.
  void refresh_commitments(std::span<const NodeId> ids, const Snapshot::NodeMap& nodes);

  ServiceConfig config_;
  SpatialGrid grid_;
  /// The current epoch's immutable node map, shared with the published
  /// Snapshot; ingestion copies it (O(1)), mutates the copy, and re-freezes.
  /// Never null.
  std::shared_ptr<const Snapshot::NodeMap> map_;
  std::uint64_t epoch_ = 0;
  std::uint64_t events_applied_ = 0;
  /// Live nodes' binding commitments (empty without a master key). Not part
  /// of Snapshot -- commitments are secrets of the K-holding role, not of
  /// the published topology.
  util::FlatMap<NodeId, crypto::Digest> commitments_;
  /// The common-neighbor count index: each live node's row of
  /// |N(u) ∩ N(v)| over v in N(u), parallel to N(u) (see common_counts).
  /// Service-private like the commitments: readers never need it, and
  /// Snapshot::canonical_json() stays the topology alone.
  std::unordered_map<NodeId, std::vector<std::uint32_t>> counts_;

  mutable std::mutex snapshot_mutex_;
  std::shared_ptr<const Snapshot> current_;
};

}  // namespace snd::service
