#include "service/validation_service.h"

#include <algorithm>
#include <cmath>
#include <iterator>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "core/commitment.h"
#include "core/validation.h"

namespace snd::service {

namespace {

/// Cell indices are clamped into int32; the extremes collect every farther
/// coordinate (and NaN), so cell_index is total and a cell range never
/// spans more than a disc's worth of cells.
constexpr std::int64_t kMinCell = std::numeric_limits<std::int32_t>::min();
constexpr std::int64_t kMaxCell = std::numeric_limits<std::int32_t>::max();

/// Packs the two cell coordinates (each within int32) into one map key.
std::uint64_t pack_cell(std::int64_t cx, std::int64_t cy) {
  const auto ux = static_cast<std::uint32_t>(cx);
  const auto uy = static_cast<std::uint32_t>(cy);
  return (static_cast<std::uint64_t>(ux) << 32) | uy;
}

/// Sorted-list insert/erase returning whether the list changed.
bool insert_value(topology::NeighborList& list, NodeId v) {
  const auto it = std::lower_bound(list.begin(), list.end(), v);
  if (it != list.end() && *it == v) return false;
  list.insert(it, v);
  return true;
}

bool erase_value(topology::NeighborList& list, NodeId v) {
  const auto it = std::lower_bound(list.begin(), list.end(), v);
  if (it == list.end() || *it != v) return false;
  list.erase(it);
  return true;
}

}  // namespace

std::int64_t SpatialGrid::cell_index(double coordinate) const {
  const double index = std::floor(coordinate / cell_);
  if (!(index > static_cast<double>(kMinCell))) return kMinCell;  // NaN too
  if (!(index < static_cast<double>(kMaxCell))) return kMaxCell;
  return static_cast<std::int64_t>(index);
}

std::uint64_t SpatialGrid::cell_key(util::Vec2 position) const {
  return pack_cell(cell_index(position.x), cell_index(position.y));
}

bool SpatialGrid::indexable(util::Vec2 position) const {
  const auto inside = [&](double coordinate) {
    return std::isfinite(coordinate) && cell_index(coordinate - cell_) > kMinCell &&
           cell_index(coordinate + cell_) < kMaxCell;
  };
  return inside(position.x) && inside(position.y);
}

void SpatialGrid::insert(NodeId id, util::Vec2 position) {
  cells_.get_or_insert(cell_key(position)).push_back({id, position});
}

void SpatialGrid::erase(NodeId id, util::Vec2 position) {
  const std::uint64_t key = cell_key(position);
  auto* bucket = cells_.find(key);
  if (bucket == nullptr) return;
  const auto it = std::find_if(bucket->begin(), bucket->end(),
                               [id](const Entry& entry) { return entry.id == id; });
  if (it != bucket->end()) bucket->erase(it);
  if (bucket->empty()) cells_.erase(key);
}

std::vector<NodeId> SpatialGrid::query_disc(util::Vec2 center, double radius) const {
  const double r2 = radius * radius;
  const std::int64_t x_lo = cell_index(center.x - radius);
  const std::int64_t x_hi = cell_index(center.x + radius);
  const std::int64_t y_lo = cell_index(center.y - radius);
  const std::int64_t y_hi = cell_index(center.y + radius);
  std::vector<NodeId> result;
  for (std::int64_t cx = x_lo; cx <= x_hi; ++cx) {
    for (std::int64_t cy = y_lo; cy <= y_hi; ++cy) {
      const auto* bucket = cells_.find(pack_cell(cx, cy));
      if (bucket == nullptr) continue;
      for (const Entry& entry : *bucket) {
        if (util::distance_squared(entry.position, center) <= r2) result.push_back(entry.id);
      }
    }
  }
  std::sort(result.begin(), result.end());
  return result;
}

ValidationService::ValidationService(ServiceConfig config)
    : config_(config), grid_(config.radio_range),
      map_(std::make_shared<const Snapshot::NodeMap>()) {
  current_ = std::make_shared<const Snapshot>(epoch_, config_.threshold_t,
                                              config_.radio_range, map_);
}

topology::NeighborList ValidationService::derive_neighbors(NodeId id,
                                                           util::Vec2 position) const {
  topology::NeighborList neighbors = grid_.query_disc(position, config_.radio_range);
  // query_disc includes the node itself when indexed; N(u) excludes u.
  const auto self = std::lower_bound(neighbors.begin(), neighbors.end(), id);
  if (self != neighbors.end() && *self == id) neighbors.erase(self);
  return neighbors;
}

topology::NeighborList ValidationService::derive_validated(
    NodeId id, const Snapshot::NodeMap& nodes) const {
  const auto* state = nodes.find(id);
  topology::NeighborList validated;
  if (state == nullptr) return validated;
  const topology::NeighborList& mine = (*state)->neighbors;
  for (const NodeId other : mine) {
    const auto* peer = nodes.find(other);
    if (peer == nullptr) continue;
    if (core::meets_threshold(mine, (*peer)->neighbors, config_.threshold_t)) {
      validated.push_back(other);
    }
  }
  return validated;  // `mine` is sorted, so validated is too
}

NodeState ValidationService::clone_state(const Snapshot::NodeMap& nodes, NodeId id) {
  return **nodes.find(id);
}

ApplyResult ValidationService::apply_locked(const TopologyEvent& event,
                                            Snapshot::NodeMap& nodes) {
  const NodeId id = event.node;

  // Pre-existing nodes inside the event's radio disc(s). `gain` / `lose`
  // are the (disjoint) subsets whose tentative list picks up / drops the
  // event node; `process` is their union plus, for updates, the nodes that
  // stay adjacent across the move (their pair verdicts can still flip
  // because N(id) changed).
  topology::NeighborList process;
  topology::NeighborList gain;
  topology::NeighborList lose;
  bool live_after = true;

  if (event.kind != EventKind::kRevoke && !grid_.indexable(event.position)) {
    return ApplyResult::failure(std::string(event_kind_name(event.kind)) + ": node " +
                                std::to_string(id) + " position out of range");
  }
  switch (event.kind) {
    case EventKind::kDeploy: {
      if (nodes.contains(id)) {
        return ApplyResult::failure("deploy: node " + std::to_string(id) +
                                    " already live");
      }
      grid_.insert(id, event.position);
      auto state = std::make_shared<NodeState>();
      state->position = event.position;
      state->neighbors = derive_neighbors(id, event.position);
      gain = state->neighbors;
      process = gain;
      nodes.insert_or_assign(id, std::move(state));
      break;
    }
    case EventKind::kRevoke: {
      const auto* state = nodes.find(id);
      if (state == nullptr) {
        return ApplyResult::failure("revoke: node " + std::to_string(id) +
                                    " not live");
      }
      lose = (*state)->neighbors;
      process = lose;
      grid_.erase(id, (*state)->position);
      nodes.erase(id);
      live_after = false;
      break;
    }
    case EventKind::kUpdate: {
      const auto* state = nodes.find(id);
      if (state == nullptr) {
        return ApplyResult::failure("update: node " + std::to_string(id) +
                                    " not live");
      }
      const topology::NeighborList old_neighbors = (*state)->neighbors;
      grid_.erase(id, (*state)->position);
      grid_.insert(id, event.position);
      NodeState moved = clone_state(nodes, id);
      moved.position = event.position;
      moved.neighbors = derive_neighbors(id, event.position);
      const topology::NeighborList& new_neighbors = moved.neighbors;
      std::set_difference(new_neighbors.begin(), new_neighbors.end(),
                          old_neighbors.begin(), old_neighbors.end(),
                          std::back_inserter(gain));
      std::set_difference(old_neighbors.begin(), old_neighbors.end(),
                          new_neighbors.begin(), new_neighbors.end(),
                          std::back_inserter(lose));
      std::set_union(old_neighbors.begin(), old_neighbors.end(),
                     new_neighbors.begin(), new_neighbors.end(),
                     std::back_inserter(process));
      nodes.insert_or_assign(id, std::make_shared<const NodeState>(std::move(moved)));
      break;
    }
  }

  // Pass 1: splice the event node in/out of its neighbors' tentative lists
  // (all lists must be final before any threshold is evaluated). Dropping
  // the event node also drops it from the validated list -- validated(a) is
  // a subset of N(a) by construction, and `id` is the only id whose
  // membership this event can change.
  for (const NodeId a : gain) {
    NodeState next = clone_state(nodes, a);
    insert_value(next.neighbors, id);
    nodes.insert_or_assign(a, std::make_shared<const NodeState>(std::move(next)));
  }
  for (const NodeId a : lose) {
    NodeState next = clone_state(nodes, a);
    erase_value(next.neighbors, id);
    erase_value(next.validated, id);
    nodes.insert_or_assign(a, std::make_shared<const NodeState>(std::move(next)));
  }

  // Pass 2: recheck exactly the pairs the event can have flipped. A pair's
  // predicate (adjacency + common-neighbor count) reads only N(a) and N(v),
  // and the event changed only `id`'s membership anywhere -- so both
  // endpoints lie in the disc(s), i.e. in `process` (or are `id` itself).
  topology::NeighborList affected = process;
  if (live_after) insert_value(affected, id);
  for (const NodeId a : process) {
    const NodeState& current = **nodes.find(a);
    const topology::NeighborList candidates =
        topology::intersect(current.neighbors, affected);
    if (candidates.empty()) continue;
    NodeState next = current;
    bool changed = false;
    for (const NodeId v : candidates) {
      const NodeState& peer = **nodes.find(v);
      if (core::meets_threshold(next.neighbors, peer.neighbors, config_.threshold_t)) {
        changed |= insert_value(next.validated, v);
      } else {
        changed |= erase_value(next.validated, v);
      }
    }
    if (changed) {
      nodes.insert_or_assign(a, std::make_shared<const NodeState>(std::move(next)));
    }
  }
  if (live_after) {
    NodeState next = clone_state(nodes, id);
    next.validated = derive_validated(id, nodes);
    nodes.insert_or_assign(id, std::make_shared<const NodeState>(std::move(next)));
  }

  // The only tentative lists this event changed are those of gain/lose
  // members and the event node itself -- exactly the commitments to refresh
  // (one batched drain; a revoked id is erased inside the helper).
  if (config_.master_key.present()) {
    topology::NeighborList dirty;
    std::set_union(gain.begin(), gain.end(), lose.begin(), lose.end(),
                   std::back_inserter(dirty));
    insert_value(dirty, id);
    refresh_commitments(dirty, nodes);
  }

  ++events_applied_;
  return ApplyResult::success();
}

void ValidationService::refresh_commitments(std::span<const NodeId> ids,
                                            const Snapshot::NodeMap& nodes) {
  if (!config_.master_key.present() || ids.empty()) return;
  std::vector<core::BindingSpec> specs;
  std::vector<NodeId> live;
  specs.reserve(ids.size());
  live.reserve(ids.size());
  for (const NodeId id : ids) {
    const auto* state = nodes.find(id);
    if (state == nullptr) {
      commitments_.erase(id);
      continue;
    }
    specs.push_back({id, 0, &(*state)->neighbors});
    live.push_back(id);
  }
  std::vector<crypto::Digest> digests(specs.size());
  core::binding_commitments(config_.master_key, specs, digests);
  for (std::size_t i = 0; i < live.size(); ++i) {
    commitments_.insert_or_assign(live[i], digests[i]);
  }
}

ApplyResult ValidationService::apply(const TopologyEvent& event) {
  Snapshot::NodeMap nodes = *map_;
  const ApplyResult result = apply_locked(event, nodes);
  if (result.ok) publish(std::move(nodes));
  return result;
}

std::size_t ValidationService::apply_all(std::span<const TopologyEvent> events) {
  Snapshot::NodeMap nodes = *map_;
  std::size_t applied = 0;
  for (const TopologyEvent& event : events) {
    if (apply_locked(event, nodes).ok) ++applied;
  }
  publish(std::move(nodes));
  return applied;
}

void ValidationService::seed_topology(
    std::span<const std::pair<NodeId, util::Vec2>> nodes) {
  for (const auto& [id, position] : nodes) grid_.insert(id, position);
  Snapshot::NodeMap map;
  for (const auto& [id, position] : nodes) {
    auto state = std::make_shared<NodeState>();
    state->position = position;
    state->neighbors = derive_neighbors(id, position);
    map.insert_or_assign(id, std::move(state));
  }
  for (const auto& [id, position] : nodes) {
    topology::NeighborList validated = derive_validated(id, map);
    NodeState next = clone_state(map, id);
    next.validated = std::move(validated);
    map.insert_or_assign(id, std::make_shared<const NodeState>(std::move(next)));
  }
  if (config_.master_key.present()) {
    std::vector<NodeId> ids;
    ids.reserve(nodes.size());
    for (const auto& [id, position] : nodes) ids.push_back(id);
    refresh_commitments(ids, map);
  }
  publish(std::move(map));
}

std::shared_ptr<const Snapshot> ValidationService::snapshot() const {
  std::lock_guard<std::mutex> lock(snapshot_mutex_);
  return current_;
}

std::shared_ptr<const Snapshot> ValidationService::rebuild() const {
  Snapshot::NodeMap map;
  for (const auto& [id, live] : *map_) {
    auto state = std::make_shared<NodeState>();
    state->position = live->position;
    state->neighbors = derive_neighbors(id, live->position);
    map.insert_or_assign(id, std::move(state));
  }
  for (const auto& [id, live] : *map_) {
    topology::NeighborList validated = derive_validated(id, map);
    NodeState next = clone_state(map, id);
    next.validated = std::move(validated);
    map.insert_or_assign(id, std::make_shared<const NodeState>(std::move(next)));
  }
  return std::make_shared<const Snapshot>(
      epoch_, config_.threshold_t, config_.radio_range,
      std::make_shared<const Snapshot::NodeMap>(std::move(map)));
}

void ValidationService::publish(Snapshot::NodeMap nodes) {
  map_ = std::make_shared<const Snapshot::NodeMap>(std::move(nodes));
  ++epoch_;
  auto next = std::make_shared<const Snapshot>(epoch_, config_.threshold_t,
                                               config_.radio_range, map_);
  std::lock_guard<std::mutex> lock(snapshot_mutex_);
  current_ = std::move(next);
}

}  // namespace snd::service
