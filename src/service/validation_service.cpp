#include "service/validation_service.h"

#include <algorithm>
#include <cmath>
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

/// `list` with `value` inserted at index `at`, built at its exact size.
template <typename T>
std::vector<T> spliced_in(const std::vector<T>& list, std::size_t at, T value) {
  const auto split = list.begin() + static_cast<std::ptrdiff_t>(at);
  std::vector<T> out;
  out.reserve(list.size() + 1);
  out.insert(out.end(), list.begin(), split);
  out.push_back(value);
  out.insert(out.end(), split, list.end());
  return out;
}

/// `list` without its element at index `at`, built at its exact size.
template <typename T>
std::vector<T> spliced_out(const std::vector<T>& list, std::size_t at) {
  const auto split = list.begin() + static_cast<std::ptrdiff_t>(at);
  std::vector<T> out;
  out.reserve(list.size() - 1);
  out.insert(out.end(), list.begin(), split);
  out.insert(out.end(), split + 1, list.end());
  return out;
}

/// The members of `neighbors` whose common-neighbor count (the parallel
/// entry of `counts`) reaches `need` = t+1, built at its exact size.
topology::NeighborList validated_from(const topology::NeighborList& neighbors,
                                      const std::vector<std::uint32_t>& counts,
                                      std::size_t need) {
  const auto kept = std::count_if(counts.begin(), counts.end(),
                                  [need](std::uint32_t count) { return count >= need; });
  topology::NeighborList validated;
  validated.reserve(static_cast<std::size_t>(kept));
  for (std::size_t i = 0; i < neighbors.size(); ++i) {
    if (counts[i] >= need) validated.push_back(neighbors[i]);
  }
  return validated;
}

/// Whether `validated_from(state.neighbors, counts, need)` would equal
/// state.validated, checked without building it.
bool same_verdicts(const NodeState& state, const std::vector<std::uint32_t>& counts,
                   std::size_t need) {
  auto accepted = state.validated.begin();
  for (std::size_t i = 0; i < counts.size(); ++i) {
    const bool was = accepted != state.validated.end() && *accepted == state.neighbors[i];
    if ((counts[i] >= need) != was) return false;
    accepted += static_cast<std::ptrdiff_t>(was);
  }
  return true;
}

/// One merge walk of `neighbors` against `others`: adds `step` (1, or -1
/// modulo 2^32) to the parallel entry of `counts` of every common member,
/// and returns how many there were.
std::uint32_t shift_common(const topology::NeighborList& neighbors,
                           std::vector<std::uint32_t>& counts,
                           const topology::NeighborList& others, std::uint32_t step) {
  // Branch-free like topology::intersection_size: a walk this short
  // mispredicts a data-dependent branch on about every other step.
  std::uint32_t common = 0;
  std::size_t i = 0;
  std::size_t k = 0;
  while (i < neighbors.size() && k < others.size()) {
    const NodeId a = neighbors[i];
    const NodeId b = others[k];
    const bool match = a == b;
    counts[i] += match ? step : 0u;
    common += static_cast<std::uint32_t>(match);
    i += static_cast<std::size_t>(a <= b);
    k += static_cast<std::size_t>(b <= a);
  }
  return common;
}

constexpr std::uint32_t kCountUp = 1;
constexpr std::uint32_t kCountDown = ~std::uint32_t{0};

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
  if (event.kind != EventKind::kRevoke && !grid_.indexable(event.position)) {
    return ApplyResult::failure(std::string(event_kind_name(event.kind)) + ": node " +
                                std::to_string(id) + " position out of range");
  }
  const auto* entry = nodes.find(id);
  // Held to the end: nodes[id] is replaced or erased below.
  const std::shared_ptr<const NodeState> before = entry != nullptr ? *entry : nullptr;
  if (event.kind == EventKind::kDeploy && before != nullptr) {
    return ApplyResult::failure("deploy: node " + std::to_string(id) + " already live");
  }
  if (event.kind != EventKind::kDeploy && before == nullptr) {
    return ApplyResult::failure(std::string(event_kind_name(event.kind)) + ": node " +
                                std::to_string(id) + " not live");
  }

  // Nothing is rejected past this point. `removed` is N(id) before the
  // event and `added` N(id) after it: an update removes the node from its
  // old disc and adds it to its new one.
  const topology::NeighborList no_neighbors;
  const topology::NeighborList& removed = before != nullptr ? before->neighbors : no_neighbors;
  topology::NeighborList added;
  if (before != nullptr) grid_.erase(id, before->position);
  if (event.kind != EventKind::kRevoke) {
    grid_.insert(id, event.position);
    added = derive_neighbors(id, event.position);
  }

  // The nodes whose tentative list loses and/or gains `id`: removed ∪ added,
  // ascending. Their pre-event states are read through raw pointers, each
  // until its own entry is replaced.
  struct Touched {
    NodeId id;
    const NodeState* state;
    std::vector<std::uint32_t>* counts;
    bool lost;    // id in N(a) before the event
    bool gained;  // id in N(a) after it
    std::uint32_t common = 0;  // |N(a) ∩ added| = c(a, id) after the event
  };
  std::vector<Touched> touched;
  touched.reserve(removed.size() + added.size());
  auto r = removed.begin();
  auto g = added.begin();
  while (r != removed.end() || g != added.end()) {
    const bool lost = g == added.end() || (r != removed.end() && *r <= *g);
    const bool gained = r == removed.end() || (g != added.end() && *g <= *r);
    const NodeId a = lost ? *r : *g;
    touched.push_back({a, nodes.find(a)->get(), &counts_.at(a), lost, gained});
    r += static_cast<std::ptrdiff_t>(lost);
    g += static_cast<std::ptrdiff_t>(gained);
  }

  // A pair (a, b) has `id` in N(a) ∩ N(b) exactly when both lie in N(id), so
  // the event moves c(a, b) by -1 for a, b in `removed` and by +1 for a, b in
  // `added` (both, for an update's nodes that stay adjacent). One walk of
  // N(a) per side does it; `id` itself is in neither list, so whether N(a)
  // still holds it does not matter.
  for (Touched& a : touched) {
    if (a.lost) shift_common(a.state->neighbors, *a.counts, removed, kCountDown);
    if (a.gained) a.common = shift_common(a.state->neighbors, *a.counts, added, kCountUp);
  }

  // Splice `id` into or out of each touched list and count row, then
  // rederive the validated list from the counts; a node that keeps `id` as
  // a neighbor only changes if one of its verdicts flipped. Each changed
  // node is cloned once.
  const std::size_t need = config_.threshold_t + 1;
  std::vector<std::uint32_t> own_counts;  // parallel to `added`
  own_counts.reserve(added.size());
  for (const Touched& a : touched) {
    const NodeState& old = *a.state;
    std::vector<std::uint32_t>& counts = *a.counts;
    const auto at = static_cast<std::size_t>(
        std::lower_bound(old.neighbors.begin(), old.neighbors.end(), id) -
        old.neighbors.begin());
    NodeState next;
    next.position = old.position;
    if (a.gained) own_counts.push_back(a.common);
    if (a.lost && a.gained) {
      counts[at] = a.common;
      if (same_verdicts(old, counts, need)) continue;
      next.neighbors = old.neighbors;
    } else if (a.gained) {
      next.neighbors = spliced_in(old.neighbors, at, id);
      counts = spliced_in(counts, at, a.common);
    } else {
      next.neighbors = spliced_out(old.neighbors, at);
      counts = spliced_out(counts, at);
    }
    next.validated = validated_from(next.neighbors, counts, need);
    nodes.insert_or_assign(a.id, std::make_shared<const NodeState>(std::move(next)));
  }

  if (event.kind == EventKind::kRevoke) {
    counts_.erase(id);
    nodes.erase(id);
  } else {
    NodeState self;
    self.position = event.position;
    self.validated = validated_from(added, own_counts, need);
    self.neighbors = std::move(added);
    counts_.insert_or_assign(id, std::move(own_counts));
    nodes.insert_or_assign(id, std::make_shared<const NodeState>(std::move(self)));
  }

  // The only tentative lists this event changed are those of the nodes that
  // lost or gained `id`, and `id`'s own -- exactly the commitments to
  // refresh (one batched drain; a revoked id is erased inside the helper).
  if (config_.master_key.present()) {
    topology::NeighborList dirty;
    for (const Touched& a : touched) {
      if (a.lost != a.gained) dirty.push_back(a.id);
    }
    dirty.insert(std::lower_bound(dirty.begin(), dirty.end(), id), id);
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
  const std::size_t need = config_.threshold_t + 1;
  counts_.reserve(counts_.size() + nodes.size());
  for (const auto& [id, position] : nodes) {
    NodeState next = clone_state(map, id);
    std::vector<std::uint32_t> counts;
    counts.reserve(next.neighbors.size());
    for (const NodeId other : next.neighbors) {
      counts.push_back(static_cast<std::uint32_t>(
          topology::intersection_size(next.neighbors, (*map.find(other))->neighbors)));
    }
    next.validated = validated_from(next.neighbors, counts, need);
    counts_.insert_or_assign(id, std::move(counts));
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

const std::vector<std::uint32_t>* ValidationService::common_counts(NodeId id) const {
  const auto it = counts_.find(id);
  return it != counts_.end() ? &it->second : nullptr;
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
