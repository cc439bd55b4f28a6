#include "service/validation_service.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <optional>
#include <stdexcept>
#include <string>
#include <tuple>
#include <unordered_set>
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

/// Whether coordinates `a` and `b` differ by at most `radius` before
/// rounding: b − a can round to ±radius from just beyond it.
bool within_exactly(double a, double b, double radius) {
  const double difference = b - a;
  if (std::fabs(difference) != radius) return std::fabs(difference) < radius;
  // TwoSum: b − a == difference + error exactly.
  const double b_virtual = difference + a;
  const double minus_a_virtual = difference - b_virtual;
  const double error = (b - b_virtual) + (-a - minus_a_virtual);
  return difference > 0 ? error <= 0 : error >= 0;
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

/// The members of `neighbors` whose parallel entry of `values` (a count, or
/// a 0/1 verdict) reaches `need`, built at its exact size.
template <typename Values>
topology::NeighborList validated_from(const topology::NeighborList& neighbors,
                                      const Values& values, std::size_t need) {
  const auto kept = std::count_if(values.begin(), values.end(),
                                  [need](auto value) { return value >= need; });
  topology::NeighborList validated;
  validated.reserve(static_cast<std::size_t>(kept));
  for (std::size_t i = 0; i < neighbors.size(); ++i) {
    if (values[i] >= need) validated.push_back(neighbors[i]);
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

using Placement = std::pair<NodeId, util::Vec2>;

/// A whole world's tentative lists in slot order: slot i is the i-th node in
/// (cell, input index) order, `origin[i]` its index in the input, and
/// `rows[i]` its N(u) as ascending slots.
struct Neighborhoods {
  std::vector<std::uint32_t> origin;
  std::vector<topology::NeighborList> rows;
};

/// Whether the count or verdict pass may write edge (i, j), i's entry for
/// j, into row j: row j's next unwritten entry must exist and name i. Both
/// passes write each undirected edge once, from its lower slot, so this
/// holds at every write iff N(·) is symmetric -- one compare per edge keeps
/// a faulty pass from writing past the end of a row.
bool next_entry_names(const Neighborhoods& pass, const std::vector<std::uint32_t>& filled,
                      std::uint32_t i, std::uint32_t j) {
  const topology::NeighborList& row = pass.rows[j];
  return filled[j] < row.size() && row[filled[j]] == i;
}

/// Names, by id, the first pair in slot order that N(·) lists one way only.
/// Only runs once next_entry_names() has failed.
std::string asymmetry(std::span<const Placement> nodes, const Neighborhoods& pass) {
  const auto id = [&](std::uint32_t slot) {
    return std::to_string(nodes[pass.origin[slot]].first);
  };
  for (std::uint32_t i = 0; i < pass.rows.size(); ++i) {
    for (const std::uint32_t j : pass.rows[i]) {
      const topology::NeighborList& back = pass.rows[j];
      if (std::find(back.begin(), back.end(), i) == back.end()) {
        return "N(" + id(i) + ") lists " + id(j) + " but N(" + id(j) + ") does not list " + id(i);
      }
    }
  }
  return "a row of N(·) is not strictly ascending";
}

/// The cell-sorted pass (docs/SERVICE.md, "Bootstrap", steps 2-3). It reads
/// positions alone, through the cell arithmetic and predicate query_disc uses.
Neighborhoods neighborhoods(std::span<const Placement> nodes, double radius) {
  const SpatialGrid cells(radius);  // arithmetic only: holds no node
  const std::size_t n = nodes.size();
  Neighborhoods pass{std::vector<std::uint32_t>(n), std::vector<topology::NeighborList>(n)};
  struct Keyed {
    std::uint64_t key;
    std::uint32_t index;
  };
  std::vector<util::Vec2> positions(n);
  std::vector<Keyed> occupied;  // each occupied cell's key and first slot
  {
    std::vector<Keyed> order(n);
    for (std::uint32_t k = 0; k < n; ++k) order[k] = {cells.cell_key(nodes[k].second), k};
    std::sort(order.begin(), order.end(), [](const Keyed& a, const Keyed& b) {
      return a.key != b.key ? a.key < b.key : a.index < b.index;
    });
    for (std::uint32_t i = 0; i < n; ++i) {
      pass.origin[i] = order[i].index;
      positions[i] = nodes[order[i].index].second;
      if (i == 0 || order[i].key != order[i - 1].key) occupied.push_back({order[i].key, i});
    }
  }

  // The cell range of u's disc, as one run of slots per column, tested
  // with the predicate query_disc uses. The nodes of a cell nearly always
  // share a range, so its runs are looked up once.
  const auto first_slot = [&](std::uint64_t key) {
    const auto cell = std::lower_bound(
        occupied.begin(), occupied.end(), key,
        [](const Keyed& entry, std::uint64_t wanted) { return entry.key < wanted; });
    return cell != occupied.end() ? cell->index : static_cast<std::uint32_t>(n);
  };
  std::vector<std::pair<std::uint32_t, std::uint32_t>> runs;
  std::optional<SpatialGrid::CellRange> runs_of;
  topology::NeighborList found;
  for (std::uint32_t i = 0; i < n; ++i) {
    const SpatialGrid::CellRange range = cells.disc_cells(positions[i], radius);
    if (range != runs_of) {
      runs.clear();
      for (std::int64_t cx = range.x_lo; cx <= range.x_hi; ++cx) {
        runs.emplace_back(first_slot(SpatialGrid::cell_key(cx, range.y_lo)),
                          first_slot(SpatialGrid::cell_key(cx, range.y_hi + 1)));
      }
      runs_of = range;
    }
    found.clear();
    for (const auto& [begin, end] : runs) {
      for (std::uint32_t j = begin; j < end; ++j) {
        if (j != i && SpatialGrid::in_range(positions[i], positions[j], radius)) {
          found.push_back(j);
        }
      }
    }
    pass.rows[i].assign(found.begin(), found.end());
  }
  return pass;
}

/// The last step of both whole-world derivations: one NodeState per slot,
/// filled into the map by ascending id (a repeated id keeps only one). Each
/// row turns into ids in place, sorted by id together with its values
/// (`values(i)`: slot i's counts or verdicts), and the validated list keeps
/// the members whose value reaches `need`.
template <typename Values>
Snapshot::NodeMap build_states(std::span<const Placement> nodes, Neighborhoods& pass,
                               Values values, std::size_t need) {
  const std::size_t n = nodes.size();
  std::vector<NodeId> ids(n);           // by slot
  std::vector<std::uint64_t> by_id(n);  // (id, slot), ascending
  for (std::uint32_t i = 0; i < n; ++i) {
    ids[i] = nodes[pass.origin[i]].first;
    by_id[i] = std::uint64_t{ids[i]} << 32 | i;
  }
  std::sort(by_id.begin(), by_id.end());
  Snapshot::NodeMap map;
  std::vector<std::pair<NodeId, std::uint32_t>> entries;
  for (const std::uint64_t key : by_id) {
    const auto i = static_cast<std::uint32_t>(key);
    topology::NeighborList& row = pass.rows[i];
    const auto row_values = values(i);
    entries.clear();
    for (std::size_t k = 0; k < row.size(); ++k) entries.emplace_back(ids[row[k]], row_values[k]);
    std::sort(entries.begin(), entries.end());
    for (std::size_t k = 0; k < row.size(); ++k) std::tie(row[k], row_values[k]) = entries[k];
    NodeState state;
    state.position = nodes[pass.origin[i]].second;
    state.validated = validated_from(row, row_values, need);
    state.neighbors = std::move(row);
    map.insert_or_assign(ids[i], std::make_shared<const NodeState>(std::move(state)));
  }
  return map;
}

}  // namespace

std::int64_t SpatialGrid::cell_index(double coordinate) const {
  const double index = std::floor(coordinate / cell_);
  if (!(index > static_cast<double>(kMinCell))) return kMinCell;  // NaN too
  if (!(index < static_cast<double>(kMaxCell))) return kMaxCell;
  return static_cast<std::int64_t>(index);
}

std::uint64_t SpatialGrid::cell_key(std::int64_t cx, std::int64_t cy) {
  // Flipping the sign bit makes unsigned order the signed order.
  const auto ux = static_cast<std::uint32_t>(cx) ^ 0x8000'0000u;
  const auto uy = static_cast<std::uint32_t>(cy) ^ 0x8000'0000u;
  return (static_cast<std::uint64_t>(ux) << 32) | uy;
}

std::uint64_t SpatialGrid::cell_key(util::Vec2 position) const {
  return cell_key(cell_index(position.x), cell_index(position.y));
}

SpatialGrid::CellRange SpatialGrid::disc_cells(util::Vec2 center, double radius) const {
  return {cell_index(center.x - radius), cell_index(center.x + radius),
          cell_index(center.y - radius), cell_index(center.y + radius)};
}

bool SpatialGrid::in_range(util::Vec2 a, util::Vec2 b, double radius) {
  return util::distance_squared(a, b) <= radius * radius &&
         within_exactly(a.x, b.x, radius) && within_exactly(a.y, b.y, radius);
}

bool SpatialGrid::indexable(util::Vec2 position) const {
  const auto inside = [&](double coordinate) {
    return std::isfinite(coordinate) && cell_index(coordinate - cell_) > kMinCell &&
           cell_index(coordinate + cell_) < kMaxCell;
  };
  return inside(position.x) && inside(position.y);
}

void SpatialGrid::insert(NodeId id, util::Vec2 position) {
  cells_[cell_key(position)].push_back({id, position});
}

void SpatialGrid::erase(NodeId id, util::Vec2 position) {
  const auto bucket = cells_.find(cell_key(position));
  if (bucket == cells_.end()) return;
  std::vector<Entry>& entries = bucket->second;
  const auto it = std::find_if(entries.begin(), entries.end(),
                               [id](const Entry& entry) { return entry.id == id; });
  if (it != entries.end()) entries.erase(it);
  if (entries.empty()) cells_.erase(bucket);
}

std::vector<NodeId> SpatialGrid::query_disc(util::Vec2 center, double radius) const {
  const CellRange range = disc_cells(center, radius);
  std::vector<NodeId> result;
  for (std::int64_t cx = range.x_lo; cx <= range.x_hi; ++cx) {
    for (std::int64_t cy = range.y_lo; cy <= range.y_hi; ++cy) {
      const auto bucket = cells_.find(cell_key(cx, cy));
      if (bucket == cells_.end()) continue;
      for (const Entry& entry : bucket->second) {
        if (in_range(center, entry.position, radius)) result.push_back(entry.id);
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

ApplyResult ValidationService::seed_topology(std::span<const Placement> nodes) {
  if (map_->size() != 0) return ApplyResult::failure("seed: the service is not empty");
  for (const auto& [id, position] : nodes) {
    if (!grid_.indexable(position)) {
      return ApplyResult::failure("seed: node " + std::to_string(id) +
                                  " position out of range");
    }
  }
  const std::size_t n = nodes.size();
  Neighborhoods pass = neighborhoods(nodes, config_.radio_range);

  // One intersection per undirected edge (i, j), i < j, written into both
  // count rows. N(·) is symmetric and i runs upward, so row j's entries
  // below j are written in order: `filled[j]` so far, and the next is i.
  // An asymmetric pass fails the seed before anything has changed.
  const std::vector<topology::NeighborList>& rows = pass.rows;
  std::vector<std::vector<std::uint32_t>> counts(n);
  for (std::uint32_t i = 0; i < n; ++i) counts[i].resize(rows[i].size());
  {
    std::vector<std::uint32_t> filled(n, 0);
    for (std::uint32_t i = 0; i < n; ++i) {
      const topology::NeighborList& row = rows[i];
      for (std::size_t k = filled[i]; k < row.size(); ++k) {
        const std::uint32_t j = row[k];
        if (!next_entry_names(pass, filled, i, j)) [[unlikely]] {
          return ApplyResult::failure("seed: " + asymmetry(nodes, pass));
        }
        const auto common =
            static_cast<std::uint32_t>(topology::intersection_size(row, rows[j]));
        counts[i][k] = common;
        counts[j][filled[j]++] = common;
      }
    }
  }

  Snapshot::NodeMap map = build_states(
      nodes, pass, [&](std::uint32_t i) { return std::span(counts[i]); }, config_.threshold_t + 1);
  if (map.size() != n) {  // a repeated id: nothing has changed yet
    std::unordered_set<NodeId> seen;
    for (const auto& [id, position] : nodes) {
      if (!seen.insert(id).second) {
        return ApplyResult::failure("seed: node " + std::to_string(id) + " listed twice");
      }
    }
  }
  counts_.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    const auto& [id, position] = nodes[pass.origin[i]];
    grid_.insert(id, position);
    counts_.insert_or_assign(id, std::move(counts[i]));
  }
  if (config_.master_key.present()) {
    std::vector<NodeId> ascending;
    for (const auto& [id, state] : map) ascending.push_back(id);
    refresh_commitments(ascending, map);
  }
  publish(std::move(map));
  return ApplyResult::success();
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
  // The live (id, position) pairs, by id, are all it reads: no list, count,
  // grid cell or commitment that ingestion maintains.
  std::vector<Placement> live;
  live.reserve(map_->size());
  for (const auto& [id, state] : *map_) live.emplace_back(id, state->position);
  const std::size_t n = live.size();
  Neighborhoods pass = neighborhoods(live, config_.radio_range);

  // One threshold verdict per undirected edge (i, j), i < j, written as a bit
  // into both rows' entries at each row's offset, as seed_topology's counts
  // (and checked the same way: an asymmetric pass is a bug in the pass).
  std::vector<std::size_t> offset(n + 1, 0);
  for (std::size_t i = 0; i < n; ++i) offset[i + 1] = offset[i] + pass.rows[i].size();
  std::vector<bool> verdicts(offset[n]);
  std::vector<std::uint32_t> filled(n, 0);
  for (std::uint32_t i = 0; i < n; ++i) {
    const topology::NeighborList& row = pass.rows[i];
    for (std::size_t k = filled[i]; k < row.size(); ++k) {
      const std::uint32_t j = row[k];
      if (!next_entry_names(pass, filled, i, j)) [[unlikely]] {
        throw std::logic_error("rebuild: " + asymmetry(live, pass));
      }
      verdicts[offset[i] + k] = verdicts[offset[j] + filled[j]++] =
          core::meets_threshold(row, pass.rows[j], config_.threshold_t);
    }
  }

  std::vector<std::uint8_t> unpacked;  // the row being built's verdicts
  const auto row_verdicts = [&](std::uint32_t i) {
    unpacked.assign(verdicts.begin() + offset[i], verdicts.begin() + offset[i + 1]);
    return std::span(unpacked);
  };
  return std::make_shared<const Snapshot>(
      epoch_, config_.threshold_t, config_.radio_range,
      std::make_shared<const Snapshot::NodeMap>(build_states(live, pass, row_verdicts, 1)));
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
