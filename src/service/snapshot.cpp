#include "service/snapshot.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <span>

#include "util/crc32.h"

namespace snd::service {

namespace {

/// Exact round-trip double formatting (hex float), so canonical_json is a
/// bit-level description of positions rather than a rounded one.
void append_double(std::string& out, double value) {
  char buffer[40];
  std::snprintf(buffer, sizeof(buffer), "\"%a\"", value);
  out += buffer;
}

void append_list(std::string& out, const topology::NeighborList& list) {
  out += '[';
  for (std::size_t i = 0; i < list.size(); ++i) {
    if (i > 0) out += ',';
    out += std::to_string(list[i]);
  }
  out += ']';
}

std::string hex_double(double value) {
  char buffer[40];
  std::snprintf(buffer, sizeof(buffer), "%a", value);
  return buffer;
}

/// Equal exactly when "%a" prints both the same: the bits match, or both
/// are NaNs of one sign (the format drops a NaN's payload).
bool same_double(double a, double b) {
  if (std::isnan(a) || std::isnan(b)) {
    return std::isnan(a) && std::isnan(b) && std::signbit(a) == std::signbit(b);
  }
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

std::optional<std::string> double_difference(const char* field, double a, double b) {
  if (same_double(a, b)) return std::nullopt;
  return std::string(field) + " is " + hex_double(a) + " vs " + hex_double(b);
}

std::optional<std::string> list_difference(const char* field, const topology::NeighborList& a,
                                           const topology::NeighborList& b) {
  const auto [at_a, at_b] = std::mismatch(a.begin(), a.end(), b.begin(), b.end());
  if (at_a == a.end() && at_b == b.end()) return std::nullopt;
  const auto entry = [](const topology::NeighborList& list, auto it) {
    return it == list.end() ? std::string("absent") : std::to_string(*it);
  };
  return std::string(field) + "[" + std::to_string(at_a - a.begin()) + "] is " +
         entry(a, at_a) + " vs " + entry(b, at_b);
}

std::optional<std::string> state_difference(const NodeState& a, const NodeState& b) {
  if (auto d = double_difference("pos.x", a.position.x, b.position.x)) return d;
  if (auto d = double_difference("pos.y", a.position.y, b.position.y)) return d;
  if (auto d = list_difference("neighbors", a.neighbors, b.neighbors)) return d;
  return list_difference("validated", a.validated, b.validated);
}

}  // namespace

std::optional<std::string> Snapshot::first_difference(const Snapshot& other) const {
  if (threshold_t_ != other.threshold_t_) {
    return "t is " + std::to_string(threshold_t_) + " vs " + std::to_string(other.threshold_t_);
  }
  if (auto d = double_difference("radio_range", radio_range_, other.radio_range_)) return d;
  auto a = nodes_->begin();
  auto b = other.nodes_->begin();
  const auto a_end = nodes_->end();
  const auto b_end = other.nodes_->end();
  for (; a != a_end && b != b_end; ++a, ++b) {
    const auto [id_a, state_a] = *a;
    const auto [id_b, state_b] = *b;
    if (id_a != id_b) {
      return "node " + std::to_string(std::min(id_a, id_b)) + " is only in the " +
             (id_a < id_b ? "first" : "second") + " snapshot";
    }
    if (state_a == state_b) continue;  // one shared state
    if (auto d = state_difference(*state_a, *state_b)) {
      return "node " + std::to_string(id_a) + ": " + *d;
    }
  }
  if (a != a_end) return "node " + std::to_string((*a).first) + " is only in the first snapshot";
  if (b != b_end) return "node " + std::to_string((*b).first) + " is only in the second snapshot";
  return std::nullopt;
}

bool Snapshot::validate(NodeId u, NodeId v) const {
  const NodeState* state = find(u);
  return state != nullptr && nodes_->contains(v) &&
         topology::contains(state->validated, v);
}

std::size_t Snapshot::validated_edge_count() const {
  std::size_t count = 0;
  for (const auto& [id, state] : *nodes_) count += state->validated.size();
  return count;
}

std::string Snapshot::canonical_json() const {
  std::string out;
  out.reserve(64 * nodes_->size() + 64);
  out += "{\"t\":" + std::to_string(threshold_t_) + ",\"radio_range\":";
  append_double(out, radio_range_);
  out += ",\"nodes\":[";
  bool first = true;
  for (const auto& [id, state] : *nodes_) {
    if (!first) out += ',';
    first = false;
    out += "{\"id\":" + std::to_string(id) + ",\"pos\":[";
    append_double(out, state->position.x);
    out += ',';
    append_double(out, state->position.y);
    out += "],\"neighbors\":";
    append_list(out, state->neighbors);
    out += ",\"validated\":";
    append_list(out, state->validated);
    out += '}';
  }
  out += "]}";
  return out;
}

std::uint32_t Snapshot::digest() const {
  const std::string json = canonical_json();
  return util::crc32(std::span<const std::uint8_t>(
      reinterpret_cast<const std::uint8_t*>(json.data()), json.size()));
}

}  // namespace snd::service
