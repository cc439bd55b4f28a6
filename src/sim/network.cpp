#include "sim/network.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <numeric>
#include <span>

namespace snd::sim {

namespace {

/// Packs a cell coordinate pair into one hash-map key. Coordinates are
/// floor(position / max_range), so any realistic field fits 32 bits per
/// axis; if a coordinate ever overflows, distinct cells may share a bucket,
/// which only enlarges the candidate superset (queries re-filter with
/// link_exists), never loses a device.
std::uint64_t cell_key(std::int64_t cx, std::int64_t cy) {
  return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(cx)) << 32) |
         static_cast<std::uint32_t>(cy);
}

std::int64_t cell_coord(double v, double cell_size) {
  return static_cast<std::int64_t>(std::floor(v / cell_size));
}

}  // namespace

Network::Network(std::unique_ptr<PropagationModel> propagation, ChannelConfig config,
                 std::uint64_t seed, EnergyConfig energy)
    : propagation_(std::move(propagation)), config_(config), energy_(energy), rng_(seed) {
  assert(propagation_ != nullptr);
  cell_size_ = propagation_->max_range();
  indexable_ = std::isfinite(cell_size_) && cell_size_ > 0.0;
  use_spatial_index_ = indexable_;
}

DeviceId Network::add_device(NodeId identity, util::Vec2 position) {
  const auto id = static_cast<DeviceId>(devices_.size());
  devices_.push_back(Device{.id = id,
                            .identity = identity,
                            .position = position,
                            .deployed_at = scheduler_.now()});
  receivers_.emplace_back();
  tx_bytes_.push_back(0);
  energy_j_.push_back(energy_.initial_j);
  tx_busy_until_.push_back(Time::zero());
  tx_run_start_.push_back(Time::zero());
  pos_x_.push_back(position.x);
  pos_y_.push_back(position.y);
  identity_index_[identity].push_back(id);
  grid_insert(id, position);
  return id;
}

void Network::grid_insert(DeviceId id, util::Vec2 position) {
  if (!indexable_) return;
  // Ids are assigned sequentially, so appending keeps every cell's vector
  // sorted ascending -- the property candidate enumeration relies on for
  // deterministic device-id order. (set_position re-buckets with a sorted
  // insert, because a moved id is usually not the cell's maximum.)
  grid_[cell_key(cell_coord(position.x, cell_size_), cell_coord(position.y, cell_size_))]
      .push_back(id);
  ++grid_version_;
}

void Network::set_position(DeviceId id, util::Vec2 position) {
  Device& d = devices_.at(id);
  const util::Vec2 old = d.position;
  d.position = position;
  pos_x_[id] = position.x;
  pos_y_[id] = position.y;
  if (!indexable_) return;
  const std::uint64_t old_key =
      cell_key(cell_coord(old.x, cell_size_), cell_coord(old.y, cell_size_));
  const std::uint64_t new_key =
      cell_key(cell_coord(position.x, cell_size_), cell_coord(position.y, cell_size_));
  // A move inside one cell changes no cell membership, and cached candidate
  // lists hold only ids (queries re-check link_exists against live
  // positions), so the caches stay valid -- no version bump needed.
  if (old_key == new_key) return;
  std::vector<DeviceId>& old_cell = grid_[old_key];
  old_cell.erase(std::remove(old_cell.begin(), old_cell.end(), id), old_cell.end());
  std::vector<DeviceId>& new_cell = grid_[new_key];
  new_cell.insert(std::lower_bound(new_cell.begin(), new_cell.end(), id), id);
  ++grid_version_;
}

const std::vector<DeviceId>& Network::candidates_near(util::Vec2 center) const {
  const std::int64_t cx = cell_coord(center.x, cell_size_);
  const std::int64_t cy = cell_coord(center.y, cell_size_);
  BlockCache& cache = block_cache_[cell_key(cx, cy)];
  if (cache.version != grid_version_) {
    cache.version = grid_version_;
    cache.candidates.clear();
    for (std::int64_t dx = -1; dx <= 1; ++dx) {
      for (std::int64_t dy = -1; dy <= 1; ++dy) {
        const auto it = grid_.find(cell_key(cx + dx, cy + dy));
        if (it != grid_.end()) {
          cache.candidates.insert(cache.candidates.end(), it->second.begin(), it->second.end());
        }
      }
    }
    // Each cell is sorted; merging the 3x3 block by sorting keeps
    // enumeration in ascending device-id order, so per-receiver RNG draws
    // are consumed in exactly the linear scan's order (bit-identical runs
    // either way).
    std::sort(cache.candidates.begin(), cache.candidates.end());
  }
  return cache.candidates;
}

template <typename Fn>
void Network::for_each_candidate(util::Vec2 center, Fn&& fn) const {
  if (use_spatial_index_) {
    for (const DeviceId id : candidates_near(center)) fn(devices_[id]);
  } else {
    for (const Device& d : devices_) fn(d);
  }
}

void Network::drain(DeviceId id, double joules) {
  if (!energy_.enabled) return;
  energy_j_[id] -= joules;
  if (energy_j_[id] <= 0.0) {
    energy_j_[id] = 0.0;
    devices_[id].alive = false;
  }
}

DeviceId Network::add_replica(NodeId identity, util::Vec2 position) {
  const DeviceId id = add_device(identity, position);
  devices_[id].replica = true;
  devices_[id].compromised = true;
  return id;
}

std::vector<DeviceId> Network::devices_with_identity(NodeId identity) const {
  std::vector<DeviceId> out;
  const auto it = identity_index_.find(identity);
  if (it == identity_index_.end()) return out;
  for (const DeviceId id : it->second) {
    if (devices_[id].alive) out.push_back(id);
  }
  return out;
}

void Network::set_receiver(DeviceId id, std::function<void(const Packet&)> handler) {
  receivers_.at(id) = std::move(handler);
}

Time Network::transmission_time(std::size_t wire_bytes) const {
  const double seconds = static_cast<double>(wire_bytes) * 8.0 / config_.bit_rate_bps;
  return Time::seconds(seconds);
}

void Network::note_drop(obs::DropCause cause, NodeId node, NodeId peer, std::uint32_t bytes) {
  metrics_.count_drop(cause);
  // Dense sweeps hit this once per out-of-range candidate; below kEvents the
  // tracer only needs the event tally, not a built payload.
  if (tracer_.recording()) {
    tracer_.emit(obs::Event{.kind = obs::EventKind::kDrop,
                            .code = static_cast<std::uint8_t>(cause),
                            .node = node,
                            .peer = peer,
                            .bytes = bytes,
                            .t_ns = scheduler_.now().ns()});
  } else {
    tracer_.count_radio_event();
  }
}

void Network::note_inject(obs::InjectKind kind, NodeId node, NodeId peer, std::uint32_t bytes) {
  if (tracer_.active()) {
    tracer_.emit(obs::Event{.kind = obs::EventKind::kInject,
                            .code = static_cast<std::uint8_t>(kind),
                            .node = node,
                            .peer = peer,
                            .bytes = bytes,
                            .t_ns = scheduler_.now().ns()});
  }
}

std::uint32_t Network::store_packet(Packet&& packet) {
  if (free_packets_.empty()) {
    packets_.push_back(PacketSlot{std::move(packet), 0});
    return static_cast<std::uint32_t>(packets_.size() - 1);
  }
  const std::uint32_t slot = free_packets_.back();
  free_packets_.pop_back();
  packets_[slot].packet = std::move(packet);
  return slot;
}

std::vector<DeviceId> Network::take_group() {
  if (spare_groups_.empty()) return {};
  std::vector<DeviceId> group = std::move(spare_groups_.back());
  spare_groups_.pop_back();
  return group;
}

void Network::recycle_group(std::vector<DeviceId> group) {
  if (spare_groups_.size() == kSpareGroups) return;
  group.clear();
  spare_groups_.push_back(std::move(group));
}

void Network::schedule_delivery(Time at, std::uint32_t packet, DeviceId to,
                                std::vector<DeviceId> overhearers, Time start, Time airtime_end,
                                obs::Phase phase) {
  std::uint32_t slot = 0;
  if (free_deliveries_.empty()) {
    slot = static_cast<std::uint32_t>(deliveries_.size());
    deliveries_.emplace_back();
  } else {
    slot = free_deliveries_.back();
    free_deliveries_.pop_back();
  }
  deliveries_[slot] = Delivery{.overhearers = std::move(overhearers),
                               .start = start,
                               .airtime_end = airtime_end,
                               .packet = packet,
                               .to = to,
                               .phase = phase};
  ++packets_[packet].holders;
  scheduler_.schedule_at(at, [this, slot]() { deliver(slot); });
}

void Network::release_packet(std::uint32_t slot) {
  PacketSlot& held = packets_[slot];
  if (--held.holders != 0) return;
  held.packet.payload = {};
  free_packets_.push_back(slot);
}

void Network::deliver(std::uint32_t slot) {
  // Receive callbacks may transmit, which claims new slots; the deques keep
  // these references valid, and this record and its packet stay claimed
  // until the loop is done.
  Delivery& d = deliveries_[slot];
  const Packet& packet = packets_[d.packet].packet;
  if (d.to != kNoDevice) {
    deliver_copy(d.to, packet, d.start, d.airtime_end, d.phase);
  } else {
    for (const DeviceId to : d.overhearers) {
      deliver_copy(to, packet, d.start, d.airtime_end, d.phase);
    }
    recycle_group(std::move(d.overhearers));
  }
  release_packet(d.packet);
  free_deliveries_.push_back(slot);
}

void Network::deliver_copy(DeviceId to, const Packet& packet, Time start, Time airtime_end,
                           obs::Phase phase) {
  const Device& d = devices_[to];
  const NodeId sender_identity = devices_[packet.sender_device].identity;
  const auto rx_bytes = static_cast<std::uint32_t>(packet.wire_bytes());
  if (!d.alive || !receivers_[to]) {
    note_drop(obs::DropCause::kReceiverDead, d.identity, sender_identity, rx_bytes);
    return;
  }
  // Half-duplex: the receiver missed the packet iff its own transmit run
  // overlapped our airtime [start, airtime_end). Comparing intervals --
  // not just tx_busy_until_ > start -- means a transmission the receiver
  // queues *after* our airtime ended (but before this delivery event
  // fires) no longer retroactively destroys the packet. Only the latest
  // contiguous run is tracked: an overlapping run that ended and was
  // replaced by a non-overlapping one inside the ~0.5 ms delivery lag
  // would be forgiven, a vanishingly rare and optimistic approximation.
  if (config_.half_duplex && tx_run_start_[to] < airtime_end && tx_busy_until_[to] > start) {
    note_drop(obs::DropCause::kHalfDuplex, d.identity, sender_identity, rx_bytes);
    return;
  }
  drain(to, energy_.rx_j_per_byte * static_cast<double>(packet.wire_bytes()));
  if (!devices_[to].alive) {
    note_drop(obs::DropCause::kReceiverDead, d.identity, sender_identity, rx_bytes);
    return;
  }
  metrics_.count_delivery();
  if (tracer_.recording()) {
    tracer_.emit(obs::Event{.kind = obs::EventKind::kDelivery,
                            .code = static_cast<std::uint8_t>(phase),
                            .node = d.identity,
                            .peer = sender_identity,
                            .bytes = rx_bytes,
                            .t_ns = scheduler_.now().ns()});
  } else {
    tracer_.count_radio_event();
  }
  receivers_[to](packet);
}

void Network::transmit(DeviceId from, Packet packet, obs::Phase phase) {
  transmit_impl(from, std::move(packet), phase);
}

void Network::transmit_impl(DeviceId from, Packet packet, obs::Phase phase) {
  const Device& sender = devices_.at(from);
  if (!sender.alive) return;
  packet.sender_device = from;

  const auto wire_bytes = static_cast<std::uint32_t>(packet.wire_bytes());
  metrics_.count_tx(phase, wire_bytes);
  if (tracer_.recording()) {
    tracer_.emit(obs::Event{.kind = obs::EventKind::kTx,
                            .code = static_cast<std::uint8_t>(phase),
                            .node = sender.identity,
                            .peer = packet.dst,
                            .bytes = wire_bytes,
                            .t_ns = scheduler_.now().ns()});
  } else {
    tracer_.count_radio_event();
  }
  tx_bytes_[from] += packet.wire_bytes();
  drain(from, energy_.tx_j_per_byte * static_cast<double>(packet.wire_bytes()));
  if (!devices_[from].alive) {  // battery died putting this on the air
    note_drop(obs::DropCause::kSenderDead, sender.identity, kNoNode, wire_bytes);
    return;
  }

  const Time tx_time = transmission_time(packet.wire_bytes());
  // Half-duplex: a device's transmissions queue behind each other. A send
  // that starts at or after the previous one cleared begins a new
  // contiguous run; otherwise it extends the current run.
  Time start = scheduler_.now();
  if (config_.half_duplex) {
    if (tx_busy_until_[from] > start) {
      start = tx_busy_until_[from];
    } else {
      tx_run_start_[from] = start;
    }
    tx_busy_until_[from] = start + tx_time;
  }
  const Time airtime_end = start + tx_time;
  const util::Vec2 origin = sender.position;
  const NodeId sender_identity = sender.identity;
  const bool sender_jammed = jammed(origin);

  // The candidate list, ascending by device id: the grid's 3x3 block, or
  // every device on the linear path. Both give bit-identical deliveries;
  // only the kOutOfRange count depends on the superset enumerated.
  std::span<const DeviceId> cands;
  const double* xs = pos_x_.data();
  const double* ys = pos_y_.data();
  if (use_spatial_index_) {
    cands = candidates_near(origin);
  } else {
    if (linear_ids_.size() != devices_.size()) {
      linear_ids_.resize(devices_.size());
      std::iota(linear_ids_.begin(), linear_ids_.end(), DeviceId{0});
    }
    cands = linear_ids_;
  }
  const std::size_t n = cands.size();

  // Link classes: the model's strip verdicts, or kLinkCheck everywhere,
  // which reduces the link decision to the scalar link_exists call. A strip
  // shorter than one vector pass is not worth gathering.
  constexpr std::size_t kStripMin = 4;
  strip_class_.resize(n);
  if (n >= kStripMin) {
    if (use_spatial_index_) {
      strip_x_.resize(n);
      strip_y_.resize(n);
      for (std::size_t i = 0; i < n; ++i) {
        strip_x_[i] = pos_x_[cands[i]];
        strip_y_[i] = pos_y_[cands[i]];
      }
      xs = strip_x_.data();
      ys = strip_y_.data();
    }
    propagation_->classify_links(origin, xs, ys, n, strip_class_.data());
  } else {
    std::fill(strip_class_.begin(), strip_class_.end(), kLinkCheck);
  }

  // Pass 1: keep the candidates that can receive at all (not the sender,
  // alive, receiver installed), split them into linked and out of range,
  // and record both as positions in `cands`. Every candidate is written to
  // both lists and the counts advance by its verdict, so the loop does not
  // branch on the candidate; only a kLinkCheck verdict calls link_exists.
  linked_.resize(n);
  unlinked_.resize(n);
  std::size_t n_linked = 0;
  std::size_t n_unlinked = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const DeviceId id = cands[i];
    const Device& d = devices_[id];
    const bool eligible = (id != from) & d.alive & static_cast<bool>(receivers_[id]);
    bool linked = strip_class_[i] == kLinkIn;
    if (strip_class_[i] == kLinkCheck && eligible) {
      linked = propagation_->link_exists(origin, d.position);
    }
    linked_[n_linked] = static_cast<std::uint32_t>(i);
    unlinked_[n_unlinked] = static_cast<std::uint32_t>(i);
    n_linked += static_cast<std::size_t>(eligible & linked);
    n_unlinked += static_cast<std::size_t>(eligible & !linked);
  }
  metrics_.count_candidate(n_linked + n_unlinked);

  // Out-of-range drops: one bulk count, unless the tracer records events,
  // in which case each is emitted where a single per-candidate pass would
  // have emitted it -- before the first linked candidate after it.
  const bool recording = tracer_.recording();
  std::size_t next_unlinked = 0;
  const auto drop_out_of_range_before = [&](std::size_t pos) {
    for (; next_unlinked < n_unlinked && unlinked_[next_unlinked] < pos; ++next_unlinked) {
      note_drop(obs::DropCause::kOutOfRange, devices_[cands[unlinked_[next_unlinked]]].identity,
                sender_identity, wire_bytes);
    }
  };
  if (!recording) {
    metrics_.count_drop(obs::DropCause::kOutOfRange, n_unlinked);
    tracer_.count_radio_event(n_unlinked);
  }

  // Pass 2, in ascending device id, so the loss-RNG draws, fault-hook calls
  // and event ids are consumed in the order of the linear scan. The fault
  // hook is consulted strictly after the channel resolved a copy as
  // deliverable, so an uninstalled hook perturbs nothing -- not even RNG
  // draw order. Receivers the packet is *addressed to* get exact
  // per-receiver timing: protocols that measure time of flight (distance
  // bounding) depend on it. Overhearers share one delivery record -- their
  // propagation-delay differences are nanoseconds against the ~0.5 ms
  // processing delay, and one event per transmission keeps the queue small
  // on dense fields. Its delay uses sqrt(max d²), which equals the largest
  // distance exactly (sqrt is correctly rounded and monotone), so only
  // addressed and perturbed copies compute a distance of their own.
  const std::uint32_t packet_slot = store_packet(std::move(packet));
  const Packet& shared = packets_[packet_slot].packet;
  // Held until this transmission is resolved, so a corrupted copy stored
  // below cannot take the slot.
  ++packets_[packet_slot].holders;
  std::vector<DeviceId> overhearers = take_group();
  overhearers.reserve(n_linked);
  double max_distance_squared = 0.0;
  for (std::size_t j = 0; j < n_linked; ++j) {
    const std::uint32_t pos = linked_[j];
    if (recording) drop_out_of_range_before(pos);
    const Device& receiver = devices_[cands[pos]];
    if (sender_jammed || jammed(receiver.position)) {
      note_drop(obs::DropCause::kCollision, receiver.identity, sender_identity, wire_bytes);
      continue;
    }
    if (config_.loss_probability > 0.0 && rng_.chance(config_.loss_probability)) {
      note_drop(obs::DropCause::kLoss, receiver.identity, sender_identity, wire_bytes);
      continue;
    }

    if (fault_ != nullptr) {
      const FaultDecision fd =
          fault_->on_delivery(sender_identity, receiver.identity, phase, scheduler_.now());
      if (fd.drop) {
        note_inject(fd.drop_kind, receiver.identity, sender_identity, wire_bytes);
        note_drop(obs::DropCause::kInjected, receiver.identity, sender_identity, wire_bytes);
        continue;
      }
      if (fd.perturbs()) {
        // Perturbed copies always get dedicated per-receiver events with
        // exact per-receiver timing -- an injected duplicate or delayed copy
        // cannot ride the shared overhearer event.
        const Time base = start + tx_time +
                          PropagationModel::propagation_delay(
                              util::distance(origin, receiver.position)) +
                          config_.processing_delay + fd.extra_delay;
        std::uint32_t copy = packet_slot;
        if (fd.corrupt) {
          Packet mutated = shared;
          fault_->corrupt_packet(mutated);
          copy = store_packet(std::move(mutated));
          note_inject(obs::InjectKind::kCorrupt, receiver.identity, sender_identity, wire_bytes);
        }
        if (fd.extra_delay > Time::zero()) {
          note_inject(obs::InjectKind::kDelay, receiver.identity, sender_identity, wire_bytes);
        }
        schedule_delivery(base, copy, receiver.id, {}, start, airtime_end, phase);
        for (std::uint32_t i = 1; i <= fd.copies; ++i) {
          // Extra copies count as fresh candidates so the conservation law
          // (candidates == deliveries + channel drops) survives duplication.
          metrics_.count_candidate();
          note_inject(obs::InjectKind::kDuplicate, receiver.identity, sender_identity, wire_bytes);
          schedule_delivery(
              base + Time::nanoseconds(fd.copy_spacing.ns() * static_cast<std::int64_t>(i)),
              copy, receiver.id, {}, start, airtime_end, phase);
        }
        continue;
      }
    }

    if (!shared.is_broadcast() && receiver.identity == shared.dst) {
      const Time at = start + tx_time +
                      PropagationModel::propagation_delay(
                          util::distance(origin, receiver.position)) +
                      config_.processing_delay;
      schedule_delivery(at, packet_slot, receiver.id, {}, start, airtime_end, phase);
    } else {
      overhearers.push_back(receiver.id);
      max_distance_squared =
          std::max(max_distance_squared, util::distance_squared(origin, receiver.position));
    }
  }
  if (recording) drop_out_of_range_before(n);

  if (overhearers.empty()) {
    recycle_group(std::move(overhearers));
  } else {
    schedule_delivery(start + tx_time +
                          PropagationModel::propagation_delay(std::sqrt(max_distance_squared)) +
                          config_.processing_delay,
                      packet_slot, kNoDevice, std::move(overhearers), start, airtime_end, phase);
  }
  release_packet(packet_slot);
}

obs::TraceSummary Network::trace_summary() const {
  obs::TraceSummary summary;
  summary.trials = 1;
  metrics_.accumulate_into(summary);
  tracer_.accumulate_into(summary);
  return summary;
}

bool Network::link(DeviceId a, DeviceId b) const {
  if (a == b) return false;
  const Device& da = devices_.at(a);
  const Device& db = devices_.at(b);
  if (!da.alive || !db.alive) return false;
  return propagation_->link_exists(da.position, db.position);
}

std::vector<DeviceId> Network::devices_in_range(DeviceId id) const {
  std::vector<DeviceId> out;
  for_each_candidate(devices_.at(id).position, [&](const Device& d) {
    if (d.id != id && d.alive && link(id, d.id)) out.push_back(d.id);
  });
  return out;
}

std::uint64_t Network::max_tx_bytes() const {
  std::uint64_t max_bytes = 0;
  for (std::uint64_t b : tx_bytes_) max_bytes = std::max(max_bytes, b);
  return max_bytes;
}

std::size_t Network::add_jammer(util::Circle area) {
  jammers_.push_back(area);
  return jammers_.size() - 1;
}

void Network::remove_jammer(std::size_t handle) { jammers_.at(handle).reset(); }

bool Network::jammed(util::Vec2 position) const {
  for (const auto& jammer : jammers_) {
    if (jammer && jammer->contains(position)) return true;
  }
  return false;
}

}  // namespace snd::sim
