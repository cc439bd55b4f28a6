// The simulated sensor field: physical devices, the shared radio channel,
// jamming, and per-category traffic metrics, driven by one Scheduler.
//
// Protocol code interacts with the network only through transmit() and a
// per-device receive callback; everything it can learn about its
// surroundings arrives in packets, as on real hardware. Ground-truth
// queries (positions, geometric links) exist for deployment tooling,
// direct-verification oracles, and auditing -- never for protocol logic.
#pragma once

#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <unordered_map>
#include <utility>
#include <vector>

#include "obs/tracer.h"
#include "sim/fault.h"
#include "sim/metrics.h"
#include "sim/packet.h"
#include "sim/propagation.h"
#include "sim/scheduler.h"
#include "util/geometry.h"
#include "util/rng.h"

namespace snd::sim {

/// A physical radio in the field. Replicas are separate devices sharing a
/// compromised identity. Network::device() hands out read-only views; every
/// write goes through a Network method, which keeps the spatial index and
/// the receiver cache in step with the field.
struct Device {
  DeviceId id = kNoDevice;
  NodeId identity = kNoNode;
  util::Vec2 position;
  Time deployed_at;
  bool alive = true;
  bool compromised = false;
  bool replica = false;

  [[nodiscard]] bool benign() const { return !compromised && !replica; }
};

struct ChannelConfig {
  /// 802.15.4 data rate.
  double bit_rate_bps = 250'000.0;
  /// Independent per-delivery loss probability (in addition to jamming).
  double loss_probability = 0.0;
  /// Receiver-side MAC/processing latency per packet.
  Time processing_delay = Time::microseconds(500);

  /// Half-duplex MAC: a device's transmissions serialize (a new send waits
  /// for the previous one to clear the air), and a device cannot receive
  /// while it is transmitting. Off by default; ablation studies enable it.
  bool half_duplex = false;
};

/// Per-device energy accounting (mica2-class radio costs). When enabled, a
/// device that exhausts its budget dies -- the organic battery-death
/// process behind the paper's §4.4 motivation.
struct EnergyConfig {
  bool enabled = false;
  /// Initial budget per device, joules.
  double initial_j = 5.0;
  /// Transmit / receive energy per byte on the air.
  double tx_j_per_byte = 59.2e-6;
  double rx_j_per_byte = 28.6e-6;
};

class Network {
 public:
  Network(std::unique_ptr<PropagationModel> propagation, ChannelConfig config,
          std::uint64_t seed, EnergyConfig energy = {});

  // -- Deployment -----------------------------------------------------------
  /// Adds a device at `position`, stamped with the current simulation time.
  DeviceId add_device(NodeId identity, util::Vec2 position);
  DeviceId add_replica(NodeId identity, util::Vec2 position);

  [[nodiscard]] const Device& device(DeviceId id) const { return devices_.at(id); }
  [[nodiscard]] std::size_t device_count() const { return devices_.size(); }
  [[nodiscard]] const std::vector<Device>& devices() const { return devices_; }

  /// Moves a device (mobility tooling, attacker repositioning): updates the
  /// ground-truth position, re-buckets the spatial index and invalidates
  /// every cached audience, even for a move inside one cell.
  void set_position(DeviceId id, util::Vec2 position);

  /// Kills or revives a device (churn, capture, battery swaps). A dead
  /// device neither sends nor receives; it stays indexed.
  void set_alive(DeviceId id, bool alive);

  /// Marks a device as adversary-controlled (ground truth for auditing).
  void mark_compromised(DeviceId id) { devices_.at(id).compromised = true; }

  /// All alive devices currently claiming `identity` (> 1 under
  /// replication), ascending by device id. Served from the identity index
  /// (devices never change identity), not a field scan: direct verifiers
  /// call this once per heard Hello, which made the O(n) scan the dominant
  /// O(n^2) term of million-node deployments.
  [[nodiscard]] std::vector<DeviceId> devices_with_identity(NodeId identity) const;

  // -- Radio ----------------------------------------------------------------
  /// Installs (or clears, with nullptr) the receive callback for a device
  /// (one per device; protocol stacks multiplex on Packet::type).
  /// `overheard` names the types the callback reads when it overhears a
  /// unicast addressed to another identity. Such a copy of any other type
  /// is still received -- counted, traced and charged rx energy -- but not
  /// handed to the callback. Broadcasts and unicasts addressed to the
  /// device's identity always are.
  void set_receiver(DeviceId id, std::function<void(const Packet&)> handler,
                    PacketTypes overheard = PacketTypes::all());

  /// Transmits over the air from `from`. Every alive device with a radio
  /// link to the sender receives a copy (promiscuous delivery; agents filter
  /// on dst). Charged once to `phase` in the metrics; undelivered copies are
  /// charged to a typed obs::DropCause (kOutOfRange is the one cause whose
  /// count depends on the receiver-resolution strategy -- the grid enumerates
  /// a 3x3-block candidate superset, the linear fallback the whole field).
  void transmit(DeviceId from, Packet packet, obs::Phase phase);

  // -- Ground truth (tooling/auditing only) -----------------------------
  [[nodiscard]] bool link(DeviceId a, DeviceId b) const;
  [[nodiscard]] std::vector<DeviceId> devices_in_range(DeviceId id) const;

  /// Enables/disables the uniform-grid receiver index (on by default).
  /// Results are identical either way -- candidates enumerate in device-id
  /// order, so even the per-receiver loss-RNG draws match the linear scan
  /// bit for bit. The linear fallback exists for the bit-identity tests and
  /// the before/after micro_sim benchmark. Invalidates every cached
  /// audience, whose out-of-range counts depend on the candidate source.
  void set_spatial_index_enabled(bool enabled);
  [[nodiscard]] bool spatial_index_enabled() const { return use_spatial_index_; }

  // -- Fault injection ---------------------------------------------------
  /// Installs (or clears, with nullptr) the fault hook consulted once per
  /// delivery candidate that survived the channel. The hook is not owned;
  /// callers keep it alive for the Network's lifetime. With no hook the
  /// transmit path -- including every RNG draw -- is exactly the unhooked
  /// implementation, so clean runs stay byte-identical.
  void set_fault_hook(FaultHook* hook) { fault_ = hook; }
  [[nodiscard]] FaultHook* fault_hook() const { return fault_; }

  // -- Jamming ---------------------------------------------------------
  /// Returns a handle for remove_jammer. While active, any transmission
  /// whose sender or receiver sits inside the circle is destroyed.
  std::size_t add_jammer(util::Circle area);
  void remove_jammer(std::size_t handle);
  [[nodiscard]] bool jammed(util::Vec2 position) const;

  // -- Infrastructure ---------------------------------------------------
  [[nodiscard]] Scheduler& scheduler() { return scheduler_; }
  [[nodiscard]] Time now() const { return scheduler_.now(); }
  [[nodiscard]] Metrics& metrics() { return metrics_; }
  [[nodiscard]] const Metrics& metrics() const { return metrics_; }
  /// Per-network event tracer (level/sink from obs::default_trace() at
  /// construction). Protocol layers emit phase/reject/accept events here.
  [[nodiscard]] obs::Tracer& tracer() { return tracer_; }
  [[nodiscard]] const obs::Tracer& tracer() const { return tracer_; }
  /// One-trial summary combining the always-on radio accounting (Metrics)
  /// with the tracer's protocol counters; trials is set to 1 so sweep
  /// folds count trials correctly.
  [[nodiscard]] obs::TraceSummary trace_summary() const;
  [[nodiscard]] const PropagationModel& propagation() const { return *propagation_; }
  [[nodiscard]] util::Rng& rng() { return rng_; }

  [[nodiscard]] Time transmission_time(std::size_t wire_bytes) const;
  [[nodiscard]] const ChannelConfig& channel_config() const { return config_; }

  /// Total bytes this device has put on the air (radio/energy load).
  [[nodiscard]] std::uint64_t tx_bytes(DeviceId id) const { return tx_bytes_.at(id); }
  /// Heaviest per-device radio load in the network (hotspot metric).
  [[nodiscard]] std::uint64_t max_tx_bytes() const;

  /// Remaining energy budget, joules (initial_j when accounting is off).
  [[nodiscard]] double energy_j(DeviceId id) const { return energy_j_.at(id); }
  /// Overrides one device's remaining budget (heterogeneous batteries).
  void set_energy_j(DeviceId id, double joules) { energy_j_.at(id) = joules; }
  [[nodiscard]] const EnergyConfig& energy_config() const { return energy_; }

  /// Heap bytes held by the per-device arrays, the audience cache, the
  /// packet and delivery slabs with their payload and receiver buffers, the
  /// transmit scratch and the scheduler (capacity × element size; a deque
  /// slab counts its slots). The spatial index's hash maps are not counted.
  [[nodiscard]] std::size_t footprint_bytes() const;

 private:
  /// Drains `joules` from a device; kills it at exhaustion.
  void drain(DeviceId id, double joules);

  /// Puts a packet on the air: resolves its receivers (the sender's cached
  /// audience, or a rescan when the tracer records events) and schedules
  /// their copies. When no copy can be perturbed, the overhearers are the
  /// audience less the addressed devices; otherwise resolve_copies() decides
  /// each copy in turn.
  void transmit_impl(DeviceId from, Packet packet, obs::Phase phase);

  /// One transmission, as the receiver-side scheduling sees it.
  struct Transmission {
    util::Vec2 origin;
    NodeId sender_identity = kNoNode;
    std::uint32_t wire_bytes = 0;
    obs::Phase phase = obs::Phase::kOther;
    Time start;
    Time airtime_end;
    /// The packet's slot in packets_.
    std::uint32_t packet = 0;
  };
  /// When a copy `distance` meters away reaches its receiver.
  [[nodiscard]] Time arrival(const Transmission& tx, double distance) const;
  /// The per-copy pass over the linked receivers, in ascending device id,
  /// so the loss-RNG draws, fault-hook calls and event ids are consumed in
  /// the order of the linear scan: jamming, the loss draw, the fault hook,
  /// then addressed scheduling or overhearer collection. `unlinked`
  /// (non-empty only when the tracer records) is emitted as kOutOfRange
  /// drops between the linked receivers in device-id order, so the event
  /// stream is the one a single per-candidate pass would emit. Returns the
  /// overhearers' largest d².
  double resolve_copies(const Transmission& tx, std::span<const DeviceId> linked,
                        std::span<const DeviceId> unlinked, std::vector<DeviceId>& overhearers);

  /// What every copy of one delivery record shares, computed once per
  /// record rather than once per receiver.
  struct CopyContext {
    const Packet* packet = nullptr;
    Time start;
    Time airtime_end;
    NodeId sender_identity = kNoNode;
    std::uint32_t rx_bytes = 0;
    double rx_joules = 0.0;
    obs::Phase phase = obs::Phase::kOther;
  };
  /// Delivers one in-flight copy to `to`, re-running the delivery-time
  /// checks (alive, receiver installed, half-duplex overlap against
  /// [start, airtime_end), rx energy), counting and tracing it, then
  /// handing it to the receive callback if the callback reads it.
  void deliver_copy(DeviceId to, const CopyContext& copy);

  /// Counts an undelivered copy in both the typed metrics and the tracer.
  void note_drop(obs::DropCause cause, NodeId node, NodeId peer, std::uint32_t bytes);

  /// Traces one fault-injection application (tracer only; the authoritative
  /// counts live in the installed FaultHook implementation).
  void note_inject(obs::InjectKind kind, NodeId node, NodeId peer, std::uint32_t bytes);

  // -- Spatial index -----------------------------------------------------
  // Sparse uniform grid over device positions with cell side
  // propagation()->max_range(): every device within radio reach of a point
  // lies in the 3x3 cell block around it. Positions mutate only through
  // set_position(), which re-buckets the device and bumps grid_version_;
  // dead devices stay indexed and are filtered at query time, because
  // `alive` is ground-truth state that tooling toggles in both directions
  // (kill/revive). The merged, id-sorted candidate list of each 3x3 block
  // is cached per cell (deployment is rare, transmission constant), so a
  // rescan starts from one hash lookup.
  void grid_insert(DeviceId id, util::Vec2 position);
  /// Device ids in cells reachable from `center`, ascending id order -- a
  /// superset of the linked set; callers re-filter with link_exists. The
  /// returned reference is valid until the next add_device.
  [[nodiscard]] const std::vector<DeviceId>& candidates_near(util::Vec2 center) const;
  /// Applies `fn` to every Device that could possibly hear a transmission
  /// from `center`, in ascending device-id order (including dead devices
  /// and the device at `center` itself -- callers filter).
  template <typename Fn>
  void for_each_candidate(util::Vec2 center, Fn&& fn) const;

  // -- In-flight deliveries ---------------------------------------------
  // Delivery events are plain data. A transmission's packet lives in one
  // slot of packets_, with a plain count of the delivery records that
  // still hold it; the last one to fire frees the slot. A delivery record
  // names its packet slot, its receivers (one addressed or perturbed copy,
  // or the transmission's overhearer list), the airtime and the phase, and
  // its scheduled action captures only the record's slot index. Both slabs
  // recycle slots through free lists. Overhearer lists move between the
  // records and a free list of spare buffers, capped at kSpareGroups, so
  // a steady-state transmission allocates nothing and a burst's extra
  // buffers go back to the allocator once it has drained. std::deque keeps
  // slot references stable while receive callbacks transmit and grow the
  // slabs under a running delivery.
  struct PacketSlot {
    Packet packet;
    std::uint32_t holders = 0;
  };
  struct Delivery {
    /// The receivers of an overhearer record; empty for a single copy.
    std::vector<DeviceId> overhearers;
    Time start;
    Time airtime_end;
    std::uint32_t packet = 0;
    /// The single copy's receiver, or kNoDevice for an overhearer record.
    DeviceId to = kNoDevice;
    obs::Phase phase = obs::Phase::kOther;
  };
  static constexpr std::size_t kSpareGroups = 256;
  std::deque<PacketSlot> packets_;
  std::vector<std::uint32_t> free_packets_;
  std::deque<Delivery> deliveries_;
  std::vector<std::uint32_t> free_deliveries_;
  std::vector<std::vector<DeviceId>> spare_groups_;

  /// Moves `packet` into a free packet slot; it has no holders yet.
  [[nodiscard]] std::uint32_t store_packet(Packet&& packet);
  /// An empty overhearer buffer, recycled when one is spare.
  [[nodiscard]] std::vector<DeviceId> take_group();
  /// Keeps `group`'s buffer for a later transmission while fewer than
  /// kSpareGroups are spare, else frees it.
  void recycle_group(std::vector<DeviceId> group);
  /// Schedules a delivery record holding `packet` to fire at `at`: one
  /// copy for `to`, or, when `to` is kNoDevice, one for each overhearer.
  void schedule_delivery(Time at, std::uint32_t packet, DeviceId to,
                         std::vector<DeviceId> overhearers, Time start, Time airtime_end,
                         obs::Phase phase);
  /// Frees a packet slot once no record holds it.
  void release_packet(std::uint32_t slot);
  /// The delivery event: hands the packet to the record's receivers in
  /// order, then frees the record, its buffer and its hold on the packet.
  void deliver(std::uint32_t slot);

  // -- Audience cache ----------------------------------------------------
  // No node moves, dies or re-registers while a deployed round runs, so
  // each sender's receivers are resolved once and reused: its *audience*
  // is its eligible (alive, receiver installed, not itself) linked
  // receivers in ascending device id, the number of eligible candidates
  // out of range, and the overhearer delay's largest d² with its argmax and
  // the runner-up, so the delay without one addressed device needs no
  // distance. The lists of all senders share one arena. Every change that
  // can alter any audience bumps audience_version_: add_device, every
  // set_position, set_alive (an energy death in drain too), set_receiver
  // and set_spatial_index_enabled. An entry is current iff it carries that
  // version; the first resolution under a new version empties the arena.
  struct Audience {
    std::uint64_t version = 0;
    std::uint32_t offset = 0;
    std::uint32_t size = 0;
    std::uint32_t out_of_range = 0;
    DeviceId farthest = kNoDevice;
    double max_d2 = 0.0;
    /// The largest d² with `farthest` left out.
    double runner_up_d2 = 0.0;
  };
  std::vector<Audience> audiences_;
  std::vector<DeviceId> audience_ids_;
  std::uint64_t audience_version_ = 1;
  std::uint64_t arena_version_ = 0;

  void invalidate_audiences() { ++audience_version_; }
  /// `from`'s audience under the current version, resolved by rescan() when
  /// stale. The table grows to the device count here, at transmit time.
  const Audience& audience(DeviceId from, util::Vec2 origin);
  [[nodiscard]] std::span<const DeviceId> audience_ids(const Audience& audience) const {
    return {audience_ids_.data() + audience.offset, audience.size};
  }
  /// The receivers of a transmission no copy of which can be perturbed:
  /// schedules each addressed device's copy (ascending device id, as the
  /// per-copy pass does) and fills `overhearers` with the rest of the
  /// audience. Returns the overhearers' largest d².
  double split_audience(const Transmission& tx, const Audience& audience,
                        std::vector<DeviceId>& overhearers);

  /// Resolves `from`'s receivers afresh in one pass over the candidate
  /// list (the grid's 3x3 block or the whole field), filtering every
  /// candidate without branching on it -- self, alive, receiver installed,
  /// link class. Leaves the eligible linked candidates in linked_ and the
  /// eligible out-of-range ones in unlinked_, ascending by device id, and
  /// returns both counts.
  std::pair<std::size_t, std::size_t> rescan(DeviceId from, util::Vec2 origin);

  // -- Strip filter ------------------------------------------------------
  // SoA mirrors of every device's position, maintained by add_device and
  // set_position alongside Device::position. rescan() feeds candidate
  // strips from these (contiguous doubles, not scattered Device fields)
  // into PropagationModel::classify_links, which emits a survivor-class
  // mask ahead of the scalar filter. Audiences are bit-identical to a
  // per-candidate link_exists filter at every SIMD tier (definite verdicts
  // imply the scalar predicate; borderline candidates re-check scalar; a
  // model without a classifier marks every candidate for the scalar
  // check).
  std::vector<double> pos_x_;
  std::vector<double> pos_y_;
  /// Scratch reused across rescans: gathered candidate positions (grid
  /// path), the per-candidate class mask, the linear path's candidate list
  /// (every device id), and the two eligible-candidate lists (linked, and
  /// out of range).
  std::vector<double> strip_x_;
  std::vector<double> strip_y_;
  std::vector<std::uint8_t> strip_class_;
  std::vector<DeviceId> linear_ids_;
  std::vector<DeviceId> linked_;
  std::vector<DeviceId> unlinked_;

  std::unique_ptr<PropagationModel> propagation_;
  ChannelConfig config_;
  EnergyConfig energy_;
  util::Rng rng_;
  Scheduler scheduler_;
  Metrics metrics_;
  obs::Tracer tracer_;
  std::vector<Device> devices_;
  struct Receiver {
    std::function<void(const Packet&)> handler;
    PacketTypes overheard = PacketTypes::all();
  };
  std::vector<Receiver> receivers_;
  std::vector<std::uint64_t> tx_bytes_;
  std::vector<double> energy_j_;
  /// Half-duplex: each device's latest contiguous transmit run,
  /// [tx_run_start_, tx_busy_until_). A receiver misses a packet iff this
  /// run overlaps the packet's airtime (see transmit()).
  std::vector<Time> tx_busy_until_;
  std::vector<Time> tx_run_start_;
  std::vector<std::optional<util::Circle>> jammers_;
  /// identity -> device ids claiming it (ascending: ids are appended in
  /// creation order). Identities are append-only, so the index never needs
  /// rebucketing; `alive` is filtered at query time like the grid.
  std::unordered_map<NodeId, std::vector<DeviceId>> identity_index_;
  FaultHook* fault_ = nullptr;

  /// Cell side of the spatial index (propagation max_range); devices are
  /// bucketed by floor(position / cell_size_).
  double cell_size_ = 0.0;
  /// False when the propagation model's reach is unbounded or degenerate.
  bool indexable_ = false;
  bool use_spatial_index_ = false;
  std::unordered_map<std::uint64_t, std::vector<DeviceId>> grid_;
  /// Memoized 3x3-block candidate lists, stamped with the deployment
  /// version that built them; rebuilt lazily after any topology mutation.
  struct BlockCache {
    std::uint64_t version = 0;
    std::vector<DeviceId> candidates;
  };
  mutable std::unordered_map<std::uint64_t, BlockCache> block_cache_;
  /// Bumped on every add_device and cell-crossing set_position; invalidates
  /// all cached blocks at once.
  std::uint64_t grid_version_ = 0;
};

}  // namespace snd::sim
