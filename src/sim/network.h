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
#include <unordered_map>
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
/// compromised identity.
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

  [[nodiscard]] Device& device(DeviceId id) { return devices_.at(id); }
  [[nodiscard]] const Device& device(DeviceId id) const { return devices_.at(id); }
  [[nodiscard]] std::size_t device_count() const { return devices_.size(); }
  [[nodiscard]] const std::vector<Device>& devices() const { return devices_; }

  /// Moves a device (mobility tooling, attacker repositioning): updates the
  /// ground-truth position AND re-buckets the spatial index, invalidating
  /// the cached candidate lists. Writing Device::position directly leaves
  /// the index stale -- transmissions would resolve receivers against the
  /// old cell -- so every position mutation must go through here.
  void set_position(DeviceId id, util::Vec2 position);

  /// All alive devices currently claiming `identity` (> 1 under
  /// replication), ascending by device id. Served from the identity index
  /// (devices never change identity), not a field scan: direct verifiers
  /// call this once per heard Hello, which made the O(n) scan the dominant
  /// O(n^2) term of million-node deployments.
  [[nodiscard]] std::vector<DeviceId> devices_with_identity(NodeId identity) const;

  // -- Radio ----------------------------------------------------------------
  /// Installs the receive callback for a device (one per device; protocol
  /// stacks multiplex on Packet::type).
  void set_receiver(DeviceId id, std::function<void(const Packet&)> handler);

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
  /// the before/after micro_sim benchmark.
  void set_spatial_index_enabled(bool enabled) { use_spatial_index_ = enabled && indexable_; }
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

  /// Heap bytes held by the per-device arrays, the packet and delivery
  /// slabs with their payload and receiver buffers, the transmit scratch
  /// and the scheduler (capacity × element size; a deque slab counts its
  /// slots). The spatial index's hash maps are not counted.
  [[nodiscard]] std::size_t footprint_bytes() const;

 private:
  /// Drains `joules` from a device; kills it at exhaustion.
  void drain(DeviceId id, double joules);

  /// Resolves receivers in two passes over the candidate list (the grid's
  /// 3x3 block or the whole field). Pass 1 filters every candidate without
  /// branching on it -- self, alive, receiver installed, link class -- and
  /// counts candidates and out-of-range drops in bulk. Pass 2 visits only
  /// the linked candidates, in ascending device id: jamming, the loss draw,
  /// the fault hook, addressed scheduling and overhearer collection. When
  /// the tracer records, out-of-range drops are emitted between the linked
  /// candidates in candidate order, so the event stream is the one a single
  /// per-candidate pass would emit.
  void transmit_impl(DeviceId from, Packet packet, obs::Phase phase);

  /// Delivers one in-flight copy of `packet` to `to`, re-running the
  /// delivery-time checks (alive, receiver installed, half-duplex overlap
  /// against [start, airtime_end), rx energy) before handing the packet to
  /// the receive callback.
  void deliver_copy(DeviceId to, const Packet& packet, Time start, Time airtime_end,
                    obs::Phase phase);

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
  // is cached per cell (deployment is rare, transmission constant), so
  // steady-state receiver resolution is one hash lookup.
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

  // -- Strip filter ------------------------------------------------------
  // SoA mirrors of every device's position, maintained by add_device and
  // set_position alongside Device::position. transmit_impl feeds candidate
  // strips from these (contiguous doubles, not scattered Device fields)
  // into PropagationModel::classify_links, which emits a survivor-class
  // mask ahead of the scalar delivery bookkeeping. Deliveries are
  // bit-identical to a per-candidate link_exists filter at every SIMD tier
  // (definite verdicts imply the scalar predicate; borderline candidates
  // re-check scalar; a model without a classifier marks every candidate
  // for the scalar check).
  std::vector<double> pos_x_;
  std::vector<double> pos_y_;
  /// Scratch reused across transmissions: gathered candidate positions
  /// (grid path), the per-candidate class mask, the linear path's
  /// candidate list (every device id), and receiver resolution's two
  /// candidate-position lists (linked, and eligible but out of range).
  std::vector<double> strip_x_;
  std::vector<double> strip_y_;
  std::vector<std::uint8_t> strip_class_;
  std::vector<DeviceId> linear_ids_;
  std::vector<std::uint32_t> linked_;
  std::vector<std::uint32_t> unlinked_;

  std::unique_ptr<PropagationModel> propagation_;
  ChannelConfig config_;
  EnergyConfig energy_;
  util::Rng rng_;
  Scheduler scheduler_;
  Metrics metrics_;
  obs::Tracer tracer_;
  std::vector<Device> devices_;
  std::vector<std::function<void(const Packet&)>> receivers_;
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
