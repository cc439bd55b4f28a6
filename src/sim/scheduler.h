// The discrete-event core: a pending-event queue ordered by (time, insertion
// sequence). The sequence tiebreak makes same-timestamp events fire in
// scheduling order, which keeps every run deterministic.
//
// Events are split into a key and a payload. The queue is a 4-ary min-heap
// of plain (time, seq, slot, owner) keys; each key names a slot in a slab of
// actions, and a free list recycles the slots of fired or dropped events.
// Sifts move 24-byte keys only, so an action is moved twice in its life:
// into its slot when scheduled, and out of it when it fires. Simulations
// push tens of millions of events, so the hot path makes no per-event
// allocation. Actions are small-buffer-optimized (util::InplaceFunction)
// for the same reason -- std::function would heap-allocate most closures.
// Every event belongs to an owner. Retiring an owner (a node that crashed
// or was captured) is the rare case: its keys stay queued and are dropped
// lazily when they reach the heap root.
#pragma once

#include <cstdint>
#include <deque>
#include <utility>
#include <vector>

#include "sim/time.h"
#include "util/inplace_function.h"

namespace snd::sim {

/// Who scheduled an event, so a stopped node's timers can be retired in one
/// call. Owners come from Scheduler::new_owner().
using Owner = std::uint32_t;
/// The owner of events nobody retires (deliveries, adversary steps, fault
/// plans).
inline constexpr Owner kNoOwner = 0;

/// Scheduled-event callable: a 32-byte slot. The inline capacity covers the
/// closures the simulator queues per packet and per timer -- Network's
/// delivery events capture `this` and a slab index, SndNode's timers `this`
/// and at most one id or count. Anything bigger (a closure that copies a
/// Packet, the validation burst) transparently falls back to one heap
/// allocation.
using EventAction = util::InplaceFunction<void(), 24>;

class Scheduler {
 public:
  /// A fresh owner with no events queued.
  Owner new_owner();

  /// Schedules `action` at absolute time `at`. Events in the past of the
  /// current clock are clamped to "now" (fire next). A retired owner's
  /// action is dropped at once.
  void schedule_at(Time at, Owner owner, EventAction action);
  void schedule_at(Time at, EventAction action) {
    schedule_at(at, kNoOwner, std::move(action));
  }

  /// Drops every event `owner` still has queued, and every event it
  /// schedules from now on. Idempotent. The keys leave the heap lazily, as
  /// they reach its root; they never fire, advance the clock or count in
  /// executed() or pending().
  void retire(Owner owner);

  [[nodiscard]] bool empty() const { return pending() == 0; }
  [[nodiscard]] Time now() const { return now_; }
  /// Events still waiting to fire, exactly: queued keys less those of
  /// retired owners. uint64_t (not size_t) so the count cannot wrap on
  /// 32-bit hosts in simulations pushing past 2^32 events.
  [[nodiscard]] std::uint64_t pending() const {
    return static_cast<std::uint64_t>(heap_.size()) - retired_keys_;
  }
  [[nodiscard]] std::uint64_t executed() const { return executed_; }
  /// Keys moved by heap sifts so far: a deterministic work counter (the
  /// same event sequence always costs the same moves), reported by
  /// bench/scale so a structural queue regression changes a count.
  [[nodiscard]] std::uint64_t sift_steps() const { return sift_steps_; }
  /// Action slots the slab holds, in use or free. Slots are recycled, so
  /// this never exceeds the most keys the heap held at once.
  [[nodiscard]] std::size_t slab_slots() const { return actions_.size(); }
  /// Heap bytes held by the key heap, the action slab and its free list
  /// (capacity × element size), and by the owner table's entries.
  [[nodiscard]] std::size_t footprint_bytes() const {
    return heap_.capacity() * sizeof(Key) + actions_.capacity() * sizeof(EventAction) +
           free_slots_.capacity() * sizeof(std::uint32_t) +
           owners_.size() * sizeof(OwnerState);
  }

  /// Executes the next event, advancing the clock. Returns false when the
  /// queue is empty.
  bool step();

  /// Runs events until the queue empties or the clock would pass `deadline`
  /// (events at exactly `deadline` run). Returns the final clock value.
  Time run_until(Time deadline);

  /// Runs to quiescence.
  void run() { run_until(Time::infinity()); }

 private:
  struct Key {
    Time at;
    std::uint64_t seq;
    std::uint32_t slot;
    Owner owner;
  };
  // The owner fills what would be padding: sifts move as many bytes as they
  // did before owners existed.
  static_assert(sizeof(Key) == 24);

  struct OwnerState {
    /// Keys in the heap that name this owner.
    std::uint32_t queued = 0;
    bool retired = false;
  };

  static bool earlier(const Key& a, const Key& b) {
    if (a.at != b.at) return a.at < b.at;
    return a.seq < b.seq;
  }

  static constexpr std::size_t kArity = 4;

  /// Both sifts percolate a hole at `index` and store `moving` where it
  /// settles: one key move per level.
  void sift_up(std::size_t index, Key moving);
  void sift_down(std::size_t index, Key moving);
  /// Removes the root key, uncounting it from its owner, and returns it;
  /// the heap must be non-empty.
  Key pop_root();
  /// Pops retired owners' keys off the heap root, freeing their slots.
  void drop_retired_head();
  /// Pops the root (a live event), advances the clock and runs its action.
  void fire_root();

  Time now_ = Time::zero();
  std::uint64_t next_seq_ = 0;
  std::uint64_t executed_ = 0;
  std::uint64_t sift_steps_ = 0;
  std::vector<Key> heap_;
  /// The payload slab: heap keys index it, and free_slots_ lists the slots
  /// no key names.
  std::vector<EventAction> actions_;
  std::vector<std::uint32_t> free_slots_;
  /// Indexed by Owner; entry kNoOwner is never retired. A deque, so a new
  /// owner never moves or frees the table: a vector regrown once per node
  /// built fragmented the heap enough to raise a run's peak RSS.
  std::deque<OwnerState> owners_{OwnerState{}};
  /// Keys in the heap whose owner is retired.
  std::uint64_t retired_keys_ = 0;
};

}  // namespace snd::sim
