// The discrete-event core: a pending-event queue ordered by (time, insertion
// sequence). The sequence tiebreak makes same-timestamp events fire in
// scheduling order, which keeps every run deterministic.
//
// Events are split into a key and a payload. The queue is a 4-ary min-heap
// of plain (time, id, slot) keys; each key names a slot in a slab of
// actions, and a free list recycles the slots of fired or dropped events.
// Sifts move 24-byte keys only, so an action is moved twice in its life:
// into its slot when scheduled, and out of it when it fires. Simulations
// push tens of millions of events, so the hot path makes no per-event
// allocation. Actions are small-buffer-optimized (util::InplaceFunction)
// for the same reason -- std::function would heap-allocate most closures.
// Cancellation is the rare case: a bitset window over event ids, consulted
// lazily when a cancelled key reaches the heap root.
#pragma once

#include <cstdint>
#include <vector>

#include "sim/time.h"
#include "util/bitset.h"
#include "util/inplace_function.h"

namespace snd::sim {

using EventId = std::uint64_t;

/// Scheduled-event callable. The inline capacity covers every closure the
/// simulator queues (protocol timers, adversary steps, and Network's
/// delivery events, which capture only a slab index); anything bigger
/// transparently falls back to one heap allocation.
using EventAction = util::InplaceFunction<void(), 88>;

class Scheduler {
 public:
  /// Schedules `action` at absolute time `at`. Events in the past of the
  /// current clock are clamped to "now" (fire next).
  EventId schedule_at(Time at, EventAction action);

  /// Cancels a pending event; no-op if it already fired or was cancelled.
  /// Stale ids (cancel-after-fire) are swept out whenever they could
  /// otherwise accumulate, so the side set stays O(pending events) even in
  /// long-running simulations that cancel freely.
  void cancel(EventId id);

  [[nodiscard]] bool empty() const { return pending() == 0; }
  [[nodiscard]] Time now() const { return now_; }
  /// Live (non-cancelled) events still waiting to fire, exactly. The cancel
  /// set may hold ids of events that already fired (cancel-after-fire is a
  /// no-op, swept lazily), so the first call after a cancel sweeps it
  /// against the heap first. uint64_t (not size_t) so the count cannot wrap
  /// on 32-bit hosts in simulations pushing past 2^32 events.
  [[nodiscard]] std::uint64_t pending() const;
  /// Size of the lazy-cancellation side set; bounded by
  /// pending() + kCancelSweepSlack however many cancel-after-fire calls a
  /// long-running simulation makes (exposed so tests can pin the bound).
  [[nodiscard]] std::uint64_t cancelled_backlog() const { return cancelled_count_; }
  [[nodiscard]] std::uint64_t executed() const { return executed_; }
  /// Keys moved by heap sifts so far: a deterministic work counter (the
  /// same event sequence always costs the same moves), reported by
  /// bench/scale so a structural queue regression changes a count.
  [[nodiscard]] std::uint64_t sift_steps() const { return sift_steps_; }
  /// Action slots the slab holds, in use or free. Slots are recycled, so
  /// this never exceeds the most keys the heap held at once.
  [[nodiscard]] std::size_t slab_slots() const { return actions_.size(); }

  /// Test hook: fast-forwards the event-id counter (e.g. to just below
  /// 2^32) so overflow behavior at >= 10^8 events is testable without
  /// scheduling billions of real events. Only moves forward, and requires
  /// an empty queue so the cancel-window invariants stay trivially true.
  void set_next_event_id(EventId id);

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
    EventId id;
    std::uint32_t slot;
  };

  static bool earlier(const Key& a, const Key& b) {
    if (a.at != b.at) return a.at < b.at;
    return a.id < b.id;
  }

  static constexpr std::size_t kArity = 4;

  /// Stale-cancellation tolerance: a sweep triggers once the backlog exceeds
  /// the heap size by this much (amortizes the O(heap) sweep cost).
  static constexpr std::size_t kCancelSweepSlack = 64;

  /// Both sifts percolate a hole at `index` and store `moving` where it
  /// settles: one key move per level.
  void sift_up(std::size_t index, Key moving);
  void sift_down(std::size_t index, Key moving);
  /// Removes the root key and returns it; the heap must be non-empty.
  Key pop_root();
  /// Pops the root (a live event), advances the clock and runs its action.
  void fire_root();
  /// Returns a slot to the free list, destroying whatever action it holds.
  void free_slot(std::uint32_t slot);
  /// Drops cancelled ids whose events are no longer in the heap (i.e.
  /// already fired); afterwards the backlog <= heap_.size(). Const because
  /// it only compacts bookkeeping -- observable state is unchanged.
  void sweep_cancelled() const;
  /// Forgets every cancellation and starts the window at next_id_ (only
  /// valid while no event is pending).
  void reset_cancelled();
  /// Removes cancelled keys sitting at the heap root, freeing their slots.
  void drop_cancelled_head();

  /// Membership/removal against the cancel window.
  [[nodiscard]] bool cancelled_contains(EventId id) const;
  void cancelled_erase(EventId id);

  Time now_ = Time::zero();
  EventId next_id_ = 1;
  std::uint64_t executed_ = 0;
  std::uint64_t sift_steps_ = 0;
  std::vector<Key> heap_;
  /// The payload slab: heap keys index it, and free_slots_ lists the slots
  /// no key names.
  std::vector<EventAction> actions_;
  std::vector<std::uint32_t> free_slots_;
  /// One bit per cancelled event id in the window [bits_base_, next_id_).
  /// bits_base_ never exceeds the oldest pending id, so any id below it
  /// provably fired already and its cancel is a no-op. The window is grown
  /// lazily on cancel and rebased (shrunk to the live range) by
  /// sweep_cancelled().
  mutable util::BitSet cancelled_bits_;
  mutable EventId bits_base_ = 1;
  mutable std::uint64_t cancelled_count_ = 0;
  /// Set by a cancel that added a bit, cleared by a sweep: only then can
  /// the backlog hold a stale id.
  mutable bool cancels_unswept_ = false;
};

}  // namespace snd::sim
