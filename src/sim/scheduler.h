// The discrete-event core: a pending-event queue ordered by (time, insertion
// sequence). The sequence tiebreak makes same-timestamp events fire in
// scheduling order, which keeps every run deterministic.
//
// Implemented as an explicit binary heap with actions stored inline:
// simulations push tens of millions of delivery events, so the hot path
// avoids any per-event node allocation or hash-map traffic. Actions are
// small-buffer-optimized (util::InplaceFunction) for the same reason --
// std::function would heap-allocate every delivery closure. Cancellation is
// the rare case: a bitset window over event ids, consulted lazily on pop.
#pragma once

#include <cstdint>
#include <vector>

#include "sim/time.h"
#include "util/bitset.h"
#include "util/inplace_function.h"

namespace snd::sim {

using EventId = std::uint64_t;

/// Scheduled-event callable. The inline capacity covers the largest closure
/// the simulator queues on its hot path (Network's overheard-delivery
/// lambda); anything bigger transparently falls back to one heap allocation.
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
  /// Live (non-cancelled) events still waiting to fire. The cancel set may
  /// briefly contain ids of events that already fired (cancel-after-fire is
  /// a no-op, swept lazily), so the subtraction saturates; when the set
  /// provably holds stale ids (it outnumbers the heap) it is swept first,
  /// keeping this count exact in the face of heavy cancel-after-fire.
  /// uint64_t (not size_t) so the count cannot wrap on 32-bit hosts in
  /// simulations pushing past 2^32 events.
  [[nodiscard]] std::uint64_t pending() const;
  /// Size of the lazy-cancellation side set; bounded by
  /// pending() + kCancelSweepSlack however many cancel-after-fire calls a
  /// long-running simulation makes (exposed so tests can pin the bound).
  [[nodiscard]] std::uint64_t cancelled_backlog() const { return cancelled_count_; }
  [[nodiscard]] std::uint64_t executed() const { return executed_; }

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
  struct Entry {
    Time at;
    EventId id;
    EventAction action;
  };

  static bool earlier(const Entry& a, const Entry& b) {
    if (a.at != b.at) return a.at < b.at;
    return a.id < b.id;
  }

  /// Stale-cancellation tolerance: a sweep triggers once the backlog exceeds
  /// the heap size by this much (amortizes the O(heap) sweep cost).
  static constexpr std::size_t kCancelSweepSlack = 64;

  void sift_up(std::size_t index);
  void sift_down(std::size_t index);
  /// Drops cancelled ids whose events are no longer in the heap (i.e.
  /// already fired); afterwards the backlog <= heap_.size(). Const because
  /// it only compacts bookkeeping -- observable state is unchanged.
  void sweep_cancelled() const;
  /// Forgets every cancellation and starts the window at next_id_ (only
  /// valid while no event is pending).
  void reset_cancelled();
  /// Removes cancelled entries sitting at the heap root.
  void drop_cancelled_head();
  /// Pops the top entry, skipping cancelled ones. Returns false if empty.
  bool pop_next(Entry& out);
  /// Next live entry's time without popping; false if empty.
  bool peek(Time& at);

  /// Membership/removal against the cancel window.
  [[nodiscard]] bool cancelled_contains(EventId id) const;
  void cancelled_erase(EventId id);

  Time now_ = Time::zero();
  EventId next_id_ = 1;
  std::uint64_t executed_ = 0;
  std::vector<Entry> heap_;
  /// One bit per cancelled event id in the window [bits_base_, next_id_).
  /// bits_base_ never exceeds the oldest pending id, so any id below it
  /// provably fired already and its cancel is a no-op. The window is grown
  /// lazily on cancel and rebased (shrunk to the live range) by
  /// sweep_cancelled().
  mutable util::BitSet cancelled_bits_;
  mutable EventId bits_base_ = 1;
  mutable std::uint64_t cancelled_count_ = 0;
};

}  // namespace snd::sim
