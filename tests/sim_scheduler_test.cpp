#include "sim/scheduler.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <iterator>
#include <map>
#include <memory>
#include <set>
#include <utility>
#include <vector>

#include "util/rng.h"

namespace snd::sim {
namespace {

TEST(TimeTest, Construction) {
  EXPECT_EQ(Time::milliseconds(1).ns(), 1'000'000);
  EXPECT_EQ(Time::microseconds(1).ns(), 1'000);
  EXPECT_EQ(Time::seconds(1.5).ns(), 1'500'000'000);
  EXPECT_EQ(Time::zero().ns(), 0);
}

TEST(TimeTest, ArithmeticAndComparison) {
  const Time a = Time::milliseconds(5);
  const Time b = Time::milliseconds(3);
  EXPECT_EQ((a + b).ns(), Time::milliseconds(8).ns());
  EXPECT_EQ((a - b).ns(), Time::milliseconds(2).ns());
  EXPECT_LT(b, a);
  EXPECT_GT(Time::infinity(), a);
}

TEST(TimeTest, Conversions) {
  EXPECT_DOUBLE_EQ(Time::seconds(2.5).to_seconds(), 2.5);
  EXPECT_DOUBLE_EQ(Time::milliseconds(1500).to_milliseconds(), 1500.0);
}

TEST(SchedulerTest, ExecutesInTimeOrder) {
  Scheduler scheduler;
  std::vector<int> order;
  scheduler.schedule_at(Time::milliseconds(30), [&] { order.push_back(3); });
  scheduler.schedule_at(Time::milliseconds(10), [&] { order.push_back(1); });
  scheduler.schedule_at(Time::milliseconds(20), [&] { order.push_back(2); });
  scheduler.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(SchedulerTest, SameTimeFifoBySchedulingOrder) {
  Scheduler scheduler;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    scheduler.schedule_at(Time::milliseconds(5), [&order, i] { order.push_back(i); });
  }
  scheduler.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(SchedulerTest, ClockAdvancesToEventTime) {
  Scheduler scheduler;
  Time observed;
  scheduler.schedule_at(Time::milliseconds(42), [&] { observed = scheduler.now(); });
  scheduler.run();
  EXPECT_EQ(observed, Time::milliseconds(42));
  EXPECT_EQ(scheduler.now(), Time::milliseconds(42));
}

TEST(SchedulerTest, PastEventsClampToNow) {
  Scheduler scheduler;
  scheduler.schedule_at(Time::milliseconds(10), [&] {
    // From inside an event at t=10, scheduling for t=5 must not rewind.
    scheduler.schedule_at(Time::milliseconds(5), [&] {
      EXPECT_GE(scheduler.now(), Time::milliseconds(10));
    });
  });
  scheduler.run();
  EXPECT_EQ(scheduler.executed(), 2u);
}

TEST(SchedulerTest, CancelPreventsExecution) {
  Scheduler scheduler;
  bool ran = false;
  const EventId id = scheduler.schedule_at(Time::milliseconds(1), [&] { ran = true; });
  scheduler.cancel(id);
  scheduler.run();
  EXPECT_FALSE(ran);
  EXPECT_EQ(scheduler.executed(), 0u);
}

TEST(SchedulerTest, CancelAfterExecutionIsNoop) {
  Scheduler scheduler;
  const EventId id = scheduler.schedule_at(Time::zero(), [] {});
  scheduler.run();
  scheduler.cancel(id);  // must not crash or corrupt
  EXPECT_TRUE(scheduler.empty());
}

TEST(SchedulerTest, RunUntilStopsAtDeadline) {
  Scheduler scheduler;
  int count = 0;
  scheduler.schedule_at(Time::milliseconds(10), [&] { ++count; });
  scheduler.schedule_at(Time::milliseconds(20), [&] { ++count; });
  scheduler.schedule_at(Time::milliseconds(30), [&] { ++count; });
  scheduler.run_until(Time::milliseconds(20));
  EXPECT_EQ(count, 2);  // the t=20 event runs; t=30 does not
  EXPECT_EQ(scheduler.pending(), 1u);
  scheduler.run();
  EXPECT_EQ(count, 3);
}

TEST(SchedulerTest, EventsCanScheduleEvents) {
  Scheduler scheduler;
  int depth = 0;
  std::function<void()> recurse = [&] {
    if (++depth < 5) {
      scheduler.schedule_at(scheduler.now() + Time::milliseconds(1), recurse);
    }
  };
  scheduler.schedule_at(Time::zero(), recurse);
  scheduler.run();
  EXPECT_EQ(depth, 5);
  EXPECT_EQ(scheduler.now(), Time::milliseconds(4));
}

TEST(SchedulerTest, StepReturnsFalseWhenEmpty) {
  Scheduler scheduler;
  EXPECT_FALSE(scheduler.step());
  scheduler.schedule_at(Time::zero(), [] {});
  EXPECT_TRUE(scheduler.step());
  EXPECT_FALSE(scheduler.step());
}

TEST(SchedulerTest, PendingCountsUnexecuted) {
  Scheduler scheduler;
  EXPECT_TRUE(scheduler.empty());
  const EventId a = scheduler.schedule_at(Time::milliseconds(1), [] {});
  scheduler.schedule_at(Time::milliseconds(2), [] {});
  EXPECT_EQ(scheduler.pending(), 2u);
  scheduler.cancel(a);
  EXPECT_EQ(scheduler.pending(), 1u);
}

TEST(SchedulerTest, CancelAfterFireStaysBounded) {
  Scheduler scheduler;
  std::vector<EventId> fired;
  for (int i = 0; i < 512; ++i) fired.push_back(scheduler.schedule_at(Time::zero(), [] {}));
  scheduler.run();

  const EventId live = scheduler.schedule_at(Time::milliseconds(1), [] {});
  scheduler.schedule_at(Time::milliseconds(2), [] {});
  scheduler.schedule_at(Time::milliseconds(3), [] {});

  // Cancelling ids that already fired must not accumulate: before the
  // sweep existed, 512 stale ids sat in the side set forever and pending()
  // saturated to zero despite three live events.
  for (const EventId id : fired) scheduler.cancel(id);
  EXPECT_LE(scheduler.cancelled_backlog(), 3u + 65u);
  EXPECT_EQ(scheduler.pending(), 3u);

  // Live cancellation still works with the sweep interleaved.
  scheduler.cancel(live);
  EXPECT_EQ(scheduler.pending(), 2u);
  scheduler.run();
  EXPECT_EQ(scheduler.executed(), 514u);
}

TEST(SchedulerTest, TypicalEventActionStaysInline) {
  // The whole point of the SBO action type: simulator-sized captures must
  // not reach the heap fallback.
  Scheduler scheduler;
  std::array<std::uint8_t, 64> capture{};
  capture[0] = 42;
  int seen = 0;
  EventAction action = [capture, &seen] { seen = capture[0]; };
  EXPECT_FALSE(action.heap_allocated());
  scheduler.schedule_at(Time::zero(), std::move(action));
  scheduler.run();
  EXPECT_EQ(seen, 42);
}

TEST(SchedulerTest, OversizedCaptureFallsBackToHeapAndStillRuns) {
  Scheduler scheduler;
  std::array<std::uint8_t, 256> blob{};
  blob[0] = 7;
  int seen = 0;
  EventAction action = [blob, &seen] { seen = blob[0]; };
  EXPECT_TRUE(action.heap_allocated());
  scheduler.schedule_at(Time::zero(), std::move(action));
  scheduler.run();
  EXPECT_EQ(seen, 7);
}

TEST(SchedulerTest, CancelReleasesActionResources) {
  // A cancelled event's capture must be destroyed, not leaked in the queue.
  Scheduler scheduler;
  auto token = std::make_shared<int>(1);
  std::weak_ptr<int> watch = token;
  const EventId id =
      scheduler.schedule_at(Time::milliseconds(1), [token = std::move(token)] { (void)token; });
  scheduler.cancel(id);
  scheduler.run();
  EXPECT_FALSE(watch.lock());
  EXPECT_EQ(scheduler.executed(), 0u);
}

TEST(SchedulerTest, DestructionReleasesUnrunActions) {
  // run_until() can leave events queued forever; destroying the scheduler
  // must release their captures (inline and heap-fallback alike).
  auto small = std::make_shared<int>(1);
  auto large = std::make_shared<int>(2);
  std::weak_ptr<int> watch_small = small;
  std::weak_ptr<int> watch_large = large;
  {
    Scheduler scheduler;
    scheduler.schedule_at(Time::milliseconds(1), [small = std::move(small)] { (void)small; });
    std::array<std::uint8_t, 256> pad{};
    scheduler.schedule_at(Time::milliseconds(2),
                          [large = std::move(large), pad] { (void)pad; });
    scheduler.run_until(Time::zero());
    EXPECT_TRUE(watch_small.lock());
    EXPECT_TRUE(watch_large.lock());
  }
  EXPECT_FALSE(watch_small.lock());
  EXPECT_FALSE(watch_large.lock());
}

TEST(SchedulerTest, MoveOnlyCapturesSchedulable) {
  // EventAction is move-only, so uniquely-owned captures work directly.
  Scheduler scheduler;
  auto value = std::make_unique<int>(11);
  int seen = 0;
  scheduler.schedule_at(Time::zero(), [value = std::move(value), &seen] { seen = *value; });
  scheduler.run();
  EXPECT_EQ(seen, 11);
}

TEST(SchedulerTest, SameTimeOrderSurvivesCancelSweeps) {
  // Regression pin: the lazy-cancel sweep compacts the heap, and a sweep
  // that rebuilt it without the (time, id) tie-break would reorder
  // same-timestamp events. Interleave a same-timestamp batch with enough
  // stale cancels to force several sweeps (slack is 64) and check FIFO
  // order survives, including a live cancellation in the middle.
  Scheduler scheduler;
  std::vector<EventId> stale;
  for (int i = 0; i < 200; ++i) stale.push_back(scheduler.schedule_at(Time::zero(), [] {}));
  scheduler.run();

  std::vector<int> order;
  std::vector<EventId> batch;
  for (int i = 0; i < 16; ++i) {
    batch.push_back(
        scheduler.schedule_at(Time::milliseconds(7), [&order, i] { order.push_back(i); }));
  }
  for (const EventId id : stale) scheduler.cancel(id);  // triggers the sweeps
  for (int i = 16; i < 32; ++i) {
    scheduler.schedule_at(Time::milliseconds(7), [&order, i] { order.push_back(i); });
  }
  scheduler.cancel(batch[5]);
  scheduler.run();

  std::vector<int> expected;
  for (int i = 0; i < 32; ++i) {
    if (i != 5) expected.push_back(i);
  }
  EXPECT_EQ(order, expected);
}

TEST(SchedulerTest, EventIdsSurviveCrossingThirtyTwoBits) {
  // Regression pin for the >= 10^8-event overflow audit: ids, ordering,
  // cancellation, and the pending count must all behave identically when
  // the id counter crosses 2^32 -- a million-node run gets there. The hook
  // fast-forwards the counter so the test doesn't schedule 4 billion
  // events for real.
  Scheduler scheduler;
  scheduler.set_next_event_id((std::uint64_t{1} << 32) - 2);

  std::vector<int> order;
  std::vector<EventId> ids;
  for (int i = 0; i < 6; ++i) {
    // Same timestamp: execution order is the id tie-break, which must be
    // monotone across the 2^32 boundary (no truncation anywhere).
    ids.push_back(
        scheduler.schedule_at(Time::milliseconds(5), [&order, i] { order.push_back(i); }));
  }
  EXPECT_LT(ids[0], std::uint64_t{1} << 32);
  EXPECT_GT(ids.back(), std::uint64_t{1} << 32);
  for (std::size_t i = 1; i < ids.size(); ++i) EXPECT_EQ(ids[i], ids[i - 1] + 1);

  // Cancel one id on each side of the boundary.
  scheduler.cancel(ids[1]);
  scheduler.cancel(ids[4]);
  EXPECT_EQ(scheduler.pending(), 4u);
  scheduler.run();
  EXPECT_EQ(order, (std::vector<int>{0, 2, 3, 5}));
}

TEST(SchedulerTest, SetNextEventIdOnlyMovesForward) {
  Scheduler scheduler;
  scheduler.set_next_event_id(1000);
  scheduler.set_next_event_id(10);  // ignored: ids must stay unique
  const EventId id = scheduler.schedule_at(Time::zero(), [] {});
  EXPECT_GE(id, 1000u);
}

TEST(SchedulerTest, CancelWindowSemantics) {
  // The bitset cancel window decides which events fire, keeps pending
  // counts exact, and bounds the cancel-after-fire backlog.
  Scheduler scheduler;
  std::vector<EventId> fired;
  for (int i = 0; i < 300; ++i) fired.push_back(scheduler.schedule_at(Time::zero(), [] {}));
  scheduler.run();

  std::vector<int> order;
  std::vector<EventId> live;
  for (int i = 0; i < 8; ++i) {
    live.push_back(
        scheduler.schedule_at(Time::milliseconds(1), [&order, i] { order.push_back(i); }));
  }
  for (const EventId id : fired) scheduler.cancel(id);  // stale: must sweep, not leak
  EXPECT_LE(scheduler.cancelled_backlog(), 8u + 65u);
  scheduler.cancel(live[2]);
  scheduler.cancel(live[2]);  // double-cancel counts once
  scheduler.cancel(live[6]);
  EXPECT_EQ(scheduler.pending(), 6u);
  scheduler.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 3, 4, 5, 7}));
  EXPECT_TRUE(scheduler.empty());
}

TEST(SchedulerTest, ManyEventsStressOrdering) {
  Scheduler scheduler;
  std::vector<std::int64_t> fired;
  // Deliberately scramble insertion order with a fixed stride pattern.
  for (int i = 0; i < 1000; ++i) {
    const std::int64_t at = (i * 7919) % 1000;
    scheduler.schedule_at(Time::milliseconds(at), [&fired, at] { fired.push_back(at); });
  }
  scheduler.run();
  EXPECT_TRUE(std::is_sorted(fired.begin(), fired.end()));
  EXPECT_EQ(fired.size(), 1000u);
}

// -- Differential test against a reference ordered set ------------------------

/// Drives a Scheduler and a reference model through the same random
/// interleaving of schedule, cancel, step and run_until calls, including
/// actions that schedule and cancel from inside themselves.
///
/// The reference keeps every queued event as (time, id) in an ordered set.
/// A cancelled event stays there until it reaches the front, because the
/// queue drops a cancelled key lazily, when it becomes the heap root, and
/// frees its slot then. The set's size is therefore the number of keys the
/// queue holds, and its peak bounds the action slab.
class Differential {
 public:
  explicit Differential(std::uint64_t seed) : rng_(seed) {}

  void run(int operations) {
    for (int op = 0; op < operations; ++op) {
      const std::uint64_t pick = rng_.uniform_int(std::uint64_t{20});
      if (pick < 8) {
        schedule(random_time());
      } else if (pick < 11) {
        cancel(random_id());
      } else if (pick < 12 && !cancelled_ids_.empty()) {
        cancel(cancelled_ids_[rng_.uniform_int(cancelled_ids_.size())]);  // cancel twice
      } else if (pick < 16) {
        const bool ran = scheduler_.step();
        if (!ran) {
          drop_cancelled_front();
          EXPECT_TRUE(queued_.empty());
        }
        EXPECT_EQ(ran, stepped_);
        stepped_ = false;
      } else if (pick < 19) {
        const Time deadline = Time::nanoseconds(now_ + rng_.uniform_int(std::int64_t{0}, 400));
        const Time stopped = scheduler_.run_until(deadline);
        drop_cancelled_front();
        EXPECT_TRUE(queued_.empty() || queued_.begin()->first > deadline.ns());
        EXPECT_EQ(stopped.ns(), now_);
        stepped_ = false;
      } else {
        // A burst on an empty free list grows the slab while it runs.
        schedule(Time::nanoseconds(now_), /*burst=*/true);
      }
      check();
    }
    scheduler_.run();
    drop_cancelled_front();
    EXPECT_TRUE(queued_.empty());
    check();
    EXPECT_EQ(fired_, expected_);
  }

  [[nodiscard]] std::size_t fired() const { return fired_.size(); }
  [[nodiscard]] std::size_t peak() const { return peak_; }

 private:
  Time random_time() {
    switch (rng_.uniform_int(std::uint64_t{4})) {
      case 0:  // in the past: clamped to now
        return Time::nanoseconds(now_ - rng_.uniform_int(std::int64_t{1}, 100));
      case 1:  // exactly now
        return Time::nanoseconds(now_);
      case 2:  // equal to some queued event's time
        if (!queued_.empty()) {
          auto it = queued_.begin();
          std::advance(it, static_cast<std::ptrdiff_t>(rng_.uniform_int(queued_.size())));
          return Time::nanoseconds(it->first);
        }
        return Time::nanoseconds(now_);
      default:
        return Time::nanoseconds(now_ + rng_.uniform_int(std::int64_t{0}, 1000));
    }
  }

  /// Any id issued so far (pending, fired or cancelled), or one not yet
  /// issued.
  EventId random_id() { return 1 + rng_.uniform_int(next_id_ + 1); }

  void schedule(Time at, bool burst = false) {
    const EventId id = scheduler_.schedule_at(at, [this, burst] { fire(burst); });
    EXPECT_EQ(id, next_id_);
    const std::int64_t t = std::max(at.ns(), now_);
    queued_.emplace(t, id);
    time_of_[id] = t;
    ++next_id_;
    peak_ = std::max(peak_, queued_.size());
  }

  void cancel(EventId id) {
    scheduler_.cancel(id);
    if (time_of_.count(id) != 0 && cancelled_.insert(id).second) cancelled_ids_.push_back(id);
  }

  void drop_cancelled_front() {
    while (!queued_.empty() && cancelled_.count(queued_.begin()->second) != 0) {
      const EventId id = queued_.begin()->second;
      queued_.erase(queued_.begin());
      time_of_.erase(id);
      cancelled_.erase(id);
    }
  }

  /// The action of every event: the reference pops its own front, which
  /// must be the event the scheduler is running, then the action may
  /// schedule and cancel more.
  void fire(bool burst) {
    drop_cancelled_front();
    EXPECT_FALSE(queued_.empty());
    if (queued_.empty()) return;
    const auto [t, id] = *queued_.begin();
    queued_.erase(queued_.begin());
    time_of_.erase(id);
    now_ = t;
    EXPECT_EQ(scheduler_.now().ns(), t);
    expected_.push_back(id);
    fired_.push_back(id);
    stepped_ = true;
    // Fewer than one nested event per firing on average (0.6), so the
    // final run() drains.
    const std::uint64_t nested =
        burst ? 40 : (rng_.chance(0.3) ? 1 + rng_.uniform_int(std::uint64_t{2}) : 0);
    for (std::uint64_t i = 0; i < nested; ++i) schedule(random_time());
    if (rng_.chance(0.3)) cancel(random_id());
    check();
  }

  void check() {
    EXPECT_EQ(scheduler_.pending(), queued_.size() - cancelled_.size());
    EXPECT_LE(scheduler_.slab_slots(), peak_);
  }

  Scheduler scheduler_;
  util::Rng rng_;
  EventId next_id_ = 1;
  std::int64_t now_ = 0;
  std::set<std::pair<std::int64_t, EventId>> queued_;
  std::map<EventId, std::int64_t> time_of_;
  std::set<EventId> cancelled_;
  std::vector<EventId> cancelled_ids_;
  std::vector<EventId> fired_;
  std::vector<EventId> expected_;
  std::size_t peak_ = 0;
  bool stepped_ = false;
};

TEST(SchedulerDifferentialTest, MatchesReferenceOrderedSet) {
  for (std::uint64_t seed = 1; seed <= 24; ++seed) {
    Differential run(seed);
    run.run(3000);
    EXPECT_GT(run.fired(), 1000u) << "seed " << seed;
    EXPECT_GT(run.peak(), 40u) << "seed " << seed;
    if (HasFailure()) {
      ADD_FAILURE() << "first failing seed " << seed;
      return;
    }
  }
}

}  // namespace
}  // namespace snd::sim
