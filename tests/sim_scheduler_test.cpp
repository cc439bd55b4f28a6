#include "sim/scheduler.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <iterator>
#include <functional>
#include <memory>
#include <set>
#include <tuple>
#include <utility>
#include <vector>

#include "util/ids.h"
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

TEST(SchedulerTest, RetiredOwnerEventsDoNotRun) {
  Scheduler scheduler;
  const Owner a = scheduler.new_owner();
  const Owner b = scheduler.new_owner();
  std::vector<int> order;
  scheduler.schedule_at(Time::milliseconds(1), a, [&] { order.push_back(1); });
  scheduler.schedule_at(Time::milliseconds(2), b, [&] { order.push_back(2); });
  scheduler.schedule_at(Time::milliseconds(3), a, [&] { order.push_back(3); });
  scheduler.schedule_at(Time::milliseconds(4), [&] { order.push_back(4); });
  scheduler.retire(a);
  EXPECT_EQ(scheduler.pending(), 2u);
  scheduler.run();
  EXPECT_EQ(order, (std::vector<int>{2, 4}));
  EXPECT_EQ(scheduler.executed(), 2u);
  EXPECT_TRUE(scheduler.empty());
}

TEST(SchedulerTest, RetireIsIdempotentAndNoopAfterFire) {
  Scheduler scheduler;
  const Owner fired = scheduler.new_owner();
  scheduler.schedule_at(Time::zero(), fired, [] {});
  scheduler.run();
  scheduler.retire(fired);  // nothing queued: must not corrupt the count
  EXPECT_TRUE(scheduler.empty());
  EXPECT_EQ(scheduler.executed(), 1u);

  const Owner twice = scheduler.new_owner();
  scheduler.schedule_at(Time::milliseconds(1), twice, [] {});
  scheduler.schedule_at(Time::milliseconds(2), twice, [] {});
  scheduler.schedule_at(Time::milliseconds(3), [] {});
  scheduler.retire(twice);
  scheduler.retire(twice);  // counts once
  EXPECT_EQ(scheduler.pending(), 1u);
  scheduler.run();
  EXPECT_EQ(scheduler.executed(), 2u);
  EXPECT_TRUE(scheduler.empty());
}

TEST(SchedulerTest, RetiredOwnerLaterScheduleDropsTheAction) {
  Scheduler scheduler;
  const Owner owner = scheduler.new_owner();
  scheduler.retire(owner);
  auto token = std::make_shared<int>(1);
  std::weak_ptr<int> watch = token;
  bool ran = false;
  scheduler.schedule_at(Time::milliseconds(1), owner,
                        [token = std::move(token), &ran] { ran = *token == 1; });
  EXPECT_FALSE(watch.lock());  // destroyed at once, not queued
  EXPECT_TRUE(scheduler.empty());
  EXPECT_EQ(scheduler.slab_slots(), 0u);
  scheduler.run();
  EXPECT_FALSE(ran);
  EXPECT_EQ(scheduler.executed(), 0u);
}

TEST(SchedulerTest, RunLeavesClockAtLastLiveEvent) {
  // A retired event must not advance the clock: a liveness check inside
  // the closure would still fire it and leave now() at 9 ms.
  Scheduler scheduler;
  const Owner owner = scheduler.new_owner();
  scheduler.schedule_at(Time::milliseconds(5), [] {});
  scheduler.schedule_at(Time::milliseconds(9), owner, [] {});
  scheduler.retire(owner);
  scheduler.run();
  EXPECT_EQ(scheduler.now(), Time::milliseconds(5));
  EXPECT_EQ(scheduler.executed(), 1u);
  EXPECT_FALSE(scheduler.step());
  EXPECT_EQ(scheduler.now(), Time::milliseconds(5));
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
  const Owner owner = scheduler.new_owner();
  scheduler.schedule_at(Time::milliseconds(1), owner, [] {});
  scheduler.schedule_at(Time::milliseconds(2), [] {});
  EXPECT_EQ(scheduler.pending(), 2u);
  scheduler.retire(owner);
  EXPECT_EQ(scheduler.pending(), 1u);
}

TEST(SchedulerTest, TypicalEventActionStaysInline) {
  // The whole point of the SBO action type: the closures the simulator
  // queues per packet and per timer must not reach the heap fallback.
  // Network's delivery event captures [this, slot]; SndNode's timers
  // capture [this], [this, v] and [this, remaining].
  struct Agent {
    std::uint64_t fired = 0;
  } agent;
  Agent* self = &agent;
  const std::uint32_t slot = 7;
  const NodeId v = 11;
  const std::size_t remaining = 300;
  std::vector<EventAction> actions;
  actions.emplace_back([self, slot] { self->fired += slot; });
  actions.emplace_back([self] { self->fired += 1; });
  actions.emplace_back([self, v] { self->fired += v; });
  actions.emplace_back([self, remaining] { self->fired += remaining; });
  Scheduler scheduler;
  for (EventAction& action : actions) {
    EXPECT_FALSE(action.heap_allocated());
    scheduler.schedule_at(Time::zero(), std::move(action));
  }
  scheduler.run();
  EXPECT_EQ(agent.fired, 7u + 1u + 11u + 300u);
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

TEST(SchedulerTest, RetiredCapturesReleasedWhenTheirKeysSurface) {
  // A retired event's capture must be destroyed, not leaked in the queue,
  // inline and heap-fallback alike.
  Scheduler scheduler;
  const Owner owner = scheduler.new_owner();
  auto small = std::make_shared<int>(1);
  auto large = std::make_shared<int>(2);
  std::weak_ptr<int> watch_small = small;
  std::weak_ptr<int> watch_large = large;
  scheduler.schedule_at(Time::milliseconds(1), owner, [small = std::move(small)] { (void)small; });
  std::array<std::uint8_t, 256> pad{};
  scheduler.schedule_at(Time::milliseconds(2), owner,
                        [large = std::move(large), pad] { (void)pad; });
  scheduler.retire(owner);
  EXPECT_TRUE(watch_small.lock());  // dropped lazily, at the heap root
  EXPECT_TRUE(watch_large.lock());
  scheduler.run();
  EXPECT_FALSE(watch_small.lock());
  EXPECT_FALSE(watch_large.lock());
  EXPECT_EQ(scheduler.executed(), 0u);
}

TEST(SchedulerTest, DestructionReleasesUnrunActions) {
  // run_until() can leave events queued forever, live or retired;
  // destroying the scheduler must release their captures (inline and
  // heap-fallback alike).
  std::vector<std::weak_ptr<int>> watches;
  {
    Scheduler scheduler;
    const Owner retired = scheduler.new_owner();
    std::array<std::uint8_t, 256> pad{};
    for (const Owner owner : {kNoOwner, retired}) {
      auto small = std::make_shared<int>(1);
      auto large = std::make_shared<int>(2);
      watches.push_back(small);
      watches.push_back(large);
      scheduler.schedule_at(Time::milliseconds(1), owner,
                            [small = std::move(small)] { (void)small; });
      scheduler.schedule_at(Time::milliseconds(2), owner,
                            [large = std::move(large), pad] { (void)pad; });
    }
    scheduler.retire(retired);
    scheduler.run_until(Time::zero());
    for (const auto& watch : watches) EXPECT_TRUE(watch.lock());
  }
  for (const auto& watch : watches) EXPECT_FALSE(watch.lock());
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

TEST(SchedulerTest, SameTimeFifoWithRetiredKeysInterleaved) {
  // A same-timestamp batch spread over three owners, one retired midway:
  // the survivors keep scheduling order, and the retired owner's later
  // events never enter the queue.
  Scheduler scheduler;
  const std::array<Owner, 3> owners{kNoOwner, scheduler.new_owner(), scheduler.new_owner()};
  const Owner doomed = owners[2];
  std::vector<int> order;
  std::vector<int> expected;
  for (int i = 0; i < 48; ++i) {
    const Owner owner = owners[static_cast<std::size_t>(i % 3)];
    if (i == 24) scheduler.retire(doomed);
    scheduler.schedule_at(Time::milliseconds(7), owner, [&order, i] { order.push_back(i); });
    if (owner != doomed) expected.push_back(i);
  }
  EXPECT_EQ(scheduler.pending(), expected.size());
  scheduler.run();
  EXPECT_EQ(order, expected);
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
/// interleaving of new_owner, schedule, retire, step and run_until calls,
/// including actions that schedule and retire (their own owner too) from
/// inside themselves.
///
/// The reference keeps every queued event as (time, seq, owner) in an
/// ordered set. A retired owner's event stays there until it reaches the
/// front, because the queue drops a retired key lazily, when it becomes the
/// heap root, and frees its slot then. The set's size is therefore the
/// number of keys the queue holds, and its peak bounds the action slab.
class Differential {
 public:
  explicit Differential(std::uint64_t seed) : rng_(seed) {
    for (int i = 0; i < 4; ++i) owners_.push_back(scheduler_.new_owner());
  }

  void run(int operations) {
    for (int op = 0; op < operations; ++op) {
      const std::uint64_t pick = rng_.uniform_int(std::uint64_t{20});
      if (pick < 9) {
        schedule(random_time(), random_owner());
      } else if (pick < 10) {
        retire(random_owner());
      } else if (pick < 11) {
        owners_.push_back(scheduler_.new_owner());
      } else if (pick < 15) {
        const bool ran = scheduler_.step();
        if (!ran) {
          drop_retired_front();
          EXPECT_TRUE(queued_.empty());
        }
        EXPECT_EQ(ran, stepped_);
        stepped_ = false;
      } else if (pick < 19) {
        const Time deadline = Time::nanoseconds(now_ + rng_.uniform_int(std::int64_t{0}, 400));
        const Time stopped = scheduler_.run_until(deadline);
        drop_retired_front();
        EXPECT_TRUE(queued_.empty() || std::get<0>(*queued_.begin()) > deadline.ns());
        EXPECT_EQ(stopped.ns(), now_);
        stepped_ = false;
      } else {
        // A burst on an empty free list grows the slab while it runs.
        schedule(Time::nanoseconds(now_), random_owner(), /*burst=*/true);
      }
      check();
      // An action counts in executed() once it returns.
      EXPECT_EQ(scheduler_.executed(), fired_);
    }
    scheduler_.run();
    drop_retired_front();
    EXPECT_TRUE(queued_.empty());
    check();
  }

  [[nodiscard]] std::size_t fired() const { return fired_; }
  /// Retired keys that reached the front and were dropped.
  [[nodiscard]] std::size_t dropped() const { return dropped_; }
  [[nodiscard]] std::size_t peak() const { return peak_; }

 private:
  using Entry = std::tuple<std::int64_t, std::uint64_t, Owner>;

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
          return Time::nanoseconds(std::get<0>(*it));
        }
        return Time::nanoseconds(now_);
      default:
        return Time::nanoseconds(now_ + rng_.uniform_int(std::int64_t{0}, 1000));
    }
  }

  /// kNoOwner a quarter of the time, else any owner issued so far, retired
  /// or not.
  Owner random_owner() {
    if (rng_.uniform_int(std::uint64_t{4}) == 0) return kNoOwner;
    return owners_[rng_.uniform_int(owners_.size())];
  }

  void schedule(Time at, Owner owner, bool burst = false) {
    const std::uint64_t seq = next_seq_;
    scheduler_.schedule_at(at, owner, [this, seq, burst] { fire(seq, burst); });
    if (retired_.count(owner) != 0) return;  // dropped at once
    ++next_seq_;
    queued_.emplace(std::max(at.ns(), now_), seq, owner);
    peak_ = std::max(peak_, queued_.size());
  }

  void retire(Owner owner) {
    if (owner == kNoOwner) return;
    scheduler_.retire(owner);
    retired_.insert(owner);
  }

  void drop_retired_front() {
    while (!queued_.empty() && retired_.count(std::get<2>(*queued_.begin())) != 0) {
      queued_.erase(queued_.begin());
      ++dropped_;
    }
  }

  /// The action of every event: the reference pops its own front, which
  /// must be the event the scheduler is running, then the action may
  /// schedule and retire more.
  void fire(std::uint64_t seq, bool burst) {
    drop_retired_front();
    EXPECT_FALSE(queued_.empty());
    if (queued_.empty()) return;
    const auto [t, front_seq, owner] = *queued_.begin();
    queued_.erase(queued_.begin());
    EXPECT_EQ(seq, front_seq);
    now_ = t;
    EXPECT_EQ(scheduler_.now().ns(), t);
    ++fired_;
    stepped_ = true;
    // Fewer than one nested event per firing on average (0.6), so the
    // final run() drains.
    const std::uint64_t nested =
        burst ? 40 : (rng_.chance(0.3) ? 1 + rng_.uniform_int(std::uint64_t{2}) : 0);
    if (rng_.chance(0.02)) retire(owner);  // a node stopping itself mid-action
    for (std::uint64_t i = 0; i < nested; ++i) schedule(random_time(), random_owner());
    if (rng_.chance(0.02)) retire(random_owner());
    check();
  }

  void check() {
    std::uint64_t live = 0;
    for (const Entry& entry : queued_) live += retired_.count(std::get<2>(entry)) == 0 ? 1 : 0;
    EXPECT_EQ(scheduler_.pending(), live);
    EXPECT_LE(scheduler_.slab_slots(), peak_);
  }

  Scheduler scheduler_;
  util::Rng rng_;
  std::vector<Owner> owners_;
  std::set<Owner> retired_;
  std::uint64_t next_seq_ = 0;
  std::int64_t now_ = 0;
  std::set<Entry> queued_;
  std::size_t fired_ = 0;
  std::size_t dropped_ = 0;
  std::size_t peak_ = 0;
  bool stepped_ = false;
};

TEST(SchedulerDifferentialTest, MatchesReferenceOrderedSet) {
  for (std::uint64_t seed = 1; seed <= 24; ++seed) {
    Differential run(seed);
    run.run(3000);
    EXPECT_GT(run.fired(), 1000u) << "seed " << seed;
    EXPECT_GT(run.dropped(), 15u) << "seed " << seed;
    EXPECT_GT(run.peak(), 40u) << "seed " << seed;
    if (HasFailure()) {
      ADD_FAILURE() << "first failing seed " << seed;
      return;
    }
  }
}

}  // namespace
}  // namespace snd::sim
