#include "sim/scheduler.h"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <utility>

namespace snd::sim {

EventId Scheduler::schedule_at(Time at, EventAction action) {
  const EventId id = next_id_++;
  std::uint32_t slot = 0;
  if (free_slots_.empty()) {
    slot = static_cast<std::uint32_t>(actions_.size());
    actions_.push_back(std::move(action));
  } else {
    slot = free_slots_.back();
    free_slots_.pop_back();
    actions_[slot] = std::move(action);
  }
  heap_.emplace_back();
  sift_up(heap_.size() - 1, Key{at < now_ ? now_ : at, id, slot});
  return id;
}

void Scheduler::cancel(EventId id) {
  // Only remember cancellations that can still matter.
  if (id >= next_id_) return;
  if (id < bits_base_) return;  // below the window: provably already fired
  const std::size_t index = static_cast<std::size_t>(id - bits_base_);
  if (index >= cancelled_bits_.capacity()) {
    // Geometric growth keeps repeated worst-case cancels amortized O(1).
    cancelled_bits_.resize(std::max(index + 1, cancelled_bits_.capacity() * 2));
  }
  if (!cancelled_bits_.test(index)) {
    cancelled_bits_.set(index);
    ++cancelled_count_;
    cancels_unswept_ = true;
  }
  // Ids of already-fired events are indistinguishable from pending ones
  // here, but once the set clearly outnumbers the heap the excess must be
  // stale -- sweep it so cancel-after-fire can't grow the set unboundedly.
  if (cancelled_backlog() > heap_.size() + kCancelSweepSlack) sweep_cancelled();
}

bool Scheduler::cancelled_contains(EventId id) const {
  if (id < bits_base_) return false;
  const std::size_t index = static_cast<std::size_t>(id - bits_base_);
  return index < cancelled_bits_.capacity() && cancelled_bits_.test(index);
}

void Scheduler::cancelled_erase(EventId id) {
  // Callers check cancelled_contains first, so the bit exists.
  cancelled_bits_.reset(static_cast<std::size_t>(id - bits_base_));
  --cancelled_count_;
}

void Scheduler::sweep_cancelled() const {
  // Rebase the window on the oldest pending id: every bit below it is a
  // stale cancel-after-fire record, and rebuilding from the heap keeps only
  // cancels that can still suppress an event.
  EventId base = next_id_;
  for (const Key& key : heap_) base = std::min(base, key.id);
  util::BitSet live;
  std::uint64_t count = 0;
  for (const Key& key : heap_) {
    if (!cancelled_contains(key.id)) continue;
    const std::size_t index = static_cast<std::size_t>(key.id - base);
    if (index >= live.capacity()) live.resize(index + 1);
    live.set(index);
    ++count;
  }
  cancelled_bits_ = std::move(live);
  bits_base_ = base;
  cancelled_count_ = count;
  cancels_unswept_ = false;
}

void Scheduler::reset_cancelled() {
  cancelled_bits_.resize(0);
  bits_base_ = next_id_;
  cancelled_count_ = 0;
  cancels_unswept_ = false;
}

std::uint64_t Scheduler::pending() const {
  // The window cannot tell a cancel-after-fire from a live cancel, so a
  // cancel since the last sweep may have set a stale bit. Sweeping keeps
  // exactly the cancelled keys still in the heap.
  if (cancels_unswept_) sweep_cancelled();
  return static_cast<std::uint64_t>(heap_.size()) - cancelled_backlog();
}

void Scheduler::set_next_event_id(EventId id) {
  assert(heap_.empty() && "set_next_event_id requires an empty queue");
  next_id_ = std::max(next_id_, id);
  reset_cancelled();
}

// A 4-ary heap is half as deep as a binary one; its four children sit in
// adjacent keys, so the extra comparisons per level hit the cache lines
// the first child already brought in. Keys are unique (ids are), so the
// firing order is the total (time, id) order whatever the heap's shape.

void Scheduler::sift_up(std::size_t index, Key moving) {
  while (index > 0) {
    const std::size_t parent = (index - 1) / kArity;
    if (!earlier(moving, heap_[parent])) break;
    heap_[index] = heap_[parent];
    ++sift_steps_;
    index = parent;
  }
  heap_[index] = moving;
}

void Scheduler::sift_down(std::size_t index, Key moving) {
  const std::size_t n = heap_.size();
  for (;;) {
    const std::size_t first = kArity * index + 1;
    if (first >= n) break;
    const std::size_t end = std::min(first + kArity, n);
    std::size_t best = first;
    for (std::size_t child = first + 1; child < end; ++child) {
      if (earlier(heap_[child], heap_[best])) best = child;
    }
    if (!earlier(heap_[best], moving)) break;
    heap_[index] = heap_[best];
    ++sift_steps_;
    index = best;
  }
  heap_[index] = moving;
}

Scheduler::Key Scheduler::pop_root() {
  const Key root = heap_.front();
  const Key last = heap_.back();
  heap_.pop_back();
  if (!heap_.empty()) sift_down(0, last);
  return root;
}

void Scheduler::free_slot(std::uint32_t slot) {
  actions_[slot] = nullptr;
  free_slots_.push_back(slot);
}

void Scheduler::drop_cancelled_head() {
  if (heap_.empty()) {
    // Nothing can be pending: any recorded cancellations are stale
    // (cancel-after-fire) and can be forgotten.
    reset_cancelled();
    return;
  }
  while (!heap_.empty() && cancelled_backlog() != 0 && cancelled_contains(heap_.front().id)) {
    cancelled_erase(heap_.front().id);
    free_slot(pop_root().slot);
  }
}

void Scheduler::fire_root() {
  const Key key = pop_root();
  now_ = key.at;
  // Moved out before it runs: the action may schedule events, which can
  // reuse this slot or grow the slab under it.
  EventAction action = std::move(actions_[key.slot]);
  free_slots_.push_back(key.slot);
  action();
  ++executed_;
}

bool Scheduler::step() {
  drop_cancelled_head();
  if (heap_.empty()) return false;
  fire_root();
  return true;
}

Time Scheduler::run_until(Time deadline) {
  for (;;) {
    drop_cancelled_head();
    if (heap_.empty() || heap_.front().at > deadline) return now_;
    fire_root();
  }
}

std::string Time::to_string() const {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.6fs", to_seconds());
  return buf;
}

}  // namespace snd::sim
