#include "sim/scheduler.h"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <utility>

namespace snd::sim {

EventId Scheduler::schedule_at(Time at, EventAction action) {
  const EventId id = next_id_++;
  heap_.push_back(Entry{at < now_ ? now_ : at, id, std::move(action)});
  sift_up(heap_.size() - 1);
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
  for (const Entry& entry : heap_) base = std::min(base, entry.id);
  util::BitSet live;
  std::uint64_t count = 0;
  for (const Entry& entry : heap_) {
    if (!cancelled_contains(entry.id)) continue;
    const std::size_t index = static_cast<std::size_t>(entry.id - base);
    if (index >= live.capacity()) live.resize(index + 1);
    live.set(index);
    ++count;
  }
  cancelled_bits_ = std::move(live);
  bits_base_ = base;
  cancelled_count_ = count;
}

void Scheduler::reset_cancelled() {
  cancelled_bits_.resize(0);
  bits_base_ = next_id_;
  cancelled_count_ = 0;
}

std::uint64_t Scheduler::pending() const {
  if (cancelled_backlog() > heap_.size()) sweep_cancelled();
  const std::uint64_t backlog = cancelled_backlog();
  const auto size = static_cast<std::uint64_t>(heap_.size());
  return size > backlog ? size - backlog : 0;
}

void Scheduler::set_next_event_id(EventId id) {
  assert(heap_.empty() && "set_next_event_id requires an empty queue");
  next_id_ = std::max(next_id_, id);
  reset_cancelled();
}

// Both sifts percolate a hole instead of swapping: an Entry is ~112 bytes
// with a small-buffer action whose move runs through a trampoline, so a swap
// costs three such moves per level where the hole costs one. The element
// comparisons -- and therefore the final array -- are exactly those of the
// textbook swap formulation.

void Scheduler::sift_up(std::size_t index) {
  if (index == 0) return;
  std::size_t parent = (index - 1) / 2;
  if (!earlier(heap_[index], heap_[parent])) return;
  Entry moving = std::move(heap_[index]);
  do {
    heap_[index] = std::move(heap_[parent]);
    index = parent;
    parent = (index - 1) / 2;
  } while (index > 0 && earlier(moving, heap_[parent]));
  heap_[index] = std::move(moving);
}

void Scheduler::sift_down(std::size_t index) {
  const std::size_t n = heap_.size();
  // Smallest of {value-at-i, left child, right child}, where the sinking
  // element is passed explicitly because its slot currently holds the hole.
  const auto smaller_child = [&](std::size_t i, const Entry& value) {
    std::size_t best = i;
    const Entry* best_entry = &value;
    const std::size_t left = 2 * i + 1;
    const std::size_t right = 2 * i + 2;
    if (left < n && earlier(heap_[left], *best_entry)) {
      best = left;
      best_entry = &heap_[left];
    }
    if (right < n && earlier(heap_[right], *best_entry)) best = right;
    return best;
  };
  std::size_t next = smaller_child(index, heap_[index]);
  if (next == index) return;
  Entry moving = std::move(heap_[index]);
  do {
    heap_[index] = std::move(heap_[next]);
    index = next;
    next = smaller_child(index, moving);
  } while (next != index);
  heap_[index] = std::move(moving);
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
    if (heap_.size() > 1) heap_.front() = std::move(heap_.back());
    heap_.pop_back();
    if (!heap_.empty()) sift_down(0);
  }
}

bool Scheduler::pop_next(Entry& out) {
  drop_cancelled_head();
  if (heap_.empty()) return false;
  out = std::move(heap_.front());
  if (heap_.size() > 1) heap_.front() = std::move(heap_.back());
  heap_.pop_back();
  if (!heap_.empty()) sift_down(0);
  return true;
}

bool Scheduler::peek(Time& at) {
  drop_cancelled_head();
  if (heap_.empty()) return false;
  at = heap_.front().at;
  return true;
}

bool Scheduler::step() {
  Entry entry;
  if (!pop_next(entry)) return false;
  now_ = entry.at;
  entry.action();
  ++executed_;
  return true;
}

Time Scheduler::run_until(Time deadline) {
  Time next;
  while (peek(next)) {
    if (next > deadline) return now_;
    step();
  }
  return now_;
}

std::string Time::to_string() const {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.6fs", to_seconds());
  return buf;
}

}  // namespace snd::sim
