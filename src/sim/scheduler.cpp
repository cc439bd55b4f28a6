#include "sim/scheduler.h"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <utility>

namespace snd::sim {

Owner Scheduler::new_owner() {
  owners_.emplace_back();
  return static_cast<Owner>(owners_.size() - 1);
}

void Scheduler::schedule_at(Time at, Owner owner, EventAction action) {
  assert(owner < owners_.size());
  OwnerState& state = owners_[owner];
  if (state.retired) return;
  ++state.queued;
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
  sift_up(heap_.size() - 1, Key{at < now_ ? now_ : at, next_seq_++, slot, owner});
}

void Scheduler::retire(Owner owner) {
  assert(owner != kNoOwner && owner < owners_.size());
  OwnerState& state = owners_[owner];
  if (state.retired) return;
  state.retired = true;
  retired_keys_ += state.queued;
}

// A 4-ary heap is half as deep as a binary one; its four children sit in
// adjacent keys, so the extra comparisons per level hit the cache lines
// the first child already brought in. Keys are unique (sequence numbers
// are), so the firing order is the total (time, seq) order whatever the
// heap's shape.

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
  --owners_[root.owner].queued;
  return root;
}

void Scheduler::drop_retired_head() {
  // retired_keys_ counts keys still in the heap, so the heap is non-empty
  // while it is nonzero.
  while (retired_keys_ != 0 && owners_[heap_.front().owner].retired) {
    const Key key = pop_root();
    --retired_keys_;
    actions_[key.slot] = nullptr;
    free_slots_.push_back(key.slot);
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
  drop_retired_head();
  if (heap_.empty()) return false;
  fire_root();
  return true;
}

Time Scheduler::run_until(Time deadline) {
  for (;;) {
    drop_retired_head();
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
