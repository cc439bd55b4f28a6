// Work-stealing thread pool for embarrassingly parallel Monte-Carlo trials.
//
// The pool only schedules: for_each(count, fn) runs fn(slot) exactly once
// for every slot in [0, count) and returns after the workers join. Seeds,
// failure capture, timing and the sweep report belong to the caller
// (shard::Session for the table drivers, the property suite for its own
// trials), which writes each slot's result into storage owned by that slot
// alone and folds it in slot order after the join. Results are therefore
// bit-identical for any worker count and any scheduling interleaving.
//
// Scheduling: each worker starts with an even contiguous shard of the slot
// space, pops slots from its front, and when drained steals the back half
// of the fullest remaining shard. Shards are packed (begin, end) pairs in a
// single atomic word mutated only by CAS; begin only ever grows and end
// only ever shrinks, so the word never repeats and the ABA problem cannot
// arise.
#pragma once

#include <cstddef>
#include <functional>

namespace snd::runner {

class TrialRunner {
 public:
  /// jobs == 0 resolves to std::thread::hardware_concurrency().
  explicit TrialRunner(std::size_t jobs = 0);

  [[nodiscard]] std::size_t jobs() const { return jobs_; }

  /// Runs fn(slot) for every slot in [0, count), on up to jobs() threads.
  /// Callers that must isolate a failing slot catch inside `fn`: if `fn`
  /// throws, the worker running it stops, slots it still held may not run,
  /// and for_each rethrows the first such exception after every worker has
  /// joined. Throws std::invalid_argument up front when count exceeds 2^32.
  void for_each(std::size_t count, const std::function<void(std::size_t)>& fn) const;

 private:
  std::size_t jobs_;
};

}  // namespace snd::runner
