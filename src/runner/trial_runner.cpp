#include "runner/trial_runner.h"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <exception>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <vector>

namespace snd::runner {

namespace {

/// One worker's shard of the trial index space: a (begin, end) pair packed
/// into a single atomic word so the owning pop and a thief's split race
/// through one CAS. begin only grows and end only shrinks, so no state ever
/// repeats and CAS cannot suffer ABA.
class StealableRange {
 public:
  void init(std::uint32_t begin, std::uint32_t end) {
    word_.store(pack(begin, end), std::memory_order_relaxed);
  }

  /// Owner path: takes the front index. False when the shard is drained.
  bool pop(std::uint32_t& index) {
    std::uint64_t word = word_.load(std::memory_order_relaxed);
    for (;;) {
      const std::uint32_t begin = unpack_begin(word);
      const std::uint32_t end = unpack_end(word);
      if (begin >= end) return false;
      if (word_.compare_exchange_weak(word, pack(begin + 1, end),
                                      std::memory_order_acquire,
                                      std::memory_order_relaxed)) {
        index = begin;
        return true;
      }
    }
  }

  /// Thief path: splits off the back half as a privately owned chunk.
  bool steal(std::uint32_t& begin, std::uint32_t& end) {
    std::uint64_t word = word_.load(std::memory_order_relaxed);
    for (;;) {
      const std::uint32_t b = unpack_begin(word);
      const std::uint32_t e = unpack_end(word);
      if (b >= e) return false;
      const std::uint32_t take = (e - b + 1) / 2;
      if (word_.compare_exchange_weak(word, pack(b, e - take),
                                      std::memory_order_acquire,
                                      std::memory_order_relaxed)) {
        begin = e - take;
        end = e;
        return true;
      }
    }
  }

  [[nodiscard]] std::uint32_t remaining() const {
    const std::uint64_t word = word_.load(std::memory_order_relaxed);
    const std::uint32_t begin = unpack_begin(word);
    const std::uint32_t end = unpack_end(word);
    return begin < end ? end - begin : 0;
  }

 private:
  static std::uint64_t pack(std::uint32_t begin, std::uint32_t end) {
    return (static_cast<std::uint64_t>(end) << 32) | begin;
  }
  static std::uint32_t unpack_begin(std::uint64_t word) {
    return static_cast<std::uint32_t>(word);
  }
  static std::uint32_t unpack_end(std::uint64_t word) {
    return static_cast<std::uint32_t>(word >> 32);
  }

  std::atomic<std::uint64_t> word_{0};
};

}  // namespace

TrialRunner::TrialRunner(std::size_t jobs) : jobs_(jobs) {
  if (jobs_ == 0) {
    const unsigned hw = std::thread::hardware_concurrency();
    jobs_ = hw > 0 ? hw : 1;
  }
}

void TrialRunner::for_each(std::size_t count,
                           const std::function<void(std::size_t)>& fn) const {
  // Shard indices are packed 32-bit (see StealableRange).
  if (count > 0xffffffffULL) {
    throw std::invalid_argument("TrialRunner: more than 2^32 trials per sweep");
  }
  const std::size_t jobs = count == 0 ? 1 : std::min(jobs_, count);
  if (jobs <= 1) {
    for (std::size_t slot = 0; slot < count; ++slot) fn(slot);
    return;
  }

  std::vector<StealableRange> shards(jobs);
  for (std::size_t w = 0; w < jobs; ++w) {
    // Even contiguous shards; the first `count % jobs` get one extra.
    const std::size_t lo = w * count / jobs;
    const std::size_t hi = (w + 1) * count / jobs;
    shards[w].init(static_cast<std::uint32_t>(lo), static_cast<std::uint32_t>(hi));
  }

  std::mutex error_mutex;
  std::exception_ptr error;  // the first exception a worker stopped on

  auto worker = [&](std::size_t self) {
    std::uint32_t chunk_lo = 0;
    std::uint32_t chunk_hi = 0;  // privately owned stolen chunk
    try {
      for (;;) {
        if (chunk_lo < chunk_hi) {
          fn(chunk_lo++);
          continue;
        }
        std::uint32_t index = 0;
        if (shards[self].pop(index)) {
          fn(index);
          continue;
        }
        // Own shard drained: steal the back half of the fullest shard.
        std::size_t victim = jobs;
        std::uint32_t best = 0;
        for (std::size_t w = 0; w < jobs; ++w) {
          if (w == self) continue;
          const std::uint32_t left = shards[w].remaining();
          if (left > best) {
            best = left;
            victim = w;
          }
        }
        if (victim == jobs || !shards[victim].steal(chunk_lo, chunk_hi)) {
          if (best == 0) break;  // every shard drained; running slots finish alone
          continue;              // lost the race to another thief; rescan
        }
      }
    } catch (...) {
      // An exception leaving a thread would end the process; hand it to the
      // caller instead.
      const std::scoped_lock lock(error_mutex);
      if (!error) error = std::current_exception();
    }
  };

  std::vector<std::thread> threads;
  threads.reserve(jobs);
  for (std::size_t w = 0; w < jobs; ++w) threads.emplace_back(worker, w);
  for (std::thread& t : threads) t.join();
  if (error) std::rethrow_exception(error);
}

}  // namespace snd::runner
