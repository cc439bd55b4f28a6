// Work-stealing thread pool for embarrassingly parallel Monte-Carlo trials.
//
// Determinism contract: trial i always runs with seed
// util::derive_seed(base_seed, i), writes its result into a preallocated
// slot owned by that index alone, and all aggregation happens in trial
// order after the workers join. Aggregate statistics are therefore
// bit-identical for any worker count and any scheduling interleaving; the
// timing fields of SweepReport are the only nondeterministic outputs.
//
// Scheduling: each worker starts with an even contiguous shard of the trial
// index space, pops indices from its front, and when drained steals the back
// half of the fullest remaining shard. Shards are packed (begin, end) pairs
// in a single atomic word mutated only by CAS; begin only ever grows and end
// only ever shrinks, so the word never repeats and the ABA problem cannot
// arise. A trial that throws is recorded (message + failed count) and the
// sweep continues.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "obs/summary.h"
#include "util/stats.h"

namespace snd::runner {

/// Timing and failure telemetry for one sweep; serialisable as a
/// BENCH_<name>.json perf artifact (see docs/RUNNER.md).
struct SweepReport {
  std::string name;
  std::size_t trials = 0;
  std::size_t failed = 0;
  std::size_t jobs = 1;
  double wall_seconds = 0.0;
  util::Series trial_micros;        ///< Per-trial wall time, in trial order.
  std::vector<std::string> errors;  ///< First few failure messages, trial order.
  static constexpr std::size_t kMaxReportedErrors = 8;

  /// Counts one failed trial and keeps its "trial N: message" line while
  /// fewer than kMaxReportedErrors are listed.
  void note_failure(std::uint64_t trial, std::string_view message);

  /// Named per-trial result columns (e.g. "accuracy"), appended in trial
  /// order after the workers join. Deterministic, so they are part of the
  /// canonical report (below) and of the .sndshard columnar format;
  /// serialized as mean/stdev/ci95 per metric.
  std::vector<std::pair<std::string, util::Series>> metrics;
  /// The column named `name`, created on first use (insertion order is
  /// serialization order).
  util::Series& metric(std::string_view name);

  /// Folded per-trial trace summaries (typed per-phase traffic, drop-cause
  /// breakdown, protocol counters), merged in trial order -- identical for
  /// any --jobs (shard::fold_records).
  bool has_trace = false;
  obs::TraceSummary trace;
  void attach_trace(const obs::TraceSummary& folded) {
    has_trace = true;
    trace.merge(folded);
  }

  [[nodiscard]] double trials_per_second() const;
  [[nodiscard]] std::string to_json() const;
  /// Deterministic subset of to_json(): drops the wall-clock fields (jobs,
  /// wall_seconds, trials_per_second, trial_us) and keeps name, trials,
  /// failed, metrics, errors, and the trace block. Two runs of the same
  /// sweep -- sharded or not, any --jobs -- produce byte-identical canonical
  /// reports; CI's shard merge gate compares exactly these bytes.
  [[nodiscard]] std::string to_canonical_json() const;
  /// Writes BENCH_<name>.json into $SND_BENCH_DIR (default: the working
  /// directory); returns the path, or an empty string on I/O failure.
  [[nodiscard]] std::string write_json() const;
  /// Writes to_canonical_json() to `path`; false on I/O failure.
  [[nodiscard]] bool write_canonical(const std::string& path) const;
};

class TrialRunner {
 public:
  /// jobs == 0 resolves to std::thread::hardware_concurrency().
  explicit TrialRunner(std::size_t jobs = 0);

  [[nodiscard]] std::size_t jobs() const { return jobs_; }

  /// Runs fn(trial_index, seed) for every trial_index in [0, trials) and
  /// returns the results in trial order. A trial that throws yields nullopt
  /// and is counted in report->failed; the rest of the sweep continues.
  template <typename Fn>
  auto run(std::size_t trials, std::uint64_t base_seed, Fn&& fn,
           SweepReport* report = nullptr)
      -> std::vector<std::optional<std::invoke_result_t<Fn&, std::size_t, std::uint64_t>>> {
    using T = std::invoke_result_t<Fn&, std::size_t, std::uint64_t>;
    std::vector<std::optional<T>> results(trials);
    run_raw(
        trials, base_seed, /*indices=*/nullptr,
        [&](std::size_t slot, std::size_t i, std::uint64_t seed) {
          results[slot].emplace(fn(i, seed));
        },
        report);
    return results;
  }

  /// Shard-aware variant: runs fn(trial_index, seed) only for the global
  /// trial indices in `indices` (any order, no duplicates), returning
  /// results parallel to `indices`. Each trial still gets
  /// derive_seed(base_seed, trial_index) -- the seed depends on the global
  /// index alone, so the union of disjoint subsets is bit-identical to one
  /// run() over the full sweep (docs/SHARDING.md).
  template <typename Fn>
  auto run_subset(const std::vector<std::uint32_t>& indices, std::uint64_t base_seed,
                  Fn&& fn, SweepReport* report = nullptr)
      -> std::vector<std::optional<std::invoke_result_t<Fn&, std::size_t, std::uint64_t>>> {
    using T = std::invoke_result_t<Fn&, std::size_t, std::uint64_t>;
    std::vector<std::optional<T>> results(indices.size());
    run_raw(
        indices.size(), base_seed, indices.data(),
        [&](std::size_t slot, std::size_t i, std::uint64_t seed) {
          results[slot].emplace(fn(i, seed));
        },
        report);
    return results;
  }

 private:
  /// Non-template core: sharding, stealing, timing, and failure capture.
  /// Runs `count` tasks; task `slot` executes global trial index
  /// `indices ? indices[slot] : slot` with that index's derived seed.
  void run_raw(std::size_t count, std::uint64_t base_seed,
               const std::uint32_t* indices,
               const std::function<void(std::size_t, std::size_t, std::uint64_t)>& body,
               SweepReport* report) const;

  std::size_t jobs_;
};

}  // namespace snd::runner
