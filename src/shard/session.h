// The one path every trial of a sweep takes: resolves the shared
// --shard/--checkpoint/--resume/--canonical-report flag surface, computes
// the pending trial indices (owned by this shard, minus trials already
// checkpointed when resuming), runs them, and keeps every outcome as a
// TrialRecord -- in memory for a plain run, in the .sndshard checkpoint
// file when checkpointing.
//
//   shard::SessionOptions sopt;
//   driver_spec.group(shard::session_flag_group(&sopt));
//   // ... driver_spec.parse(argc, argv) ...
//   shard::Session session(sopt, spec);
//   if (!session.open(std::cerr)) return 2;
//   session.run(pool, body, &report);  // body(trial, seed) -> TrialOutput
//   if (!session.finish(std::cerr)) return 1;
//
// A plain run's report is folded from its records by fold_records, the
// function shard_merge folds shard files with. Table drivers do not use
// this class directly: shard::run_sweep (shard/sweep.h) drives it for them.
// See docs/SHARDING.md.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <mutex>
#include <string>
#include <vector>

#include "runner/trial_runner.h"
#include "shard/format.h"
#include "shard/merge.h"
#include "util/cli.h"
#include "util/driver_spec.h"

namespace snd::shard {

/// The shared flag surface:
///   --shard i/N              run only shard i of N (requires --checkpoint)
///   --checkpoint PATH        persist results to PATH (.sndshard), checkpointing
///                            every --checkpoint-every trials (default 16)
///   --resume                 continue an interrupted PATH instead of truncating
///   --canonical-report PATH  (plain runs only) write the canonical report
struct SessionOptions {
  bool enabled = false;  ///< --checkpoint given (sharded or whole-sweep)
  std::uint32_t shard_index = 0;
  std::uint32_t shard_count = 1;
  std::string checkpoint_path;
  bool resume = false;
  std::size_t checkpoint_every = 16;
  std::string canonical_path;  ///< empty: no canonical report
};

/// Reads the flags above; invalid combinations (bad "i/N", --shard without
/// --checkpoint, --resume without --checkpoint, --checkpoint-every < 1,
/// --canonical-report with --checkpoint) are recorded with
/// cli.record_error() so DriverSpec::parse rejects them with exit code 2.
[[nodiscard]] SessionOptions resolve_session(const util::Cli& cli);

/// The same surface as a DriverSpec flag group: declares --shard,
/// --checkpoint, --resume, --checkpoint-every and --canonical-report and
/// resolves them into `*out` during parse().
[[nodiscard]] util::cli::FlagGroup session_flag_group(SessionOptions* out);

/// What a trial body returns. A trial that fails throws instead.
struct TrialOutput {
  std::vector<double> values;  ///< parallel to ShardSpec::metric_names
  obs::TraceSummary trace;
};

/// body(trial, seed): one trial of the sweep, seeded with
/// util::derive_seed(base_seed, trial). Called from the pool's worker
/// threads; a throw fails the trial, not the sweep.
using TrialBody = std::function<TrialOutput(std::size_t trial, std::uint64_t seed)>;

/// One shard run of one sweep. When checkpointing, every checkpoint_every
/// records the session flushes a self-validating chunk, so a crash loses at
/// most the unflushed buffer.
class Session {
 public:
  /// `spec` carries sweep_id/total_trials/base_seed/metric_names; the shard
  /// coordinates are taken from `options`.
  Session(const SessionOptions& options, ShardSpec spec);

  /// Opens (or resumes) the checkpoint file. No-op for a disabled session.
  /// Prints the reason to `err` and returns false on failure -- including a
  /// resume header that does not match this sweep's spec.
  [[nodiscard]] bool open(std::ostream& err);

  [[nodiscard]] bool enabled() const { return options_.enabled; }
  /// Trials this run still has to execute: the shard's owned indices minus
  /// the ones a resumed checkpoint already holds. Ascending. For a disabled
  /// session this is every trial of the sweep.
  [[nodiscard]] const std::vector<std::uint32_t>& pending() const { return pending_; }
  /// Trials restored from the checkpoint by open() when resuming.
  [[nodiscard]] std::size_t resumed() const { return resumed_; }

  /// Runs every pending trial on `pool`, seeded with
  /// util::derive_seed(base_seed, trial), and keeps its outcome as a
  /// TrialRecord; a body that throws yields a failed record carrying the
  /// exception's message. `report` (not null) gets the timing fields: jobs,
  /// wall_seconds and each trial's wall time in pending() order. A plain
  /// run then sets its canonical fields with fold_records over records(); a
  /// checkpointing run writes its records to the file and only counts the
  /// trials it ran and their failures in `*report` (shard_merge folds the
  /// files).
  void run(const runner::TrialRunner& pool, const TrialBody& body, SweepReport* report);

  /// A plain run's records after run(): one per trial, in trial order.
  /// Empty when checkpointing.
  [[nodiscard]] const std::vector<TrialRecord>& records() const { return records_; }

  /// Final checkpoint + close; false (message on `err`) if any write failed.
  [[nodiscard]] bool finish(std::ostream& err);

 private:
  void keep(TrialRecord record, SweepReport* report);
  [[nodiscard]] double wall_seconds() const;

  SessionOptions options_;
  ShardSpec spec_;
  std::vector<std::uint32_t> pending_;
  std::size_t resumed_ = 0;
  std::chrono::steady_clock::time_point start_;
  std::vector<TrialRecord> records_;
  std::mutex mutex_;  ///< guards writer_, io_error_ and the report's failures
  ShardWriter writer_;
  bool io_error_ = false;
};

}  // namespace snd::shard
