// The one path every Monte-Carlo table driver returns through. The driver
// declares its flags (add_sweep_flags attaches the shared groups), describes
// its trial grid as a Sweep and passes run_sweep a header, a trial body and
// a table callback; docs/RUNNER.md ("Porting a driver") has an example.
//
// run_sweep owns everything after parsing: the observability setup, the
// shard::Session (plain, checkpointed or sharded), the worker pool,
// --canonical-report, BENCH_<name>.json, the footer line and the exit code.
// A plain run prints the header, runs every trial and passes the records to
// the table callback, which prints the table and returns the claims it
// found broken; run_sweep prints them on stderr and exits 1. A checkpointed
// run prints the header and writes its records to the shard file;
// shard_merge folds the files into the canonical report.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "obs/config.h"
#include "shard/session.h"
#include "util/driver_spec.h"
#include "util/stats.h"

namespace snd::shard {

/// The shared flag groups of a sweep driver, resolved by parse().
struct SweepFlags {
  std::size_t jobs = 1;
  SessionOptions session;
  obs::ObsConfig obs;
};

/// Attaches --jobs, the checkpoint/shard group and the observability group
/// to `spec`, resolving them into `*flags`. Declare the driver's own plain
/// flags first (DriverSpec takes plain flags before groups).
void add_sweep_flags(util::cli::DriverSpec& spec, SweepFlags* flags);

/// A sweep's trial grid: trial i runs seed i % seeds of cell i / seeds, with
/// util::derive_seed(base_seed, i) as its seed.
struct Sweep {
  std::string name;  ///< sweep id; the artifact is BENCH_<name>.json
  std::uint64_t base_seed = 0;
  std::size_t cells = 0;
  std::size_t seeds = 0;
  std::vector<std::string> metrics;  ///< the columns of TrialOutput::values

  [[nodiscard]] std::size_t trials() const { return cells * seeds; }
  [[nodiscard]] std::size_t cell(std::size_t trial) const { return trial / seeds; }
  [[nodiscard]] std::size_t seed_index(std::size_t trial) const { return trial % seeds; }
};

/// A plain run's records, read by cell. Failed trials are left out.
class SweepRecords {
 public:
  SweepRecords(const Sweep& sweep, std::span<const TrialRecord> records,
               const util::Series& trial_micros)
      : sweep_(sweep), records_(records), micros_(trial_micros) {}

  /// Metric `metric` (an index into Sweep::metrics) over the cell's trials,
  /// added in seed order.
  [[nodiscard]] util::RunningStats stats(std::size_t cell, std::size_t metric) const;
  /// Wall time of the cell's trials in microseconds, as the session measured
  /// it. Timing only: it never enters the canonical report.
  [[nodiscard]] util::RunningStats micros(std::size_t cell) const;

 private:
  const Sweep& sweep_;
  std::span<const TrialRecord> records_;
  const util::Series& micros_;
};

/// Prints the table of a plain run and returns what it found wrong: one line
/// per broken claim, naming the row (or per artifact of its own it could not
/// write). An empty list means the table holds.
using SweepTable = std::function<std::vector<std::string>(const SweepRecords&)>;

/// Runs `sweep` and returns the driver's exit code: 2 when the
/// observability setup or the checkpoint cannot be opened; 1 when a trial
/// threw, a claim broke, or the checkpoint, the canonical report or
/// BENCH_<name>.json could not be written; 0 otherwise.
[[nodiscard]] int run_sweep(const util::cli::Driver& cli, const SweepFlags& flags,
                            const Sweep& sweep, const std::string& header,
                            const TrialBody& body, const SweepTable& table);

}  // namespace snd::shard
