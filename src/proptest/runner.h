// The property-suite driver: randomized trials, invariant checking,
// shrinking, FAILCASE emission, and failcase replay.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "proptest/scenario.h"
#include "proptest/shrink.h"
#include "runner/trial_runner.h"

namespace snd::proptest {

struct PropConfig {
  std::size_t trials = 20;
  std::uint64_t base_seed = 1;
  /// Worker threads for the sweep (0 = hardware concurrency).
  std::size_t jobs = 0;
  /// Where FAILCASE_*.json artifacts land ("" = don't write files).
  std::string failcase_dir = ".";
  /// Stop shrinking + emitting after this many failures (the sweep itself
  /// always completes; this only bounds the expensive serial work).
  std::size_t max_failures = 5;
};

/// One reproducible failure: the seed + (shrunk) plan that re-create it.
struct FailCase {
  /// "invariant": an oracle fired.
  std::string kind;
  std::size_t trial = 0;
  std::uint64_t base_seed = 0;
  std::uint64_t trial_seed = 0;
  /// Digest of the failing observation.
  std::string digest;
  std::vector<Violation> violations;
  /// Minimal plan that still reproduces the failure.
  fault::FaultPlan plan;
  /// Adversary families the failing trial armed (empty() = none). Recorded
  /// so replay can re-install the same scenario override and stay
  /// self-contained even when the failure came from an overridden sweep.
  adversary::ScenarioConfig adversary;
  /// Size of the plan before shrinking, and trial re-runs spent shrinking.
  std::size_t unshrunk_actions = 0;
  std::size_t shrink_runs = 0;
  /// Where the artifact was written ("" when failcase_dir disabled writes).
  std::string path;

  [[nodiscard]] std::string to_json() const;
};

struct PropReport {
  std::size_t trials = 0;
  std::size_t passed = 0;
  std::size_t failed = 0;   ///< trials with oracle violations
  std::size_t errored = 0;  ///< trials that threw (counted by TrialRunner)
  std::vector<FailCase> failcases;
  runner::SweepReport sweep;

  [[nodiscard]] bool all_green() const {
    return failed == 0 && errored == 0;
  }
};

/// Runs the full suite: parallel sweep over `trials` seeds derived from
/// `base_seed`, then serial shrinking of every failure (up to
/// max_failures). Deterministic for fixed config (modulo SweepReport
/// timing fields).
[[nodiscard]] PropReport run_property_suite(const PropConfig& config);

/// Outcome of replaying a FAILCASE artifact.
struct ReplayResult {
  bool loaded = false;          ///< artifact parsed successfully
  bool reproduced = false;      ///< the re-run failed again
  bool digest_matches = false;  ///< re-run digest == recorded digest
  std::string expected_digest;
  TrialOutcome outcome;
  std::string error;  ///< parse/load failure explanation
};

/// Re-runs the exact (trial_seed, plan) recorded in a FAILCASE file and
/// checks the run is bit-identical to the recorded failure.
[[nodiscard]] ReplayResult replay_failcase(const std::string& path);

}  // namespace snd::proptest
