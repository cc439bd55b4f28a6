// The flattened end-of-trial snapshot the invariant oracles inspect.
//
// An Observation is pure data deliberately decoupled from the live
// deployment: oracles are pure functions over it, so unit tests can
// hand-build violating observations and prove each oracle fires, and the
// canonical serialization gives every trial a digest -- the bit-identity
// anchor for FAILCASE replay.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "core/deployment_driver.h"
#include "obs/event.h"

namespace snd::adversary {
class ScenarioRuntime;
}

namespace snd::proptest {

/// Per-agent protocol state at the end of a trial.
struct AgentObservation {
  NodeId id = kNoNode;
  bool alive = true;
  bool discovery_complete = false;
  bool has_record = false;
  /// Record commitment verifies under the deployment master key.
  bool record_valid = false;
  /// For version-0 records: the record lists exactly the tentative set.
  bool record_lists_tentative = false;
  bool master_present = false;
  std::uint32_t record_version = 0;
  std::uint32_t tentative = 0;
  std::uint32_t functional = 0;
  std::uint64_t replay_rejects = 0;
  /// Window-flagged duplicates the transport delivered anyway (nonzero only
  /// under the kReplayWindowBypass planted bug).
  std::uint64_t replay_accepts = 0;
};

struct Observation {
  std::uint64_t trial_seed = 0;

  // -- Radio conservation inputs (sim::Metrics) --------------------------
  std::uint64_t candidates = 0;
  std::uint64_t deliveries = 0;
  std::array<std::uint64_t, obs::kDropCauseCount> drops{};

  // -- Fault-injector accounting (all zero when no plan armed) -----------
  std::uint64_t injected_drops = 0;
  std::uint64_t injected_bursts = 0;
  std::uint64_t injected_extra_copies = 0;
  std::uint64_t injected_delays = 0;
  std::uint64_t injected_corrupts = 0;
  bool fault_plan_armed = false;

  // -- d-safety audit (core::audit_safety) -------------------------------
  double safety_d = 0.0;
  bool safety_holds = true;
  std::uint64_t safety_violations = 0;
  double max_impact_radius = 0.0;

  // -- Adversary scenario telemetry (zero when no scenario armed) --------
  bool adversary_armed = false;
  /// Deployment runs an authenticating direct verifier (anything but
  /// "naive"). Deliberately reported true under the kVerifyBypass planted
  /// bug -- the observation claims verification while the deployment runs
  /// naive, which is exactly the lie relay.bounded / sybil.bounded catch.
  bool verifier_authenticated = false;
  bool relay_armed = false;
  std::uint64_t relay_tunneled = 0;
  /// Tentative entries on benign agents with *no* in-range device claiming
  /// that identity: neighbors that can only have been admitted through a
  /// relay (or a verification bug). Sound only for positionally-exact
  /// verifiers over static topologies; relay.bounded gates on both.
  std::uint64_t relay_overreach = 0;
  bool sybil_armed = false;
  /// Sybil-minted identities present in benign tentative lists.
  std::uint64_t sybil_admitted = 0;
  bool replay_attack_armed = false;
  std::uint64_t replay_captured = 0;
  std::uint64_t replay_injected = 0;
  bool mobility_armed = false;
  std::uint64_t moves_applied = 0;
  bool churn_armed = false;
  std::uint64_t churn_crashes = 0;
  std::uint64_t churn_reboots = 0;
  /// Protocol record-update allowance (record.version_bound oracle input).
  std::uint32_t max_updates = 0;

  std::vector<AgentObservation> agents;

  /// Canonical serialization: fixed field order, integers only where
  /// exactness matters. Equal observations produce equal strings.
  [[nodiscard]] std::string to_json() const;
  /// SHA-256 hex of to_json() -- the trial's bit-identity fingerprint.
  [[nodiscard]] std::string digest() const;
};

/// Snapshots `deployment` after a run: metrics, injector counters, a
/// d-safety audit with radius `safety_d`, per-agent protocol state, and --
/// when `scenario` is non-null -- adversary/mobility telemetry.
[[nodiscard]] Observation observe(const core::SndDeployment& deployment, double safety_d,
                                  const adversary::ScenarioRuntime* scenario = nullptr);

}  // namespace snd::proptest
