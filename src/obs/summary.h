// Per-trial trace summaries. A sweep folds its trials' summaries in trial
// order (shard::fold_records), so the folded summary, including its JSON
// serialization, is byte-identical for any --jobs count and shard split.
#pragma once

#include <array>
#include <cstdint>
#include <string>

#include "obs/event.h"

namespace snd::obs {

/// Messages/bytes pair for one traffic phase.
struct TxCounter {
  std::uint64_t messages = 0;
  std::uint64_t bytes = 0;
};

/// Typed counters distilled from one trial's trace: radio traffic per
/// Phase, drops per DropCause, protocol decisions per reason. Plain
/// uint64 adds, so merging is associative and order-insensitive -- the
/// trial-order fold makes determinism obvious rather than argued.
struct TraceSummary {
  std::array<TxCounter, kPhaseCount> tx{};
  std::array<std::uint64_t, kDropCauseCount> drops{};
  std::uint64_t deliveries = 0;

  std::array<std::uint64_t, kNodePhaseCount> node_phases{};
  std::array<std::uint64_t, kRejectReasonCount> rejects{};
  std::array<std::uint64_t, kAcceptViaCount> accepts{};
  /// Fault-layer perturbations per InjectKind; all zero when no FaultPlan
  /// was armed, in which case the block is omitted from to_json() entirely.
  std::array<std::uint64_t, kInjectKindCount> injects{};

  /// Events emitted (all kinds), and ring-buffer overwrites. Overflow is
  /// counted, never silent: ring_overflow > 0 tells you the in-memory ring
  /// was too small for the run (sinks still saw every event).
  std::uint64_t events = 0;
  std::uint64_t ring_overflow = 0;

  /// Trial summaries folded into this one (1 for a fresh capture).
  std::uint64_t trials = 0;

  void merge(const TraceSummary& other);

  [[nodiscard]] std::uint64_t total_messages() const;
  [[nodiscard]] std::uint64_t total_drops() const;

  [[nodiscard]] std::uint64_t total_injects() const;

  /// One-line JSON object: {"trials":..,"deliveries":..,"tx":{...},
  /// "drops":{...},"node_phases":{...},"rejects":{...},"accepts":{...}}.
  /// tx lists only phases with traffic; the small fixed maps (drops,
  /// node_phases, rejects, accepts) always list every key, so downstream
  /// figure drivers can index without existence checks. Two exceptions keep
  /// clean-run artifacts byte-identical to pre-fault-layer goldens: the
  /// "replay"/"injected" drop causes appear only when non-zero, and the
  /// "injects" block appears only when a fault plan actually fired.
  [[nodiscard]] std::string to_json() const;
};

}  // namespace snd::obs
