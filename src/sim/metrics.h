// Per-network counters for the overhead experiments (§4.3, §4.5.3): every
// transmission is charged to a protocol phase so benches can report
// messages/bytes per phase, and every undelivered packet is charged to a
// typed obs::DropCause. The hot path is a fixed array indexed by obs::Phase;
// strings appear only at export time (by_category()).
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <string>

#include "obs/event.h"
#include "obs/summary.h"

namespace snd::sim {

class Metrics {
 public:
  using Counter = obs::TxCounter;

  void count_tx(obs::Phase phase, std::size_t bytes) {
    auto& counter = phases_[static_cast<std::size_t>(phase)];
    ++counter.messages;
    counter.bytes += bytes;
  }

  void count_delivery() { ++deliveries_; }
  void count_drop(obs::DropCause cause, std::uint64_t n = 1) {
    drops_[static_cast<std::size_t>(cause)] += n;
  }

  /// One per delivery candidate that reached the channel (in range check and
  /// beyond) plus one per injected extra copy. Feeds the proptest
  /// conservation oracle: candidates == deliveries + channel drops. Not
  /// serialized into reports -- purely an internal invariant anchor.
  void count_candidate(std::uint64_t n = 1) { candidates_ += n; }

  [[nodiscard]] Counter total() const;
  [[nodiscard]] Counter phase(obs::Phase phase) const {
    return phases_[static_cast<std::size_t>(phase)];
  }
  /// Export-time view: phase names with non-zero traffic. Built on demand
  /// -- not for hot paths.
  [[nodiscard]] std::map<std::string, Counter, std::less<>> by_category() const;

  [[nodiscard]] std::uint64_t deliveries() const { return deliveries_; }
  [[nodiscard]] std::uint64_t candidates() const { return candidates_; }
  [[nodiscard]] std::uint64_t drops(obs::DropCause cause) const {
    return drops_[static_cast<std::size_t>(cause)];
  }
  [[nodiscard]] std::uint64_t total_drops() const;

  /// Adds this network's radio accounting (tx per phase, deliveries, drops
  /// per cause) to `summary`.
  void accumulate_into(obs::TraceSummary& summary) const;

  void reset();

 private:
  std::array<Counter, obs::kPhaseCount> phases_{};
  std::array<std::uint64_t, obs::kDropCauseCount> drops_{};
  std::uint64_t deliveries_ = 0;
  std::uint64_t candidates_ = 0;
};

}  // namespace snd::sim
