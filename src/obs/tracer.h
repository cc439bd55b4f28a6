// Per-network event tracer: a leveled emit gate, typed protocol counters, a
// bounded ring buffer of recent events, and a pluggable Sink.
//
// Cost model (the contract the micro_sim overhead artifact pins):
//   kOff                 one predicted branch per emit call.
//   kCounters (default)  branch + one or two array increments.
//   kEvents              counters + ring append + sink virtual call
//                        (NullSink: the near-free fast path).
//
// A Tracer belongs to one single-threaded simulation (one sim::Network);
// parallel Monte-Carlo trials each own a private Tracer and fold their
// summaries deterministically in trial order (shard::fold_records).
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "obs/event.h"
#include "obs/sink.h"
#include "obs/summary.h"

namespace snd::obs {

enum class TraceLevel : std::uint8_t {
  kOff = 0,       // emit() returns immediately
  kCounters = 1,  // typed counters only (the default)
  kEvents = 2,    // counters + ring buffer + sink
};

class Tracer {
 public:
  static constexpr std::size_t kDefaultRingCapacity = 4096;

  /// Initialized from the process-wide default configuration
  /// (obs::set_default_trace, normally installed by obs::apply_obs).
  Tracer();
  Tracer(TraceLevel level, std::shared_ptr<Sink> sink,
         std::size_t ring_capacity = kDefaultRingCapacity);

  [[nodiscard]] TraceLevel level() const { return level_; }
  void set_level(TraceLevel level) { level_ = level; }
  void set_sink(std::shared_ptr<Sink> sink) { sink_ = std::move(sink); }
  [[nodiscard]] const std::shared_ptr<Sink>& sink() const { return sink_; }

  /// True when emit() does any work; call sites use this to skip building
  /// Event payloads on the fast path.
  [[nodiscard]] bool active() const { return level_ != TraceLevel::kOff; }
  /// True when full events are recorded (ring + sink).
  [[nodiscard]] bool recording() const { return level_ == TraceLevel::kEvents; }

  void emit(const Event& event) {
    if (level_ == TraceLevel::kOff) return;
    // The kCounters path stays header-inline: dense sweeps emit once per
    // candidate drop, and the two increments cost less than an out-of-line
    // call. Only the kEvents tail (ring + sink) leaves the header.
    ++events_;
    count(event);
    if (level_ == TraceLevel::kEvents) record(event);
  }

  /// Radio-event fast path (tx / delivery / drop): those kinds carry no
  /// typed counter here -- sim::Metrics counts them -- so below kEvents an
  /// emit() reduces to the events_ increment. Call sites use this with
  /// recording() to skip building an Event payload per candidate; totals
  /// stay identical to emitting the full event. `n` counts several at once
  /// (receiver resolution tallies its out-of-range drops in bulk).
  void count_radio_event(std::uint64_t n = 1) {
    if (level_ != TraceLevel::kOff) events_ += n;
  }

  /// Events emitted at any active level, and ring overwrites (an overwrite
  /// is counted, never silent; the sink still saw the overwritten event).
  [[nodiscard]] std::uint64_t events() const { return events_; }
  [[nodiscard]] std::uint64_t ring_overflow() const { return ring_overflow_; }

  /// The most recent events in chronological order (at most ring capacity).
  [[nodiscard]] std::vector<Event> recent() const;
  [[nodiscard]] std::size_t ring_capacity() const { return ring_capacity_; }

  /// Adds this tracer's protocol counters (node_phases, rejects, accepts,
  /// events, ring_overflow) into `summary`. Radio counters come from
  /// sim::Metrics; sim::Network::trace_summary() combines both.
  void accumulate_into(TraceSummary& summary) const;

 private:
  void count(const Event& event) {
    const std::size_t code = event.code;
    switch (event.kind) {
      case EventKind::kPhase:
        if (code < kNodePhaseCount) ++node_phases_[code];
        break;
      case EventKind::kReject:
        if (code < kRejectReasonCount) ++rejects_[code];
        break;
      case EventKind::kAccept:
        if (code < kAcceptViaCount) ++accepts_[code];
        break;
      case EventKind::kInject:
        if (code < kInjectKindCount) ++injects_[code];
        break;
      default:
        // Radio events (tx/delivery/drop) are already counted by the typed
        // sim::Metrics arrays; counting them twice here would double-report.
        break;
    }
  }
  /// kEvents-only slow path: ring append + sink dispatch.
  void record(const Event& event);

  TraceLevel level_ = TraceLevel::kCounters;
  std::shared_ptr<Sink> sink_;
  std::size_t ring_capacity_ = kDefaultRingCapacity;

  std::uint64_t events_ = 0;
  std::uint64_t ring_overflow_ = 0;
  std::array<std::uint64_t, kNodePhaseCount> node_phases_{};
  std::array<std::uint64_t, kRejectReasonCount> rejects_{};
  std::array<std::uint64_t, kAcceptViaCount> accepts_{};
  std::array<std::uint64_t, kInjectKindCount> injects_{};

  /// Circular buffer: next_slot_ is the oldest entry once full.
  std::vector<Event> ring_;
  std::size_t next_slot_ = 0;
};

/// Process-wide defaults new Tracers copy at construction. Drivers install
/// them once at startup (obs::apply_obs) before any worker threads exist;
/// reads are mutex-guarded so mid-run construction from trial workers is
/// safe too.
struct TraceDefaults {
  TraceLevel level = TraceLevel::kCounters;
  std::shared_ptr<Sink> sink;
  std::size_t ring_capacity = Tracer::kDefaultRingCapacity;
};

void set_default_trace(const TraceDefaults& defaults);
[[nodiscard]] TraceDefaults default_trace();

}  // namespace snd::obs
