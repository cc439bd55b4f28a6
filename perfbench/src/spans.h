// In-memory span log for the benchmark's traced runs.
//
// A span is one timed call into a layer, recorded from the benchmark's own
// code around that call: a name ("core.discovery", "service.apply", ...),
// start and end on the steady clock, the span that caused it, the trial or
// pass it belongs to, and named counts read at the same boundaries (events,
// deliveries, hash ops, ...). Spans stay in memory until the run ends and
// are then written out as JSON lines. Per-layer metrics are computed from
// this log, so the numbers and the written trace cannot disagree.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Nanoseconds between two steady-clock readings.
[[nodiscard]] inline std::int64_t elapsed_ns(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(to - from).count();
}

struct Span {
  /// Static string naming the layer call; never owned.
  const char* name = "";
  std::uint64_t id = 0;
  /// Enclosing span (0 = none).
  std::uint64_t parent = 0;
  /// Trial or pass the span belongs to; spans of one trial share it.
  std::uint64_t trace = 0;
  Clock::time_point start;
  Clock::time_point end;
  std::vector<std::pair<const char*, double>> counts;

  [[nodiscard]] std::int64_t duration_ns() const { return elapsed_ns(start, end); }
  /// The named count, or 0 when the span did not record it.
  [[nodiscard]] double count(std::string_view key) const;
};

class SpanLog {
 public:
  /// Opens a span starting now; returns its id.
  std::uint64_t begin(const char* name, std::uint64_t parent, std::uint64_t trace);
  /// Closes span `id` now.
  void end(std::uint64_t id);
  void count(std::uint64_t id, const char* key, double value);

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }
  [[nodiscard]] const Span& span(std::uint64_t id) const { return spans_[id - 1]; }

  /// Durations (ns) of every span called `name`, in recording order.
  [[nodiscard]] std::vector<double> durations(std::string_view name) const;
  /// Duration divided by the span's `per` count, for spans timing a batch
  /// of calls (ns per call).
  [[nodiscard]] std::vector<double> per_call(std::string_view name, std::string_view per) const;
  /// Sum of count `key` over every span called `name`.
  [[nodiscard]] double total(std::string_view name, std::string_view key) const;
  /// Number of spans called `name`.
  [[nodiscard]] std::size_t size(std::string_view name) const;

  /// Writes one JSON object per span (times in ns from the first span),
  /// preceded by a header line carrying `header` (a JSON object).
  [[nodiscard]] bool write_jsonl(const std::string& path, const std::string& header) const;

 private:
  std::vector<Span> spans_;
};

/// Opens a span on construction and closes it on destruction; inert when
/// `log` is null, so untraced code paths share the call sites.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, const char* name, std::uint64_t parent, std::uint64_t trace)
      : log_(log), id_(log != nullptr ? log->begin(name, parent, trace) : 0) {}
  ~ScopedSpan() {
    if (log_ != nullptr) log_->end(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  [[nodiscard]] std::uint64_t id() const { return id_; }
  void count(const char* key, double value) {
    if (log_ != nullptr) log_->count(id_, key, value);
  }

 private:
  SpanLog* log_;
  std::uint64_t id_;
};

}  // namespace perfbench
