// Pluggable trace outputs. A Tracer at TraceLevel::kEvents forwards every
// Event to its Sink; harness log lines (util::log_line) are routed through
// the same interface so log output, trace output, and their JSON forms
// share one configuration surface (see obs/config.h).
#pragma once

#include <cstdio>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>

#include "obs/event.h"
#include "util/log.h"

namespace snd::obs {

class Sink {
 public:
  virtual ~Sink() = default;

  virtual void on_event(const Event& event) = 0;

  /// Harness log line routed from util::log_line (already level-filtered).
  /// Default: classic "[LEVEL] message" to stderr, so installing a sink for
  /// events never silently eats diagnostics.
  virtual void on_log(util::LogLevel level, std::string_view message);

  virtual void flush() {}
};

/// Discards events (keeps the default stderr log behavior). The cheapest
/// enabled configuration -- used by the overhead benchmarks to price the
/// emit path without any serialization.
class NullSink final : public Sink {
 public:
  void on_event(const Event&) override {}
};

/// Writes each event (and routed log line) as one self-describing JSON
/// object per line, the schema documented in docs/OBSERVABILITY.md. Lines
/// are written atomically under a mutex, so concurrent trials interleave at
/// line granularity -- every line stays individually parseable.
class JsonLinesSink final : public Sink {
 public:
  /// Opens `path` for writing ("-" means stdout). Check ok() before use.
  explicit JsonLinesSink(const std::string& path);
  ~JsonLinesSink() override;

  [[nodiscard]] bool ok() const { return file_ != nullptr; }

  void on_event(const Event& event) override;
  void on_log(util::LogLevel level, std::string_view message) override;
  void flush() override;

  /// Serializes one event to its JSON-line form (no trailing newline).
  /// Exposed for tests and schema documentation.
  [[nodiscard]] static std::string to_json(const Event& event);

 private:
  void write_line(const std::string& line);

  std::mutex mutex_;
  std::FILE* file_ = nullptr;
  bool owns_file_ = false;
};

}  // namespace snd::obs
