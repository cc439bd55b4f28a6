// One configuration surface for harness logging, event tracing, and JSON
// output, shared by every bench and example binary:
//
//   --log   <debug|info|warn|error|off>
//   --trace <off|counters|events>
//   --trace-json <path|->
//
// A driver declares the three flags by adding obs_flag_group() to its
// util::cli::DriverSpec; bad values are recorded on the Cli, so
// DriverSpec::parse rejects them (exit non-zero).
#pragma once

#include <iosfwd>
#include <string>

#include "obs/tracer.h"
#include "util/cli.h"
#include "util/driver_spec.h"
#include "util/log.h"

namespace snd::obs {

struct ObsConfig {
  util::LogLevel log_level = util::LogLevel::kWarn;
  TraceLevel trace_level = TraceLevel::kCounters;
  /// JSON-lines destination for events + routed log lines; empty = none,
  /// "-" = stdout. A non-empty path raises trace_level to kEvents.
  std::string trace_json_path;
};

/// "off" / "counters" / "events" (numeric "0".."2" accepted too).
[[nodiscard]] std::string_view trace_level_name(TraceLevel level);
[[nodiscard]] std::optional<TraceLevel> trace_level_from_name(std::string_view name);

/// Reads the flags above. Unknown values are recorded with
/// cli.record_error(), so the Cli's validate() fails.
[[nodiscard]] ObsConfig resolve_obs(const util::Cli& cli);

/// The same surface as a DriverSpec flag group: declares the three flags and
/// resolves them into `*out` during parse().
[[nodiscard]] util::cli::FlagGroup obs_flag_group(ObsConfig* out);

/// Installs `config` process-wide: sets the util log level, re-routes
/// util::log_line through the active Sink, and makes every subsequently
/// constructed Tracer (one per sim::Network) start with this level/sink.
/// Returns false (message on `err`) if the JSON-lines file cannot be opened.
[[nodiscard]] bool apply_obs(const ObsConfig& config, std::ostream& err);

}  // namespace snd::obs
