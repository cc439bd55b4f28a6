#include "obs/config.h"

#include <memory>
#include <ostream>
#include <utility>

#include "obs/sink.h"

namespace snd::obs {

namespace {

/// Keeps classic stderr logging when no JSON-lines sink is configured: events
/// are dropped (the Tracer ring still records them), log lines use the base
/// Sink formatting.
struct StderrSink final : Sink {
  void on_event(const Event&) override {}
};

}  // namespace

std::string_view trace_level_name(TraceLevel level) {
  switch (level) {
    case TraceLevel::kOff:
      return "off";
    case TraceLevel::kCounters:
      return "counters";
    case TraceLevel::kEvents:
      return "events";
  }
  return "?";
}

std::optional<TraceLevel> trace_level_from_name(std::string_view name) {
  for (TraceLevel level : {TraceLevel::kOff, TraceLevel::kCounters, TraceLevel::kEvents}) {
    if (name == trace_level_name(level)) return level;
  }
  if (name.size() == 1 && name[0] >= '0' && name[0] <= '2') {
    return static_cast<TraceLevel>(name[0] - '0');
  }
  return std::nullopt;
}

ObsConfig resolve_obs(const util::Cli& cli) {
  ObsConfig config;

  if (cli.has("log")) {
    const std::string value = cli.get("log", "");
    if (auto level = util::log_level_from_name(value)) {
      config.log_level = *level;
    } else {
      cli.record_error("--log: unknown log level '" + value +
                       "' (expected debug|info|warn|error|off)");
    }
  }

  bool trace_explicit = false;
  if (cli.has("trace")) {
    const std::string value = cli.get("trace", "");
    if (auto level = trace_level_from_name(value)) {
      config.trace_level = *level;
      trace_explicit = true;
    } else {
      cli.record_error("--trace: unknown trace level '" + value +
                       "' (expected off|counters|events)");
    }
  }

  if (cli.has("trace-json")) {
    config.trace_json_path = cli.get("trace-json", "");
    if (config.trace_level == TraceLevel::kOff && trace_explicit) {
      cli.record_error("--trace-json: conflicts with --trace off (JSON-lines output needs "
                       "events)");
    } else {
      // Writing the event stream only makes sense at full verbosity.
      config.trace_level = TraceLevel::kEvents;
    }
  }

  return config;
}

util::cli::FlagGroup obs_flag_group(ObsConfig* out) {
  using util::cli::FlagDef;
  using util::cli::FlagType;
  util::cli::FlagGroup group;
  group.title = "Observability";
  const auto add = [&group](const char* name, const char* value_name, const char* help) {
    FlagDef def;
    def.name = name;
    def.type = FlagType::kString;
    def.value_name = value_name;
    def.help = help;
    group.flags.push_back(std::move(def));
  };
  add("log", "LEVEL", "log verbosity: debug|info|warn|error|off");
  add("trace", "LEVEL", "event tracing: off|counters|events");
  add("trace-json", "PATH", "write JSON-lines event trace to PATH, '-' for stdout");
  group.resolve = [out](const util::Cli& cli) { *out = resolve_obs(cli); };
  return group;
}

bool apply_obs(const ObsConfig& config, std::ostream& err) {
  util::set_log_level(config.log_level);

  std::shared_ptr<Sink> sink;
  if (!config.trace_json_path.empty()) {
    auto json = std::make_shared<JsonLinesSink>(config.trace_json_path);
    if (!json->ok()) {
      err << "error: cannot open trace output '" << config.trace_json_path << "'\n";
      return false;
    }
    sink = std::move(json);
  } else {
    sink = std::make_shared<StderrSink>();
  }

  TraceDefaults defaults;
  defaults.level = config.trace_level;
  defaults.sink = sink;
  set_default_trace(defaults);

  // Route already-filtered log lines through the same sink so log output and
  // trace output share one destination (and one JSON schema when applicable).
  util::set_log_sink([sink](util::LogLevel level, const std::string& message) {
    sink->on_log(level, message);
  });
  return true;
}

}  // namespace snd::obs
