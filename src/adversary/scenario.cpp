#include "adversary/scenario.h"

#include <cstdio>

#include "adversary/mobility.h"
#include "adversary/replayer.h"
#include "adversary/sybil.h"
#include "adversary/wormhole.h"
#include "util/file.h"
#include "util/json.h"

namespace snd::adversary {

namespace {

const RelayConfig kRelayDefaults{};
const SybilConfig kSybilDefaults{};
const ReplayConfig kReplayDefaults{};
const MobilityConfig kMobilityDefaults{};
const ChurnConfig kChurnDefaults{};

void append_number(std::string& out, std::string_view key, std::uint64_t value) {
  out += ",\"";
  out += key;
  out += "\":" + std::to_string(value);
}

void append_number(std::string& out, std::string_view key, std::int64_t value) {
  out += ",\"";
  out += key;
  out += "\":" + std::to_string(value);
}

void append_double(std::string& out, std::string_view key, double value) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  out += ",\"";
  out += key;
  out += "\":";
  out += buf;
}

/// Starts a family sub-object. Every sub-serializer below emits fields with
/// a leading comma, so the object opens with a placeholder member that also
/// serves as a format tag.
void open_family(std::string& out, bool& first, std::string_view family) {
  if (!first) out += ",";
  first = false;
  out += "\"";
  out += family;
  out += "\":{\"on\":true";
}

bool fraction_ok(double v) { return v >= 0.0 && v <= 1.0; }

std::optional<RelayConfig> parse_relay(const util::JsonValue& v) {
  RelayConfig c;
  if (const auto ax = v.number("ax")) c.ax = *ax;
  if (const auto ay = v.number("ay")) c.ay = *ay;
  if (const auto bx = v.number("bx")) c.bx = *bx;
  if (const auto by = v.number("by")) c.by = *by;
  if (const auto lat = v.i64("latency_ns")) c.tunnel_latency_ns = *lat;
  if (!fraction_ok(c.ax) || !fraction_ok(c.ay) || !fraction_ok(c.bx) || !fraction_ok(c.by)) {
    return std::nullopt;
  }
  if (c.tunnel_latency_ns < 0) return std::nullopt;
  return c;
}

std::optional<SybilConfig> parse_sybil(const util::JsonValue& v) {
  SybilConfig c;
  if (const auto x = v.number("x")) c.x = *x;
  if (const auto y = v.number("y")) c.y = *y;
  if (const auto n = v.u64("identities")) {
    if (*n == 0 || *n > 4096) return std::nullopt;  // flood sanity bound
    c.identities = static_cast<std::uint32_t>(*n);
  }
  if (const auto base = v.u64("base")) {
    if (*base == 0 || *base + 4096 > kNoNode) return std::nullopt;
    c.base = static_cast<NodeId>(*base);
  }
  if (!fraction_ok(c.x) || !fraction_ok(c.y)) return std::nullopt;
  return c;
}

std::optional<ReplayConfig> parse_replay(const util::JsonValue& v) {
  ReplayConfig c;
  if (const auto x = v.number("x")) c.x = *x;
  if (const auto y = v.number("y")) c.y = *y;
  if (const auto delay = v.i64("delay_ns")) c.delay_ns = *delay;
  if (const auto n = v.u64("max_captures")) {
    if (*n == 0 || *n > 65536) return std::nullopt;
    c.max_captures = static_cast<std::uint32_t>(*n);
  }
  if (!fraction_ok(c.x) || !fraction_ok(c.y)) return std::nullopt;
  if (c.delay_ns < 0) return std::nullopt;
  return c;
}

std::optional<MobilityConfig> parse_mobility(const util::JsonValue& v) {
  MobilityConfig c;
  if (const auto n = v.u64("movers")) {
    if (*n == 0 || *n > 1'000'000) return std::nullopt;
    c.movers = static_cast<std::uint32_t>(*n);
  }
  if (const auto s = v.number("speed_mps")) c.speed_mps = *s;
  if (const auto step = v.i64("step_ns")) c.step_ns = *step;
  if (const auto steps = v.u64("steps")) {
    if (*steps == 0 || *steps > 1'000'000) return std::nullopt;
    c.steps = static_cast<std::uint32_t>(*steps);
  }
  if (const auto seed = v.u64("seed")) c.seed = *seed;
  if (c.speed_mps <= 0.0 || c.step_ns <= 0) return std::nullopt;
  return c;
}

std::optional<ChurnConfig> parse_churn(const util::JsonValue& v) {
  ChurnConfig c;
  if (const auto n = v.u64("victims")) {
    if (*n == 0 || *n > 1'000'000) return std::nullopt;
    c.victims = static_cast<std::uint32_t>(*n);
  }
  if (const auto n = v.u64("cycles")) {
    if (*n == 0 || *n > 100'000) return std::nullopt;
    c.cycles = static_cast<std::uint32_t>(*n);
  }
  if (const auto t = v.i64("first_at_ns")) c.first_at_ns = *t;
  if (const auto t = v.i64("period_ns")) c.period_ns = *t;
  if (const auto t = v.i64("down_ns")) c.down_ns = *t;
  if (const auto seed = v.u64("seed")) c.seed = *seed;
  if (c.first_at_ns < 0 || c.period_ns <= 0 || c.down_ns <= 0) return std::nullopt;
  return c;
}

}  // namespace

std::string ScenarioConfig::to_json() const {
  std::string out = "{";
  bool first = true;
  if (relay) {
    open_family(out, first, "relay");
    const RelayConfig& c = *relay;
    if (c.ax != kRelayDefaults.ax) append_double(out, "ax", c.ax);
    if (c.ay != kRelayDefaults.ay) append_double(out, "ay", c.ay);
    if (c.bx != kRelayDefaults.bx) append_double(out, "bx", c.bx);
    if (c.by != kRelayDefaults.by) append_double(out, "by", c.by);
    if (c.tunnel_latency_ns != kRelayDefaults.tunnel_latency_ns) {
      append_number(out, "latency_ns", c.tunnel_latency_ns);
    }
    out += "}";
  }
  if (sybil) {
    open_family(out, first, "sybil");
    const SybilConfig& c = *sybil;
    if (c.x != kSybilDefaults.x) append_double(out, "x", c.x);
    if (c.y != kSybilDefaults.y) append_double(out, "y", c.y);
    if (c.identities != kSybilDefaults.identities) {
      append_number(out, "identities", static_cast<std::uint64_t>(c.identities));
    }
    if (c.base != kSybilDefaults.base) {
      append_number(out, "base", static_cast<std::uint64_t>(c.base));
    }
    out += "}";
  }
  if (replay) {
    open_family(out, first, "replay");
    const ReplayConfig& c = *replay;
    if (c.x != kReplayDefaults.x) append_double(out, "x", c.x);
    if (c.y != kReplayDefaults.y) append_double(out, "y", c.y);
    if (c.delay_ns != kReplayDefaults.delay_ns) append_number(out, "delay_ns", c.delay_ns);
    if (c.max_captures != kReplayDefaults.max_captures) {
      append_number(out, "max_captures", static_cast<std::uint64_t>(c.max_captures));
    }
    out += "}";
  }
  if (mobility) {
    open_family(out, first, "mobility");
    const MobilityConfig& c = *mobility;
    if (c.movers != kMobilityDefaults.movers) {
      append_number(out, "movers", static_cast<std::uint64_t>(c.movers));
    }
    if (c.speed_mps != kMobilityDefaults.speed_mps) append_double(out, "speed_mps", c.speed_mps);
    if (c.step_ns != kMobilityDefaults.step_ns) append_number(out, "step_ns", c.step_ns);
    if (c.steps != kMobilityDefaults.steps) {
      append_number(out, "steps", static_cast<std::uint64_t>(c.steps));
    }
    if (c.seed != kMobilityDefaults.seed) append_number(out, "seed", c.seed);
    out += "}";
  }
  if (churn) {
    open_family(out, first, "churn");
    const ChurnConfig& c = *churn;
    if (c.victims != kChurnDefaults.victims) {
      append_number(out, "victims", static_cast<std::uint64_t>(c.victims));
    }
    if (c.cycles != kChurnDefaults.cycles) {
      append_number(out, "cycles", static_cast<std::uint64_t>(c.cycles));
    }
    if (c.first_at_ns != kChurnDefaults.first_at_ns) {
      append_number(out, "first_at_ns", c.first_at_ns);
    }
    if (c.period_ns != kChurnDefaults.period_ns) append_number(out, "period_ns", c.period_ns);
    if (c.down_ns != kChurnDefaults.down_ns) append_number(out, "down_ns", c.down_ns);
    if (c.seed != kChurnDefaults.seed) append_number(out, "seed", c.seed);
    out += "}";
  }
  out += "}";
  return out;
}

std::optional<ScenarioConfig> ScenarioConfig::parse(std::string_view json) {
  const auto doc = util::JsonValue::parse(json);
  if (!doc) return std::nullopt;
  return from_value(*doc);
}

std::optional<ScenarioConfig> ScenarioConfig::from_value(const util::JsonValue& doc) {
  if (!doc.is_object()) return std::nullopt;
  ScenarioConfig config;
  for (const auto& [key, value] : doc.members()) {
    if (!value.is_object()) return std::nullopt;
    if (key == "relay") {
      config.relay = parse_relay(value);
      if (!config.relay) return std::nullopt;
    } else if (key == "sybil") {
      config.sybil = parse_sybil(value);
      if (!config.sybil) return std::nullopt;
    } else if (key == "replay") {
      config.replay = parse_replay(value);
      if (!config.replay) return std::nullopt;
    } else if (key == "mobility") {
      config.mobility = parse_mobility(value);
      if (!config.mobility) return std::nullopt;
    } else if (key == "churn") {
      config.churn = parse_churn(value);
      if (!config.churn) return std::nullopt;
    } else {
      return std::nullopt;  // unknown family
    }
  }
  return config;
}

bool ScenarioConfig::save(const std::string& path) const {
  return util::write_file(path, to_json() + "\n");
}

std::optional<ScenarioConfig> ScenarioConfig::load(const std::string& path) {
  const std::optional<std::string> text = util::read_file(path);
  if (!text) return std::nullopt;
  return parse(*text);
}

bool ScenarioConfig::arm_family(std::string_view family) {
  if (family == "relay") {
    relay = RelayConfig{};
  } else if (family == "sybil") {
    sybil = SybilConfig{};
  } else if (family == "replay") {
    replay = ReplayConfig{};
  } else if (family == "mobility") {
    mobility = MobilityConfig{};
  } else if (family == "churn") {
    churn = ChurnConfig{};
  } else {
    return false;
  }
  return true;
}

util::cli::FlagGroup scenario_flag_group(std::optional<ScenarioConfig>* out) {
  util::cli::FlagGroup group;
  group.title = "Adversary scenarios";
  {
    util::cli::FlagDef def;
    def.name = "adversary";
    def.type = util::cli::FlagType::kString;
    def.value_name = "FAMILIES";
    def.help = "arm adversary/mobility families with default parameters: comma-separated "
               "list of relay, sybil, replay, mobility, churn";
    group.flags.push_back(std::move(def));
  }
  {
    util::cli::FlagDef def;
    def.name = "adversary-config";
    def.type = util::cli::FlagType::kString;
    def.value_name = "PATH";
    def.help = "load a full adversary::ScenarioConfig JSON (excludes --adversary)";
    group.flags.push_back(std::move(def));
  }
  group.resolve = [out](const util::Cli& cli) {
    out->reset();
    const std::string families = cli.get("adversary", "");
    const std::string path = cli.get("adversary-config", "");
    if (!families.empty() && !path.empty()) {
      cli.record_error("--adversary and --adversary-config are mutually exclusive");
      return;
    }
    if (!families.empty()) {
      ScenarioConfig config;
      std::string_view rest = families;
      while (!rest.empty()) {
        const std::size_t comma = rest.find(',');
        const std::string_view family = rest.substr(0, comma);
        rest = comma == std::string_view::npos ? std::string_view{} : rest.substr(comma + 1);
        if (family.empty()) continue;
        if (!config.arm_family(family)) {
          cli.record_error("--adversary=" + families + " (unknown family '" +
                           std::string(family) + "')");
          return;
        }
      }
      if (config.empty()) {
        cli.record_error("--adversary=" + families + " (no family named)");
        return;
      }
      *out = std::move(config);
      return;
    }
    if (!path.empty()) {
      *out = ScenarioConfig::load(path);
      if (!*out) {
        cli.record_error("--adversary-config=" + path + " (cannot load scenario config)");
      }
    }
  };
  return group;
}

// -- ScenarioRuntime --------------------------------------------------------

namespace {

util::Vec2 field_point(const util::Rect& field, double fx, double fy) {
  return {field.lo.x + fx * field.width(), field.lo.y + fy * field.height()};
}

}  // namespace

ScenarioRuntime::ScenarioRuntime(core::SndDeployment& deployment, ScenarioConfig config)
    : deployment_(deployment), config_(std::move(config)) {}

ScenarioRuntime::~ScenarioRuntime() = default;

void ScenarioRuntime::arm(const std::vector<NodeId>& pool) {
  if (armed_) return;
  armed_ = true;
  sim::Network& network = deployment_.network();
  const util::Rect field = deployment_.config().field;

  if (config_.relay) {
    const RelayConfig& c = *config_.relay;
    wormhole_ = std::make_unique<Wormhole>(network, field_point(field, c.ax, c.ay),
                                           field_point(field, c.bx, c.by),
                                           sim::Time::nanoseconds(c.tunnel_latency_ns));
    wormhole_->start();
  }
  if (config_.sybil) {
    const SybilConfig& c = *config_.sybil;
    sybil_ = std::make_unique<SybilAttacker>(network, field_point(field, c.x, c.y), c.base,
                                             c.identities);
    sybil_->start();
  }
  if (config_.replay) {
    const ReplayConfig& c = *config_.replay;
    replayer_ = std::make_unique<ReplayAttacker>(network, field_point(field, c.x, c.y),
                                                 sim::Time::nanoseconds(c.delay_ns),
                                                 c.max_captures);
    replayer_->start();
  }
  if (config_.mobility) {
    const MobilityConfig& c = *config_.mobility;
    // Movers are the first `movers` pool identities' live devices; the pool
    // order is the caller's deploy order, so the walk is deterministic.
    std::vector<sim::DeviceId> movers;
    for (const NodeId identity : pool) {
      if (movers.size() >= c.movers) break;
      const auto devices = network.devices_with_identity(identity);
      if (!devices.empty()) movers.push_back(devices.front());
    }
    mobility_ = std::make_unique<WaypointMobility>(network, field, std::move(movers),
                                                   c.speed_mps,
                                                   sim::Time::nanoseconds(c.step_ns), c.steps,
                                                   c.seed);
    mobility_->schedule();
  }
  if (config_.churn) {
    const ChurnConfig& c = *config_.churn;
    churn_ = std::make_unique<ChurnSchedule>(deployment_, pool, c.victims, c.cycles,
                                             sim::Time::nanoseconds(c.first_at_ns),
                                             sim::Time::nanoseconds(c.period_ns),
                                             sim::Time::nanoseconds(c.down_ns), c.seed);
    churn_->schedule();
  }
}

std::uint64_t ScenarioRuntime::relay_tunneled() const {
  return wormhole_ ? wormhole_->packets_tunneled() : 0;
}

std::uint64_t ScenarioRuntime::sybil_sent() const { return sybil_ ? sybil_->packets_sent() : 0; }

std::uint64_t ScenarioRuntime::replay_captured() const {
  return replayer_ ? replayer_->captured() : 0;
}

std::uint64_t ScenarioRuntime::replay_injected() const {
  return replayer_ ? replayer_->injected() : 0;
}

std::uint64_t ScenarioRuntime::moves_applied() const {
  return mobility_ ? mobility_->moves_applied() : 0;
}

std::uint64_t ScenarioRuntime::churn_crashes() const { return churn_ ? churn_->crashes() : 0; }

std::uint64_t ScenarioRuntime::churn_reboots() const { return churn_ ? churn_->reboots() : 0; }

std::uint64_t ScenarioRuntime::attacker_events() const {
  return relay_tunneled() + sybil_sent() + replay_captured() + replay_injected() +
         moves_applied() + churn_crashes() + churn_reboots();
}

}  // namespace snd::adversary
