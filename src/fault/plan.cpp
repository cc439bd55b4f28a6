#include "fault/plan.h"

#include <array>
#include <cstdio>

#include "obs/event.h"
#include "util/file.h"
#include "util/json.h"

namespace snd::fault {

namespace {

constexpr std::array<std::string_view, kActionKindCount> kActionKindNames = {
    "drop", "duplicate", "delay", "corrupt", "crash", "reboot", "skew", "burst",
};

constexpr std::int64_t kMaxI64 = std::numeric_limits<std::int64_t>::max();
constexpr std::uint64_t kMaxU64 = std::numeric_limits<std::uint64_t>::max();

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

}  // namespace

std::string_view action_kind_name(ActionKind kind) {
  const auto i = static_cast<std::size_t>(kind);
  return i < kActionKindNames.size() ? kActionKindNames[i] : std::string_view("?");
}

std::optional<ActionKind> action_kind_from_name(std::string_view name) {
  for (std::size_t i = 0; i < kActionKindNames.size(); ++i) {
    if (kActionKindNames[i] == name) return static_cast<ActionKind>(i);
  }
  return std::nullopt;
}

bool Match::covers(NodeId from, NodeId to, std::uint8_t tx_phase, std::int64_t t_ns) const {
  if (src != kNoNode && src != from) return false;
  if (dst != kNoNode && dst != to) return false;
  if (phase >= 0 && phase != static_cast<std::int16_t>(tx_phase)) return false;
  return t_ns >= from_ns && t_ns < until_ns;
}

std::string FaultAction::to_json() const {
  std::string out = "{\"kind\":\"";
  out += action_kind_name(kind);
  out += "\"";
  if (match.src != kNoNode) append_number(out, "src", static_cast<std::uint64_t>(match.src));
  if (match.dst != kNoNode) append_number(out, "dst", static_cast<std::uint64_t>(match.dst));
  if (match.phase >= 0 && match.phase < static_cast<std::int16_t>(obs::kPhaseCount)) {
    out += ",\"phase\":\"";
    out += obs::phase_name(static_cast<obs::Phase>(match.phase));
    out += "\"";
  }
  if (match.from_ns != 0) append_number(out, "from_ns", match.from_ns);
  if (match.until_ns != kMaxI64) append_number(out, "until_ns", match.until_ns);
  if (match.probability != 1.0) append_double(out, "p", match.probability);
  if (match.max_hits != kMaxU64) append_number(out, "max_hits", match.max_hits);

  if (kind == ActionKind::kDuplicate && copies != 1) {
    append_number(out, "copies", static_cast<std::uint64_t>(copies));
  }
  if ((kind == ActionKind::kDuplicate || kind == ActionKind::kDelay) && delay_ns != 1'000'000) {
    append_number(out, "delay_ns", delay_ns);
  }
  if (kind == ActionKind::kCorrupt && corrupt_mode == CorruptMode::kTruncate) {
    out += ",\"mode\":\"truncate\"";
  }
  if (node != kNoNode) append_number(out, "node", static_cast<std::uint64_t>(node));
  if (is_lifecycle() && at_ns != 0) append_number(out, "at_ns", at_ns);
  if (kind == ActionKind::kSkew && drift != 1.0) append_double(out, "drift", drift);
  out += "}";
  return out;
}

std::string FaultPlan::to_json() const {
  std::string out = "{\"seed\":" + std::to_string(seed) + ",\"actions\":[";
  for (std::size_t i = 0; i < actions.size(); ++i) {
    if (i > 0) out += ",";
    out += actions[i].to_json();
  }
  out += "]}";
  return out;
}

namespace {

std::optional<FaultAction> parse_action(const util::JsonValue& v) {
  if (!v.is_object()) return std::nullopt;
  const auto kind_name = v.string("kind");
  if (!kind_name) return std::nullopt;
  const auto kind = action_kind_from_name(*kind_name);
  if (!kind) return std::nullopt;

  FaultAction action;
  action.kind = *kind;
  if (const auto src = v.u64("src")) {
    if (*src > kNoNode) return std::nullopt;
    action.match.src = static_cast<NodeId>(*src);
  }
  if (const auto dst = v.u64("dst")) {
    if (*dst > kNoNode) return std::nullopt;
    action.match.dst = static_cast<NodeId>(*dst);
  }
  if (const auto phase = v.string("phase")) {
    const auto parsed = obs::phase_from_name(*phase);
    if (!parsed) return std::nullopt;
    action.match.phase = static_cast<std::int16_t>(*parsed);
  }
  if (const auto from_ns = v.i64("from_ns")) action.match.from_ns = *from_ns;
  if (const auto until_ns = v.i64("until_ns")) action.match.until_ns = *until_ns;
  if (const auto p = v.number("p")) {
    if (*p < 0.0 || *p > 1.0) return std::nullopt;
    action.match.probability = *p;
  }
  if (const auto max_hits = v.u64("max_hits")) action.match.max_hits = *max_hits;
  if (const auto copies = v.u64("copies")) {
    if (*copies == 0 || *copies > 64) return std::nullopt;  // duplication sanity bound
    action.copies = static_cast<std::uint32_t>(*copies);
  }
  if (const auto delay_ns = v.i64("delay_ns")) {
    if (*delay_ns < 0) return std::nullopt;
    action.delay_ns = *delay_ns;
  }
  if (const auto mode = v.string("mode")) {
    if (*mode == "bitflip") {
      action.corrupt_mode = CorruptMode::kBitFlip;
    } else if (*mode == "truncate") {
      action.corrupt_mode = CorruptMode::kTruncate;
    } else {
      return std::nullopt;
    }
  }
  if (const auto node = v.u64("node")) {
    if (*node > kNoNode) return std::nullopt;
    action.node = static_cast<NodeId>(*node);
  }
  if (const auto at_ns = v.i64("at_ns")) {
    if (*at_ns < 0) return std::nullopt;
    action.at_ns = *at_ns;
  }
  if (const auto drift = v.number("drift")) {
    // A non-positive timer multiplier would schedule events in the past.
    if (*drift <= 0.0) return std::nullopt;
    action.drift = *drift;
  }
  // Lifecycle and skew actions need a concrete target.
  if ((action.is_lifecycle() || action.kind == ActionKind::kSkew) && action.node == kNoNode) {
    return std::nullopt;
  }
  return action;
}

}  // namespace

std::optional<FaultPlan> FaultPlan::parse(std::string_view json) {
  const auto doc = util::JsonValue::parse(json);
  if (!doc) return std::nullopt;
  return from_value(*doc);
}

std::optional<FaultPlan> FaultPlan::from_value(const util::JsonValue& doc) {
  if (!doc.is_object()) return std::nullopt;
  FaultPlan plan;
  if (const auto seed = doc.u64("seed")) plan.seed = *seed;
  const util::JsonValue* actions = doc.find("actions");
  if (actions != nullptr) {
    if (!actions->is_array()) return std::nullopt;
    for (const util::JsonValue& entry : actions->items()) {
      auto action = parse_action(entry);
      if (!action) return std::nullopt;
      plan.actions.push_back(*action);
    }
  }
  return plan;
}

bool FaultPlan::save(const std::string& path) const {
  return util::write_file(path, to_json() + "\n");
}

util::cli::FlagGroup plan_flag_group(std::optional<FaultPlan>* out) {
  util::cli::FlagGroup group;
  group.title = "Fault injection";
  util::cli::FlagDef def;
  def.name = "fault-plan";
  def.type = util::cli::FlagType::kString;
  def.value_name = "PATH";
  def.help = "inject the channel faults described by PATH (fault::FaultPlan JSON) "
             "into every trial";
  group.flags.push_back(std::move(def));
  group.resolve = [out](const util::Cli& cli) {
    out->reset();
    const std::string path = cli.get("fault-plan", "");
    if (path.empty()) return;
    *out = FaultPlan::load(path);
    if (!*out) {
      cli.record_error("--fault-plan=" + path + " (cannot load plan file)");
    }
  };
  return group;
}

std::optional<FaultPlan> FaultPlan::load(const std::string& path) {
  const std::optional<std::string> text = util::read_file(path);
  if (!text) return std::nullopt;
  return parse(*text);
}

}  // namespace snd::fault
