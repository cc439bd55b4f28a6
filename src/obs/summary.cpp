#include "obs/summary.h"

namespace snd::obs {

void TraceSummary::merge(const TraceSummary& other) {
  for (std::size_t i = 0; i < kPhaseCount; ++i) {
    tx[i].messages += other.tx[i].messages;
    tx[i].bytes += other.tx[i].bytes;
  }
  for (std::size_t i = 0; i < kDropCauseCount; ++i) drops[i] += other.drops[i];
  deliveries += other.deliveries;
  for (std::size_t i = 0; i < kNodePhaseCount; ++i) node_phases[i] += other.node_phases[i];
  for (std::size_t i = 0; i < kRejectReasonCount; ++i) rejects[i] += other.rejects[i];
  for (std::size_t i = 0; i < kAcceptViaCount; ++i) accepts[i] += other.accepts[i];
  for (std::size_t i = 0; i < kInjectKindCount; ++i) injects[i] += other.injects[i];
  events += other.events;
  ring_overflow += other.ring_overflow;
  trials += other.trials;
}

std::uint64_t TraceSummary::total_messages() const {
  std::uint64_t sum = 0;
  for (const TxCounter& c : tx) sum += c.messages;
  return sum;
}

std::uint64_t TraceSummary::total_drops() const {
  std::uint64_t sum = 0;
  for (std::uint64_t d : drops) sum += d;
  return sum;
}

std::uint64_t TraceSummary::total_injects() const {
  std::uint64_t sum = 0;
  for (std::uint64_t i : injects) sum += i;
  return sum;
}

namespace {

void append_field(std::string& out, bool& first, std::string_view key) {
  if (!first) out += ",";
  first = false;
  out += "\"";
  out += key;
  out += "\":";
}

void append_u64(std::string& out, bool& first, std::string_view key, std::uint64_t value) {
  append_field(out, first, key);
  out += std::to_string(value);
}

}  // namespace

std::string TraceSummary::to_json() const {
  std::string out = "{";
  bool first = true;
  append_u64(out, first, "trials", trials);
  append_u64(out, first, "messages", total_messages());
  append_u64(out, first, "deliveries", deliveries);
  append_u64(out, first, "dropped", total_drops());
  append_u64(out, first, "events", events);
  append_u64(out, first, "ring_overflow", ring_overflow);

  append_field(out, first, "tx");
  out += "{";
  bool first_tx = true;
  for (std::size_t i = 0; i < kPhaseCount; ++i) {
    if (tx[i].messages == 0 && tx[i].bytes == 0) continue;
    append_field(out, first_tx, phase_name(static_cast<Phase>(i)));
    out += "{\"messages\":" + std::to_string(tx[i].messages) +
           ",\"bytes\":" + std::to_string(tx[i].bytes) + "}";
  }
  out += "}";

  append_field(out, first, "drops");
  out += "{";
  bool first_drop = true;
  for (std::size_t i = 0; i < kDropCauseCount; ++i) {
    // Channel causes always appear (downstream indexes without existence
    // checks); the post-seed replay/injected causes only when non-zero so a
    // clean run's artifact matches its pre-fault-layer golden byte for byte.
    if (i >= kChannelDropCauseCount && drops[i] == 0) continue;
    append_u64(out, first_drop, drop_cause_name(static_cast<DropCause>(i)), drops[i]);
  }
  out += "}";

  if (total_injects() > 0) {
    append_field(out, first, "injects");
    out += "{";
    bool first_inject = true;
    for (std::size_t i = 0; i < kInjectKindCount; ++i) {
      append_u64(out, first_inject, inject_kind_name(static_cast<InjectKind>(i)), injects[i]);
    }
    out += "}";
  }

  append_field(out, first, "node_phases");
  out += "{";
  bool first_phase = true;
  for (std::size_t i = 0; i < kNodePhaseCount; ++i) {
    append_u64(out, first_phase, node_phase_name(static_cast<NodePhase>(i)), node_phases[i]);
  }
  out += "}";

  append_field(out, first, "rejects");
  out += "{";
  bool first_reject = true;
  for (std::size_t i = 0; i < kRejectReasonCount; ++i) {
    append_u64(out, first_reject, reject_reason_name(static_cast<RejectReason>(i)), rejects[i]);
  }
  out += "}";

  append_field(out, first, "accepts");
  out += "{";
  bool first_accept = true;
  for (std::size_t i = 0; i < kAcceptViaCount; ++i) {
    append_u64(out, first_accept, accept_via_name(static_cast<AcceptVia>(i)), accepts[i]);
  }
  out += "}}";
  return out;
}

}  // namespace snd::obs
