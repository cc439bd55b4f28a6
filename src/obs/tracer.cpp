#include "obs/tracer.h"

#include <mutex>

namespace snd::obs {

namespace {

std::mutex g_defaults_mutex;
TraceDefaults& defaults_storage() {
  static TraceDefaults defaults;
  return defaults;
}

}  // namespace

void set_default_trace(const TraceDefaults& defaults) {
  const std::scoped_lock lock(g_defaults_mutex);
  defaults_storage() = defaults;
}

TraceDefaults default_trace() {
  const std::scoped_lock lock(g_defaults_mutex);
  return defaults_storage();
}

Tracer::Tracer() {
  const TraceDefaults defaults = default_trace();
  level_ = defaults.level;
  sink_ = defaults.sink;
  ring_capacity_ = defaults.ring_capacity > 0 ? defaults.ring_capacity : 1;
}

Tracer::Tracer(TraceLevel level, std::shared_ptr<Sink> sink, std::size_t ring_capacity)
    : level_(level), sink_(std::move(sink)), ring_capacity_(ring_capacity > 0 ? ring_capacity : 1) {}

void Tracer::record(const Event& event) {
  if (ring_.size() < ring_capacity_) {
    ring_.push_back(event);
  } else {
    ring_[next_slot_] = event;
    next_slot_ = (next_slot_ + 1) % ring_capacity_;
    ++ring_overflow_;
  }
  if (sink_) sink_->on_event(event);
}

std::vector<Event> Tracer::recent() const {
  std::vector<Event> out;
  out.reserve(ring_.size());
  // next_slot_ points at the oldest entry once the ring has wrapped.
  const std::size_t n = ring_.size();
  const std::size_t start = n == ring_capacity_ ? next_slot_ : 0;
  for (std::size_t i = 0; i < n; ++i) out.push_back(ring_[(start + i) % n]);
  return out;
}

void Tracer::accumulate_into(TraceSummary& summary) const {
  for (std::size_t i = 0; i < kNodePhaseCount; ++i) summary.node_phases[i] += node_phases_[i];
  for (std::size_t i = 0; i < kRejectReasonCount; ++i) summary.rejects[i] += rejects_[i];
  for (std::size_t i = 0; i < kAcceptViaCount; ++i) summary.accepts[i] += accepts_[i];
  for (std::size_t i = 0; i < kInjectKindCount; ++i) summary.injects[i] += injects_[i];
  summary.events += events_;
  summary.ring_overflow += ring_overflow_;
}

}  // namespace snd::obs
