#include "spans.h"

#include <cstdio>
#include <fstream>

namespace perfbench {

double Span::count(std::string_view key) const {
  for (const auto& [name, value] : counts) {
    if (key == name) return value;
  }
  return 0.0;
}

std::uint64_t SpanLog::begin(const char* name, std::uint64_t parent, std::uint64_t trace) {
  Span span;
  span.name = name;
  span.id = spans_.size() + 1;
  span.parent = parent;
  span.trace = trace;
  span.start = Clock::now();
  span.end = span.start;
  spans_.push_back(std::move(span));
  return spans_.back().id;
}

void SpanLog::end(std::uint64_t id) { spans_[id - 1].end = Clock::now(); }

void SpanLog::count(std::uint64_t id, const char* key, double value) {
  spans_[id - 1].counts.emplace_back(key, value);
}

std::vector<double> SpanLog::durations(std::string_view name) const {
  std::vector<double> out;
  for (const Span& span : spans_) {
    if (name == span.name) out.push_back(static_cast<double>(span.duration_ns()));
  }
  return out;
}

std::vector<double> SpanLog::per_call(std::string_view name, std::string_view per) const {
  std::vector<double> out;
  for (const Span& span : spans_) {
    if (name != span.name) continue;
    const double calls = span.count(per);
    if (calls > 0.0) out.push_back(static_cast<double>(span.duration_ns()) / calls);
  }
  return out;
}

double SpanLog::total(std::string_view name, std::string_view key) const {
  double sum = 0.0;
  for (const Span& span : spans_) {
    if (name == span.name) sum += span.count(key);
  }
  return sum;
}

std::size_t SpanLog::size(std::string_view name) const {
  std::size_t n = 0;
  for (const Span& span : spans_) n += name == span.name ? 1 : 0;
  return n;
}

bool SpanLog::write_jsonl(const std::string& path, const std::string& header) const {
  std::ofstream out(path);
  if (!out) return false;
  out << header << '\n';
  const Clock::time_point origin = spans_.empty() ? Clock::now() : spans_.front().start;
  char line[256];
  for (const Span& span : spans_) {
    std::snprintf(line, sizeof(line),
                  "{\"id\":%llu,\"parent\":%llu,\"trace\":%llu,\"name\":\"%s\","
                  "\"start_ns\":%lld,\"end_ns\":%lld",
                  static_cast<unsigned long long>(span.id),
                  static_cast<unsigned long long>(span.parent),
                  static_cast<unsigned long long>(span.trace), span.name,
                  static_cast<long long>(elapsed_ns(origin, span.start)),
                  static_cast<long long>(elapsed_ns(origin, span.end)));
    out << line;
    if (!span.counts.empty()) {
      out << ",\"counts\":{";
      for (std::size_t i = 0; i < span.counts.size(); ++i) {
        std::snprintf(line, sizeof(line), "%s\"%s\":%.17g", i == 0 ? "" : ",",
                      span.counts[i].first, span.counts[i].second);
        out << line;
      }
      out << '}';
    }
    out << "}\n";
  }
  return static_cast<bool>(out);
}

}  // namespace perfbench
