#include "obs/sink.h"

#include "util/json.h"

namespace snd::obs {

void Sink::on_log(util::LogLevel level, std::string_view message) {
  std::fprintf(stderr, "[%.*s] %.*s\n", static_cast<int>(util::log_level_name(level).size()),
               util::log_level_name(level).data(), static_cast<int>(message.size()),
               message.data());
}

JsonLinesSink::JsonLinesSink(const std::string& path) {
  if (path == "-") {
    file_ = stdout;
    owns_file_ = false;
  } else {
    file_ = std::fopen(path.c_str(), "w");
    owns_file_ = file_ != nullptr;
  }
}

JsonLinesSink::~JsonLinesSink() {
  if (file_ != nullptr) {
    std::fflush(file_);
    if (owns_file_) std::fclose(file_);
  }
}

std::string JsonLinesSink::to_json(const Event& event) {
  std::string out = "{\"kind\":\"";
  out += event_kind_name(event.kind);
  out += "\",\"t_ns\":" + std::to_string(event.t_ns);
  out += ",\"code\":\"";
  out += event_code_name(event.kind, event.code);
  out += "\"";
  if (event.node != kNoNode) out += ",\"node\":" + std::to_string(event.node);
  if (event.peer != kNoNode) out += ",\"peer\":" + std::to_string(event.peer);
  if (event.bytes != 0) out += ",\"bytes\":" + std::to_string(event.bytes);
  out += "}";
  return out;
}

void JsonLinesSink::on_event(const Event& event) { write_line(to_json(event)); }

void JsonLinesSink::on_log(util::LogLevel level, std::string_view message) {
  std::string line = "{\"kind\":\"log\",\"level\":\"";
  line += util::log_level_name(level);
  line += "\",\"msg\":" + util::json_quote(message) + "}";
  write_line(line);
}

void JsonLinesSink::flush() {
  const std::scoped_lock lock(mutex_);
  if (file_ != nullptr) std::fflush(file_);
}

void JsonLinesSink::write_line(const std::string& line) {
  const std::scoped_lock lock(mutex_);
  if (file_ == nullptr) return;
  std::fwrite(line.data(), 1, line.size(), file_);
  std::fputc('\n', file_);
}

}  // namespace snd::obs
