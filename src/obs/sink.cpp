#include "obs/sink.h"

#include <array>
#include <cstring>

#include "util/bytes.h"
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

namespace {

constexpr char kTraceMagic[8] = {'S', 'N', 'D', 'T', 'R', 'A', 'C', 'E'};
constexpr std::uint8_t kLogTag = 0;

}  // namespace

BinaryEventSink::BinaryEventSink(const std::string& path) {
  if (path == "-") return;  // binary stream; refuse stdout
  file_ = std::fopen(path.c_str(), "wb");
  if (file_ == nullptr) return;
  if (std::fwrite(kTraceMagic, 1, sizeof(kTraceMagic), file_) != sizeof(kTraceMagic)) {
    std::fclose(file_);
    file_ = nullptr;
  }
}

BinaryEventSink::~BinaryEventSink() {
  if (file_ != nullptr) {
    std::fflush(file_);
    std::fclose(file_);
  }
}

std::vector<std::uint8_t> BinaryEventSink::encode(const Event& event) {
  util::Bytes out;
  out.push_back(static_cast<std::uint8_t>(static_cast<std::uint8_t>(event.kind) + 1));
  util::put_varint(out, event.code);
  util::put_varint(out, event.node);
  util::put_varint(out, event.peer);
  util::put_varint(out, event.bytes);
  util::put_varint_signed(out, event.t_ns);
  return out;
}

std::optional<BinaryEventSink::Decoded> BinaryEventSink::decode(
    std::span<const std::uint8_t> data, std::string* error) {
  const auto fail = [&](const std::string& message) -> std::optional<Decoded> {
    if (error != nullptr) *error = message;
    return std::nullopt;
  };
  util::ByteReader reader(data);
  const auto magic = reader.bytes_view(sizeof(kTraceMagic));
  if (!magic || std::memcmp(magic->data(), kTraceMagic, sizeof(kTraceMagic)) != 0) {
    return fail("not a .sndtrace stream (bad magic)");
  }
  Decoded out;
  while (!reader.exhausted()) {
    const auto tag = reader.u8();
    if (!tag) return fail("truncated record tag");
    if (*tag == kLogTag) {
      const auto level = reader.varint();
      const auto len = level ? reader.varint() : std::nullopt;
      const auto text = len ? reader.bytes_view(static_cast<std::size_t>(*len))
                            : std::nullopt;
      if (!text || *level > static_cast<std::uint64_t>(util::LogLevel::kOff)) {
        return fail("truncated or malformed log record");
      }
      out.logs.emplace_back(static_cast<util::LogLevel>(*level),
                            std::string(reinterpret_cast<const char*>(text->data()),
                                        text->size()));
      continue;
    }
    if (*tag > kEventKindCount) {
      return fail("unknown record tag " + std::to_string(*tag));
    }
    Event event;
    event.kind = static_cast<EventKind>(*tag - 1);
    const auto code = reader.varint();
    const auto node = reader.varint();
    const auto peer = reader.varint();
    const auto bytes = reader.varint();
    const auto t_ns = reader.varint_signed();
    if (!t_ns || *code > 0xff || *node > kNoNode || *peer > kNoNode ||
        *bytes > 0xffffffffu) {
      return fail("truncated or malformed event record");
    }
    event.code = static_cast<std::uint8_t>(*code);
    event.node = static_cast<NodeId>(*node);
    event.peer = static_cast<NodeId>(*peer);
    event.bytes = static_cast<std::uint32_t>(*bytes);
    event.t_ns = *t_ns;
    out.events.push_back(event);
  }
  return out;
}

void BinaryEventSink::on_event(const Event& event) { write_record(encode(event)); }

void BinaryEventSink::on_log(util::LogLevel level, std::string_view message) {
  util::Bytes record;
  record.push_back(kLogTag);
  util::put_varint(record, static_cast<std::uint64_t>(level));
  util::put_varint(record, message.size());
  for (char c : message) record.push_back(static_cast<std::uint8_t>(c));
  write_record(record);
}

void BinaryEventSink::flush() {
  const std::scoped_lock lock(mutex_);
  if (file_ != nullptr) std::fflush(file_);
}

void BinaryEventSink::write_record(const std::vector<std::uint8_t>& record) {
  const std::scoped_lock lock(mutex_);
  if (file_ == nullptr) return;
  std::fwrite(record.data(), 1, record.size(), file_);
}

}  // namespace snd::obs
