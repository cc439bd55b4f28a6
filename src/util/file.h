// Whole-file text I/O for the JSON configs, reports and artifacts the
// drivers read and write. The binary formats (.sndshard, .sndtrace) keep
// their own streaming readers and writers.
#pragma once

#include <optional>
#include <string>
#include <string_view>

namespace snd::util {

/// The whole content of `path`; nullopt if it cannot be opened or read.
[[nodiscard]] std::optional<std::string> read_file(const std::string& path);

/// Creates or truncates `path` and writes `text` to it, byte for byte;
/// false if it cannot be opened, written or closed.
[[nodiscard]] bool write_file(const std::string& path, std::string_view text);

}  // namespace snd::util
