#include "util/file.h"

#include <cstdio>

namespace snd::util {

std::optional<std::string> read_file(const std::string& path) {
  std::FILE* file = std::fopen(path.c_str(), "r");
  if (file == nullptr) return std::nullopt;
  std::string text;
  char buf[4096];
  std::size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof(buf), file)) > 0) text.append(buf, n);
  const bool ok = std::ferror(file) == 0;
  std::fclose(file);
  if (!ok) return std::nullopt;
  return text;
}

bool write_file(const std::string& path, std::string_view text) {
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) return false;
  const bool ok =
      text.empty() || std::fwrite(text.data(), 1, text.size(), file) == text.size();
  return std::fclose(file) == 0 && ok;
}

}  // namespace snd::util
