#include "util/cli.h"

#include <algorithm>
#include <cstdlib>
#include <ostream>
#include <thread>

namespace snd::util {

Cli::Cli(int argc, const char* const* argv) {
  if (argc > 0) program_ = argv[0];
  for (int i = 1; i < argc; ++i) {
    std::string_view arg = argv[i];
    if (!arg.starts_with("--")) {
      positional_.emplace_back(arg);
      continue;
    }
    arg.remove_prefix(2);
    std::string name;
    std::string value;
    if (const auto eq = arg.find('='); eq != std::string_view::npos) {
      name = arg.substr(0, eq);
      value = arg.substr(eq + 1);
    } else if (i + 1 < argc && std::string_view(argv[i + 1]).substr(0, 2) != "--") {
      name = arg;
      value = argv[++i];
    } else {
      name = arg;
      value = "true";
    }
    // A repeated flag is ambiguous (which value wins?); the seed parser
    // silently kept the first occurrence. Reject instead of guessing.
    if (const auto it = flags_.find(name); it != flags_.end()) {
      duplicates_.push_back("--" + name + " given more than once ('" + it->second +
                           "' and '" + value + "')");
      continue;
    }
    flags_.emplace(std::move(name), std::move(value));
  }
}

bool Cli::has(std::string_view name) const { return flags_.find(name) != flags_.end(); }

std::string Cli::get(std::string_view name, std::string_view fallback) const {
  const auto it = flags_.find(name);
  return it != flags_.end() ? it->second : std::string(fallback);
}

std::int64_t Cli::get_int(std::string_view name, std::int64_t fallback) const {
  const auto it = flags_.find(name);
  if (it == flags_.end()) return fallback;
  char* end = nullptr;
  const std::int64_t value = std::strtoll(it->second.c_str(), &end, 10);
  if (end == it->second.c_str() || *end != '\0') {
    errors_.push_back("--" + it->first + "=" + it->second + " (expected an integer)");
    return fallback;
  }
  return value;
}

double Cli::get_double(std::string_view name, double fallback) const {
  const auto it = flags_.find(name);
  if (it == flags_.end()) return fallback;
  char* end = nullptr;
  const double value = std::strtod(it->second.c_str(), &end);
  if (end == it->second.c_str() || *end != '\0') {
    errors_.push_back("--" + it->first + "=" + it->second + " (expected a number)");
    return fallback;
  }
  return value;
}

bool Cli::get_bool(std::string_view name, bool fallback) const {
  const auto it = flags_.find(name);
  if (it == flags_.end()) return fallback;
  return it->second == "true" || it->second == "1" || it->second == "yes";
}

bool Cli::validate(std::ostream& err, std::initializer_list<std::string_view> allowed,
                   std::string_view usage) const {
  return validate(err, std::vector<std::string_view>(allowed), usage);
}

bool Cli::validate(std::ostream& err, const std::vector<std::string_view>& allowed,
                   std::string_view usage) const {
  bool ok = true;
  for (const auto& [name, value] : flags_) {
    if (std::find(allowed.begin(), allowed.end(), name) == allowed.end()) {
      err << program_ << ": unknown flag --" << name << "\n";
      ok = false;
    }
  }
  for (const std::string& duplicate : duplicates_) {
    err << program_ << ": duplicate flag " << duplicate << "\n";
    ok = false;
  }
  for (const std::string& error : errors_) {
    err << program_ << ": invalid value " << error << "\n";
    ok = false;
  }
  if (!ok && !usage.empty()) err << "usage: " << program_ << " " << usage << "\n";
  return ok;
}

std::size_t resolve_jobs(const Cli& cli) {
  const std::int64_t jobs =
      cli.has("jobs") ? cli.get_int("jobs", 0)
                      : static_cast<std::int64_t>(std::thread::hardware_concurrency());
  return jobs < 1 ? 1 : static_cast<std::size_t>(jobs);
}

}  // namespace snd::util
