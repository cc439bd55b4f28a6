// Minimal command-line flag parser for the bench and example binaries.
// Supports --name=value, --name value, and boolean --flag forms.
#pragma once

#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <iosfwd>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace snd::util {

class Cli {
 public:
  /// Parses argv; unknown flags are retained and reported by validate().
  Cli(int argc, const char* const* argv);

  [[nodiscard]] bool has(std::string_view name) const;
  [[nodiscard]] std::string get(std::string_view name, std::string_view fallback) const;
  [[nodiscard]] std::int64_t get_int(std::string_view name, std::int64_t fallback) const;
  [[nodiscard]] double get_double(std::string_view name, double fallback) const;
  [[nodiscard]] bool get_bool(std::string_view name, bool fallback) const;

  /// Positional (non-flag) arguments, in order.
  [[nodiscard]] const std::vector<std::string>& positional() const { return positional_; }
  [[nodiscard]] const std::string& program() const { return program_; }

  /// Malformed numeric values recorded by get_int/get_double lookups.
  [[nodiscard]] const std::vector<std::string>& errors() const { return errors_; }

  /// Records a validation error from outside the numeric getters (e.g. an
  /// enum-valued flag with an unknown value); validate() will report it and
  /// return false. Const for the same reason errors_ is mutable: lookups on
  /// a parsed (logically immutable) Cli may fail.
  void record_error(std::string message) const { errors_.push_back(std::move(message)); }

  /// True when every flag given on the command line is in `allowed`, no flag
  /// was given twice, and every numeric lookup so far parsed cleanly;
  /// otherwise prints the offending flags plus `usage` to `err`. Call after
  /// reading all flags, and exit non-zero on false so CI smoke runs can
  /// assert on bad invocations.
  [[nodiscard]] bool validate(std::ostream& err,
                              std::initializer_list<std::string_view> allowed,
                              std::string_view usage = {}) const;
  /// Same, with a runtime-assembled allow list (cli::DriverSpec uses this).
  [[nodiscard]] bool validate(std::ostream& err,
                              const std::vector<std::string_view>& allowed,
                              std::string_view usage = {}) const;

  /// Flags that appeared more than once on the command line (rejected by
  /// validate(); the first occurrence stays readable through the getters).
  [[nodiscard]] const std::vector<std::string>& duplicates() const { return duplicates_; }

 private:
  std::string program_;
  std::map<std::string, std::string, std::less<>> flags_;
  std::vector<std::string> positional_;
  std::vector<std::string> duplicates_;
  mutable std::vector<std::string> errors_;
};

/// Worker count for Monte-Carlo sweeps: the --jobs flag if present, else
/// std::thread::hardware_concurrency(). Values < 1 are clamped to 1.
[[nodiscard]] std::size_t resolve_jobs(const Cli& cli);

}  // namespace snd::util
