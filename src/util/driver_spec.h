// Declarative command-line surface for the bench / example / app drivers.
//
// Every driver used to hand-roll the same four steps -- construct a Cli,
// read each flag with an inline default, repeat every flag name in a
// validate() allow list, and re-implement range checks like "--seeds must
// be >= 1" -- twenty-odd times across bench/. DriverSpec declares each flag
// exactly once (name, type, default, range/validator, help text) and
// derives everything from that single declaration:
//
//   * typed lookup with the declared default (Driver::get_int(name)),
//   * --help output grouped by flag group,
//   * unknown-flag and duplicate-flag rejection,
//   * type/range/validator errors with the offending value.
//
// Cross-cutting flag surfaces (--jobs, the --log/--trace family, the
// --shard checkpoint family, --fault-plan) are registered as reusable
// FlagGroups whose owning subsystem both declares the flags and resolves
// them into a typed config during parse():
//
//   obs::ObsConfig obs_config;
//   std::size_t jobs = 1;
//   util::cli::DriverSpec spec("fig3_threshold", "Figure 3 reproduction.");
//   spec.int_flag("seeds", 20, "N", "independent seeds per threshold", 1)
//       .group(util::cli::jobs_group(&jobs))
//       .group(obs::obs_flag_group(&obs_config));
//   const util::cli::Driver cli = spec.parse(argc, argv);
//   if (!cli.ok()) return cli.exit_code();   // 0 after --help, 2 on errors
//   const auto seeds = cli.get_int("seeds");
//
// A Driver borrows its spec; keep the DriverSpec alive for as long as the
// Driver is used (both live in main() in practice).
#pragma once

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "util/cli.h"

namespace snd::util::cli {

enum class FlagType : std::uint8_t { kBool, kInt, kDouble, kString };

/// One declared flag. Use the DriverSpec::*_flag helpers instead of filling
/// this in by hand; groups build vectors of these.
struct FlagDef {
  std::string name;
  FlagType type = FlagType::kString;
  std::string help;
  /// Metavar shown in --help ("N", "PATH", ...); empty for booleans.
  std::string value_name;

  // Typed defaults (the member matching `type` is the live one).
  bool def_bool = false;
  std::int64_t def_int = 0;
  double def_double = 0.0;
  std::string def_string;

  // Optional numeric range (ints and doubles).
  std::optional<double> min;
  std::optional<double> max;

  /// Optional value check; returns an error message or nullopt when valid.
  std::function<std::optional<std::string>(std::string_view)> validator;

  /// The default rendered for --help; empty when there is nothing to show.
  [[nodiscard]] std::string default_text() const;
};

/// A reusable cross-cutting flag surface: the flags plus a resolver run by
/// DriverSpec::parse() after type checks. The resolver typically calls the
/// owning subsystem's resolve_*() (which records errors on the Cli) and
/// stores the result through a pointer bound at group construction.
struct FlagGroup {
  std::string title;
  std::vector<FlagDef> flags;
  std::function<void(const Cli&)> resolve;
};

/// The shared --jobs surface: worker count for Monte-Carlo sweeps, resolved
/// through resolve_jobs (the flag, else hardware concurrency).
[[nodiscard]] FlagGroup jobs_group(std::size_t* out);

class Driver;

class DriverSpec {
 public:
  /// `name` is the canonical binary name; `summary` is the first --help
  /// paragraph (one or two sentences on what the driver measures).
  DriverSpec(std::string name, std::string summary);

  DriverSpec& flag(FlagDef def);
  DriverSpec& bool_flag(std::string name, std::string help);
  DriverSpec& int_flag(std::string name, std::int64_t def, std::string value_name,
                       std::string help, std::optional<std::int64_t> min = std::nullopt,
                       std::optional<std::int64_t> max = std::nullopt);
  DriverSpec& double_flag(std::string name, double def, std::string value_name,
                          std::string help, std::optional<double> min = std::nullopt,
                          std::optional<double> max = std::nullopt);
  DriverSpec& string_flag(
      std::string name, std::string def, std::string value_name, std::string help,
      std::function<std::optional<std::string>(std::string_view)> validator = {});
  DriverSpec& group(FlagGroup group);
  /// Declares positional arguments for --help and arity checking.
  DriverSpec& positional(std::string name, std::string help, std::size_t min_count = 0);

  /// Parses argv, runs type/range/validator checks and group resolvers, and
  /// reports problems on `err`. --help prints to `out` and yields a Driver
  /// with ok() == false and exit_code() == 0.
  [[nodiscard]] Driver parse(int argc, const char* const* argv, std::ostream& out,
                             std::ostream& err) const;
  /// Same, bound to std::cout / std::cerr.
  [[nodiscard]] Driver parse(int argc, const char* const* argv) const;

  void print_help(std::ostream& out) const;

  [[nodiscard]] const FlagDef* find(std::string_view name) const;
  [[nodiscard]] const std::string& name() const { return name_; }

 private:
  friend class Driver;

  struct GroupSpan {
    std::string title;
    std::size_t first = 0;
    std::size_t count = 0;
    std::function<void(const Cli&)> resolve;
  };
  struct PositionalDef {
    std::string name;
    std::string help;
    std::size_t min_count = 0;
  };

  std::string name_;
  std::string summary_;
  std::vector<FlagDef> flags_;
  std::vector<GroupSpan> groups_;  ///< ungrouped flags live before groups_[0]
  std::vector<PositionalDef> positionals_;
};

/// The parse result: the underlying Cli plus typed, default-applying
/// lookups against the spec's declarations. Lookups of undeclared names
/// abort in debug builds (they are driver programming errors, not user
/// errors).
class Driver {
 public:
  [[nodiscard]] bool ok() const { return ok_; }
  [[nodiscard]] int exit_code() const { return exit_code_; }

  [[nodiscard]] bool has(std::string_view name) const { return cli_.has(name); }
  [[nodiscard]] bool get_bool(std::string_view name) const;
  [[nodiscard]] std::int64_t get_int(std::string_view name) const;
  [[nodiscard]] double get_double(std::string_view name) const;
  [[nodiscard]] std::string get(std::string_view name) const;

  [[nodiscard]] const std::vector<std::string>& positional() const {
    return cli_.positional();
  }
  [[nodiscard]] const std::string& program() const { return cli_.program(); }
  /// The underlying parser, for subsystem resolvers that take a Cli.
  [[nodiscard]] const Cli& cli() const { return cli_; }

 private:
  friend class DriverSpec;
  Driver(const DriverSpec* spec, Cli cli) : spec_(spec), cli_(std::move(cli)) {}

  const DriverSpec* spec_;
  Cli cli_;
  bool ok_ = true;
  int exit_code_ = 0;
};

}  // namespace snd::util::cli
