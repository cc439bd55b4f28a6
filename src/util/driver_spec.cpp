#include "util/driver_spec.h"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <ostream>
#include <thread>
#include <utility>

namespace snd::util::cli {

namespace {

/// Help column where flag descriptions start; longer invocations wrap.
constexpr std::size_t kHelpColumn = 30;

std::string flag_invocation(const FlagDef& def) {
  std::string text = "--" + def.name;
  if (def.type != FlagType::kBool) {
    text += "=" + (def.value_name.empty() ? std::string("VALUE") : def.value_name);
  }
  return text;
}

void print_flag(std::ostream& out, const FlagDef& def) {
  const std::string invocation = flag_invocation(def);
  out << "  " << invocation;
  if (invocation.size() + 2 >= kHelpColumn) {
    out << "\n" << std::string(kHelpColumn, ' ');
  } else {
    out << std::string(kHelpColumn - invocation.size() - 2, ' ');
  }
  out << def.help;
  const std::string def_text = def.default_text();
  if (!def_text.empty()) out << " [default: " << def_text << "]";
  out << "\n";
}

std::string trim_double(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%g", value);
  return buffer;
}

}  // namespace

std::string FlagDef::default_text() const {
  switch (type) {
    case FlagType::kBool:
      return def_bool ? "true" : "";
    case FlagType::kInt:
      return std::to_string(def_int);
    case FlagType::kDouble:
      return trim_double(def_double);
    case FlagType::kString:
      return def_string;
  }
  return {};
}

FlagGroup jobs_group(std::size_t* out) {
  FlagGroup group;
  group.title = "Parallelism";
  FlagDef jobs;
  jobs.name = "jobs";
  jobs.type = FlagType::kInt;
  jobs.value_name = "N";
  jobs.help = "worker threads";
  // The default resolve_jobs falls back to, so --help shows what runs.
  jobs.def_int = std::max(1u, std::thread::hardware_concurrency());
  jobs.min = 1.0;
  group.flags.push_back(std::move(jobs));
  group.resolve = [out](const Cli& cli) { *out = resolve_jobs(cli); };
  return group;
}

DriverSpec::DriverSpec(std::string name, std::string summary)
    : name_(std::move(name)), summary_(std::move(summary)) {}

DriverSpec& DriverSpec::flag(FlagDef def) {
  assert(find(def.name) == nullptr && "flag declared twice");
  assert(groups_.empty() && "declare plain flags before groups");
  flags_.push_back(std::move(def));
  return *this;
}

DriverSpec& DriverSpec::bool_flag(std::string name, std::string help) {
  FlagDef def;
  def.name = std::move(name);
  def.type = FlagType::kBool;
  def.help = std::move(help);
  return flag(std::move(def));
}

DriverSpec& DriverSpec::int_flag(std::string name, std::int64_t def_value,
                                 std::string value_name, std::string help,
                                 std::optional<std::int64_t> min,
                                 std::optional<std::int64_t> max) {
  FlagDef def;
  def.name = std::move(name);
  def.type = FlagType::kInt;
  def.def_int = def_value;
  def.value_name = std::move(value_name);
  def.help = std::move(help);
  if (min) def.min = static_cast<double>(*min);
  if (max) def.max = static_cast<double>(*max);
  return flag(std::move(def));
}

DriverSpec& DriverSpec::double_flag(std::string name, double def_value,
                                    std::string value_name, std::string help,
                                    std::optional<double> min, std::optional<double> max) {
  FlagDef def;
  def.name = std::move(name);
  def.type = FlagType::kDouble;
  def.def_double = def_value;
  def.value_name = std::move(value_name);
  def.help = std::move(help);
  def.min = min;
  def.max = max;
  return flag(std::move(def));
}

DriverSpec& DriverSpec::string_flag(
    std::string name, std::string def_value, std::string value_name, std::string help,
    std::function<std::optional<std::string>(std::string_view)> validator) {
  FlagDef def;
  def.name = std::move(name);
  def.type = FlagType::kString;
  def.def_string = std::move(def_value);
  def.value_name = std::move(value_name);
  def.help = std::move(help);
  def.validator = std::move(validator);
  return flag(std::move(def));
}

DriverSpec& DriverSpec::group(FlagGroup group) {
  GroupSpan span;
  span.title = std::move(group.title);
  span.first = flags_.size();
  span.count = group.flags.size();
  span.resolve = std::move(group.resolve);
  for (FlagDef& def : group.flags) {
    assert(find(def.name) == nullptr && "group flag collides with an existing flag");
    flags_.push_back(std::move(def));
  }
  groups_.push_back(std::move(span));
  return *this;
}

DriverSpec& DriverSpec::positional(std::string name, std::string help,
                                   std::size_t min_count) {
  PositionalDef def;
  def.name = std::move(name);
  def.help = std::move(help);
  def.min_count = min_count;
  positionals_.push_back(std::move(def));
  return *this;
}

const FlagDef* DriverSpec::find(std::string_view name) const {
  for (const FlagDef& def : flags_) {
    if (def.name == name) return &def;
  }
  return nullptr;
}

void DriverSpec::print_help(std::ostream& out) const {
  out << "usage: " << name_ << " [flags]";
  for (const PositionalDef& def : positionals_) {
    out << (def.min_count > 0 ? " <" : " [") << def.name
        << (def.min_count > 0 ? ">" : "]");
  }
  out << "\n\n" << summary_ << "\n";

  const std::size_t plain = groups_.empty() ? flags_.size() : groups_.front().first;
  if (plain > 0) {
    out << "\nFlags:\n";
    for (std::size_t i = 0; i < plain; ++i) print_flag(out, flags_[i]);
  }
  for (const GroupSpan& span : groups_) {
    if (span.count == 0) continue;
    out << "\n" << span.title << ":\n";
    for (std::size_t i = 0; i < span.count; ++i) print_flag(out, flags_[span.first + i]);
  }
  if (!positionals_.empty()) {
    out << "\nPositional arguments:\n";
    for (const PositionalDef& def : positionals_) {
      out << "  " << def.name;
      if (def.name.size() + 2 >= kHelpColumn) {
        out << "\n" << std::string(kHelpColumn, ' ');
      } else {
        out << std::string(kHelpColumn - def.name.size() - 2, ' ');
      }
      out << def.help << "\n";
    }
  }
  out << "\n  --help" << std::string(kHelpColumn - 8, ' ') << "show this message and exit\n";
}

Driver DriverSpec::parse(int argc, const char* const* argv) const {
  return parse(argc, argv, std::cout, std::cerr);
}

Driver DriverSpec::parse(int argc, const char* const* argv, std::ostream& out,
                         std::ostream& err) const {
  Driver driver(this, Cli(argc, argv));
  const Cli& cli = driver.cli_;

  if (cli.has("help")) {
    print_help(out);
    driver.ok_ = false;
    driver.exit_code_ = 0;
    return driver;
  }

  // Type / range / custom checks record onto the Cli so validate() reports
  // them alongside unknown-flag and duplicate-flag problems in one pass.
  for (const FlagDef& def : flags_) {
    if (!cli.has(def.name)) continue;
    const std::string raw = cli.get(def.name, "");
    switch (def.type) {
      case FlagType::kBool:
        break;
      case FlagType::kInt: {
        const std::int64_t value = cli.get_int(def.name, def.def_int);
        const double as_double = static_cast<double>(value);
        if (def.min && as_double < *def.min) {
          cli.record_error("--" + def.name + "=" + raw + " (must be >= " +
                           std::to_string(static_cast<std::int64_t>(*def.min)) + ")");
        } else if (def.max && as_double > *def.max) {
          cli.record_error("--" + def.name + "=" + raw + " (must be <= " +
                           std::to_string(static_cast<std::int64_t>(*def.max)) + ")");
        }
        break;
      }
      case FlagType::kDouble: {
        const double value = cli.get_double(def.name, def.def_double);
        if (def.min && value < *def.min) {
          cli.record_error("--" + def.name + "=" + raw + " (must be >= " +
                           trim_double(*def.min) + ")");
        } else if (def.max && value > *def.max) {
          cli.record_error("--" + def.name + "=" + raw + " (must be <= " +
                           trim_double(*def.max) + ")");
        }
        break;
      }
      case FlagType::kString:
        break;
    }
    if (def.validator) {
      if (auto message = def.validator(raw)) {
        cli.record_error("--" + def.name + "=" + raw + " (" + *message + ")");
      }
    }
  }

  // Group resolvers may record further errors (e.g. unknown trace levels).
  for (const GroupSpan& span : groups_) {
    if (span.resolve) span.resolve(cli);
  }

  std::size_t required_positionals = 0;
  for (const PositionalDef& def : positionals_) required_positionals += def.min_count;
  if (cli.positional().size() < required_positionals) {
    cli.record_error(positionals_.front().name +
                     " (missing required positional argument)");
  }
  if (positionals_.empty() && !cli.positional().empty()) {
    cli.record_error("'" + std::string(cli.positional().front()) +
                     "' (positional arguments not accepted)");
  }

  std::vector<std::string_view> allowed;
  allowed.reserve(flags_.size() + 1);
  for (const FlagDef& def : flags_) allowed.push_back(def.name);
  allowed.push_back("help");
  if (!cli.validate(err, allowed, "[flags] (run with --help for details)")) {
    driver.ok_ = false;
    driver.exit_code_ = 2;
  }
  return driver;
}

bool Driver::get_bool(std::string_view name) const {
  const FlagDef* def = spec_->find(name);
  assert(def != nullptr && def->type == FlagType::kBool);
  return cli_.get_bool(name, def != nullptr ? def->def_bool : false);
}

std::int64_t Driver::get_int(std::string_view name) const {
  const FlagDef* def = spec_->find(name);
  assert(def != nullptr && def->type == FlagType::kInt);
  return cli_.get_int(name, def != nullptr ? def->def_int : 0);
}

double Driver::get_double(std::string_view name) const {
  const FlagDef* def = spec_->find(name);
  assert(def != nullptr && def->type == FlagType::kDouble);
  return cli_.get_double(name, def != nullptr ? def->def_double : 0.0);
}

std::string Driver::get(std::string_view name) const {
  const FlagDef* def = spec_->find(name);
  assert(def != nullptr && def->type == FlagType::kString);
  return cli_.get(name, def != nullptr ? def->def_string : std::string_view{});
}

}  // namespace snd::util::cli
