#include "shard/session.h"

#include <exception>
#include <ostream>

#include "util/rng.h"

namespace snd::shard {

namespace {

/// One trial's outcome: the body's values and trace, or the message of the
/// exception it threw.
TrialRecord run_trial(const TrialBody& body, std::size_t trial, std::uint64_t seed) {
  TrialRecord record;
  record.trial = trial;
  try {
    TrialOutput output = body(trial, seed);
    record.values = std::move(output.values);
    record.trace = output.trace;
  } catch (const std::exception& e) {
    record.failed = true;
    record.error = e.what();
  } catch (...) {
    record.failed = true;
    record.error = "non-standard exception";
  }
  return record;
}

}  // namespace

SessionOptions resolve_session(const util::Cli& cli) {
  SessionOptions options;
  if (cli.has("shard")) {
    const std::string text = cli.get("shard", "");
    if (const auto parsed = parse_shard_arg(text)) {
      options.shard_index = parsed->first;
      options.shard_count = parsed->second;
    } else {
      cli.record_error("--shard: expected i/N with 0 <= i < N, got '" + text + "'");
    }
  }
  options.checkpoint_path = cli.get("checkpoint", "");
  options.enabled = !options.checkpoint_path.empty();
  options.resume = cli.get_bool("resume", false);
  const std::int64_t every = cli.get_int("checkpoint-every", 16);
  if (every < 1) {
    cli.record_error("--checkpoint-every: must be >= 1");
  } else {
    options.checkpoint_every = static_cast<std::size_t>(every);
  }
  if (cli.has("shard") && !options.enabled) {
    cli.record_error("--shard: requires --checkpoint PATH (a sharded run's results "
                     "live only in its shard file)");
  }
  if (options.resume && !options.enabled) {
    cli.record_error("--resume: requires --checkpoint PATH");
  }
  options.canonical_path = cli.get("canonical-report", "");
  if (!options.canonical_path.empty() && options.enabled) {
    cli.record_error("--canonical-report: needs a plain run (merge the shard files with "
                     "shard_merge to get the canonical report)");
  }
  return options;
}

util::cli::FlagGroup session_flag_group(SessionOptions* out) {
  using util::cli::FlagDef;
  using util::cli::FlagType;
  util::cli::FlagGroup group;
  group.title = "Checkpointing / sharding";
  const auto add = [&group](const char* name, FlagType type, const char* value_name,
                            const char* help) {
    FlagDef def;
    def.name = name;
    def.type = type;
    def.value_name = value_name;
    def.help = help;
    group.flags.push_back(std::move(def));
  };
  add("shard", FlagType::kString, "i/N",
      "run only shard i of N (requires --checkpoint)");
  add("checkpoint", FlagType::kString, "PATH",
      "persist completed trials to PATH (.sndshard)");
  add("resume", FlagType::kBool, "",
      "continue an interrupted checkpoint instead of truncating it");
  add("checkpoint-every", FlagType::kInt, "N", "flush the checkpoint every N trials");
  group.flags.back().def_int = 16;
  add("canonical-report", FlagType::kString, "PATH",
      "write the canonical sweep report JSON to PATH (plain runs only)");
  group.resolve = [out](const util::Cli& cli) { *out = resolve_session(cli); };
  return group;
}

Session::Session(const SessionOptions& options, ShardSpec spec)
    : options_(options), spec_(std::move(spec)), start_(std::chrono::steady_clock::now()) {
  spec_.shard_index = options_.shard_index;
  spec_.shard_count = options_.shard_count;
}

bool Session::open(std::ostream& err) {
  std::string error;
  std::vector<TrialRecord> completed;
  if (options_.enabled) {
    const bool ok =
        options_.resume
            ? writer_.open_resume(options_.checkpoint_path, spec_, &completed, &error)
            : writer_.open_new(options_.checkpoint_path, spec_, &error);
    if (!ok) {
      err << "error: " << error << "\n";
      return false;
    }
  }
  resumed_ = completed.size();

  // Pending = owned minus already-checkpointed, ascending.
  std::vector<std::uint8_t> done((spec_.total_trials + 7) / 8, 0);
  for (const TrialRecord& r : completed) {
    done[r.trial / 8] |= static_cast<std::uint8_t>(1u << (r.trial % 8));
  }
  for (std::uint32_t trial : spec_.trial_indices()) {
    if ((done[trial / 8] >> (trial % 8) & 1) == 0) pending_.push_back(trial);
  }
  return true;
}

void Session::run(const runner::TrialRunner& pool, const TrialBody& body,
                  SweepReport* report) {
  using Clock = std::chrono::steady_clock;
  const Clock::time_point sweep_start = Clock::now();
  if (!options_.enabled) records_.resize(pending_.size());
  // Slot k runs pending_[k] and owns micros[k]; the seed depends on the
  // global trial index alone, so any shard split and any --jobs agree.
  std::vector<double> micros(pending_.size(), 0.0);
  pool.for_each(pending_.size(), [&](std::size_t slot) {
    const std::uint32_t trial = pending_[slot];
    const Clock::time_point t0 = Clock::now();
    TrialRecord record = run_trial(body, trial, util::derive_seed(spec_.base_seed, trial));
    micros[slot] = std::chrono::duration<double, std::micro>(Clock::now() - t0).count();
    keep(std::move(record), report);
  });

  report->jobs = pool.jobs();
  report->wall_seconds = std::chrono::duration<double>(Clock::now() - sweep_start).count();
  for (const double us : micros) report->trial_micros.add(us);
  if (options_.enabled) {
    report->trials = pending_.size();
  } else {
    fold_records(spec_, records_, *report);
  }
}

void Session::keep(TrialRecord record, SweepReport* report) {
  if (!options_.enabled) {
    // A plain run's pending() is every trial, so trial i owns records_[i].
    records_[record.trial] = std::move(record);
    return;
  }
  const std::scoped_lock lock(mutex_);
  if (record.failed) report->note_failure(record.trial, record.error);
  writer_.append(std::move(record));
  if (writer_.buffered() >= options_.checkpoint_every) {
    if (!writer_.checkpoint(wall_seconds())) io_error_ = true;
  }
}

/// Cumulative across resumes: this process's elapsed time plus whatever the
/// resumed file's last footer had already accumulated.
double Session::wall_seconds() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start_).count() +
         writer_.resumed_wall_seconds();
}

bool Session::finish(std::ostream& err) {
  if (!options_.enabled) return true;
  const std::scoped_lock lock(mutex_);
  if (!writer_.close(wall_seconds()) || io_error_) {
    err << "error: " << options_.checkpoint_path << ": checkpoint write failed\n";
    return false;
  }
  return true;
}

}  // namespace snd::shard
