#include "shard/sweep.h"

#include <iostream>

#include "runner/trial_runner.h"
#include "util/table.h"

namespace snd::shard {

void add_sweep_flags(util::cli::DriverSpec& spec, SweepFlags* flags) {
  spec.group(util::cli::jobs_group(&flags->jobs))
      .group(session_flag_group(&flags->session))
      .group(obs::obs_flag_group(&flags->obs));
}

util::RunningStats SweepRecords::stats(std::size_t cell, std::size_t metric) const {
  util::RunningStats out;
  for (std::size_t i = cell * sweep_.seeds; i < (cell + 1) * sweep_.seeds; ++i) {
    const TrialRecord& record = records_[i];
    if (record.failed) continue;
    // The same read as fold_records: a short row counts as 0.
    out.add(metric < record.values.size() ? record.values[metric] : 0.0);
  }
  return out;
}

util::RunningStats SweepRecords::micros(std::size_t cell) const {
  // A plain run's pool slot i is trial i, so trial_micros is in trial order.
  util::RunningStats out;
  for (std::size_t i = cell * sweep_.seeds; i < (cell + 1) * sweep_.seeds; ++i) {
    if (!records_[i].failed) out.add(micros_.values()[i]);
  }
  return out;
}

int run_sweep(const util::cli::Driver& cli, const SweepFlags& flags, const Sweep& sweep,
              const std::string& header, const TrialBody& body, const SweepTable& table) {
  if (!obs::apply_obs(flags.obs, std::cerr)) return 2;

  ShardSpec spec;
  spec.sweep_id = sweep.name;
  spec.base_seed = sweep.base_seed;
  spec.total_trials = sweep.trials();
  spec.metric_names = sweep.metrics;
  Session session(flags.session, spec);
  if (!session.open(std::cerr)) return 2;

  std::cout << header;
  runner::TrialRunner pool(flags.jobs);
  SweepReport report;
  session.run(pool, body, &report);

  if (session.enabled()) {
    // The shard file is the output; shard_merge folds the files.
    if (!session.finish(std::cerr)) return 1;
    std::cout << "shard " << flags.session.shard_index << "/" << flags.session.shard_count
              << ": ran " << session.pending().size() << " of " << spec.total_trials
              << " trials (" << session.resumed() << " resumed), " << report.failed
              << " failed -> " << flags.session.checkpoint_path << "\n";
    return report.failed == 0 ? 0 : 1;
  }

  const std::string& canonical = flags.session.canonical_path;
  if (!canonical.empty() && !report.write_canonical(canonical)) {
    std::cerr << cli.program() << ": cannot write " << canonical << "\n";
    return 1;
  }
  const std::vector<std::string> broken =
      table(SweepRecords(sweep, session.records(), report.trial_micros));
  for (const std::string& line : broken) std::cerr << cli.program() << ": " << line << "\n";

  const std::string path = report.write_json();
  if (path.empty()) {
    std::cerr << cli.program() << ": cannot write BENCH_" << report.name << ".json\n";
    return 1;
  }
  std::cout << "\n[" << report.trials << " trials, " << report.failed << " failed, "
            << util::Table::num(report.trials_per_second(), 1) << " trials/s, perf -> "
            << path << "]\n";
  return report.failed == 0 && broken.empty() ? 0 : 1;
}

}  // namespace snd::shard
