// Figure 3 reproduction: fraction of actual neighbors included in the
// functional neighbor list of a benign node, as a function of the security
// threshold t -- theoretical model vs simulation.
//
// Paper setting (§4.5.1): 200 sensor nodes uniform in a 100x100 m field
// (density 1 node / 50 m^2), R = 50 m, measured at the node in the field
// center. We deploy one node exactly at the center plus 199 random ones and
// average the center node's accuracy over independent seeds.
//
// The (t, seed) grid is flattened into one trial space and sharded across
// workers by runner::TrialRunner; aggregate statistics are bit-identical
// for any --jobs value.
//
//   ./fig3_threshold [--seeds 20] [--tmax 150] [--tstep 10] [--jobs N]
//                    [--fault-plan PATH]
//                    [--shard i/N] [--checkpoint PATH] [--resume]
//                    [--checkpoint-every N] [--canonical-report PATH]
//                    [--log warn] [--trace counters] [--trace-json PATH]
//
// With --checkpoint the run persists every trial to a .sndshard file (and
// --shard i/N restricts it to one stride of the trial space); shard_merge
// folds the files back into the canonical report. See docs/SHARDING.md.
#include <iostream>
#include <optional>
#include <vector>

#include "adversary/scenario.h"
#include "analysis/model.h"
#include "center_node.h"
#include "fault/plan.h"
#include "obs/config.h"
#include "runner/trial_runner.h"
#include "shard/session.h"
#include "util/driver_spec.h"
#include "util/stats.h"
#include "util/table.h"

int main(int argc, char** argv) {
  using namespace snd;
  std::size_t jobs = 1;
  obs::ObsConfig obs_config;
  shard::SessionOptions session_options;
  std::optional<fault::FaultPlan> plan;
  std::optional<adversary::ScenarioConfig> scenario;
  util::cli::DriverSpec spec(
      "fig3_threshold",
      "Figure 3 reproduction: fraction of actual neighbors validated by the\n"
      "center node as a function of the security threshold t.");
  spec.int_flag("seeds", 20, "N", "independent seeds per threshold", 1)
      .int_flag("tmax", 150, "T", "largest threshold t to sweep", 0)
      .int_flag("tstep", 10, "T", "threshold sweep step", 1)
      .string_flag("canonical-report", "", "PATH",
                   "write the canonical sweep report JSON to PATH")
      .group(util::cli::jobs_group(&jobs))
      .group(fault::plan_flag_group(&plan))
      .group(adversary::scenario_flag_group(&scenario))
      .group(shard::session_flag_group(&session_options))
      .group(obs::obs_flag_group(&obs_config));
  const util::cli::Driver cli = spec.parse(argc, argv);
  if (!cli.ok()) return cli.exit_code();
  if (!obs::apply_obs(obs_config, std::cerr)) return 2;

  const auto seeds = static_cast<std::size_t>(cli.get_int("seeds"));
  const auto t_max = static_cast<std::size_t>(cli.get_int("tmax"));
  const auto t_step = static_cast<std::size_t>(cli.get_int("tstep"));
  const std::string canonical_path = cli.get("canonical-report");
  runner::TrialRunner pool(jobs);
  if (plan) {
    std::cout << "fault plan: " << cli.get("fault-plan") << " ("
              << plan->actions.size() << " actions)\n";
  }

  const analysis::FieldModel model{200.0 / (100.0 * 100.0), 50.0};

  std::vector<std::size_t> thresholds;
  for (std::size_t t = 0; t <= t_max; t += t_step) thresholds.push_back(t);

  // One flat (t, seed) trial space: trial i covers threshold i / seeds with
  // the i-th derived seed.
  runner::SweepReport report;
  report.name = "fig3_threshold";

  shard::ShardSpec shard_spec;
  shard_spec.sweep_id = report.name;
  shard_spec.base_seed = 101;
  shard_spec.total_trials = thresholds.size() * seeds;
  shard_spec.metric_names = {"accuracy"};
  shard::Session session(session_options, shard_spec);
  if (session.enabled() && !canonical_path.empty()) {
    std::cerr << cli.program()
              << ": --canonical-report needs a plain run (merge the shard files with "
                 "shard_merge to get the canonical report)\n";
    return 2;
  }
  if (!session.open(std::cerr)) return 2;

  const auto trial_body = [&](std::size_t i, std::uint64_t seed) {
    return bench::center_node_accuracy(200, thresholds[i / seeds], seed,
                                       plan ? &*plan : nullptr,
                                       scenario ? &*scenario : nullptr);
  };

  if (session.enabled()) {
    // Checkpointed (possibly sharded) mode: the shard file is the output;
    // tables and BENCH artifacts come from shard_merge over all shards.
    std::cout << "== Figure 3 (shard " << session.spec().shard_index << "/"
              << session.spec().shard_count << " of " << shard_spec.total_trials
              << " trials) ==\n";
    session.run(pool, trial_body, &report);
    if (!session.finish(std::cerr)) return 1;
    std::cout << "ran " << session.pending().size() << " trials (" << session.resumed()
              << " resumed), " << report.failed << " failed -> "
              << session_options.checkpoint_path << "\n";
    return report.failed == 0 ? 0 : 1;
  }

  std::cout << "== Figure 3: fraction of validated neighbors vs threshold t ==\n"
            << "200 nodes, 100x100 m, R = 50 m, center node, " << seeds << " seeds, "
            << pool.jobs() << " jobs\n\n";

  session.run(pool, trial_body, &report);
  if (!canonical_path.empty() && !report.write_canonical(canonical_path)) {
    std::cerr << cli.program() << ": cannot write " << canonical_path << "\n";
    return 1;
  }

  util::Table table({"t", "theory f_b", "theory tau^2", "simulation", "stdev"});
  for (std::size_t ti = 0; ti < thresholds.size(); ++ti) {
    util::RunningStats sim_accuracy;
    for (std::size_t s = 0; s < seeds; ++s) {
      const shard::TrialRecord& record = session.records()[ti * seeds + s];
      if (!record.failed) sim_accuracy.add(record.values[0]);
    }
    table.add_row({util::Table::integer(static_cast<long long>(thresholds[ti])),
                   util::Table::num(model.accuracy(thresholds[ti]), 3),
                   util::Table::num(model.accuracy_approx(thresholds[ti]), 3),
                   util::Table::num(sim_accuracy.mean(), 3),
                   util::Table::num(sim_accuracy.stdev(), 3)});
  }
  table.print(std::cout);

  std::cout << "\nExpected shape (paper Fig. 3): simulation tracks the theoretical curve;\n"
            << "accuracy ~1 for small t, decaying to ~0 by t ~ 150.\n";

  const std::string path = report.write_json();
  if (path.empty()) {
    std::cerr << cli.program() << ": cannot write BENCH_" << report.name << ".json\n";
    return 1;
  }
  std::cout << "\n[" << report.trials << " trials, " << report.failed << " failed, "
            << util::Table::num(report.trials_per_second(), 1) << " trials/s, perf -> "
            << path << "]\n";
  return report.failed == 0 ? 0 : 1;
}
