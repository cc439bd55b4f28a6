// Figure 4 reproduction: fraction of actual neighbors included in the
// functional neighbor list of a benign node vs deployment density, for
// thresholds t in {10, 30, 50} (paper §4.5.1, R = 50 m).
//
// Density is reported as nodes per 1,000 m^2 as in the paper's axis. The
// field stays 100x100 m and the node count scales with density; accuracy is
// measured at a node pinned to the field center.
//
// The (density, t, seed) grid is flattened into one trial space and sharded
// across workers by runner::TrialRunner; aggregate statistics are
// bit-identical for any --jobs value.
//
//   ./fig4_density [--seeds 10] [--jobs N] [--fault-plan PATH]
//                  [--adversary FAMILIES | --adversary-config PATH]
//                  [--shard i/N] [--checkpoint PATH] [--resume]
//                  [--checkpoint-every N] [--canonical-report PATH]
//                  [--log warn] [--trace counters] [--trace-json PATH]
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
  util::cli::DriverSpec driver_spec(
      "fig4_density",
      "Figure 4 reproduction: fraction of validated neighbors as a function\n"
      "of deployment density, for several thresholds t.");
  driver_spec
      .int_flag("seeds", 10, "N", "independent seeds per (density, t) cell", 1)
      .string_flag("canonical-report", "", "PATH",
                   "write the canonical sweep report JSON to PATH")
      .group(util::cli::jobs_group(&jobs))
      .group(fault::plan_flag_group(&plan))
      .group(adversary::scenario_flag_group(&scenario))
      .group(shard::session_flag_group(&session_options))
      .group(obs::obs_flag_group(&obs_config));
  const util::cli::Driver cli = driver_spec.parse(argc, argv);
  if (!cli.ok()) return cli.exit_code();
  if (!obs::apply_obs(obs_config, std::cerr)) return 2;

  const auto seeds = static_cast<std::size_t>(cli.get_int("seeds"));
  const std::string canonical_path = cli.get("canonical-report");
  runner::TrialRunner pool(jobs);
  if (plan) {
    std::cout << "fault plan: " << cli.get("fault-plan") << " ("
              << plan->actions.size() << " actions)\n";
  }
  if (scenario) std::cout << "adversary scenario: " << scenario->to_json() << "\n";

  const std::vector<double> densities_per_1000m2 = {5, 10, 15, 20, 25, 30, 40};
  const std::vector<std::size_t> thresholds = {10, 30, 50};

  // One flat (density, t, seed) trial space: trial i covers density
  // i / (thresholds * seeds), threshold (i / seeds) % thresholds, seed i % seeds.
  runner::SweepReport report;
  report.name = "fig4_density";
  const std::size_t cells = densities_per_1000m2.size() * thresholds.size();

  shard::ShardSpec shard_spec;
  shard_spec.sweep_id = report.name;
  shard_spec.base_seed = 997;
  shard_spec.total_trials = cells * seeds;
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
    const std::size_t cell = i / seeds;
    const double density = densities_per_1000m2[cell / thresholds.size()] / 1000.0;
    const auto nodes = static_cast<std::size_t>(density * bench::kPaperField.area());
    return bench::center_node_accuracy(nodes, thresholds[cell % thresholds.size()], seed,
                                       plan ? &*plan : nullptr,
                                       scenario ? &*scenario : nullptr);
  };

  if (session.enabled()) {
    // Checkpointed (possibly sharded) mode: the shard file is the output;
    // tables and BENCH artifacts come from shard_merge over all shards.
    std::cout << "== Figure 4 (shard " << session.spec().shard_index << "/"
              << session.spec().shard_count << " of " << shard_spec.total_trials
              << " trials) ==\n";
    session.run(pool, trial_body, &report);
    if (!session.finish(std::cerr)) return 1;
    std::cout << "ran " << session.pending().size() << " trials (" << session.resumed()
              << " resumed), " << report.failed << " failed -> "
              << session_options.checkpoint_path << "\n";
    return report.failed == 0 ? 0 : 1;
  }

  std::cout << "== Figure 4: fraction of validated neighbors vs deployment density ==\n"
            << "R = 50 m, 100x100 m field, center node, " << seeds << " seeds, "
            << pool.jobs() << " jobs\n\n";

  session.run(pool, trial_body, &report);
  if (!canonical_path.empty() && !report.write_canonical(canonical_path)) {
    std::cerr << cli.program() << ": cannot write " << canonical_path << "\n";
    return 1;
  }

  util::Table table({"density (/1000 m^2)", "t=10 sim", "t=10 theory", "t=30 sim",
                     "t=30 theory", "t=50 sim", "t=50 theory"});
  for (std::size_t di = 0; di < densities_per_1000m2.size(); ++di) {
    const double density_k = densities_per_1000m2[di];
    std::vector<std::string> row = {util::Table::num(density_k, 0)};
    for (std::size_t ti = 0; ti < thresholds.size(); ++ti) {
      util::RunningStats sim_accuracy;
      const std::size_t cell = di * thresholds.size() + ti;
      for (std::size_t s = 0; s < seeds; ++s) {
        const shard::TrialRecord& record = session.records()[cell * seeds + s];
        if (!record.failed) sim_accuracy.add(record.values[0]);
      }
      const analysis::FieldModel model{density_k / 1000.0, 50.0};
      row.push_back(util::Table::num(sim_accuracy.mean(), 3));
      row.push_back(util::Table::num(model.accuracy(thresholds[ti]), 3));
    }
    table.add_row(std::move(row));
  }
  table.print(std::cout);

  std::cout << "\nExpected shape (paper Fig. 4): accuracy rises with density; smaller t\n"
            << "saturates first (t=10 ~1 by ~15 nodes/1000 m^2, t=50 needs ~2x more).\n";

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
