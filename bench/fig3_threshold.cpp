// Figure 3 reproduction: fraction of actual neighbors included in the
// functional neighbor list of a benign node, as a function of the security
// threshold t -- theoretical model vs simulation.
//
// Paper setting (§4.5.1): 200 sensor nodes uniform in a 100x100 m field
// (density 1 node / 50 m^2), R = 50 m, measured at the node in the field
// center. We deploy one node exactly at the center plus 199 random ones and
// average the center node's accuracy over independent seeds.
//
// The (t, seed) grid is flattened into one trial space and run through
// shard::run_sweep; aggregate statistics are bit-identical for any --jobs
// value.
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
#include "shard/sweep.h"
#include "util/driver_spec.h"
#include "util/table.h"

int main(int argc, char** argv) {
  using namespace snd;
  shard::SweepFlags flags;
  std::optional<fault::FaultPlan> plan;
  std::optional<adversary::ScenarioConfig> scenario;
  util::cli::DriverSpec spec(
      "fig3_threshold",
      "Figure 3 reproduction: fraction of actual neighbors validated by the\n"
      "center node as a function of the security threshold t.");
  spec.int_flag("seeds", 20, "N", "independent seeds per threshold", 1)
      .int_flag("tmax", 150, "T", "largest threshold t to sweep", 0)
      .int_flag("tstep", 10, "T", "threshold sweep step", 1);
  shard::add_sweep_flags(spec, &flags);
  spec.group(fault::plan_flag_group(&plan))
      .group(adversary::scenario_flag_group(&scenario));
  const util::cli::Driver cli = spec.parse(argc, argv);
  if (!cli.ok()) return cli.exit_code();

  const auto seeds = static_cast<std::size_t>(cli.get_int("seeds"));
  const auto t_max = static_cast<std::size_t>(cli.get_int("tmax"));
  const auto t_step = static_cast<std::size_t>(cli.get_int("tstep"));

  const analysis::FieldModel model{200.0 / (100.0 * 100.0), 50.0};

  std::vector<std::size_t> thresholds;
  for (std::size_t t = 0; t <= t_max; t += t_step) thresholds.push_back(t);

  // One flat (t, seed) trial space: cell c sweeps threshold thresholds[c].
  const shard::Sweep sweep{"fig3_threshold", 101, thresholds.size(), seeds, {"accuracy"}};

  std::string header;
  if (plan) {
    header += "fault plan: " + cli.get("fault-plan") + " (" +
              std::to_string(plan->actions.size()) + " actions)\n";
  }
  header += "== Figure 3: fraction of validated neighbors vs threshold t ==\n"
            "200 nodes, 100x100 m, R = 50 m, center node, " +
            std::to_string(seeds) + " seeds, " + std::to_string(flags.jobs) + " jobs\n\n";

  const auto body = [&](std::size_t i, std::uint64_t seed) {
    return bench::center_node_accuracy(200, thresholds[sweep.cell(i)], seed,
                                       plan ? &*plan : nullptr,
                                       scenario ? &*scenario : nullptr);
  };

  const auto table = [&](const shard::SweepRecords& records) {
    util::Table out({"t", "theory f_b", "theory tau^2", "simulation", "stdev"});
    for (std::size_t ti = 0; ti < thresholds.size(); ++ti) {
      const util::RunningStats accuracy = records.stats(ti, 0);
      out.add_row({util::Table::integer(static_cast<long long>(thresholds[ti])),
                   util::Table::num(model.accuracy(thresholds[ti]), 3),
                   util::Table::num(model.accuracy_approx(thresholds[ti]), 3),
                   util::Table::num(accuracy.mean(), 3),
                   util::Table::num(accuracy.stdev(), 3)});
    }
    out.print(std::cout);
    std::cout << "\nExpected shape (paper Fig. 3): simulation tracks the theoretical curve;\n"
              << "accuracy ~1 for small t, decaying to ~0 by t ~ 150.\n";
    return std::vector<std::string>{};
  };

  return shard::run_sweep(cli, flags, sweep, header, body, table);
}
