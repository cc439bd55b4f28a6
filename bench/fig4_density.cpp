// Figure 4 reproduction: fraction of actual neighbors included in the
// functional neighbor list of a benign node vs deployment density, for
// thresholds t in {10, 30, 50} (paper §4.5.1, R = 50 m).
//
// Density is reported as nodes per 1,000 m^2 as in the paper's axis. The
// field stays 100x100 m and the node count scales with density; accuracy is
// measured at a node pinned to the field center.
//
// The (density, t, seed) grid is flattened into one trial space and run
// through shard::run_sweep; aggregate statistics are bit-identical for any
// --jobs value.
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
#include "shard/sweep.h"
#include "util/driver_spec.h"
#include "util/table.h"

int main(int argc, char** argv) {
  using namespace snd;
  shard::SweepFlags flags;
  std::optional<fault::FaultPlan> plan;
  std::optional<adversary::ScenarioConfig> scenario;
  util::cli::DriverSpec driver_spec(
      "fig4_density",
      "Figure 4 reproduction: fraction of validated neighbors as a function\n"
      "of deployment density, for several thresholds t.");
  driver_spec.int_flag("seeds", 10, "N", "independent seeds per (density, t) cell", 1);
  shard::add_sweep_flags(driver_spec, &flags);
  driver_spec.group(fault::plan_flag_group(&plan))
      .group(adversary::scenario_flag_group(&scenario));
  const util::cli::Driver cli = driver_spec.parse(argc, argv);
  if (!cli.ok()) return cli.exit_code();

  const auto seeds = static_cast<std::size_t>(cli.get_int("seeds"));
  const std::vector<double> densities_per_1000m2 = {5, 10, 15, 20, 25, 30, 40};
  const std::vector<std::size_t> thresholds = {10, 30, 50};

  // One flat (density, t, seed) trial space: cell c is density
  // c / thresholds and threshold c % thresholds.
  const shard::Sweep sweep{"fig4_density", 997,
                           densities_per_1000m2.size() * thresholds.size(), seeds,
                           {"accuracy"}};

  std::string header;
  if (plan) {
    header += "fault plan: " + cli.get("fault-plan") + " (" +
              std::to_string(plan->actions.size()) + " actions)\n";
  }
  if (scenario) header += "adversary scenario: " + scenario->to_json() + "\n";
  header += "== Figure 4: fraction of validated neighbors vs deployment density ==\n"
            "R = 50 m, 100x100 m field, center node, " +
            std::to_string(seeds) + " seeds, " + std::to_string(flags.jobs) + " jobs\n\n";

  const auto body = [&](std::size_t i, std::uint64_t seed) {
    const std::size_t cell = sweep.cell(i);
    const double density = densities_per_1000m2[cell / thresholds.size()] / 1000.0;
    const auto nodes = static_cast<std::size_t>(density * bench::kPaperField.area());
    return bench::center_node_accuracy(nodes, thresholds[cell % thresholds.size()], seed,
                                       plan ? &*plan : nullptr,
                                       scenario ? &*scenario : nullptr);
  };

  const auto table = [&](const shard::SweepRecords& records) {
    util::Table out({"density (/1000 m^2)", "t=10 sim", "t=10 theory", "t=30 sim",
                     "t=30 theory", "t=50 sim", "t=50 theory"});
    for (std::size_t di = 0; di < densities_per_1000m2.size(); ++di) {
      const double density_k = densities_per_1000m2[di];
      std::vector<std::string> row = {util::Table::num(density_k, 0)};
      for (std::size_t ti = 0; ti < thresholds.size(); ++ti) {
        const analysis::FieldModel model{density_k / 1000.0, 50.0};
        row.push_back(
            util::Table::num(records.stats(di * thresholds.size() + ti, 0).mean(), 3));
        row.push_back(util::Table::num(model.accuracy(thresholds[ti]), 3));
      }
      out.add_row(std::move(row));
    }
    out.print(std::cout);
    std::cout << "\nExpected shape (paper Fig. 4): accuracy rises with density; smaller t\n"
              << "saturates first (t=10 ~1 by ~15 nodes/1000 m^2, t=50 needs ~2x more).\n";
    return std::vector<std::string>{};
  };

  return shard::run_sweep(cli, flags, sweep, header, body, table);
}
