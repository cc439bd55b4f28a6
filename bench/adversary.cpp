// Adversary scenario sweep: discovery accuracy and defense telemetry under
// each attacker/mobility family, against the same center-node workload the
// fig3/fig4 reproductions measure.
//
// The (family, seed) grid is one flat trial space run through
// shard::run_sweep. Two artifacts come out:
//   BENCH_adversary.json       the sweep report: the metric columns over all
//                              trials, the folded trace and the timing
//                              fields. Its deterministic part is what
//                              --canonical-report writes, byte-identical at
//                              any --jobs (asserted in CI).
//   BENCH_adversary_perf.json  <family>_us_per_trial, the mean per-trial wall
//                              time the session measured for each family; the
//                              ci/bench_trend.py series (timing only, never
//                              compared byte-wise).
// The per-family values are in the table.
//
//   ./adversary [--seeds 8] [--nodes 60] [--jobs N] [--canonical-report PATH]
//               [--shard i/N] [--checkpoint PATH] [--log warn]
#include <array>
#include <iostream>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "adversary/scenario.h"
#include "core/deployment_driver.h"
#include "shard/sweep.h"
#include "util/driver_spec.h"
#include "util/file.h"
#include "util/runtime_config.h"
#include "util/table.h"

namespace {

using namespace snd;

constexpr std::array<std::string_view, 6> kFamilies = {
    "baseline", "relay", "sybil", "replay", "mobility", "churn",
};

adversary::ScenarioConfig family_config(std::string_view family) {
  adversary::ScenarioConfig config;
  if (family != "baseline") (void)config.arm_family(family);
  return config;
}

enum Metric : std::size_t { kAccuracy, kTentative, kReplayRejects, kAttackerEvents };

shard::TrialOutput run_family_trial(std::string_view family, std::size_t nodes,
                                    std::uint64_t seed) {
  core::DeploymentConfig config;
  config.field = {{0.0, 0.0}, {100.0, 100.0}};
  config.radio_range = 50.0;
  config.protocol.threshold_t = 10;
  config.seed = seed;
  // Churn exists to stress the Thm 4 update path; give it an allowance.
  if (family == "churn") config.protocol.max_updates = 2;

  const adversary::ScenarioConfig scenario = family_config(family);
  core::SndDeployment deployment(config);
  std::optional<adversary::ScenarioRuntime> runtime;
  if (!scenario.empty()) runtime.emplace(deployment, scenario);

  const NodeId center = deployment.deploy_node_at(config.field.center());
  std::vector<NodeId> deployed = deployment.deploy_round(nodes - 1);
  deployed.insert(deployed.begin(), center);
  if (runtime) {
    if (scenario.churn) {
      for (const NodeId id : deployed) {
        if (core::SndNode* agent = deployment.agent(id)) agent->set_auto_update(true);
      }
    }
    runtime->arm(deployed);
  }
  deployment.run();

  const core::SndNode* agent = deployment.agent(center);
  std::size_t actual = 0;
  std::size_t validated = 0;
  for (const sim::Device& d : deployment.network().devices()) {
    if (d.identity == center || !d.benign()) continue;
    if (!deployment.network().link(agent->device(), d.id)) continue;
    ++actual;
    if (topology::contains(agent->functional_neighbors(), d.identity)) ++validated;
  }
  std::uint64_t tentative = 0;
  std::uint64_t replay_rejects = 0;
  for (const core::SndNode* a : deployment.agents()) {
    tentative += a->tentative_neighbors().size();
    replay_rejects += a->replay_rejects();
  }
  const double accuracy =
      actual == 0 ? 0.0 : static_cast<double>(validated) / static_cast<double>(actual);
  return {{accuracy, static_cast<double>(tentative), static_cast<double>(replay_rejects),
           static_cast<double>(runtime ? runtime->attacker_events() : 0)},
          deployment.network().trace_summary()};
}

}  // namespace

int main(int argc, char** argv) {
  shard::SweepFlags flags;
  util::cli::DriverSpec spec(
      "adversary",
      "Adversary scenario sweep: center-node discovery accuracy and defense\n"
      "telemetry under relay, sybil, replay, mobility, and churn scenarios.");
  spec.int_flag("seeds", 8, "N", "independent seeds per family", 1)
      .int_flag("nodes", 60, "N", "deployment size per trial", 12);
  shard::add_sweep_flags(spec, &flags);
  const util::cli::Driver cli = spec.parse(argc, argv);
  if (!cli.ok()) return cli.exit_code();

  const auto seeds = static_cast<std::size_t>(cli.get_int("seeds"));
  const auto nodes = static_cast<std::size_t>(cli.get_int("nodes"));

  // Flat (family, seed) trial space: cell f is family kFamilies[f].
  const shard::Sweep sweep{"adversary", 31337, kFamilies.size(), seeds,
                           {"accuracy", "tentative", "replay_rejects", "attacker_events"}};
  const std::string header = "== Adversary scenarios: " + std::to_string(kFamilies.size()) +
                             " families x " + std::to_string(seeds) + " seeds, " +
                             std::to_string(nodes) + " nodes, " +
                             std::to_string(flags.jobs) + " jobs ==\n\n";

  const auto body = [&](std::size_t i, std::uint64_t seed) {
    return run_family_trial(kFamilies[sweep.cell(i)], nodes, seed);
  };

  const auto table = [&](const shard::SweepRecords& records) {
    const auto total = [&](std::size_t f, Metric metric) {
      return std::to_string(static_cast<std::uint64_t>(records.stats(f, metric).sum()));
    };
    util::Table out({"family", "accuracy", "tentative", "replay_rejects", "attacker_events",
                     "us/trial"});
    std::string perf = "{\n  \"name\": \"adversary_perf\"";
    for (std::size_t f = 0; f < kFamilies.size(); ++f) {
      const util::RunningStats accuracy = records.stats(f, kAccuracy);
      const double mean_accuracy =
          accuracy.count() == 0 ? 0.0 : accuracy.sum() / static_cast<double>(accuracy.count());
      const double us_per_trial = records.micros(f).mean();
      out.add_row({std::string(kFamilies[f]), util::Table::num(mean_accuracy, 3),
                   total(f, kTentative), total(f, kReplayRejects), total(f, kAttackerEvents),
                   util::Table::num(us_per_trial, 0)});
      perf += ",\n  \"" + std::string(kFamilies[f]) +
              "_us_per_trial\": " + util::Table::num(us_per_trial, 1);
    }
    out.print(std::cout);

    const std::string perf_path = bench_artifact_path("BENCH_adversary_perf.json");
    if (!util::write_file(perf_path, perf + "\n}\n")) {
      return std::vector<std::string>{"cannot write " + perf_path};
    }
    std::cout << "\nwrote " << perf_path << "\n";
    return std::vector<std::string>{};
  };

  return shard::run_sweep(cli, flags, sweep, header, body, table);
}
