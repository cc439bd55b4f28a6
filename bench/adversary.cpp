// Adversary scenario sweep: discovery accuracy and defense telemetry under
// each attacker/mobility family, against the same center-node workload the
// fig3/fig4 reproductions measure.
//
// The (family, seed) grid is one flat trial space sharded by
// runner::TrialRunner. Two artifacts come out:
//   BENCH_adversary.json       deterministic results (accuracy, admitted
//                              identities, replay rejects, attacker event
//                              counts) -- byte-identical for a fixed seed at
//                              any --jobs, asserted in CI.
//   BENCH_adversary_perf.json  wall-clock us_per_trial per family, the
//                              ci/bench_trend.py series (timing only, never
//                              compared byte-wise).
//
//   ./adversary [--seeds 8] [--nodes 60] [--jobs N] [--log warn]
#include <chrono>
#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "adversary/scenario.h"
#include "core/deployment_driver.h"
#include "obs/config.h"
#include "runner/trial_runner.h"
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

struct TrialResult {
  double accuracy = 0.0;
  std::uint64_t tentative = 0;
  std::uint64_t replay_rejects = 0;
  std::uint64_t attacker_events = 0;
  double wall_us = 0.0;
};

TrialResult run_family_trial(std::string_view family, std::size_t nodes, std::uint64_t seed) {
  const auto start = std::chrono::steady_clock::now();

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

  TrialResult result;
  const core::SndNode* agent = deployment.agent(center);
  std::size_t actual = 0;
  std::size_t validated = 0;
  for (const sim::Device& d : deployment.network().devices()) {
    if (d.identity == center || !d.benign()) continue;
    if (!deployment.network().link(agent->device(), d.id)) continue;
    ++actual;
    if (topology::contains(agent->functional_neighbors(), d.identity)) ++validated;
  }
  result.accuracy =
      actual == 0 ? 0.0 : static_cast<double>(validated) / static_cast<double>(actual);
  for (const core::SndNode* a : deployment.agents()) {
    result.tentative += a->tentative_neighbors().size();
    result.replay_rejects += a->replay_rejects();
  }
  if (runtime) result.attacker_events = runtime->attacker_events();
  result.wall_us = std::chrono::duration<double, std::micro>(
                       std::chrono::steady_clock::now() - start)
                       .count();
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  std::size_t jobs = 1;
  obs::ObsConfig obs_config;
  util::cli::DriverSpec spec(
      "adversary",
      "Adversary scenario sweep: center-node discovery accuracy and defense\n"
      "telemetry under relay, sybil, replay, mobility, and churn scenarios.");
  spec.int_flag("seeds", 8, "N", "independent seeds per family", 1)
      .int_flag("nodes", 60, "N", "deployment size per trial", 12)
      .group(util::cli::jobs_group(&jobs))
      .group(obs::obs_flag_group(&obs_config));
  const util::cli::Driver cli = spec.parse(argc, argv);
  if (!cli.ok()) return cli.exit_code();
  if (!obs::apply_obs(obs_config, std::cerr)) return 2;

  const auto seeds = static_cast<std::size_t>(cli.get_int("seeds"));
  const auto nodes = static_cast<std::size_t>(cli.get_int("nodes"));
  runner::TrialRunner pool(jobs);

  std::cout << "== Adversary scenarios: " << kFamilies.size() << " families x " << seeds
            << " seeds, " << nodes << " nodes, " << pool.jobs() << " jobs ==\n\n";

  // Flat (family, seed) trial space; trial i is family i/seeds, seed i%seeds.
  runner::SweepReport report;
  report.name = "adversary";
  const auto results = pool.run(
      kFamilies.size() * seeds, 31337,
      [&](std::size_t i, std::uint64_t seed) {
        return run_family_trial(kFamilies[i / seeds], nodes, seed);
      },
      &report);

  util::Table table({"family", "accuracy", "tentative", "replay_rejects", "attacker_events",
                     "us/trial"});
  // Deterministic artifact: aggregates folded in trial order; no timing.
  std::string families_json;
  std::string perf_json;
  for (std::size_t f = 0; f < kFamilies.size(); ++f) {
    double accuracy_sum = 0.0;
    std::uint64_t tentative = 0;
    std::uint64_t rejects = 0;
    std::uint64_t events = 0;
    double wall_us = 0.0;
    std::size_t completed = 0;
    for (std::size_t s = 0; s < seeds; ++s) {
      const auto& r = results[f * seeds + s];
      if (!r.has_value()) continue;
      ++completed;
      accuracy_sum += r->accuracy;
      tentative += r->tentative;
      rejects += r->replay_rejects;
      events += r->attacker_events;
      wall_us += r->wall_us;
    }
    const double accuracy = completed == 0 ? 0.0 : accuracy_sum / completed;
    const double us_per_trial = completed == 0 ? 0.0 : wall_us / completed;
    char entry[512];
    std::snprintf(entry, sizeof(entry),
                  "%s    {\"family\": \"%.*s\", \"trials\": %zu, \"accuracy\": %.17g, "
                  "\"tentative\": %llu, \"replay_rejects\": %llu, \"attacker_events\": %llu}",
                  f == 0 ? "" : ",\n", static_cast<int>(kFamilies[f].size()),
                  kFamilies[f].data(), completed, accuracy,
                  static_cast<unsigned long long>(tentative),
                  static_cast<unsigned long long>(rejects),
                  static_cast<unsigned long long>(events));
    families_json += entry;
    std::snprintf(entry, sizeof(entry), "%s  \"%.*s_us_per_trial\": %.1f",
                  f == 0 ? "" : ",\n", static_cast<int>(kFamilies[f].size()),
                  kFamilies[f].data(), us_per_trial);
    perf_json += entry;
    table.add_row({std::string(kFamilies[f]), util::Table::num(accuracy, 3),
                   std::to_string(tentative), std::to_string(rejects),
                   std::to_string(events), util::Table::num(us_per_trial, 0)});
  }
  table.print(std::cout);

  char head[256];
  std::snprintf(head, sizeof(head),
                "{\n  \"name\": \"adversary\",\n  \"nodes\": %zu,\n  \"seeds\": %zu,\n"
                "  \"families\": [\n",
                nodes, seeds);
  const std::string json = std::string(head) + families_json + "\n  ]\n}\n";
  const std::string path = bench_artifact_path("BENCH_adversary.json");
  if (!util::write_file(path, json)) {
    std::cerr << "cannot write " << path << "\n";
    return 1;
  }
  std::cout << "\nwrote " << path << "\n";

  const std::string perf =
      "{\n  \"name\": \"adversary_perf\",\n" + perf_json + "\n}\n";
  const std::string perf_path = bench_artifact_path("BENCH_adversary_perf.json");
  if (!util::write_file(perf_path, perf)) {
    std::cerr << "cannot write " << perf_path << "\n";
    return 1;
  }
  std::cout << "wrote " << perf_path << "\n";

  return report.failed == 0 ? 0 : 1;
}
