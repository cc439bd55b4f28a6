// §4.5.2 reproduction: performance in hostile situations. The paper argues
// that short of jamming the channel, an attacker cannot reduce the fraction
// of actual neighbors a benign node validates -- each pair's decision
// depends only on their own two authenticated lists.
//
// Scenarios measured:
//   clean            -- no attacker.
//   chaff            -- planted radios answer every Hello with floods of
//                       fake-identity HelloAcks (list pollution attempt).
//   replicas         -- a compromised identity replicated across the field
//                       (can it displace genuine relations? no).
//   jamming          -- a jammer disk (the attack the paper rules out of
//                       scope: it reduces accuracy but is plain DoS).
#include <iostream>

#include "adversary/attacker.h"
#include "adversary/chaff.h"
#include "adversary/wormhole.h"
#include "core/deployment_driver.h"
#include "obs/config.h"
#include "runner/trial_runner.h"
#include "topology/stats.h"
#include "util/driver_spec.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/table.h"

namespace {

using namespace snd;

core::DeploymentConfig base_config(std::uint64_t seed) {
  core::DeploymentConfig config;
  config.field = {{0.0, 0.0}, {200.0, 200.0}};
  config.radio_range = 50.0;
  config.protocol.threshold_t = 8;
  config.seed = seed;
  return config;
}

double benign_accuracy(const core::SndDeployment& deployment) {
  return topology::edge_recall(deployment.actual_benign_graph(),
                               deployment.functional_graph());
}

double run_clean(std::uint64_t seed) {
  core::SndDeployment deployment(base_config(seed));
  deployment.deploy_round(400);
  deployment.run();
  return benign_accuracy(deployment);
}

double run_chaff(std::uint64_t seed) {
  core::SndDeployment deployment(base_config(seed));
  std::vector<std::unique_ptr<adversary::ChaffAttacker>> chaff;
  for (const util::Vec2 pos : {util::Vec2{50, 50}, util::Vec2{150, 50}, util::Vec2{50, 150},
                               util::Vec2{150, 150}, util::Vec2{100, 100}}) {
    const sim::DeviceId device = deployment.network().add_device(
        90000 + static_cast<NodeId>(chaff.size()), pos);
    deployment.network().device(device).compromised = true;
    chaff.push_back(std::make_unique<adversary::ChaffAttacker>(
        deployment.network(), device, 100000 + 1000 * static_cast<NodeId>(chaff.size()), 8));
    chaff.back()->start();
  }
  deployment.deploy_round(400);
  deployment.run();
  return benign_accuracy(deployment);
}

double run_replicas(std::uint64_t seed) {
  core::SndDeployment deployment(base_config(seed));
  deployment.deploy_round(400);
  deployment.run();
  adversary::Attacker attacker(deployment);
  for (NodeId victim : {5u, 6u, 7u}) {
    attacker.compromise(victim);
    attacker.place_replica(victim, {180.0, 180.0});
    attacker.place_replica(victim, {20.0, 180.0});
  }
  deployment.deploy_round(40);
  deployment.run();
  return benign_accuracy(deployment);
}

double run_jamming(std::uint64_t seed) {
  core::SndDeployment deployment(base_config(seed));
  deployment.network().add_jammer({{100.0, 100.0}, 50.0});
  deployment.deploy_round(400);
  deployment.run();
  return benign_accuracy(deployment);
}

double run_chaff_no_verification(std::uint64_t seed) {
  // Ablation: the same chaff flood when the network deploys NO direct
  // verification -- fake identities then pollute tentative lists and bloat
  // binding records until their transmission overruns the exchange window.
  core::SndDeployment deployment(base_config(seed));
  deployment.set_verifier(std::make_shared<verify::NaiveVerifier>());
  std::vector<std::unique_ptr<adversary::ChaffAttacker>> chaff;
  for (const util::Vec2 pos : {util::Vec2{50, 50}, util::Vec2{150, 50}, util::Vec2{50, 150},
                               util::Vec2{150, 150}, util::Vec2{100, 100}}) {
    const sim::DeviceId device = deployment.network().add_device(
        90000 + static_cast<NodeId>(chaff.size()), pos);
    deployment.network().device(device).compromised = true;
    chaff.push_back(std::make_unique<adversary::ChaffAttacker>(
        deployment.network(), device, 100000 + 1000 * static_cast<NodeId>(chaff.size()), 8));
    chaff.back()->start();
  }
  deployment.deploy_round(400);
  deployment.run();
  return benign_accuracy(deployment);
}

double run_wormhole(std::uint64_t seed) {
  core::SndDeployment deployment(base_config(seed));
  adversary::Wormhole wormhole(deployment.network(), {30.0, 30.0}, {170.0, 170.0});
  wormhole.start();
  deployment.deploy_round(400);
  deployment.run();
  return benign_accuracy(deployment);
}

}  // namespace

int main(int argc, char** argv) {
  std::size_t jobs = 1;
  obs::ObsConfig obs_config;
  util::cli::DriverSpec driver_spec(
      "hostile_accuracy",
      "Benign-node accuracy under hostile scenarios (paper section 4.5.2):\n"
      "chaff flood, replication, wormhole, jamming, and a no-direct-\n"
      "verification ablation, each compared against a clean deployment.");
  driver_spec.int_flag("seeds", 8, "N", "independent seeds per scenario", 1)
      .group(util::cli::jobs_group(&jobs))
      .group(obs::obs_flag_group(&obs_config));
  const util::cli::Driver cli = driver_spec.parse(argc, argv);
  if (!cli.ok()) return cli.exit_code();
  if (!obs::apply_obs(obs_config, std::cerr)) return 2;

  const auto seeds = static_cast<std::size_t>(cli.get_int("seeds"));
  runner::TrialRunner pool(jobs);

  std::cout << "== Hostile-situation accuracy (paper section 4.5.2) ==\n"
            << "400 nodes, 200x200 m, R = 50 m, t = 8, " << seeds << " seeds, "
            << pool.jobs() << " jobs\n\n";

  struct Scenario {
    const char* name;
    double (*run)(std::uint64_t);
  };
  const Scenario scenarios[] = {
      {"clean (no attacker)", run_clean},
      {"chaff flood (5 radios)", run_chaff},
      {"replication (3 ids x 2 replicas)", run_replicas},
      {"wormhole tunnel (2 endpoints)", run_wormhole},
      {"jamming disk r=50m (out of scope)", run_jamming},
      {"chaff w/o direct verif. (ablation)", run_chaff_no_verification},
  };
  const std::size_t scenario_count = std::size(scenarios);

  // One flat (scenario, seed) trial space. The deployment seed is derived
  // from the seed index alone so every scenario sees the same fields -- the
  // "delta vs clean" column stays a paired comparison.
  runner::SweepReport report;
  report.name = "hostile_accuracy";
  const auto accuracy = pool.run(
      scenario_count * seeds, /*base_seed=*/17,
      [&](std::size_t i, std::uint64_t) {
        return scenarios[i / seeds].run(util::derive_seed(17, i % seeds));
      },
      &report);

  util::Table table({"scenario", "benign accuracy", "stdev", "delta vs clean"});
  double clean_mean = 0.0;
  for (std::size_t si = 0; si < scenario_count; ++si) {
    util::RunningStats stats;
    for (std::size_t s = 0; s < seeds; ++s) {
      if (const auto& value = accuracy[si * seeds + s]) stats.add(*value);
    }
    if (scenarios[si].run == run_clean) clean_mean = stats.mean();
    table.add_row({scenarios[si].name, util::Table::num(stats.mean(), 4),
                   util::Table::num(stats.stdev(), 4),
                   util::Table::num(stats.mean() - clean_mean, 4)});
  }
  table.print(std::cout);

  std::cout << "\nExpected shape: with the paper's assumed direct verification in place,\n"
            << "chaff, replication, and wormhole tunnels all leave benign accuracy\n"
            << "untouched (the attacker \"has no way to reduce the number of actual\n"
            << "benign neighbor nodes in the functional neighbor list... without\n"
            << "jamming\"); only the jamming row drops. The ablation row removes direct\n"
            << "verification: chaff then bloats binding records until their airtime\n"
            << "overruns the exchange window -- a bandwidth-DoS of the same class as\n"
            << "jamming, not a defeat of the validation logic; see EXPERIMENTS.md.\n";

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
