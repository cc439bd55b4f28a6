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
#include "shard/sweep.h"
#include "topology/stats.h"
#include "util/driver_spec.h"
#include "util/rng.h"
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

shard::TrialOutput benign_accuracy(const core::SndDeployment& deployment) {
  return {{topology::edge_recall(deployment.actual_benign_graph(),
                                 deployment.functional_graph())},
          deployment.network().trace_summary()};
}

shard::TrialOutput run_clean(std::uint64_t seed) {
  core::SndDeployment deployment(base_config(seed));
  deployment.deploy_round(400);
  deployment.run();
  return benign_accuracy(deployment);
}

/// Five planted radios answer every Hello with floods of fake-identity
/// HelloAcks. A null `verifier` keeps the deployment's direct verification;
/// the ablation passes a NaiveVerifier, and the fake identities then pollute
/// tentative lists and bloat binding records until their transmission
/// overruns the exchange window.
shard::TrialOutput run_chaff(std::uint64_t seed,
                             std::shared_ptr<verify::DirectVerifier> verifier) {
  core::SndDeployment deployment(base_config(seed));
  if (verifier) deployment.set_verifier(std::move(verifier));
  std::vector<std::unique_ptr<adversary::ChaffAttacker>> chaff;
  for (const util::Vec2 pos : {util::Vec2{50, 50}, util::Vec2{150, 50}, util::Vec2{50, 150},
                               util::Vec2{150, 150}, util::Vec2{100, 100}}) {
    const sim::DeviceId device = deployment.network().add_device(
        90000 + static_cast<NodeId>(chaff.size()), pos);
    deployment.network().mark_compromised(device);
    chaff.push_back(std::make_unique<adversary::ChaffAttacker>(
        deployment.network(), device, 100000 + 1000 * static_cast<NodeId>(chaff.size()), 8));
    chaff.back()->start();
  }
  deployment.deploy_round(400);
  deployment.run();
  return benign_accuracy(deployment);
}

shard::TrialOutput run_replicas(std::uint64_t seed) {
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

shard::TrialOutput run_jamming(std::uint64_t seed) {
  core::SndDeployment deployment(base_config(seed));
  deployment.network().add_jammer({{100.0, 100.0}, 50.0});
  deployment.deploy_round(400);
  deployment.run();
  return benign_accuracy(deployment);
}

shard::TrialOutput run_wormhole(std::uint64_t seed) {
  core::SndDeployment deployment(base_config(seed));
  adversary::Wormhole wormhole(deployment.network(), {30.0, 30.0}, {170.0, 170.0});
  wormhole.start();
  deployment.deploy_round(400);
  deployment.run();
  return benign_accuracy(deployment);
}

}  // namespace

int main(int argc, char** argv) {
  shard::SweepFlags flags;
  util::cli::DriverSpec driver_spec(
      "hostile_accuracy",
      "Benign-node accuracy under hostile scenarios (paper section 4.5.2):\n"
      "chaff flood, replication, wormhole, jamming, and a no-direct-\n"
      "verification ablation, each compared against a clean deployment.");
  driver_spec.int_flag("seeds", 8, "N", "independent seeds per scenario", 1);
  shard::add_sweep_flags(driver_spec, &flags);
  const util::cli::Driver cli = driver_spec.parse(argc, argv);
  if (!cli.ok()) return cli.exit_code();

  const auto seeds = static_cast<std::size_t>(cli.get_int("seeds"));

  struct Scenario {
    const char* name;
    shard::TrialOutput (*run)(std::uint64_t);
  };
  // The first row is the clean baseline the "delta" column compares with.
  const Scenario scenarios[] = {
      {"clean (no attacker)", run_clean},
      {"chaff flood (5 radios)", [](std::uint64_t seed) { return run_chaff(seed, nullptr); }},
      {"replication (3 ids x 2 replicas)", run_replicas},
      {"wormhole tunnel (2 endpoints)", run_wormhole},
      {"jamming disk r=50m (out of scope)", run_jamming},
      {"chaff w/o direct verif. (ablation)",
       [](std::uint64_t seed) {
         return run_chaff(seed, std::make_shared<verify::NaiveVerifier>());
       }},
  };

  // One flat (scenario, seed) trial space. The deployment seed is derived
  // from the seed index alone so every scenario sees the same fields -- the
  // "delta vs clean" column stays a paired comparison.
  const shard::Sweep sweep{"hostile_accuracy", 17, std::size(scenarios), seeds, {"accuracy"}};
  const std::string header =
      "== Hostile-situation accuracy (paper section 4.5.2) ==\n"
      "400 nodes, 200x200 m, R = 50 m, t = 8, " +
      std::to_string(seeds) + " seeds, " + std::to_string(flags.jobs) + " jobs\n\n";

  const auto body = [&](std::size_t i, std::uint64_t) {
    return scenarios[sweep.cell(i)].run(util::derive_seed(sweep.base_seed, sweep.seed_index(i)));
  };

  const auto table = [&](const shard::SweepRecords& records) {
    util::Table out({"scenario", "benign accuracy", "stdev", "delta vs clean"});
    const double clean_mean = records.stats(0, 0).mean();
    for (std::size_t si = 0; si < sweep.cells; ++si) {
      const util::RunningStats accuracy = records.stats(si, 0);
      out.add_row({scenarios[si].name, util::Table::num(accuracy.mean(), 4),
                   util::Table::num(accuracy.stdev(), 4),
                   util::Table::num(accuracy.mean() - clean_mean, 4)});
    }
    out.print(std::cout);
    std::cout
        << "\nExpected shape: with the paper's assumed direct verification in place,\n"
        << "chaff, replication, and wormhole tunnels all leave benign accuracy\n"
        << "untouched (the attacker \"has no way to reduce the number of actual\n"
        << "benign neighbor nodes in the functional neighbor list... without\n"
        << "jamming\"); only the jamming row drops. The ablation row removes direct\n"
        << "verification: chaff then bloats binding records until their airtime\n"
        << "overruns the exchange window -- a bandwidth-DoS of the same class as\n"
        << "jamming, not a defeat of the validation logic; see EXPERIMENTS.md.\n";
    return std::vector<std::string>{};
  };

  return shard::run_sweep(cli, flags, sweep, header, body, table);
}
