// Ablation: what secure neighbor discovery buys the applications the paper's
// introduction motivates (clustering and routing), and what the threshold
// costs in benign connectivity.
//
// Under a replication attack, clustering over the unvalidated (tentative)
// topology absorbs members across the field -- the paper's "many sensor
// nodes far from each other may be included in the same cluster"; over the
// validated (functional) topology, clusters stay local. Routing restricted
// to functional relations keeps near-ground-truth delivery.
#include <iostream>
#include <map>

#include "adversary/attacker.h"
#include "apps/aggregation.h"
#include "apps/clustering.h"
#include "apps/georouting.h"
#include "core/deployment_driver.h"
#include "shard/sweep.h"
#include "topology/stats.h"
#include "util/driver_spec.h"
#include "util/rng.h"
#include "util/table.h"

namespace {

using namespace snd;

std::map<NodeId, util::Vec2> original_positions(const core::SndDeployment& deployment) {
  std::map<NodeId, util::Vec2> positions;
  for (const sim::Device& d : deployment.network().devices()) {
    if (!d.replica) positions.emplace(d.identity, d.position);
  }
  return positions;
}

enum Metric : std::size_t {
  kRecall,
  kTruthDiameter,
  kTentativeDiameter,
  kFunctionalDiameter,
  kTentativeHeadDistance,
  kFunctionalHeadDistance,
  kTruthAggError,
  kTentativeAggError,
  kFunctionalAggError,
  kTruthDelivery,
  kFunctionalDelivery,
};

/// One attacked deployment; `route_seed` draws the routing pairs.
shard::TrialOutput run(std::uint64_t seed, std::uint64_t route_seed) {
  core::DeploymentConfig config;
  config.field = {{0.0, 0.0}, {300.0, 300.0}};
  config.radio_range = 50.0;
  config.protocol.threshold_t = 5;
  config.seed = seed;

  core::SndDeployment deployment(config);
  deployment.deploy_round(400);
  deployment.run();

  adversary::Attacker attacker(deployment);
  for (NodeId victim : {2u, 3u, 4u}) {
    attacker.compromise(victim);
    attacker.place_replica(victim, {280.0, 280.0});
  }
  deployment.run();
  for (int i = 0; i < 12; ++i) {
    deployment.deploy_node_at({250.0 + 4.0 * (i % 6), 260.0 + 10.0 * (i / 6)});
  }
  deployment.run();

  const auto positions = original_positions(deployment);
  const topology::Digraph actual = deployment.actual_benign_graph();
  const topology::Digraph tentative = deployment.tentative_graph();
  const topology::Digraph functional = deployment.functional_graph();

  // Clustering quality and aggregation error over the three views.
  const auto quality_of = [&](const topology::Digraph& g) {
    return apps::evaluate_clusters(apps::smallest_id_clustering(g), positions);
  };
  const auto q_tentative = quality_of(tentative);
  const auto q_functional = quality_of(functional);
  const auto q_truth = quality_of(actual);
  const auto agg_of = [&](const topology::Digraph& g) {
    return apps::evaluate_aggregation(apps::smallest_id_clustering(g), positions).max_error;
  };

  // Routing delivery ratio: 60 random device pairs.
  util::Rng route_rng(route_seed);
  const apps::GeoRouter functional_router(deployment.network(), functional);
  const apps::GeoRouter truth_router(deployment.network());
  std::size_t functional_ok = 0;
  std::size_t truth_ok = 0;
  const std::size_t trials = 60;
  for (std::size_t i = 0; i < trials; ++i) {
    const auto a = static_cast<sim::DeviceId>(route_rng.uniform_int(400));
    const auto b = static_cast<sim::DeviceId>(route_rng.uniform_int(400));
    if (functional_router.route(a, b).success) ++functional_ok;
    if (truth_router.route(a, b).success) ++truth_ok;
  }

  std::vector<double> values(kFunctionalDelivery + 1);
  values[kRecall] = topology::edge_recall(actual, functional);
  values[kTruthDiameter] = q_truth.max_diameter_m;
  values[kTentativeDiameter] = q_tentative.max_diameter_m;
  values[kFunctionalDiameter] = q_functional.max_diameter_m;
  values[kTentativeHeadDistance] = q_tentative.max_member_to_head_m;
  values[kFunctionalHeadDistance] = q_functional.max_member_to_head_m;
  values[kTruthAggError] = agg_of(actual);
  values[kTentativeAggError] = agg_of(tentative);
  values[kFunctionalAggError] = agg_of(functional);
  values[kTruthDelivery] = static_cast<double>(truth_ok) / trials;
  values[kFunctionalDelivery] = static_cast<double>(functional_ok) / trials;
  return {std::move(values), deployment.network().trace_summary()};
}

}  // namespace

int main(int argc, char** argv) {
  shard::SweepFlags flags;
  util::cli::DriverSpec driver_spec(
      "app_impact",
      "Application-level impact of secure neighbor discovery under a\n"
      "replication attack: clustering, in-network aggregation and greedy\n"
      "geographic routing over the functional vs tentative topology.");
  driver_spec.int_flag("seeds", 6, "N", "independent deployment seeds", 1);
  shard::add_sweep_flags(driver_spec, &flags);
  const util::cli::Driver cli = driver_spec.parse(argc, argv);
  if (!cli.ok()) return cli.exit_code();
  const auto seeds = static_cast<std::size_t>(cli.get_int("seeds"));

  // One cell; seed index s deploys (s + 1) * 37 and draws its routing pairs
  // from Rng(s + 1).
  const shard::Sweep sweep{"app_impact", 37, 1, seeds,
                           {"recall", "truth_diameter_m", "tentative_diameter_m",
                            "functional_diameter_m", "tentative_head_distance_m",
                            "functional_head_distance_m", "truth_agg_error",
                            "tentative_agg_error", "functional_agg_error",
                            "truth_delivery", "functional_delivery"}};
  const std::string header =
      "== Application impact of secure neighbor discovery ==\n"
      "400 nodes, 300x300 m, R = 50 m, t = 5; 3 identities replicated at the\n"
      "far corner, fresh deployment round near the replicas; " +
      std::to_string(seeds) + " seeds, " + std::to_string(flags.jobs) + " jobs\n\n";

  const auto body = [&](std::size_t i, std::uint64_t) {
    const std::uint64_t s = sweep.seed_index(i) + 1;
    return run(s * 37, s);
  };

  const auto table = [&](const shard::SweepRecords& records) {
    const auto mean = [&](Metric metric) { return records.stats(0, metric).mean(); };
    util::Table clustering({"topology used", "max cluster diameter (m)",
                            "max member-to-head (m)"});
    clustering.add_row({"ground truth (no attack possible)",
                        util::Table::num(mean(kTruthDiameter), 1), "-"});
    clustering.add_row({"tentative (unvalidated, attacked)",
                        util::Table::num(mean(kTentativeDiameter), 1),
                        util::Table::num(mean(kTentativeHeadDistance), 1)});
    clustering.add_row({"functional (SND-validated)",
                        util::Table::num(mean(kFunctionalDiameter), 1),
                        util::Table::num(mean(kFunctionalHeadDistance), 1)});
    std::cout << "-- clustering (smallest-ID heads) --\n";
    clustering.print(std::cout);

    std::cout << "\n-- in-network averaging (worst cluster's aggregation error) --\n";
    util::Table aggregation({"topology used", "max aggregation error"});
    aggregation.add_row({"ground truth", util::Table::num(mean(kTruthAggError), 2)});
    aggregation.add_row({"tentative (unvalidated, attacked)",
                         util::Table::num(mean(kTentativeAggError), 2)});
    aggregation.add_row({"functional (SND-validated)",
                         util::Table::num(mean(kFunctionalAggError), 2)});
    aggregation.print(std::cout);

    std::cout << "\n-- greedy geographic routing, 60 random pairs --\n";
    util::Table routing({"topology used", "delivery ratio"});
    routing.add_row({"ground truth links", util::Table::percent(mean(kTruthDelivery), 1)});
    routing.add_row({"functional (SND-validated)",
                     util::Table::percent(mean(kFunctionalDelivery), 1)});
    routing.print(std::cout);

    std::cout << "\nbenign edge recall of the functional topology: "
              << util::Table::percent(mean(kRecall), 1) << "\n"
              << "\nExpected shape: tentative-topology clusters span the attack distance\n"
              << "(~300-400 m diameters); functional clusters stay radio-local (~<= 2R);\n"
              << "routing over functional relations loses little vs ground truth.\n";
    return std::vector<std::string>{};
  };

  return shard::run_sweep(cli, flags, sweep, header, body, table);
}
