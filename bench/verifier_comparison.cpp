// Comparison of the direct-verification mechanisms (paper references
// [8]-[10], [15]) under the two attacks they exist to stop -- wormhole
// relays and fabricated identities -- plus their benign accuracy and
// per-verification message cost. Complements verifier_sensitivity (which
// sweeps *error rates* of a single mechanism).
#include <iostream>
#include <iterator>
#include <memory>

#include "adversary/chaff.h"
#include "adversary/wormhole.h"
#include "core/deployment_driver.h"
#include "shard/sweep.h"
#include "topology/stats.h"
#include "util/driver_spec.h"
#include "util/table.h"

namespace {

using namespace snd;

struct VerifierCase {
  const char* label;
  std::function<std::shared_ptr<verify::DirectVerifier>()> make;
};

/// kCrossEdges: tentative edges bridging the tunnel; kChaffPollution: fake
/// ids per node's tentative list.
enum Metric : std::size_t { kBenignAccuracy, kCrossEdges, kChaffPollution };

shard::TrialOutput run(const VerifierCase& verifier_case, std::uint64_t seed) {
  core::DeploymentConfig config;
  config.field = {{0.0, 0.0}, {400.0, 100.0}};
  config.radio_range = 50.0;
  config.protocol.threshold_t = 2;
  config.seed = seed;

  core::SndDeployment deployment(config);
  deployment.set_verifier(verifier_case.make());

  // Wormhole joining the two ends of the corridor + one chaff radio.
  adversary::Wormhole wormhole(deployment.network(), {40.0, 50.0}, {360.0, 50.0});
  wormhole.start();
  const sim::DeviceId chaff_device = deployment.network().add_device(90000, {200.0, 50.0});
  deployment.network().mark_compromised(chaff_device);
  adversary::ChaffAttacker chaff(deployment.network(), chaff_device, 100000, 4);
  chaff.start();

  deployment.deploy_round(250);
  deployment.run();

  const double benign_accuracy =
      topology::edge_recall(deployment.actual_benign_graph(), deployment.functional_graph());

  // Cross-tunnel tentative edges: pairs > 2R apart that list each other.
  const topology::Digraph tentative = deployment.tentative_graph();
  std::size_t cross = 0;
  std::size_t chaff_entries = 0;
  for (const core::SndNode* agent : deployment.agents()) {
    const util::Vec2 from = deployment.network().device(agent->device()).position;
    for (NodeId v : agent->tentative_neighbors()) {
      if (v >= 100000) {
        ++chaff_entries;
        continue;
      }
      const core::SndNode* peer = deployment.agent(v);
      if (peer == nullptr) continue;
      const util::Vec2 to = deployment.network().device(peer->device()).position;
      if (util::distance(from, to) > 2.0 * config.radio_range) ++cross;
    }
  }
  return {{benign_accuracy, static_cast<double>(cross),
           static_cast<double>(chaff_entries) /
               static_cast<double>(deployment.agents().size())},
          deployment.network().trace_summary()};
}

}  // namespace

int main(int argc, char** argv) {
  shard::SweepFlags flags;
  util::cli::DriverSpec driver_spec(
      "verifier_comparison",
      "Direct-verification mechanisms (none, oracle, RTT distance bounding,\n"
      "location claims) under a wormhole plus chaff: benign accuracy, tunnel\n"
      "edges and fake identities admitted, and messages per verification.");
  driver_spec.int_flag("seeds", 3, "N", "independent deployment seeds", 1);
  shard::add_sweep_flags(driver_spec, &flags);
  const util::cli::Driver cli = driver_spec.parse(argc, argv);
  if (!cli.ok()) return cli.exit_code();
  const auto seeds = static_cast<std::size_t>(cli.get_int("seeds"));

  const VerifierCase cases[] = {
      {"none (naive)", [] { return std::make_shared<verify::NaiveVerifier>(); }},
      {"oracle (paper's assumption)",
       [] { return std::make_shared<verify::OracleVerifier>(); }},
      {"RTT distance bounding", [] { return std::make_shared<verify::RttVerifier>(); }},
      {"location claims", [] { return std::make_shared<verify::LocationVerifier>(); }},
  };

  // One cell per mechanism; seed index s deploys (s + 1) * 53.
  const shard::Sweep sweep{"verifier_comparison", 53, std::size(cases), seeds,
                           {"benign_accuracy", "wormhole_cross_edges", "chaff_ids_per_node"}};
  const std::string header =
      "== Direct-verification mechanisms under wormhole + chaff ==\n"
      "250 nodes in a 400x100 m corridor, tunnel across it, chaff mid-field,\n" +
      std::to_string(seeds) + " seeds, " + std::to_string(flags.jobs) + " jobs\n\n";

  const auto body = [&](std::size_t i, std::uint64_t) {
    return run(cases[sweep.cell(i)], (sweep.seed_index(i) + 1) * 53);
  };

  const auto table = [&](const shard::SweepRecords& records) {
    util::Table out({"mechanism", "benign accuracy", "wormhole edges admitted",
                     "chaff ids/node", "msgs per verification"});
    for (std::size_t cell = 0; cell < sweep.cells; ++cell) {
      out.add_row({cases[cell].label,
                   util::Table::num(records.stats(cell, kBenignAccuracy).mean(), 3),
                   util::Table::num(records.stats(cell, kCrossEdges).mean(), 1),
                   util::Table::num(records.stats(cell, kChaffPollution).mean(), 1),
                   util::Table::integer(static_cast<long long>(
                       cases[cell].make()->messages_per_verification()))});
    }
    out.print(std::cout);
    std::cout << "\nExpected shape: with no verification the tunnel bridges the corridor\n"
              << "and chaff floods every list; every authenticated mechanism zeroes both\n"
              << "at slightly differing benign accuracy (RTT pays jitter false-rejects).\n";
    return std::vector<std::string>{};
  };

  return shard::run_sweep(cli, flags, sweep, header, body, table);
}
