// Ablation over the pairwise key predistribution substrate (paper §2
// assumes "every two nodes in the field can establish a pairwise key" via
// [3][4][6][7][13]). The deterministic schemes (KDC, Blundo polynomials)
// satisfy the assumption exactly; the probabilistic Eschenauer-Gligor pool
// denies some pairs a key, which silently removes their authenticated
// exchanges -- this bench measures what that costs the discovery accuracy,
// alongside each scheme's per-node storage and capture resilience.
#include <iostream>
#include <iterator>
#include <memory>

#include "core/deployment_driver.h"
#include "crypto/blundo.h"
#include "crypto/eg_pool.h"
#include "shard/sweep.h"
#include "topology/stats.h"
#include "util/driver_spec.h"
#include "util/table.h"

namespace {

using namespace snd;

struct SchemeCase {
  const char* label;
  std::function<std::shared_ptr<crypto::KeyPredistribution>(std::uint64_t)> make;
  const char* resilience;
};

/// kSameRound: directed-edge recall over the whole field (one deployment
/// round). kCrossRoundMutual: fraction of physically adjacent (new, old)
/// pairs that ended up MUTUALLY functional after a second round. Same-round
/// validation works from overheard (self-authenticating) record broadcasts,
/// so keyless pairs only surface in the second: the old node learns a new
/// neighbor solely through the pairwise-authenticated relation commitment.
enum Metric : std::size_t { kSameRound, kCrossRoundMutual };

shard::TrialOutput run_accuracy(const std::shared_ptr<crypto::KeyPredistribution>& scheme,
                                std::uint64_t seed) {
  core::DeploymentConfig config;
  config.field = {{0.0, 0.0}, {150.0, 150.0}};
  config.radio_range = 50.0;
  config.protocol.threshold_t = 5;
  config.seed = seed;
  core::SndDeployment deployment(config);
  deployment.set_key_scheme(scheme);
  const std::vector<NodeId> old_nodes = deployment.deploy_round(150);
  deployment.run();

  const double same_round = topology::edge_recall(deployment.actual_benign_graph(),
                                                 deployment.functional_graph());

  const std::vector<NodeId> new_nodes = deployment.deploy_round(50);
  deployment.run();

  std::size_t adjacent_pairs = 0;
  std::size_t mutual = 0;
  const topology::Digraph functional = deployment.functional_graph();
  for (NodeId fresh : new_nodes) {
    const core::SndNode* fresh_agent = deployment.agent(fresh);
    for (NodeId old_id : old_nodes) {
      const core::SndNode* old_agent = deployment.agent(old_id);
      if (!deployment.network().link(fresh_agent->device(), old_agent->device())) continue;
      ++adjacent_pairs;
      if (functional.has_edge(fresh, old_id) && functional.has_edge(old_id, fresh)) ++mutual;
    }
  }
  return {{same_round, adjacent_pairs == 0 ? 1.0
                                           : static_cast<double>(mutual) /
                                                 static_cast<double>(adjacent_pairs)},
          deployment.network().trace_summary()};
}

}  // namespace

int main(int argc, char** argv) {
  shard::SweepFlags flags;
  util::cli::DriverSpec driver_spec(
      "key_scheme_ablation",
      "Key-predistribution ablation: discovery accuracy, storage and capture\n"
      "resilience of the KDC-derived keys the paper assumes, Blundo\n"
      "polynomials and Eschenauer-Gligor key pools.");
  driver_spec.int_flag("seeds", 4, "N", "independent deployment seeds", 1);
  shard::add_sweep_flags(driver_spec, &flags);
  const util::cli::Driver cli = driver_spec.parse(argc, argv);
  if (!cli.ok()) return cli.exit_code();
  const auto seeds = static_cast<std::size_t>(cli.get_int("seeds"));

  const SchemeCase cases[] = {
      {"KDC-derived (paper's assumption)",
       [](std::uint64_t s) -> std::shared_ptr<crypto::KeyPredistribution> {
         return crypto::KdcScheme::from_seed(s);
       },
       "none (single master secret)"},
      {"Blundo polynomial, lambda=10",
       [](std::uint64_t s) -> std::shared_ptr<crypto::KeyPredistribution> {
         return std::make_shared<crypto::BlundoScheme>(s, 10);
       },
       "information-theoretic <= 10 captures"},
      {"Blundo polynomial, lambda=30",
       [](std::uint64_t s) -> std::shared_ptr<crypto::KeyPredistribution> {
         return std::make_shared<crypto::BlundoScheme>(s, 30);
       },
       "information-theoretic <= 30 captures"},
      {"EG pool P=2000 m=60 (q=1)",
       [](std::uint64_t s) -> std::shared_ptr<crypto::KeyPredistribution> {
         return std::make_shared<crypto::EschenauerGligorScheme>(s, 2000, 60, 1);
       },
       "probabilistic (key reuse)"},
      {"EG pool P=2000 m=60 (q=2 composite)",
       [](std::uint64_t s) -> std::shared_ptr<crypto::KeyPredistribution> {
         return std::make_shared<crypto::EschenauerGligorScheme>(s, 2000, 60, 2);
       },
       "stronger small-capture resilience"},
  };

  // One cell per scheme; seed index s keys and deploys (s + 1) * 41.
  const shard::Sweep sweep{"key_scheme_ablation", 41, std::size(cases), seeds,
                           {"same_round_accuracy", "cross_round_mutual"}};
  const std::string header =
      "== Key predistribution ablation ==\n"
      "200 nodes, 150x150 m, R = 50 m, t = 5, " +
      std::to_string(seeds) + " seeds, " + std::to_string(flags.jobs) + " jobs\n\n";

  const auto body = [&](std::size_t i, std::uint64_t) {
    const std::uint64_t seed = (sweep.seed_index(i) + 1) * 41;
    return run_accuracy(cases[sweep.cell(i)].make(seed), seed);
  };

  const auto table = [&](const shard::SweepRecords& records) {
    util::Table out({"scheme", "pairwise connectivity", "same-round accuracy",
                     "new<->old mutual", "storage/node (B)", "capture resilience"});
    for (std::size_t cell = 0; cell < sweep.cells; ++cell) {
      const SchemeCase& scheme_case = cases[cell];
      const auto probe = scheme_case.make(1);
      std::string connectivity = "1.000 (deterministic)";
      if (const auto* eg = dynamic_cast<const crypto::EschenauerGligorScheme*>(probe.get())) {
        connectivity = util::Table::num(eg->analytical_share_probability(), 3);
      }
      out.add_row(
          {scheme_case.label, connectivity,
           util::Table::num(records.stats(cell, kSameRound).mean(), 3),
           util::Table::num(records.stats(cell, kCrossRoundMutual).mean(), 3),
           util::Table::integer(static_cast<long long>(probe->storage_bytes_per_node())),
           scheme_case.resilience});
    }
    out.print(std::cout);
    std::cout << "\nExpected shape: SAME-ROUND accuracy is key-scheme independent (records\n"
              << "are overheard as self-authenticating broadcasts), so every row reads\n"
              << "~1.0 there. The scheme bites in incremental deployment: an old node\n"
              << "only learns a new neighbor through the pairwise-authenticated relation\n"
              << "commitment, so EG-style pools lose roughly (1 - connectivity) of the\n"
              << "new<->old mutual relations, more for q=2 at equal ring size.\n";
    return std::vector<std::string>{};
  };

  return shard::run_sweep(cli, flags, sweep, header, body, table);
}
