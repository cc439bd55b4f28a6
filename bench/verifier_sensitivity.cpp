// Future-work study #1 (paper §6): protocol performance when the direct
// neighbor verification mechanism is imperfect -- i.e. it sometimes rejects
// genuine neighbors (false reject) or admits non-neighbors (false accept).
//
// False rejects shrink tentative lists asymmetrically: u may hold v while v
// misses u, or both miss common neighbors, so the t+1 overlap gets harder
// to reach -- accuracy degrades *faster* than the per-link error rate.
// False accepts add far-away entries that never deliver verifiable binding
// records within the window, so they cost little accuracy but pollute
// binding records (storage/bytes). Both trends quantified here.
#include <iostream>
#include <iterator>

#include "adversary/wormhole.h"
#include "core/deployment_driver.h"
#include "shard/sweep.h"
#include "topology/stats.h"
#include "util/driver_spec.h"
#include "util/table.h"

namespace {

using namespace snd;

enum Metric : std::size_t { kAccuracy, kPrecision, kRecordEntries };

/// The 6 false-reject rows come first (cells 0..5), then the 5 false-accept
/// rows (cells 6..10).
constexpr double kRejectRates[] = {0.0, 0.02, 0.05, 0.1, 0.2, 0.4};
constexpr double kAcceptRates[] = {0.0, 0.02, 0.05, 0.1, 0.2};
constexpr std::size_t kRejectRows = std::size(kRejectRates);

shard::TrialOutput run(double false_reject, double false_accept, std::size_t t,
                       std::uint64_t seed) {
  core::DeploymentConfig config;
  config.field = {{0.0, 0.0}, {200.0, 200.0}};
  config.radio_range = 50.0;
  config.protocol.threshold_t = t;
  config.seed = seed;

  core::SndDeployment deployment(config);
  deployment.set_verifier(std::make_shared<verify::ImperfectVerifier>(
      std::make_shared<verify::OracleVerifier>(), false_reject, false_accept));
  // A wormhole gives false accepts something to falsely accept: without a
  // source of receivable-but-remote identities, the false-accept branch
  // never triggers on a unit-disk radio.
  adversary::Wormhole wormhole(deployment.network(), {20.0, 100.0}, {180.0, 100.0});
  wormhole.start();
  deployment.deploy_round(400);
  deployment.run();

  double entries = 0.0;
  for (const core::SndNode* agent : deployment.agents()) {
    entries += static_cast<double>(agent->record().neighbors.size());
  }
  return {{topology::edge_recall(deployment.actual_benign_graph(),
                                 deployment.functional_graph()),
           topology::edge_precision(deployment.actual_benign_graph(),
                                    deployment.functional_graph()),
           entries / static_cast<double>(deployment.agents().size())},
          deployment.network().trace_summary()};
}

}  // namespace

int main(int argc, char** argv) {
  shard::SweepFlags flags;
  util::cli::DriverSpec driver_spec(
      "verifier_sensitivity",
      "Imperfect direct verification: validation accuracy, precision and\n"
      "record size as the verifier's false-reject rate, then its\n"
      "false-accept rate, grows.");
  driver_spec.int_flag("seeds", 5, "N", "independent deployment seeds", 1)
      .int_flag("threshold", 8, "T", "security threshold t", 0);
  shard::add_sweep_flags(driver_spec, &flags);
  const util::cli::Driver cli = driver_spec.parse(argc, argv);
  if (!cli.ok()) return cli.exit_code();
  const auto seeds = static_cast<std::size_t>(cli.get_int("seeds"));
  const auto t = static_cast<std::size_t>(cli.get_int("threshold"));

  // Seed index s deploys (s + 1) * 11 on the false-reject rows and
  // (s + 1) * 13 on the false-accept rows.
  const shard::Sweep sweep{"verifier_sensitivity", 11,
                           kRejectRows + std::size(kAcceptRates), seeds,
                           {"accuracy", "precision", "record_entries"}};
  const std::string header =
      "== Sensitivity to imperfect direct verification (paper section 6) ==\n"
      "400 nodes, 200x200 m, R = 50 m, t = " +
      std::to_string(t) + ", " + std::to_string(seeds) + " seeds, " +
      std::to_string(flags.jobs) + " jobs\n\n";

  const auto body = [&](std::size_t i, std::uint64_t) {
    const std::size_t cell = sweep.cell(i);
    const std::uint64_t s = sweep.seed_index(i) + 1;
    if (cell < kRejectRows) return run(kRejectRates[cell], 0.0, t, s * 11);
    return run(0.0, kAcceptRates[cell - kRejectRows], t, s * 13);
  };

  const auto table = [&](const shard::SweepRecords& records) {
    const auto row = [&](util::Table& out, double rate, std::size_t cell) {
      out.add_row({util::Table::percent(rate, 0),
                   util::Table::num(records.stats(cell, kAccuracy).mean(), 3),
                   util::Table::num(records.stats(cell, kPrecision).mean(), 3),
                   util::Table::num(records.stats(cell, kRecordEntries).mean(), 1)});
    };
    std::cout << "-- sweep false-REJECT rate (genuine neighbors dropped) --\n";
    util::Table rejects({"false-reject rate", "accuracy", "precision", "record entries/node"});
    for (std::size_t r = 0; r < kRejectRows; ++r) row(rejects, kRejectRates[r], r);
    rejects.print(std::cout);

    std::cout << "\n-- sweep false-ACCEPT rate (non-neighbors admitted) --\n";
    util::Table accepts({"false-accept rate", "accuracy", "precision", "record entries/node"});
    for (std::size_t r = 0; r < std::size(kAcceptRates); ++r) {
      row(accepts, kAcceptRates[r], kRejectRows + r);
    }
    accepts.print(std::cout);

    std::cout << "\nExpected shape: accuracy degrades with the false-reject rate r (an edge\n"
              << "needs at least one endpoint's verification draw plus enough surviving\n"
              << "witnesses, ~1-r^2 before threshold losses). False accepts admit\n"
              << "wormhole-relayed identities into tentative lists; SND's threshold\n"
              << "check holds the line -- precision stays ~1 -- until r times the\n"
              << "relayed neighborhood size reaches t+1, at which point the falsely\n"
              << "accepted identities start serving as each other's witnesses and\n"
              << "cross-tunnel relations form. The protocol's tolerance of a leaky\n"
              << "verifier is therefore quantifiable: keep r < (t+1)/degree.\n";
    return std::vector<std::string>{};
  };

  return shard::run_sweep(cli, flags, sweep, header, body, table);
}
