// Future-work study #2 (paper §6): "delete the master key K quickly without
// waiting for the completion of neighbor discovery. An attacker will have a
// high chance of compromising the node and thus the master key during such
// time."
//
// The early-erasure variant validates and erases K as soon as a verified
// binding record has arrived from every tentative neighbor instead of
// waiting out the fixed exchange window. This bench measures the K-exposure
// window (deployment -> erasure) and the accuracy cost, then converts
// exposure into the attacker's master-key capture probability under a
// random physical-capture process with rate lambda.
#include <cmath>
#include <iostream>

#include "core/deployment_driver.h"
#include "shard/sweep.h"
#include "topology/stats.h"
#include "util/driver_spec.h"
#include "util/stats.h"
#include "util/table.h"

namespace {

using namespace snd;

enum Metric : std::size_t { kMeanExposure, kMaxExposure, kAccuracy };

shard::TrialOutput run(bool early, double channel_loss, std::uint64_t seed) {
  core::DeploymentConfig config;
  config.field = {{0.0, 0.0}, {200.0, 200.0}};
  config.radio_range = 50.0;
  config.channel_loss = channel_loss;
  config.protocol.threshold_t = 8;
  config.protocol.early_erasure = early;
  config.seed = seed;

  core::SndDeployment deployment(config);
  deployment.deploy_round(400);
  deployment.run();

  util::RunningStats exposure;
  for (const core::SndNode* agent : deployment.agents()) {
    exposure.add(agent->key_exposure().to_milliseconds());
  }
  return {{exposure.mean(), exposure.max(),
           topology::edge_recall(deployment.actual_benign_graph(),
                                 deployment.functional_graph())},
          deployment.network().trace_summary()};
}

}  // namespace

int main(int argc, char** argv) {
  shard::SweepFlags flags;
  util::cli::DriverSpec driver_spec(
      "key_exposure",
      "Master-key exposure window (deployment to erasure of K): the fixed\n"
      "window vs early erasure, with its accuracy cost and the chance a node\n"
      "is captured while it still holds K.");
  driver_spec.int_flag("seeds", 5, "N", "independent deployment seeds", 1);
  shard::add_sweep_flags(driver_spec, &flags);
  const util::cli::Driver cli = driver_spec.parse(argc, argv);
  if (!cli.ok()) return cli.exit_code();
  const auto seeds = static_cast<std::size_t>(cli.get_int("seeds"));

  // Cell c: channel loss 5% when c >= 2, early erasure when c is odd. Seed
  // index s deploys (s + 1) * 19.
  const shard::Sweep sweep{"key_exposure", 19, 4, seeds,
                           {"mean_exposure_ms", "max_exposure_ms", "accuracy"}};
  const auto loss = [](std::size_t cell) { return cell >= 2 ? 0.05 : 0.0; };
  const auto early = [](std::size_t cell) { return cell % 2 == 1; };
  const std::string header =
      "== Master-key exposure window: fixed window vs early erasure ==\n"
      "400 nodes, 200x200 m, R = 50 m, t = 8, " +
      std::to_string(seeds) + " seeds, " + std::to_string(flags.jobs) + " jobs\n\n";

  const auto body = [&](std::size_t i, std::uint64_t) {
    const std::size_t cell = sweep.cell(i);
    return run(early(cell), loss(cell), (sweep.seed_index(i) + 1) * 19);
  };

  const auto table = [&](const shard::SweepRecords& records) {
    util::Table out({"variant", "channel loss", "mean exposure (ms)", "max exposure (ms)",
                     "accuracy", "P(K captured), lambda=0.1/s"});
    for (std::size_t cell = 0; cell < sweep.cells; ++cell) {
      const double mean_exposure = records.stats(cell, kMeanExposure).mean();
      // Physical capture modeled as Poisson with rate lambda per node: the
      // chance a node is captured while it still holds K.
      const double lambda_per_ms = 0.1 / 1000.0;
      const double capture = 1.0 - std::exp(-lambda_per_ms * mean_exposure);
      out.add_row({early(cell) ? "early erasure" : "fixed window",
                   util::Table::percent(loss(cell), 0), util::Table::num(mean_exposure, 1),
                   util::Table::num(records.stats(cell, kMaxExposure).mean(), 1),
                   util::Table::num(records.stats(cell, kAccuracy).mean(), 3),
                   util::Table::percent(capture, 3)});
    }
    out.print(std::cout);
    std::cout << "\nExpected shape: early erasure cuts the exposure window roughly in half\n"
              << "on a clean channel at no accuracy cost; under loss, nodes missing a\n"
              << "record reply fall back to the fixed window, so the gap narrows.\n";
    return std::vector<std::string>{};
  };

  return shard::run_sweep(cli, flags, sweep, header, body, table);
}
