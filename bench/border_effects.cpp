// Methodology check: the paper measures Figure 3 at the node "located at
// the center of this field" because its analytical model assumes an
// infinite plane. This bench quantifies the border effect the choice
// avoids: nodes near the field edge see only disk∩field neighborhoods, so
// their common-neighbor counts -- and therefore their validated fraction at
// a given threshold -- fall below the model. The border-corrected expected
// degree (analysis::expected_neighbors_at) tracks the measured degrees.
#include <iostream>
#include <iterator>

#include "analysis/model.h"
#include "core/deployment_driver.h"
#include "shard/sweep.h"
#include "util/driver_spec.h"
#include "util/table.h"

namespace {

using namespace snd;

struct Probe {
  const char* label;
  util::Vec2 position;
};

constexpr Probe kProbes[] = {
    {"center (100,100)", {100.0, 100.0}},
    {"mid-edge (0,100)", {0.0, 100.0}},
    {"corner (0,0)", {0.0, 0.0}},
    {"near-edge (25,100)", {25.0, 100.0}},
};

enum Metric : std::size_t { kDegree, kAccuracy };

shard::TrialOutput run_probe(util::Vec2 position, std::size_t threshold, std::uint64_t seed) {
  core::DeploymentConfig config;
  config.field = {{0.0, 0.0}, {200.0, 200.0}};
  config.radio_range = 50.0;
  config.protocol.threshold_t = threshold;
  config.seed = seed;

  core::SndDeployment deployment(config);
  const NodeId probe = deployment.deploy_node_at(position);
  deployment.deploy_round(800 - 1);  // density 0.02 nodes/m^2, as in Fig. 3
  deployment.run();

  const core::SndNode* agent = deployment.agent(probe);
  std::size_t actual = 0;
  std::size_t validated = 0;
  for (const sim::Device& d : deployment.network().devices()) {
    if (d.identity == probe) continue;
    if (!deployment.network().link(agent->device(), d.id)) continue;
    ++actual;
    if (topology::contains(agent->functional_neighbors(), d.identity)) ++validated;
  }
  return {{static_cast<double>(actual),
           actual == 0 ? 0.0
                       : static_cast<double>(validated) / static_cast<double>(actual)},
          deployment.network().trace_summary()};
}

}  // namespace

int main(int argc, char** argv) {
  shard::SweepFlags flags;
  util::cli::DriverSpec driver_spec(
      "border_effects",
      "Field-border effects: validation accuracy of edge and corner nodes\n"
      "versus interior nodes.");
  driver_spec.int_flag("seeds", 6, "N", "independent deployment seeds", 1)
      .int_flag("threshold", 60, "T", "security threshold t", 0);
  shard::add_sweep_flags(driver_spec, &flags);
  const util::cli::Driver cli = driver_spec.parse(argc, argv);
  if (!cli.ok()) return cli.exit_code();
  const auto seeds = static_cast<std::size_t>(cli.get_int("seeds"));
  const auto t = static_cast<std::size_t>(cli.get_int("threshold"));

  const analysis::FieldModel model{0.02, 50.0};

  // One cell per probe position; seed index s deploys (s + 1) * 61.
  const shard::Sweep sweep{"border_effects", 61, std::size(kProbes), seeds,
                           {"degree", "validated_fraction"}};
  const std::string header =
      "== Border effects: why the paper measures the center node ==\n"
      "800 nodes, 200x200 m (density 0.02/m^2), R = 50 m, t = " +
      std::to_string(t) + ", " + std::to_string(seeds) + " seeds, " +
      std::to_string(flags.jobs) + " jobs\n\n";

  const auto body = [&](std::size_t i, std::uint64_t) {
    return run_probe(kProbes[sweep.cell(i)].position, t, (sweep.seed_index(i) + 1) * 61);
  };

  const auto table = [&](const shard::SweepRecords& records) {
    util::Table out({"probe position", "predicted degree (border model)", "measured degree",
                     "validated fraction", "infinite-plane model"});
    for (std::size_t cell = 0; cell < sweep.cells; ++cell) {
      const Probe& probe = kProbes[cell];
      const double predicted = analysis::expected_neighbors_at(
          model, {probe.position.x, probe.position.y, 200.0, 200.0});
      out.add_row({probe.label, util::Table::num(predicted, 1),
                   util::Table::num(records.stats(cell, kDegree).mean(), 1),
                   util::Table::num(records.stats(cell, kAccuracy).mean(), 3),
                   util::Table::num(model.accuracy(t), 3)});
    }
    out.print(std::cout);
    std::cout << "\nExpected shape: the border-corrected degree prediction matches the\n"
              << "measurement everywhere; at the center the validated fraction matches\n"
              << "the paper's infinite-plane model, while edge/corner probes fall short\n"
              << "of it -- the bias the paper's center-node methodology avoids.\n";
    return std::vector<std::string>{};
  };

  return shard::run_sweep(cli, flags, sweep, header, body, table);
}
