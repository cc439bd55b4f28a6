// Theorem 3 reproduction: with at most t compromised nodes, the protocol
// guarantees 2R-safety -- every compromised identity's benign functional
// neighbors fit in a circle of radius 2R.
//
// The bench mounts the strongest replication attack the model allows: the
// adversary compromises c mutually-adjacent nodes (a colluding clique, so
// each stolen binding record lists the other compromised identities),
// co-locates replicas of ALL of them at a remote site, and waits for a
// fresh deployment round there. A fresh victim x sees all c compromised
// identities; checking identity w_i, the common neighbors are the other
// c-1 compromised identities -- so the attack needs c - 1 >= t + 1, i.e.
// c >= t + 2, to break containment. The table sweeps c across the t
// boundary: zero violations up to c = t + 1, violations beyond. The driver
// exits 1 and names the row when a seed breaks either side of that
// boundary.
#include <algorithm>
#include <cmath>
#include <iostream>

#include "adversary/attacker.h"
#include "core/safety.h"
#include "shard/sweep.h"
#include "util/driver_spec.h"
#include "util/table.h"

namespace {

using namespace snd;

enum Metric : std::size_t { kViolations, kMaxRadius, kFooled };

shard::TrialOutput run_attack(std::size_t t, std::size_t compromised, std::uint64_t seed) {
  core::DeploymentConfig config;
  config.field = {{0.0, 0.0}, {500.0, 500.0}};
  config.radio_range = 50.0;
  config.protocol.threshold_t = t;
  config.seed = seed;

  core::SndDeployment deployment(config);
  // A dense pocket around (100,100) guarantees `compromised` mutually
  // adjacent victims; the rest of the field is uniform.
  std::vector<NodeId> pocket;
  for (std::size_t i = 0; i < compromised; ++i) {
    const double angle = 2.0 * 3.14159265 * static_cast<double>(i) /
                         static_cast<double>(std::max<std::size_t>(compromised, 1));
    pocket.push_back(deployment.deploy_node_at(
        {100.0 + 10.0 * std::cos(angle), 100.0 + 10.0 * std::sin(angle)}));
  }
  deployment.deploy_round(500);
  deployment.run();

  // Compromise the whole pocket and replicate every identity at the far
  // corner.
  adversary::Attacker attacker(deployment);
  const util::Vec2 remote{450.0, 450.0};
  for (NodeId w : pocket) {
    attacker.compromise(w);
    attacker.place_replica(w, remote);
  }
  deployment.run();

  // Fresh deployment round near the replica site.
  std::vector<NodeId> fresh;
  for (int i = 0; i < 10; ++i) {
    fresh.push_back(deployment.deploy_node_at(
        {430.0 + 4.0 * (i % 5), 430.0 + 8.0 * static_cast<double>(i / 5)}));
  }
  deployment.run();

  const core::SafetyReport report = core::audit_safety(deployment, 2.0 * config.radio_range);
  std::size_t fooled = 0;
  for (NodeId x : fresh) {
    const core::SndNode* agent = deployment.agent(x);
    for (NodeId w : pocket) {
      if (topology::contains(agent->functional_neighbors(), w)) {
        ++fooled;
        break;
      }
    }
  }
  return {{static_cast<double>(report.violation_count()), report.max_impact_radius(),
           static_cast<double>(fooled)},
          deployment.network().trace_summary()};
}

}  // namespace

int main(int argc, char** argv) {
  shard::SweepFlags flags;
  util::cli::DriverSpec driver_spec(
      "thm3_safety",
      "Theorem 3 check: a colluding clique of c compromised nodes cannot\n"
      "create a functional link longer than 2R unless c > t.");
  driver_spec.int_flag("threshold", 4, "T", "security threshold t", 0)
      .int_flag("seeds", 5, "N", "independent seeds per clique size", 1);
  shard::add_sweep_flags(driver_spec, &flags);
  const util::cli::Driver cli = driver_spec.parse(argc, argv);
  if (!cli.ok()) return cli.exit_code();

  const auto t = static_cast<std::size_t>(cli.get_int("threshold"));
  const auto seeds = static_cast<std::size_t>(cli.get_int("seeds"));

  // One flat (c, seed) trial space: cell c - 1 attacks with a clique of c.
  const shard::Sweep sweep{"thm3_safety", 7919, t + 3, seeds,
                           {"violations", "max_radius", "fooled_fresh_nodes"}};
  const std::string header =
      "== Theorem 3: 2R-safety vs number of colluding compromised nodes ==\n"
      "t = " + std::to_string(t) +
      ", R = 50 m (2R = 100 m), colluding clique replicated at a\n"
      "remote site, fresh nodes deployed next to the replicas, " +
      std::to_string(seeds) + " seeds, " + std::to_string(flags.jobs) + " jobs\n\n";

  const auto body = [&](std::size_t i, std::uint64_t seed) {
    return run_attack(t, 1 + sweep.cell(i), seed);
  };

  const auto table = [&](const shard::SweepRecords& records) {
    std::vector<std::string> broken;
    util::Table out({"compromised c", "prediction", "2R violations", "max impact radius (m)",
                     "fresh nodes fooled"});
    for (std::size_t ci = 0; ci < sweep.cells; ++ci) {
      const std::size_t c = ci + 1;
      const util::RunningStats violations = records.stats(ci, kViolations);
      out.add_row({util::Table::integer(static_cast<long long>(c)),
                   c <= t ? "safe (Thm 3)" : c == t + 1 ? "safe (margin)" : "breakable",
                   util::Table::num(violations.mean(), 2),
                   util::Table::num(records.stats(ci, kMaxRadius).max(), 1),
                   util::Table::num(records.stats(ci, kFooled).mean(), 1)});
      const std::string row = "claim broken at row c = " + std::to_string(c) + ": ";
      if (c <= t + 1 && violations.max() > 0.0) {
        broken.push_back(row + "a seed has " + util::Table::num(violations.max(), 0) +
                         " 2R violations, but a clique of c <= t + 1 cannot break "
                         "2R-safety (Theorem 3)");
      }
      if (c == t + 2 && violations.min() == 0.0) {
        broken.push_back(row + "a seed has no 2R violation, but the clique attack breaks "
                               "containment at c = t + 2");
      }
    }
    out.print(std::cout);
    std::cout << "\nExpected shape: zero violations for c <= t (the Theorem 3 guarantee; the\n"
              << "strongest clique attack in fact needs c >= t+2), violations with impact\n"
              << "radius ~ field diagonal once c crosses t+2.\n";
    return broken;
  };

  return shard::run_sweep(cli, flags, sweep, header, body, table);
}
