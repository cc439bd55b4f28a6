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
// boundary: zero violations up to c = t + 1, violations beyond.
#include <algorithm>
#include <cmath>
#include <iostream>

#include "adversary/attacker.h"
#include "core/safety.h"
#include "obs/config.h"
#include "runner/trial_runner.h"
#include "util/driver_spec.h"
#include "util/stats.h"
#include "util/table.h"

namespace {

using namespace snd;

struct Outcome {
  std::size_t violations = 0;
  double max_radius = 0.0;
  std::size_t fooled_fresh_nodes = 0;
};

Outcome run_attack(std::size_t t, std::size_t compromised, std::uint64_t seed) {
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
  Outcome outcome;
  outcome.violations = report.violation_count();
  outcome.max_radius = report.max_impact_radius();
  for (NodeId x : fresh) {
    const core::SndNode* agent = deployment.agent(x);
    for (NodeId w : pocket) {
      if (topology::contains(agent->functional_neighbors(), w)) {
        ++outcome.fooled_fresh_nodes;
        break;
      }
    }
  }
  return outcome;
}

}  // namespace

int main(int argc, char** argv) {
  std::size_t jobs = 1;
  obs::ObsConfig obs_config;
  util::cli::DriverSpec driver_spec(
      "thm3_safety",
      "Theorem 3 check: a colluding clique of c compromised nodes cannot\n"
      "create a functional link longer than 2R unless c > t.");
  driver_spec.int_flag("threshold", 4, "T", "security threshold t", 0)
      .int_flag("seeds", 5, "N", "independent seeds per clique size", 1)
      .group(util::cli::jobs_group(&jobs))
      .group(obs::obs_flag_group(&obs_config));
  const util::cli::Driver cli = driver_spec.parse(argc, argv);
  if (!cli.ok()) return cli.exit_code();
  if (!obs::apply_obs(obs_config, std::cerr)) return 2;

  const auto t = static_cast<std::size_t>(cli.get_int("threshold"));
  const auto seeds = static_cast<std::size_t>(cli.get_int("seeds"));
  runner::TrialRunner pool(jobs);

  std::cout << "== Theorem 3: 2R-safety vs number of colluding compromised nodes ==\n"
            << "t = " << t << ", R = 50 m (2R = 100 m), colluding clique replicated at a\n"
            << "remote site, fresh nodes deployed next to the replicas, " << seeds
            << " seeds, " << pool.jobs() << " jobs\n\n";

  // One flat (c, seed) trial space: trial i attacks with c = 1 + i / seeds.
  runner::SweepReport report;
  report.name = "thm3_safety";
  const std::size_t c_count = t + 3;
  const auto outcomes = pool.run(
      c_count * seeds, /*base_seed=*/7919,
      [&](std::size_t i, std::uint64_t seed) { return run_attack(t, 1 + i / seeds, seed); },
      &report);

  util::Table table({"compromised c", "prediction", "2R violations", "max impact radius (m)",
                     "fresh nodes fooled"});
  for (std::size_t ci = 0; ci < c_count; ++ci) {
    const std::size_t c = ci + 1;
    util::RunningStats violations;
    util::RunningStats radius;
    util::RunningStats fooled;
    for (std::size_t s = 0; s < seeds; ++s) {
      const auto& outcome = outcomes[ci * seeds + s];
      if (!outcome.has_value()) continue;
      violations.add(static_cast<double>(outcome->violations));
      radius.add(outcome->max_radius);
      fooled.add(static_cast<double>(outcome->fooled_fresh_nodes));
    }
    table.add_row({util::Table::integer(static_cast<long long>(c)),
                   c <= t ? "safe (Thm 3)" : c == t + 1 ? "safe (margin)" : "breakable",
                   util::Table::num(violations.mean(), 2), util::Table::num(radius.max(), 1),
                   util::Table::num(fooled.mean(), 1)});
  }
  table.print(std::cout);

  std::cout << "\nExpected shape: zero violations for c <= t (the Theorem 3 guarantee; the\n"
            << "strongest clique attack in fact needs c >= t+2), violations with impact\n"
            << "radius ~ field diagonal once c crosses t+2.\n";

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
