// Theorem 4 reproduction: with the binding-record update extension capped
// at m updates, the protocol guarantees (m+1)R-safety.
//
// The bench mounts the creeping attack the extension enables: a compromised
// identity's replica sits at the edge of its origin neighborhood, harvests
// legitimate evidences from each fresh deployment round, has newly deployed
// nodes re-issue its binding record, then a further replica moves another
// hop out -- gaining roughly R of reach per permitted update. Sweeping the
// cap m shows the measured impact radius growing with m but staying inside
// the (m+1)R bound. The driver exits 1 and names the row when a record
// version passes m or a seed breaks the bound.
#include <algorithm>
#include <iostream>

#include "adversary/attacker.h"
#include "core/safety.h"
#include "shard/sweep.h"
#include "util/driver_spec.h"
#include "util/table.h"

namespace {

using namespace snd;

enum Metric : std::size_t { kImpactRadius, kBoundViolated, kFinalVersion };

/// Theorem 4's (m+1)R, floored at Theorem 3's 2R: the theorem's induction
/// base (m = 1) coincides with Theorem 3, and with the extension disabled
/// (m = 0) Theorem 3 applies directly.
double bound_factor(std::uint32_t m) { return std::max(2.0, static_cast<double>(m) + 1.0); }

shard::TrialOutput run_creeping_attack(std::uint32_t m, std::uint64_t seed) {
  // Corridor field: the attack creeps rightward from the origin pocket.
  core::DeploymentConfig config;
  config.field = {{0.0, 0.0}, {700.0, 120.0}};
  config.radio_range = 50.0;
  config.protocol.threshold_t = 3;
  config.protocol.max_updates = m;
  config.seed = seed;

  core::SndDeployment deployment(config);
  const NodeId victim = deployment.deploy_node_at({60.0, 60.0});
  deployment.deploy_round(450);
  deployment.run();

  adversary::MaliciousBehavior behavior;
  behavior.creep_with_updates = true;
  adversary::Attacker attacker(deployment, behavior);
  attacker.compromise(victim);

  // One replica per creep step, each a radio hop farther down the corridor;
  // after each placement a fresh mini-round deploys around the replica so
  // evidences accumulate and a K-holding server is available.
  const std::size_t steps = static_cast<std::size_t>(m) + 3;  // try to overshoot the bound
  for (std::size_t k = 1; k <= steps; ++k) {
    const double x = 60.0 + 45.0 * static_cast<double>(k);
    if (x > 680.0) break;
    attacker.place_replica(victim, {x, 60.0});
    attacker.sync_replica_state(victim);  // new replica inherits creep progress
    deployment.run();
    for (int i = 0; i < 6; ++i) {
      deployment.deploy_node_at({x - 15.0 + 6.0 * i, 50.0 + 15.0 * (i % 2)});
    }
    deployment.run();
    attacker.sync_replica_state(victim);  // pool this round's harvest
  }

  const core::IdentitySafetyReport report =
      core::audit_identity(deployment, victim, bound_factor(m) * config.radio_range);
  std::uint32_t final_version = 0;
  for (const adversary::MaliciousAgent* agent : attacker.agents_for(victim)) {
    if (agent->record()) final_version = std::max(final_version, agent->record()->version);
  }
  return {{report.impact_radius(), report.violates ? 1.0 : 0.0,
           static_cast<double>(final_version)},
          deployment.network().trace_summary()};
}

}  // namespace

int main(int argc, char** argv) {
  shard::SweepFlags flags;
  util::cli::DriverSpec driver_spec(
      "thm4_update_safety",
      "Theorem 4 check: after m rounds of incremental updates the maximum\n"
      "functional link stays within (m+1)R.");
  driver_spec.int_flag("seeds", 4, "N", "independent deployment seeds", 1)
      .int_flag("mmax", 4, "M", "maximum number of update rounds", 0);
  shard::add_sweep_flags(driver_spec, &flags);
  const util::cli::Driver cli = driver_spec.parse(argc, argv);
  if (!cli.ok()) return cli.exit_code();
  const auto seeds = static_cast<std::size_t>(cli.get_int("seeds"));
  const auto m_max = static_cast<std::uint32_t>(cli.get_int("mmax"));

  // One flat (m, seed) trial space: cell m caps updates at m. Every row
  // deploys seed index s as (s + 1) * 131, so the rows share their fields.
  const shard::Sweep sweep{"thm4_update_safety", 131, std::size_t{m_max} + 1, seeds,
                           {"impact_radius", "bound_violated", "final_version"}};
  const std::string header =
      "== Theorem 4: (m+1)R-safety under the update extension ==\n"
      "creeping replica attack down a corridor, R = 50 m, t = 3, " +
      std::to_string(seeds) + " seeds, " + std::to_string(flags.jobs) + " jobs\n\n";

  const auto body = [&](std::size_t i, std::uint64_t) {
    return run_creeping_attack(static_cast<std::uint32_t>(sweep.cell(i)),
                               (sweep.seed_index(i) + 1) * 131);
  };

  const auto table = [&](const shard::SweepRecords& records) {
    std::vector<std::string> broken;
    util::Table out({"m (update cap)", "bound max(2,m+1)R", "measured impact radius (m)",
                     "record version reached", "bound violations"});
    for (std::uint32_t m = 0; m <= m_max; ++m) {
      const util::RunningStats version = records.stats(m, kFinalVersion);
      const auto violations =
          static_cast<long long>(records.stats(m, kBoundViolated).sum());
      out.add_row({util::Table::integer(m), util::Table::num(bound_factor(m) * 50.0, 0),
                   util::Table::num(records.stats(m, kImpactRadius).mean(), 1),
                   util::Table::num(version.mean(), 1), util::Table::integer(violations)});
      const std::string row = "claim broken at row m = " + std::to_string(m) + ": ";
      if (version.max() > m) {
        broken.push_back(row + "a record reached version " +
                         util::Table::num(version.max(), 0) + ", past the update cap m");
      }
      if (violations > 0) {
        broken.push_back(row + std::to_string(violations) +
                         " seed(s) broke the max(2, m+1)R bound (Theorem 4)");
      }
    }
    out.print(std::cout);
    std::cout << "\nExpected shape: impact radius grows ~R per permitted update but never\n"
              << "exceeds (m+1)R; with m = 0 the attack gains nothing beyond 2R... the\n"
              << "Theorem 3 bound (the m = 0 row uses the extension disabled entirely).\n";
    return broken;
  };

  return shard::run_sweep(cli, flags, sweep, header, body, table);
}
