// Theorems 1 and 2 reproduction: the generic attacks that defeat ANY
// neighbor validation function built on topology information alone.
//
// The table runs the constructive Theorem 1 attack against the
// common-neighbor threshold rule (the same predicate the secure protocol
// uses, but WITHOUT the deployment-time master key) for a sweep of
// thresholds, and the Theorem 2 extendability attack on random geometric
// topologies. Every Theorem 1 row should report the attack succeeding, and
// every Theorem 2 trial should succeed exactly when u has at least t+1
// neighbors -- that is the theorem; the driver exits 1 and names the row
// when one does not. The companion bench thm3_safety shows the identical
// threshold rule *with* deployment-time security containing the same
// adversary.
#include <iostream>
#include <sstream>

#include "adversary/theorem_attack.h"
#include "shard/sweep.h"
#include "sim/deployment.h"
#include "util/driver_spec.h"
#include "util/rng.h"
#include "util/table.h"

namespace {

using namespace snd;

/// Random geometric graph for the Theorem 2 demonstration.
topology::Digraph geometric_graph(std::size_t n, double field_size, double range,
                                  std::vector<util::Vec2>& positions, util::Rng& rng) {
  const util::Rect field{{0, 0}, {field_size, field_size}};
  positions = sim::deploy_uniform(n, field, rng);
  topology::Digraph g;
  for (std::size_t i = 0; i < n; ++i) {
    g.add_node(static_cast<NodeId>(i + 1));
    for (std::size_t j = 0; j < n; ++j) {
      if (i != j && util::distance(positions[i], positions[j]) <= range) {
        g.add_edge(static_cast<NodeId>(i + 1), static_cast<NodeId>(j + 1));
      }
    }
  }
  return g;
}

enum Metric : std::size_t { kThreshold, kDegree, kVictimDistance, kBefore, kAfter };

/// One Theorem 2 trial: a random geometric network from Rng(rng_seed), node
/// 1 as u, the node farthest from it as the victim v.
shard::TrialOutput run_theorem2(std::uint64_t rng_seed) {
  util::Rng rng(rng_seed);
  std::vector<util::Vec2> positions;
  const topology::Digraph g = geometric_graph(150, 400.0, 60.0, positions, rng);
  const std::size_t t = 3 + rng.uniform_int(5);
  core::CommonNeighborValidator validator(t);

  // u: node 1. Victim v: the node farthest from u.
  const NodeId u = 1;
  NodeId v = 2;
  double far = 0.0;
  for (std::size_t i = 1; i < positions.size(); ++i) {
    const double d = util::distance(positions[0], positions[i]);
    if (d > far) {
      far = d;
      v = static_cast<NodeId>(i + 1);
    }
  }

  // The neighborhood a genuinely new node next to u would discover.
  std::vector<NodeId> u_hood;
  for (NodeId c : g.successors(u)) {
    if (u_hood.size() <= t + 1) u_hood.push_back(c);
  }
  const bool before = validator.validate(u, v, g);
  const auto attack = adversary::build_theorem2_attack(g, u, u_hood, v);
  const bool after = attack.succeeds(validator);
  return {{static_cast<double>(t), static_cast<double>(g.successors(u).size()), far,
           before ? 1.0 : 0.0, after ? 1.0 : 0.0},
          obs::TraceSummary{}};
}

}  // namespace

int main(int argc, char** argv) {
  shard::SweepFlags flags;
  util::cli::DriverSpec driver_spec(
      "thm12_impossibility",
      "Theorems 1-2 demonstration: graph-cloning defeats topology-only\n"
      "validation, which is why the paper's nodes validate only while they\n"
      "hold the deployment-time master key K.");
  driver_spec.int_flag("trials", 10, "N", "random cloning trials", 1);
  shard::add_sweep_flags(driver_spec, &flags);
  const util::cli::Driver cli = driver_spec.parse(argc, argv);
  if (!cli.ok()) return cli.exit_code();
  const auto trials = static_cast<std::size_t>(cli.get_int("trials"));

  // Theorem 1 has no randomness: its table is built here and printed in the
  // header.
  std::vector<std::size_t> undefeated;
  util::Table t1({"t", "min deployment m", "network n = 2m-1", "F(u,w,G_A)",
                  "F(f(u),w,G_B+forged)", "d-safety defeated"});
  for (std::size_t t : {0u, 1u, 2u, 5u, 10u, 20u, 50u}) {
    core::CommonNeighborValidator validator(t);
    const std::size_t m = validator.minimum_deployment_size();
    const auto attack = adversary::build_theorem1_attack(validator, 2 * m - 1);
    const bool at_u = validator.validate(attack.u, attack.w, attack.original_view);
    const bool at_fu = validator.validate(attack.fu, attack.w, attack.victim_view);
    const bool defeated = attack.succeeds(validator);
    if (!defeated) undefeated.push_back(t);
    t1.add_row({util::Table::integer(static_cast<long long>(t)),
                util::Table::integer(static_cast<long long>(m)),
                util::Table::integer(static_cast<long long>(2 * m - 1)),
                at_u ? "accept" : "reject", at_fu ? "accept" : "reject",
                defeated ? "YES" : "no"});
  }
  std::ostringstream header;
  header << "== Theorem 1: graph-cloning attack vs topology-only validation ==\n"
         << "F = common-neighbor threshold rule without deployment-time security\n\n";
  t1.print(header);
  header << "\n== Theorem 2: extendability attack on random geometric networks ==\n"
         << "A far-away compromised node v is accepted by u after the attacker\n"
         << "renames a hypothetical new local node's relations to v.\n"
         << trials << " random trials, " << flags.jobs << " jobs\n\n";

  // Theorem 2: one cell per trial, one seed each; trial k (1-based) draws
  // its network from Rng(k * 31).
  const shard::Sweep sweep{"thm12_impossibility", 31, trials, 1,
                           {"threshold", "degree", "victim_distance_m", "accepted_before",
                            "accepted_after"}};
  const auto body = [&](std::size_t i, std::uint64_t) {
    return run_theorem2((sweep.cell(i) + 1) * 31);
  };

  const auto table = [&](const shard::SweepRecords& records) {
    std::vector<std::string> broken;
    for (const std::size_t t : undefeated) {
      broken.push_back("claim broken at Theorem 1 row t = " + std::to_string(t) +
                       ": the graph-cloning attack did not defeat d-safety");
    }
    util::Table t2({"trial", "nodes", "t", "|N(u)|", "victim distance (m)", "accepted before",
                    "accepted after attack"});
    std::size_t successes = 0;
    std::size_t achievable = 0;
    for (std::size_t cell = 0; cell < sweep.cells; ++cell) {
      const auto value = [&](Metric metric) { return records.stats(cell, metric).sum(); };
      const auto t = static_cast<long long>(value(kThreshold));
      const auto degree = static_cast<long long>(value(kDegree));
      const bool before = value(kBefore) != 0.0;
      const bool after = value(kAfter) != 0.0;
      const bool extendable = degree >= t + 1;
      const bool succeeded = !before && after;
      if (extendable) ++achievable;
      if (succeeded) ++successes;
      if (succeeded != extendable) {
        broken.push_back("claim broken at Theorem 2 row trial = " + std::to_string(cell + 1) +
                         ": |N(u)| = " + std::to_string(degree) + ", t = " +
                         std::to_string(t) + ", but the attack " +
                         (succeeded ? "succeeded" : "failed") +
                         "; it must succeed exactly when |N(u)| >= t+1");
      }
      t2.add_row({util::Table::integer(static_cast<long long>(cell + 1)), "150",
                  util::Table::integer(t), util::Table::integer(degree),
                  util::Table::num(value(kVictimDistance), 0), before ? "accept" : "reject",
                  after ? "ACCEPT" : "reject"});
    }
    t2.print(std::cout);
    std::cout << "\nattack success rate: " << successes << "/" << trials << " (" << achievable
              << "/" << trials << " trials had |N(u)| >= t+1; the attack must succeed on\n"
              << "exactly those -- a node too sparse to ever gain a neighbor is not\n"
              << "extendable and Theorem 2 does not apply)\n";
    return broken;
  };

  return shard::run_sweep(cli, flags, sweep, header.str(), body, table);
}
