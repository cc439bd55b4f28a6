// The traced run cuts each simulation at the protocol's window edges and
// samples the queue every 1 ms of simulated time. This test checks that the
// cuts do not change the simulation: on both simulator workloads, events,
// deliveries, delivery candidates, hash ops, functional edges and the
// functional-graph digest must equal the uncut run's exactly. It also checks
// that the benchmark's pre-generated positions reproduce
// SndDeployment::deploy_round, so set-up timing can exclude input generation
// without changing the deployment.
#include <cstdio>
#include <string>

#include "core/deployment_driver.h"
#include "crypto/sha256.h"
#include "workloads.h"

namespace {

int failures = 0;

void expect_equal(const std::string& what, const perfbench::SimRun& a, const perfbench::SimRun& b) {
  const bool equal = a.counts == b.counts && a.digest == b.digest &&
                     a.center_actual == b.center_actual &&
                     a.center_validated == b.center_validated;
  std::printf("%s %s: events %llu/%llu deliveries %llu/%llu candidates %llu/%llu "
              "hash_ops %llu/%llu functional_edges %llu/%llu\n",
              equal ? "ok  " : "FAIL", what.c_str(),
              static_cast<unsigned long long>(a.counts.events),
              static_cast<unsigned long long>(b.counts.events),
              static_cast<unsigned long long>(a.counts.deliveries),
              static_cast<unsigned long long>(b.counts.deliveries),
              static_cast<unsigned long long>(a.counts.candidates),
              static_cast<unsigned long long>(b.counts.candidates),
              static_cast<unsigned long long>(a.counts.hash_ops),
              static_cast<unsigned long long>(b.counts.hash_ops),
              static_cast<unsigned long long>(a.counts.functional_edges),
              static_cast<unsigned long long>(b.counts.functional_edges));
  if (!equal) ++failures;
}

/// The same trial built the way bench/fig3_threshold builds it.
void expect_deploy_round_match(const perfbench::FieldSpec& spec, const perfbench::SimRun& run) {
  snd::core::DeploymentConfig config;
  config.field = spec.field;
  config.radio_range = 50.0;
  config.protocol = spec.protocol;
  config.seed = spec.seed;
  snd::core::SndDeployment deployment(config);
  (void)deployment.deploy_node_at(config.field.center());
  (void)deployment.deploy_round(spec.nodes - 1);
  const std::uint64_t hash_before = snd::crypto::hash_op_count();
  deployment.run();
  const std::uint64_t hash_ops = snd::crypto::hash_op_count() - hash_before;
  std::uint64_t edges = 0;
  for (const snd::core::SndNode* agent : deployment.agents()) {
    edges += agent->functional_neighbors().size();
  }
  const bool equal = deployment.network().scheduler().executed() == run.counts.events &&
                     deployment.network().metrics().deliveries() == run.counts.deliveries &&
                     hash_ops == run.counts.hash_ops && edges == run.counts.functional_edges;
  std::printf("%s deploy_round trial t=%zu matches pre-generated positions\n",
              equal ? "ok  " : "FAIL", spec.protocol.threshold_t);
  if (!equal) ++failures;
}

}  // namespace

int main() {
  for (const std::size_t index : {0, 7, 15}) {
    const perfbench::FieldSpec spec = perfbench::paper_dense_trial(1, index);
    const perfbench::SimRun plain = perfbench::simulate(spec);
    perfbench::SpanLog spans;
    const perfbench::SimRun cut = perfbench::simulate(spec, &spans, 0, 1);
    expect_equal("paper_dense trial " + std::to_string(index), plain, cut);
    expect_deploy_round_match(spec, plain);
  }
  {
    const perfbench::FieldSpec spec = perfbench::field_sparse_field(1);
    const perfbench::SimRun plain = perfbench::simulate(spec);
    perfbench::SpanLog spans;
    const perfbench::SimRun cut = perfbench::simulate(spec, &spans, 0, 1);
    expect_equal("field_sparse", plain, cut);
  }
  std::printf("%s\n", failures == 0 ? "phase_cut_test: all checks passed"
                                    : "phase_cut_test: FAILED");
  return failures == 0 ? 0 : 1;
}
