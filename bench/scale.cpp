// Deployment-scale bench for the data-oriented core: full neighbor
// discovery on constant-density fields from 10k up to 1M nodes, tracking
// per-node simulation cost (us/node) and peak resident memory. This is the
// proof obligation of the SoA refactor -- a million-node deployment must
// complete on one machine with a bounded footprint -- and the BENCH_scale.json
// artifact feeds the CI bench-trend gate: the us_per_node series is a
// tracked "us_per" cost (lower is better), and the integer work counts
// (events, deliveries, functional edges, sift steps, candidates) are
// deterministic, so CI compares them with the baseline exactly.
//
// Field sizing: a unit-disk radio of range R on a side-L square field gives
// mean degree ~ n*pi*R^2/L^2, so L = R*sqrt(n*pi/degree) holds the degree
// (and therefore per-node work) constant across n. The protocol runs one
// Hello round with a small threshold: the point is the simulator core
// (events, packets, container state), not the threshold sweep that
// fig3/fig4 own.
#include <sys/resource.h>

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <iostream>
#include <string>
#include <vector>

#include "core/deployment_driver.h"
#include "util/driver_spec.h"
#include "util/runtime_config.h"

namespace {

using namespace snd;

struct ScaleResult {
  std::size_t nodes = 0;
  double wall_s = 0.0;
  double us_per_node = 0.0;
  double peak_rss_mb = 0.0;
  std::uint64_t events = 0;
  std::uint64_t deliveries = 0;
  std::uint64_t functional_edges = 0;
  /// Deterministic work counters: heap keys moved by the scheduler's sifts,
  /// and receiver candidates the channel tested.
  std::uint64_t sift_steps = 0;
  std::uint64_t candidates = 0;
};

/// Peak resident set of this process, MB. ru_maxrss is kilobytes on Linux.
double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

ScaleResult run_scale(std::size_t nodes, double degree, std::uint64_t seed) {
  constexpr double kRange = 50.0;
  const double side = kRange * std::sqrt(static_cast<double>(nodes) * M_PI / degree);

  core::DeploymentConfig config;
  config.field = {{0.0, 0.0}, {side, side}};
  config.radio_range = kRange;
  config.seed = seed;
  // One Hello per node and a small threshold: constant per-node traffic, so
  // us/node isolates the core's data-structure costs across scales.
  config.protocol.hello_repeats = 1;
  config.protocol.threshold_t = 1;
  config.protocol.max_updates = 0;

  ScaleResult result;
  result.nodes = nodes;
  const auto begin = std::chrono::steady_clock::now();
  {
    core::SndDeployment deployment(config);
    deployment.deploy_round(nodes);
    deployment.run();
    result.events = deployment.network().scheduler().executed();
    result.deliveries = deployment.network().metrics().deliveries();
    result.sift_steps = deployment.network().scheduler().sift_steps();
    result.candidates = deployment.network().metrics().candidates();
    std::uint64_t edges = 0;
    for (const core::SndNode* agent : deployment.agents()) {
      edges += agent->functional_neighbors().size();
    }
    result.functional_edges = edges;
  }
  result.wall_s = std::chrono::duration<double>(std::chrono::steady_clock::now() - begin).count();
  result.us_per_node = result.wall_s / static_cast<double>(nodes) * 1e6;
  result.peak_rss_mb = peak_rss_mb();
  return result;
}

std::vector<std::size_t> parse_nodes_list(const std::string& spec) {
  std::vector<std::size_t> nodes;
  std::size_t start = 0;
  while (start < spec.size()) {
    std::size_t end = spec.find(',', start);
    if (end == std::string::npos) end = spec.size();
    nodes.push_back(static_cast<std::size_t>(std::stoull(spec.substr(start, end - start))));
    start = end + 1;
  }
  return nodes;
}

}  // namespace

int main(int argc, char** argv) {
  util::cli::DriverSpec driver_spec(
      "scale",
      "Deployment-scale benchmark: full discovery at constant degree across\n"
      "growing node counts, with an optional peak-RSS budget.");
  driver_spec.string_flag("nodes", "10000,100000,1000000", "LIST",
                   "comma-separated node counts to run")
      .double_flag("degree", 10.0, "D", "target mean node degree", 0.1)
      .int_flag("seed", 1, "S", "deployment seed")
      .double_flag("max-rss-mb", 0.0, "MB",
                   "fail if peak RSS exceeds this budget (0 disables)", 0.0);
  const util::cli::Driver cli = driver_spec.parse(argc, argv);
  if (!cli.ok()) return cli.exit_code();
  const std::string nodes_spec = cli.get("nodes");
  const double degree = cli.get_double("degree");
  const auto seed = static_cast<std::uint64_t>(cli.get_int("seed"));
  // 0 disables the assertion; CI's scale-smoke passes a budget so a memory
  // regression fails the job instead of silently growing.
  const double max_rss_mb = cli.get_double("max-rss-mb");

  const std::vector<std::size_t> sizes = parse_nodes_list(nodes_spec);
  std::printf("== Deployment scale: full discovery, constant degree %.0f ==\n", degree);

  std::string deployments;
  std::vector<ScaleResult> results;
  for (const std::size_t n : sizes) {
    const ScaleResult r = run_scale(n, degree, seed);
    results.push_back(r);
    std::printf("%9zu nodes: %8.2f s wall, %7.2f us/node, peak RSS %8.1f MB, "
                "%llu events, %llu deliveries, %llu functional edges, "
                "%llu sift steps, %llu candidates\n",
                r.nodes, r.wall_s, r.us_per_node, r.peak_rss_mb,
                static_cast<unsigned long long>(r.events),
                static_cast<unsigned long long>(r.deliveries),
                static_cast<unsigned long long>(r.functional_edges),
                static_cast<unsigned long long>(r.sift_steps),
                static_cast<unsigned long long>(r.candidates));
    char entry[640];
    std::snprintf(entry, sizeof(entry),
                  "%s    {\n"
                  "      \"nodes\": %zu,\n"
                  "      \"completed\": true,\n"
                  "      \"wall_s\": %.3f,\n"
                  "      \"us_per_node\": %.3f,\n"
                  "      \"peak_rss_mb\": %.1f,\n"
                  "      \"events\": %llu,\n"
                  "      \"deliveries\": %llu,\n"
                  "      \"functional_edges\": %llu,\n"
                  "      \"sift_steps\": %llu,\n"
                  "      \"candidates\": %llu\n"
                  "    }",
                  deployments.empty() ? "" : ",\n", r.nodes, r.wall_s, r.us_per_node,
                  r.peak_rss_mb, static_cast<unsigned long long>(r.events),
                  static_cast<unsigned long long>(r.deliveries),
                  static_cast<unsigned long long>(r.functional_edges),
                  static_cast<unsigned long long>(r.sift_steps),
                  static_cast<unsigned long long>(r.candidates));
    deployments += entry;
  }

  char head[256];
  std::snprintf(head, sizeof(head),
                "{\n"
                "  \"name\": \"scale_deployment\",\n"
                "  \"degree\": %.0f,\n"
                "  \"deployments\": [\n",
                degree);
  const std::string json = std::string(head) + deployments + "\n  ]\n}\n";

  const std::string path = bench_artifact_path("BENCH_scale.json");
  if (std::FILE* f = std::fopen(path.c_str(), "w")) {
    std::fwrite(json.data(), 1, json.size(), f);
    std::fclose(f);
    std::printf("wrote %s\n", path.c_str());
  }

  if (max_rss_mb > 0.0) {
    const double peak = peak_rss_mb();
    if (peak > max_rss_mb) {
      std::fprintf(stderr, "scale: peak RSS %.1f MB exceeds budget %.1f MB\n", peak, max_rss_mb);
      return 1;
    }
    std::printf("peak RSS %.1f MB within budget %.1f MB\n", peak, max_rss_mb);
  }
  return 0;
}
