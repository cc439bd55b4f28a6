// Closed-loop load generator for the validation service.
//
// Bootstraps a seeded topology, then issues F(u, v) queries one at a time
// -- in-process against service::ValidationService (default), or over an
// AF_UNIX socket to a running snd_serve -- timing every query. Ingestion
// runs concurrently with the load: every --event-every queries one random
// topology event (deploy / update / revoke) is applied, so the measured
// read path includes snapshot turnover, not just a frozen world.
//
//   ./serve_qps                                  # 1M queries, 100k nodes
//   ./serve_qps --queries 200000 --nodes 10000 --event-every 50
//   ./serve_qps --mode socket --socket /tmp/snd.sock --queries 100000
//
// After the run (in-process mode) the equivalence gate rebuilds the
// functional topology from scratch and asserts the incrementally-maintained
// snapshot equals it, as Snapshot::first_difference decides without
// serializing either (--verify-rebuild, on by default; exit 1 naming the
// first differing node). Results go to BENCH_serve.json: QPS plus
// us_per_query_p50/p99, us_per_event_p50/p99 (ingest latency),
// bootstrap.us_per_node (seed_topology wall time per node) and
// rebuild.us_per_node (rebuild() alone, per live node; 0 when the gate is
// skipped), which ci/bench_trend.py picks up automatically ("us_per" keys
// are trend-gated). In-process runs also record the final snapshot's
// directed validated_edges and tentative_edges as JSON integers, for the
// trend step's exact count class. A bootstrap position the service cannot
// index exits 2.
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "service/events.h"
#include "service/validation_service.h"
#include "service/wire.h"
#include "util/driver_spec.h"
#include "util/file.h"
#include "util/rng.h"
#include "util/runtime_config.h"
#include "util/stats.h"

namespace {

using namespace snd;
using Clock = std::chrono::steady_clock;

double since_ns(Clock::time_point start) {
  return static_cast<double>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - start)
          .count());
}

bool read_exact(int fd, std::uint8_t* data, std::size_t size) {
  std::size_t done = 0;
  while (done < size) {
    const ssize_t n = ::read(fd, data + done, size - done);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      return false;
    }
    done += static_cast<std::size_t>(n);
  }
  return true;
}

bool write_exact(int fd, const std::uint8_t* data, std::size_t size) {
  std::size_t done = 0;
  while (done < size) {
    const ssize_t n = ::write(fd, data + done, size - done);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    done += static_cast<std::size_t>(n);
  }
  return true;
}

/// One framed request/response round trip; nullopt payload on I/O failure.
std::optional<util::Bytes> round_trip(int fd, const util::Bytes& payload) {
  const util::Bytes framed = service::wire::frame(payload);
  if (!write_exact(fd, framed.data(), framed.size())) return std::nullopt;
  std::uint8_t header[4];
  if (!read_exact(fd, header, sizeof(header))) return std::nullopt;
  const std::uint32_t length = (std::uint32_t{header[0]} << 24) |
                               (std::uint32_t{header[1]} << 16) |
                               (std::uint32_t{header[2]} << 8) | header[3];
  util::Bytes reply(length);
  if (!read_exact(fd, reply.data(), reply.size())) return std::nullopt;
  return reply;
}

struct Workload {
  std::vector<std::pair<NodeId, NodeId>> queries;
  std::vector<service::TopologyEvent> events;
};

/// Pre-generated so query selection cost stays out of the timed loop. Half
/// the queries target a live pair drawn from one node's tentative list (the
/// interesting, mostly-accepting path); the rest are uniform pairs.
Workload build_workload(const service::ValidationService& service, std::size_t queries,
                        std::size_t events, const util::Rect& field,
                        std::uint64_t seed) {
  Workload workload;
  workload.queries.reserve(queries);
  util::Rng rng(util::derive_seed(seed, 0xC0FFEE));
  const auto snapshot = service.snapshot();
  std::vector<NodeId> live;
  live.reserve(snapshot->node_count());
  for (const auto& [id, state] : snapshot->nodes()) live.push_back(id);

  for (std::size_t i = 0; i < queries; ++i) {
    const NodeId u = live[rng.uniform_int(static_cast<std::uint64_t>(live.size()))];
    NodeId v = live[rng.uniform_int(static_cast<std::uint64_t>(live.size()))];
    if (rng.chance(0.5)) {
      const service::NodeState* state = snapshot->find(u);
      if (state != nullptr && !state->neighbors.empty()) {
        v = state->neighbors[rng.uniform_int(
            static_cast<std::uint64_t>(state->neighbors.size()))];
      }
    }
    workload.queries.emplace_back(u, v);
  }
  workload.events =
      service::random_events(events, field, std::move(live), util::derive_seed(seed, 1));
  return workload;
}

}  // namespace

int main(int argc, char** argv) {
  util::cli::DriverSpec spec(
      "serve_qps",
      "Closed-loop load generator for the neighbor-validation service:\n"
      "per-query latency percentiles and QPS under concurrent ingestion,\n"
      "with an incremental-vs-rebuild equivalence gate.");
  spec.int_flag("queries", 1'000'000, "N", "validation queries to issue", 1)
      .int_flag("nodes", 100'000, "N", "bootstrap topology size", 1)
      .double_flag("field", 0.0, "W",
                   "field width in meters (0 = derive from --nodes and --degree)")
      .double_flag("degree", 20.0, "D",
                   "target mean tentative degree when deriving the field size "
                   "(the paper's 200-node setting is ~157; service workloads "
                   "default to a realistic sensor-net degree)",
                   0.1)
      .double_flag("radius", 50.0, "R", "radio range R in meters", 1e-9)
      .int_flag("threshold", 2, "T", "security threshold t", 0)
      .int_flag("seed", 1, "S", "workload and topology seed", 0)
      .int_flag("event-every", 100, "N",
                "apply one topology event every N queries (0 = frozen world)", 0)
      .string_flag("mode", "inproc", "MODE", "inproc | socket",
                   [](std::string_view value) -> std::optional<std::string> {
                     if (value == "inproc" || value == "socket") return std::nullopt;
                     return "expected inproc or socket";
                   })
      .string_flag("socket", "", "PATH", "AF_UNIX socket of a running snd_serve "
                                         "(--mode socket)")
      .bool_flag("no-verify-rebuild",
                 "skip the incremental-vs-rebuild equivalence gate");
  const util::cli::Driver cli = spec.parse(argc, argv);
  if (!cli.ok()) return cli.exit_code();

  const auto queries = static_cast<std::size_t>(cli.get_int("queries"));
  const auto nodes = static_cast<std::size_t>(cli.get_int("nodes"));
  const auto event_every = static_cast<std::size_t>(cli.get_int("event-every"));
  const auto seed = static_cast<std::uint64_t>(cli.get_int("seed"));
  const bool socket_mode = cli.get("mode") == "socket";
  const bool verify = !cli.get_bool("no-verify-rebuild");
  if (socket_mode && cli.get("socket").empty()) {
    std::cerr << "serve_qps: --mode socket requires --socket PATH\n";
    return 2;
  }

  // Field sized so the mean tentative degree stays constant as --nodes
  // scales: degree D needs one node per pi*R^2/D square meters.
  double width = cli.get_double("field");
  if (width <= 0.0) {
    const double R = cli.get_double("radius");
    const double area_per_node = 3.14159265358979323846 * R * R / cli.get_double("degree");
    width = std::sqrt(static_cast<double>(nodes) * area_per_node);
  }
  const util::Rect field{{0.0, 0.0}, {width, width}};

  service::ServiceConfig config;
  config.radio_range = cli.get_double("radius");
  config.threshold_t = static_cast<std::size_t>(cli.get_int("threshold"));
  service::ValidationService service(config);

  std::printf("== serve_qps: %zu queries against %zu nodes (%.0fx%.0f m, R=%.0f, t=%zu) ==\n",
              queries, nodes, width, width, config.radio_range, config.threshold_t);
  double bootstrap_s = 0.0;
  {
    util::Rng rng(seed);
    std::vector<std::pair<NodeId, util::Vec2>> bootstrap;
    bootstrap.reserve(nodes);
    for (std::size_t i = 0; i < nodes; ++i) {
      bootstrap.emplace_back(static_cast<NodeId>(i),
                             util::Vec2{rng.uniform(0.0, width), rng.uniform(0.0, width)});
    }
    const auto start = Clock::now();
    const service::ApplyResult seeded = service.seed_topology(bootstrap);
    bootstrap_s = since_ns(start) / 1e9;
    if (!seeded.ok) {
      std::cerr << "serve_qps: " << seeded.error << "\n";
      return 2;
    }
    std::printf("bootstrap: %.2f s, %zu validated edges\n", bootstrap_s,
                service.snapshot()->validated_edge_count());
  }

  const std::size_t planned_events =
      event_every == 0 ? 0 : (queries + event_every - 1) / event_every;
  const Workload workload =
      build_workload(service, queries, planned_events, field, seed);

  int socket_fd = -1;
  if (socket_mode) {
    socket_fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    sockaddr_un address{};
    address.sun_family = AF_UNIX;
    const std::string path = cli.get("socket");
    if (path.size() >= sizeof(address.sun_path)) {
      std::cerr << "serve_qps: socket path too long\n";
      return 2;
    }
    std::strncpy(address.sun_path, path.c_str(), sizeof(address.sun_path) - 1);
    if (socket_fd < 0 ||
        ::connect(socket_fd, reinterpret_cast<const sockaddr*>(&address),
                  sizeof(address)) < 0) {
      std::perror("serve_qps: connect");
      return 2;
    }
  }

  util::Series latency_ns;
  util::Series ingest_ns;
  std::size_t accepted = 0;
  std::size_t events_sent = 0;
  const auto run_start = Clock::now();
  for (std::size_t i = 0; i < workload.queries.size(); ++i) {
    if (event_every != 0 && i % event_every == 0 && events_sent < workload.events.size()) {
      const service::TopologyEvent& event = workload.events[events_sent++];
      const auto t0 = Clock::now();
      if (socket_mode) {
        if (!round_trip(socket_fd, service::wire::encode_event(event))) {
          std::cerr << "serve_qps: server vanished during ingest\n";
          return 1;
        }
      } else {
        (void)service.apply(event);
      }
      ingest_ns.add(since_ns(t0));
    }
    const auto [u, v] = workload.queries[i];
    const auto t0 = Clock::now();
    bool verdict = false;
    if (socket_mode) {
      const auto reply = round_trip(socket_fd, service::wire::encode_query(u, v));
      if (!reply) {
        std::cerr << "serve_qps: server vanished during load\n";
        return 1;
      }
      const auto decoded = service::wire::decode_query_reply(*reply);
      verdict = decoded && decoded->accepted;
    } else {
      verdict = service.validate(u, v);
    }
    latency_ns.add(since_ns(t0));
    if (verdict) ++accepted;
  }
  const double wall_s = since_ns(run_start) / 1e9;
  if (socket_fd >= 0) ::close(socket_fd);

  const double qps = static_cast<double>(queries) / wall_s;
  const double p50_us = latency_ns.percentile(50.0) / 1e3;
  const double p99_us = latency_ns.percentile(99.0) / 1e3;
  const double ingest_p50_us = ingest_ns.count() > 0 ? ingest_ns.percentile(50.0) / 1e3 : 0.0;
  const double ingest_p99_us = ingest_ns.count() > 0 ? ingest_ns.percentile(99.0) / 1e3 : 0.0;
  std::printf("%zu queries in %.2f s: %.0f QPS, p50 %.3f us, p99 %.3f us, "
              "%.1f%% accepted\n",
              queries, wall_s, qps, p50_us, p99_us,
              100.0 * static_cast<double>(accepted) / static_cast<double>(queries));
  if (ingest_ns.count() > 0) {
    std::printf("%zu events ingested, p50 %.1f us, p99 %.1f us\n", ingest_ns.count(),
                ingest_p50_us, ingest_p99_us);
  }

  bool equivalent = true;
  double rebuild_us_per_node = 0.0;
  if (verify && !socket_mode) {
    auto start = Clock::now();
    const auto rebuilt = service.rebuild();
    const double rebuild_s = since_ns(start) / 1e9;
    rebuild_us_per_node =
        rebuild_s * 1e6 / static_cast<double>(std::max<std::size_t>(service.node_count(), 1));
    start = Clock::now();
    const auto difference = service.snapshot()->first_difference(*rebuilt);
    equivalent = !difference;
    std::printf("equivalence gate: incremental %s rebuild (rebuild %.2f s, comparison %.2f s, "
                "epoch %llu)\n",
                equivalent ? "==" : "!=", rebuild_s, since_ns(start) / 1e9,
                static_cast<unsigned long long>(service.snapshot()->epoch()));
    if (difference) {
      std::fprintf(stderr,
                   "serve_qps: FAIL: incremental snapshot diverged from rebuild: %s "
                   "(incremental vs rebuild)\n",
                   difference->c_str());
    }
  }

  // Directed edge counts of the final snapshot: only an in-process run's
  // local service has ingested the events.
  std::string counts;
  if (!socket_mode) {
    const auto snapshot = service.snapshot();
    std::size_t tentative = 0;
    for (const auto& [id, state] : snapshot->nodes()) tentative += state->neighbors.size();
    counts = "  \"validated_edges\": " + std::to_string(snapshot->validated_edge_count()) +
             ",\n  \"tentative_edges\": " + std::to_string(tentative) + ",\n";
  }

  char json[1024];
  std::snprintf(json, sizeof(json),
                "{\n"
                "  \"name\": \"serve_qps\",\n"
                "  \"mode\": \"%s\",\n"
                "  \"queries\": %zu,\n"
                "  \"nodes\": %zu,\n"
                "  \"events_ingested\": %zu,\n"
                "  \"wall_s\": %.3f,\n"
                "  \"qps\": %.1f,\n"
                "  \"query\": {\n"
                "    \"us_per_query_p50\": %.4f,\n"
                "    \"us_per_query_p99\": %.4f,\n"
                "    \"us_per_query_mean\": %.4f\n"
                "  },\n"
                "  \"bootstrap\": {\n"
                "    \"us_per_node\": %.3f\n"
                "  },\n"
                "  \"rebuild\": {\n"
                "    \"us_per_node\": %.3f\n"
                "  },\n"
                "  \"ingest\": {\n"
                "    \"us_per_event_p50\": %.2f,\n"
                "    \"us_per_event_p99\": %.2f\n"
                "  },\n"
                "%s"
                "  \"accepted_fraction\": %.4f,\n"
                "  \"equivalence_gate\": %s\n"
                "}\n",
                socket_mode ? "socket" : "inproc", queries, nodes,
                static_cast<std::size_t>(ingest_ns.count()), wall_s, qps, p50_us, p99_us,
                latency_ns.mean() / 1e3, bootstrap_s * 1e6 / static_cast<double>(nodes),
                rebuild_us_per_node, ingest_p50_us, ingest_p99_us, counts.c_str(),
                static_cast<double>(accepted) / static_cast<double>(queries),
                equivalent ? "true" : "false");
  const std::string path = bench_artifact_path("BENCH_serve.json");
  if (!util::write_file(path, json)) {
    std::fprintf(stderr, "serve_qps: cannot write %s\n", path.c_str());
    return 1;
  }
  std::printf("wrote %s\n", path.c_str());
  return equivalent ? 0 : 1;
}
