#include "workloads.h"

#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <memory>
#include <numbers>
#include <span>
#include <sstream>
#include <unordered_set>

#include "core/deployment_driver.h"
#include "crypto/sha256.h"
#include "obs/event.h"
#include "service/events.h"
#include "service/validation_service.h"
#include "service/wire.h"
#include "sim/deployment.h"
#include "util/bytes.h"
#include "util/rng.h"

namespace perfbench {
namespace {

using namespace snd;

constexpr double kRange = 50.0;
constexpr std::size_t kDenseNodes = 200;
constexpr double kDenseSide = 100.0;
constexpr std::size_t kThresholdStep = 10;
constexpr std::size_t kSparseNodes = 30'000;
constexpr double kSparseDegree = 10.0;
constexpr std::size_t kServiceNodes = 30'000;
constexpr double kServiceDegree = 20.0;
constexpr std::size_t kServiceThreshold = 2;

// Every serve stage is a closed loop of blocks: 100 kQuery requests, then
// one kEvent request. Block counts are fixed per stage so each pass does
// the same work (and holds the same request buffers) however fast it runs.
constexpr std::size_t kQueriesPerBlock = 100;
/// A kQuery reply: status, verdict, u64 epoch.
constexpr std::size_t kQueryReplyBytes = 10;
constexpr std::size_t kDenseServeBlocks = 32;  // per paper_dense trial
constexpr std::size_t kServiceBlocks = 2000;    // per service_mixed pass
// Pass lengths measured on the reference machine (README.md); they turn
// --seconds into a fixed number of passes.
constexpr double kDenseSweepSeconds = 16.0;
constexpr double kServicePassSeconds = 4.0;
/// Simulated-time step between queue-depth samples in traced runs.
constexpr sim::Time kDepthSample = sim::Time::milliseconds(1);

double side_for_degree(std::size_t nodes, double degree) {
  return kRange * std::sqrt(static_cast<double>(nodes) * std::numbers::pi / degree);
}

/// Linear-interpolated percentile of ascending `sorted`, p in [0, 100];
/// 0 for no samples.
template <typename T>
double sorted_percentile(const std::vector<T>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  const double rank = p / 100.0 * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  return sorted[lo] + (static_cast<double>(sorted[hi]) - sorted[lo]) *
                          (rank - static_cast<double>(lo));
}

double percentile(std::vector<double> values, double p) {
  std::sort(values.begin(), values.end());
  return sorted_percentile(values, p);
}

double median(std::vector<double> values) { return percentile(std::move(values), 50.0); }

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

class Fnv64 {
 public:
  void add(std::uint64_t value) {
    for (int i = 0; i < 8; ++i) {
      hash_ ^= (value >> (8 * i)) & 0xff;
      hash_ *= 0x100000001b3ULL;
    }
  }
  [[nodiscard]] std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

std::string hex(std::uint64_t value, int width) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%0*llx", width, static_cast<unsigned long long>(value));
  return buf;
}

// -- Simulator ------------------------------------------------------------

constexpr std::array<obs::Phase, 4> kTxPhases = {obs::Phase::kHello, obs::Phase::kAck,
                                                 obs::Phase::kRecord, obs::Phase::kCommit};
constexpr std::array<const char*, 4> kTxNames = {"tx.hello", "tx.ack", "tx.record",
                                                 "tx.commit"};

/// Counter readings taken at a phase boundary.
struct Tally {
  std::uint64_t events = 0;
  std::uint64_t deliveries = 0;
  std::uint64_t candidates = 0;
  std::uint64_t hash_ops = 0;
  std::array<std::uint64_t, kTxPhases.size()> tx{};
};

Tally read_tally(sim::Network& network) {
  Tally tally;
  tally.events = network.scheduler().executed();
  tally.deliveries = network.metrics().deliveries();
  tally.candidates = network.metrics().candidates();
  tally.hash_ops = crypto::hash_op_count();
  for (std::size_t i = 0; i < kTxPhases.size(); ++i) {
    tally.tx[i] = network.metrics().phase(kTxPhases[i]).messages;
  }
  return tally;
}

/// Node positions of `spec`, centre first when pinned. The draw is the one
/// SndDeployment::deploy_round makes (deploy_uniform over an Rng seeded
/// with the deployment seed), generated here so set-up timing excludes it.
std::vector<util::Vec2> field_positions(const FieldSpec& spec) {
  util::Rng rng(spec.seed);
  std::vector<util::Vec2> positions =
      sim::deploy_uniform(spec.nodes - (spec.pin_center ? 1 : 0), spec.field, rng);
  if (spec.pin_center) positions.insert(positions.begin(), spec.field.center());
  return positions;
}

std::unique_ptr<core::SndDeployment> deploy(const FieldSpec& spec,
                                            const std::vector<util::Vec2>& positions,
                                            std::int64_t& setup_ns) {
  core::DeploymentConfig config;
  config.field = spec.field;
  config.radio_range = kRange;
  config.protocol = spec.protocol;
  config.seed = spec.seed;
  const Clock::time_point start = Clock::now();
  auto deployment = std::make_unique<core::SndDeployment>(config);
  for (const util::Vec2& position : positions) (void)deployment->deploy_node_at(position);
  setup_ns = elapsed_ns(start, Clock::now());
  return deployment;
}

/// Runs `deployment` to quiescence in three cuts at the protocol's window
/// edges, sampling the queue depth every kDepthSample of simulated time.
/// Scheduler::run_until leaves the clock alone when it stops, so the cuts
/// execute exactly the events one run() does. Returns the sim.run span.
std::uint64_t run_phases(core::SndDeployment& deployment, SpanLog& spans, std::uint64_t parent,
                         std::uint64_t trace) {
  sim::Network& network = deployment.network();
  sim::Scheduler& scheduler = network.scheduler();
  const core::ProtocolConfig& protocol = deployment.config().protocol;
  const sim::Time discovery_end = protocol.discovery_window;
  const sim::Time exchange_end = discovery_end + protocol.exchange_window;
  struct Cut {
    const char* name;
    sim::Time until;
  };
  const std::array<Cut, 3> cuts = {Cut{"core.discovery", discovery_end},
                                   Cut{"core.exchange", exchange_end},
                                   Cut{"core.validation", sim::Time::infinity()}};

  const std::uint64_t run_span = spans.begin("sim.run", parent, trace);
  sim::Time deadline = scheduler.now();
  for (const Cut& cut : cuts) {
    const std::uint64_t span = spans.begin(cut.name, run_span, trace);
    const Tally before = read_tally(network);
    std::uint64_t depth_max = 0;
    while (deadline < cut.until && !scheduler.empty()) {
      deadline = std::min(deadline + kDepthSample, cut.until);
      scheduler.run_until(deadline);
      depth_max = std::max(depth_max, scheduler.pending());
    }
    const Tally after = read_tally(network);
    spans.end(span);
    spans.count(span, "events", static_cast<double>(after.events - before.events));
    spans.count(span, "deliveries", static_cast<double>(after.deliveries - before.deliveries));
    spans.count(span, "candidates", static_cast<double>(after.candidates - before.candidates));
    spans.count(span, "hash_ops", static_cast<double>(after.hash_ops - before.hash_ops));
    spans.count(span, "queue_depth_max", static_cast<double>(depth_max));
    for (std::size_t i = 0; i < kTxNames.size(); ++i) {
      spans.count(span, kTxNames[i], static_cast<double>(after.tx[i] - before.tx[i]));
    }
  }
  spans.end(run_span);
  return run_span;
}

// -- Serving --------------------------------------------------------------

/// Pre-encoded requests of one serve stage, drawn as serve_qps draws them:
/// half the queries ask about a live tentative pair, half about a uniform
/// pair; events come from service::random_events over the initial live set.
struct Script {
  std::vector<std::pair<NodeId, NodeId>> pairs;
  /// A second draw of the same size and distribution, for the traced run's
  /// direct Snapshot::validate calls: timing them on `pairs` right after
  /// the wire queries would find those node states already in cache.
  std::vector<std::pair<NodeId, NodeId>> probe_pairs;
  std::vector<std::uint8_t> query_bytes;
  std::vector<std::uint32_t> query_offsets;  // pairs.size() + 1 entries
  std::vector<std::uint8_t> event_bytes;
  std::vector<std::uint32_t> event_offsets;
  std::vector<service::TopologyEvent> events;
  /// Whether the service should accept each event, from a shadow live set.
  std::vector<bool> event_expected_ok;

  [[nodiscard]] std::span<const std::uint8_t> query(std::size_t i) const {
    return {query_bytes.data() + query_offsets[i], query_offsets[i + 1] - query_offsets[i]};
  }
  [[nodiscard]] std::span<const std::uint8_t> event(std::size_t i) const {
    return {event_bytes.data() + event_offsets[i], event_offsets[i + 1] - event_offsets[i]};
  }
};

Script build_script(const service::Snapshot& snapshot, const util::Rect& field,
                    std::size_t blocks, std::uint64_t seed) {
  Script script;
  std::vector<NodeId> live;
  live.reserve(snapshot.node_count());
  for (const auto& [id, state] : snapshot.nodes()) live.push_back(id);

  const std::size_t queries = blocks * kQueriesPerBlock;
  const auto draw_pairs = [&](std::uint64_t stream) {
    util::Rng rng(util::derive_seed(seed, stream));
    std::vector<std::pair<NodeId, NodeId>> pairs;
    pairs.reserve(queries);
    for (std::size_t i = 0; i < queries; ++i) {
      const NodeId u = live[rng.uniform_int(static_cast<std::uint64_t>(live.size()))];
      NodeId v = live[rng.uniform_int(static_cast<std::uint64_t>(live.size()))];
      if (rng.chance(0.5)) {
        const service::NodeState* state = snapshot.find(u);
        if (state != nullptr && !state->neighbors.empty()) {
          v = state->neighbors[rng.uniform_int(
              static_cast<std::uint64_t>(state->neighbors.size()))];
        }
      }
      pairs.emplace_back(u, v);
    }
    return pairs;
  };
  script.pairs = draw_pairs(0xC0FFEE);
  script.probe_pairs = draw_pairs(2);
  script.query_offsets.reserve(queries + 1);
  script.query_offsets.push_back(0);
  for (const auto& [u, v] : script.pairs) {
    const util::Bytes payload = service::wire::encode_query(u, v);
    script.query_bytes.insert(script.query_bytes.end(), payload.begin(), payload.end());
    script.query_offsets.push_back(static_cast<std::uint32_t>(script.query_bytes.size()));
  }

  std::unordered_set<NodeId> shadow(live.begin(), live.end());
  script.events = service::random_events(blocks, field, std::move(live), util::derive_seed(seed, 1));
  script.event_offsets.push_back(0);
  for (const service::TopologyEvent& event : script.events) {
    const bool known = shadow.count(event.node) != 0;
    const bool ok = event.kind == service::EventKind::kDeploy ? !known : known;
    if (ok && event.kind == service::EventKind::kDeploy) shadow.insert(event.node);
    if (ok && event.kind == service::EventKind::kRevoke) shadow.erase(event.node);
    script.event_expected_ok.push_back(ok);
    const util::Bytes payload = service::wire::encode_event(event);
    script.event_bytes.insert(script.event_bytes.end(), payload.begin(), payload.end());
    script.event_offsets.push_back(static_cast<std::uint32_t>(script.event_bytes.size()));
  }
  return script;
}

/// Request latencies of every serve stage in a run, pooled. The pass count
/// is fixed, so these buffers have the same size in every run.
struct Latency {
  std::vector<float> query_ns;
  std::vector<float> event_ns;
  /// Time spent inside handle_request, summed over all requests.
  double busy_ns = 0.0;

  /// Room for `blocks` serve blocks up front: no reallocation mid-run
  /// briefly holding two copies that peak_rss_mb would see.
  explicit Latency(std::size_t blocks = 0) {
    query_ns.reserve(blocks * kQueriesPerBlock);
    event_ns.reserve(blocks);
  }
};

struct ServeOutcome {
  std::int64_t seed_ns = 0;
  std::int64_t rebuild_ns = 0;
  /// Wall time of the request loop, checks included.
  std::int64_t loop_ns = 0;
  std::uint32_t digest = 0;
  std::size_t nodes = 0;
};

service::ServiceConfig serve_config(std::size_t threshold_t) {
  service::ServiceConfig config;
  config.radio_range = kRange;
  config.threshold_t = threshold_t;
  return config;
}

/// Status byte and epoch of a kOk query/event reply slice.
struct Reply {
  bool ok = false;
  std::uint64_t epoch = 0;
  bool verdict = false;
};

Reply read_reply(std::span<const std::uint8_t> bytes, bool query) {
  util::ByteReader reader(bytes);
  Reply reply;
  const auto status = reader.u8();
  if (!status || *status != service::wire::kOk) return reply;
  if (query) {
    const auto verdict = reader.u8();
    if (!verdict) return reply;
    reply.verdict = *verdict != 0;
  }
  const auto epoch = reader.u64();
  if (!epoch || !reader.exhausted()) return reply;
  reply.ok = true;
  reply.epoch = *epoch;
  return reply;
}

/// Seeds a ValidationService with `nodes` and drives one closed-loop serve
/// stage against it through wire::handle_request. With `reference`, the
/// seeded functional topology (and the first block's verdicts) must equal
/// the simulated one. Ends with the incremental-vs-rebuild equivalence gate.
/// Traced, queries are timed per block and the service calls behind them
/// (snapshot, Snapshot::validate, apply) get spans of their own.
ServeOutcome serve(const service::ServiceConfig& config, const util::Rect& field,
                   const std::vector<NodeView>& nodes, bool reference, std::size_t blocks,
                   std::uint64_t seed, Latency& latency, Checks& checks, SpanLog* spans,
                   std::uint64_t parent, std::uint64_t trace) {
  std::vector<std::pair<NodeId, util::Vec2>> bootstrap;
  bootstrap.reserve(nodes.size());
  for (const NodeView& node : nodes) bootstrap.emplace_back(node.identity, node.position);

  ServeOutcome outcome;
  ScopedSpan stage(spans, "serve", parent, trace);
  service::ValidationService service(config);
  {
    ScopedSpan span(spans, "service.seed", stage.id(), trace);
    const Clock::time_point start = Clock::now();
    service.seed_topology(bootstrap);
    outcome.seed_ns = elapsed_ns(start, Clock::now());
  }

  // Functional lists by identity, for the simulated-field checks.
  std::vector<const topology::NeighborList*> functional;
  if (reference) {
    bool equal = true;
    const auto snapshot = service.snapshot();
    for (const NodeView& node : nodes) {
      const service::NodeState* state = snapshot->find(node.identity);
      equal = equal && state != nullptr && state->validated == node.functional;
      if (functional.size() <= node.identity) functional.resize(node.identity + 1, nullptr);
      functional[node.identity] = &node.functional;
    }
    checks.expect(equal, "served functional topology differs from the simulated one");
  }

  const Script script = build_script(*service.snapshot(), field, blocks, seed);
  std::uint64_t epoch = service.snapshot()->epoch();
  util::Bytes replies;
  util::Bytes event_reply;
  std::uint64_t query_failures = 0;
  std::uint64_t event_failures = 0;
  std::uint64_t probe_accepts = 0;
  const Clock::time_point loop_start = Clock::now();
  for (std::size_t block = 0; block < blocks; ++block) {
    const std::size_t first = block * kQueriesPerBlock;
    const std::size_t last = first + kQueriesPerBlock;
    const bool expected_ok = script.event_expected_ok[block];
    replies.clear();
    bool event_as_expected = false;
    if (spans == nullptr) {
      for (std::size_t i = first; i < last; ++i) {
        const Clock::time_point start = Clock::now();
        (void)service::wire::handle_request(service, script.query(i), replies);
        const auto ns = static_cast<float>(elapsed_ns(start, Clock::now()));
        latency.query_ns.push_back(ns);
        latency.busy_ns += ns;
      }
      event_reply.clear();
      const Clock::time_point start = Clock::now();
      (void)service::wire::handle_request(service, script.event(block), event_reply);
      const auto ns = static_cast<float>(elapsed_ns(start, Clock::now()));
      latency.event_ns.push_back(ns);
      latency.busy_ns += ns;
      const Reply reply = read_reply(event_reply, false);
      event_as_expected = expected_ok ? reply.ok && reply.epoch == epoch + 1
                                      : !event_reply.empty() &&
                                            event_reply[0] == service::wire::kError;
    } else {
      ScopedSpan block_span(spans, "serve.block", stage.id(), trace);
      {
        ScopedSpan span(spans, "wire.queries", block_span.id(), trace);
        for (std::size_t i = first; i < last; ++i) {
          (void)service::wire::handle_request(service, script.query(i), replies);
        }
        span.count("calls", static_cast<double>(kQueriesPerBlock));
      }
      std::shared_ptr<const service::Snapshot> snapshot;
      {
        ScopedSpan span(spans, "service.snapshot", block_span.id(), trace);
        for (std::size_t i = first; i < last; ++i) snapshot = service.snapshot();
        span.count("calls", static_cast<double>(kQueriesPerBlock));
      }
      {
        ScopedSpan span(spans, "service.validate", block_span.id(), trace);
        for (std::size_t i = first; i < last; ++i) {
          const auto [u, v] = script.probe_pairs[i];
          probe_accepts += snapshot->validate(u, v) ? 1 : 0;
        }
        span.count("calls", static_cast<double>(kQueriesPerBlock));
      }
      // Let go of the epoch before apply(), as a wire query does: apply()
      // then frees the superseded node map inside its span, as it does on
      // the wire path.
      snapshot.reset();
      bool applied = false;
      {
        ScopedSpan span(spans, "service.apply", block_span.id(), trace);
        applied = service.apply(script.events[block]).ok;
      }
      event_as_expected =
          expected_ok ? applied && service.snapshot()->epoch() == epoch + 1 : !applied;
    }

    // Checks, outside the timed calls: every query reply is kOk at the
    // current epoch, and on a simulated field the first block's verdicts
    // match the simulation.
    if (replies.size() != kQueriesPerBlock * kQueryReplyBytes) {
      query_failures += kQueriesPerBlock;
    } else {
      for (std::size_t i = first; i < last; ++i) {
        const Reply reply = read_reply(
            std::span<const std::uint8_t>(replies).subspan((i - first) * kQueryReplyBytes,
                                                           kQueryReplyBytes),
            true);
        bool ok = reply.ok && reply.epoch == epoch;
        if (reference && block == 0) {
          const auto [u, v] = script.pairs[i];
          ok = ok && reply.verdict == (u < functional.size() && functional[u] != nullptr &&
                                       topology::contains(*functional[u], v));
        }
        query_failures += ok ? 0 : 1;
      }
    }
    event_failures += event_as_expected ? 0 : 1;
    if (expected_ok) ++epoch;
  }
  outcome.loop_ns = elapsed_ns(loop_start, Clock::now());
  checks.add(blocks * kQueriesPerBlock, query_failures,
             "query replies with a bad status, epoch or verdict");
  checks.add(blocks, event_failures, "event replies that differ from the expected outcome");

  std::shared_ptr<const service::Snapshot> rebuilt;
  {
    ScopedSpan span(spans, "service.rebuild", stage.id(), trace);
    const Clock::time_point start = Clock::now();
    rebuilt = service.rebuild();
    outcome.rebuild_ns = elapsed_ns(start, Clock::now());
  }
  const auto snapshot = service.snapshot();
  checks.expect(snapshot->canonical_json() == rebuilt->canonical_json(),
                "incremental snapshot differs from rebuild()");
  outcome.digest = snapshot->digest();
  outcome.nodes = snapshot->node_count();

  std::uint64_t rejected = 0;
  for (const bool ok : script.event_expected_ok) rejected += ok ? 0 : 1;
  stage.count("events_applied", static_cast<double>(service.events_applied()));
  stage.count("events_rejected", static_cast<double>(rejected));
  stage.count("validated_edges", static_cast<double>(snapshot->validated_edge_count()));
  stage.count("probe_accepts", static_cast<double>(probe_accepts));
  return outcome;
}

// -- Workloads ------------------------------------------------------------

/// Passes that fill `seconds` at a pass length measured on the reference
/// machine (README.md), at least one. The count depends on --seconds only,
/// never on how fast this run goes, so every run of a workload measures the
/// same work and holds the same sample buffers.
std::size_t pass_count(const RunOptions& options, double nominal_pass_s) {
  // A traced run spends half its time on the untraced passes it compares
  // against, then replays them traced.
  const double budget = options.traced ? options.seconds / 2 : options.seconds;
  return std::max<std::size_t>(1, static_cast<std::size_t>(budget / nominal_pass_s));
}

struct Context {
  const RunOptions& options;
  RunResult& result;

  void golden(std::string_view item, const std::string& value) {
    if (options.record_golden) {
      result.golden_lines.push_back(options.workload + " " + std::to_string(options.seed) + " " +
                                    std::string(item) + " " + value);
      return;
    }
    if (options.golden == nullptr) return;
    const auto expected = options.golden->find(options.workload, options.seed, item);
    if (expected) {
      result.checks.expect(*expected == value, std::string(item) + ": expected " + *expected +
                                                   ", got " + value);
    }
  }
};

void add_metric(RunResult& result, std::string name, double value, std::string unit) {
  result.metrics.push_back({std::move(name), value, std::move(unit)});
}

/// End-to-end serve metrics over the run's pooled request latencies
/// (sorted in place: a copy would raise the peak RSS being reported).
void add_serve_metrics(RunResult& result, Latency& latency) {
  const double requests = static_cast<double>(latency.query_ns.size() + latency.event_ns.size());
  std::sort(latency.query_ns.begin(), latency.query_ns.end());
  std::sort(latency.event_ns.begin(), latency.event_ns.end());
  add_metric(result, "query_us_p50", sorted_percentile(latency.query_ns, 50.0) / 1e3, "us");
  add_metric(result, "query_us_p99", sorted_percentile(latency.query_ns, 99.0) / 1e3, "us");
  add_metric(result, "ingest_us_p50", sorted_percentile(latency.event_ns, 50.0) / 1e3, "us");
  add_metric(result, "ingest_us_p99", sorted_percentile(latency.event_ns, 99.0) / 1e3, "us");
  add_metric(result, "ops_per_s", latency.busy_ns > 0.0 ? requests / (latency.busy_ns / 1e9) : 0.0,
             "1/s");
}

/// Per-layer metrics, all computed from the traced run's spans.
void add_layer_metrics(RunResult& result, double overhead_pct) {
  const SpanLog& spans = result.spans;
  const double runs = static_cast<double>(spans.size("sim.run"));
  const auto per_run = [&](std::string_view name, std::string_view key) {
    return runs > 0 ? spans.total(name, key) / runs : 0.0;
  };
  const auto phases_total = [&](std::string_view key) {
    return spans.total("core.discovery", key) + spans.total("core.exchange", key) +
           spans.total("core.validation", key);
  };
  const double events = phases_total("events");
  const double deliveries = phases_total("deliveries");
  const double candidates = phases_total("candidates");
  double depth_max = 0.0;
  for (const Span& span : spans.spans()) depth_max = std::max(depth_max, span.count("queue_depth_max"));
  const auto sum = [](const std::vector<double>& v) {
    double s = 0.0;
    for (const double x : v) s += x;
    return s;
  };
  const double discovery_deliveries = spans.total("core.discovery", "deliveries");

  add_metric(result, "sim.events", runs > 0 ? events / runs : 0.0, "count");
  add_metric(result, "sim.deliveries", runs > 0 ? deliveries / runs : 0.0, "count");
  add_metric(result, "sim.candidates", runs > 0 ? candidates / runs : 0.0, "count");
  add_metric(result, "sim.delivery_yield", candidates > 0 ? deliveries / candidates : 0.0, "ratio");
  add_metric(result, "sim.ns_per_delivery",
             discovery_deliveries > 0 ? sum(spans.durations("core.discovery")) / discovery_deliveries
                                      : 0.0,
             "ns");
  add_metric(result, "sim.us_per_event",
             events > 0 ? sum(spans.durations("sim.run")) / events / 1e3 : 0.0, "us");
  add_metric(result, "sim.queue_depth_max", depth_max, "count");

  add_metric(result, "core.discovery_ms", median(spans.durations("core.discovery")) / 1e6, "ms");
  add_metric(result, "core.exchange_ms", median(spans.durations("core.exchange")) / 1e6, "ms");
  add_metric(result, "core.validation_ms", median(spans.durations("core.validation")) / 1e6, "ms");
  add_metric(result, "core.setup_ms", median(spans.durations("core.setup")) / 1e6, "ms");
  for (const char* tx : kTxNames) {
    add_metric(result, std::string("core.") + tx, runs > 0 ? phases_total(tx) / runs : 0.0,
               "count");
  }
  add_metric(result, "core.rejects.stale_version", per_run("sim.run", "rejects.stale_version"),
             "count");
  add_metric(result, "core.accepts.threshold", per_run("sim.run", "accepts.threshold"), "count");
  add_metric(result, "core.accepts.commitment", per_run("sim.run", "accepts.commitment"),
             "count");

  add_metric(result, "crypto.hash_ops.discovery",
             runs > 0 ? spans.total("core.discovery", "hash_ops") / runs : 0.0, "count");
  add_metric(result, "crypto.hash_ops.exchange",
             runs > 0 ? spans.total("core.exchange", "hash_ops") / runs : 0.0, "count");
  add_metric(result, "crypto.hash_ops.validation",
             runs > 0 ? spans.total("core.validation", "hash_ops") / runs : 0.0, "count");
  const double nodes = spans.total("sim.run", "nodes");
  add_metric(result, "crypto.hash_ops_per_node", nodes > 0 ? phases_total("hash_ops") / nodes : 0.0,
             "count");
  add_metric(result, "topology.functional_edges", per_run("sim.run", "functional_edges"),
             "count");

  const std::vector<double> apply_ns = spans.durations("service.apply");
  const double snapshot_ns = median(spans.per_call("service.snapshot", "calls"));
  const double validate_ns = median(spans.per_call("service.validate", "calls"));
  const double stages = static_cast<double>(spans.size("serve"));
  add_metric(result, "service.apply_us_p50", percentile(apply_ns, 50.0) / 1e3, "us");
  add_metric(result, "service.apply_us_p99", percentile(apply_ns, 99.0) / 1e3, "us");
  add_metric(result, "service.snapshot_ns_p50", snapshot_ns, "ns");
  add_metric(result, "service.validate_ns_p50", validate_ns, "ns");
  add_metric(result, "service.seed_s", median(spans.durations("service.seed")) / 1e9, "s");
  add_metric(result, "service.rebuild_s", median(spans.durations("service.rebuild")) / 1e9, "s");
  add_metric(result, "service.events_applied",
             stages > 0 ? spans.total("serve", "events_applied") / stages : 0.0, "count");
  add_metric(result, "service.events_rejected",
             stages > 0 ? spans.total("serve", "events_rejected") / stages : 0.0, "count");
  add_metric(result, "service.validated_edges",
             stages > 0 ? spans.total("serve", "validated_edges") / stages : 0.0, "count");
  add_metric(result, "wire.query_ns_p50",
             median(spans.per_call("wire.queries", "calls")) - snapshot_ns - validate_ns, "ns");
  add_metric(result, "obs.overhead_pct", overhead_pct, "%");
}

std::string trial_value(const SimRun& run) {
  return std::to_string(run.center_validated) + "/" + std::to_string(run.center_actual) + ":" +
         hex(run.digest, 16);
}

/// The three phase spans of a traced run must cover its sim.run span to
/// within 1%; the gap is bookkeeping between the cuts.
void check_phase_sum(Checks& checks, const SpanLog& spans, std::uint64_t run_span) {
  const Span& run = spans.span(run_span);
  double phases = 0.0;
  for (const Span& span : spans.spans()) {
    if (span.parent == run_span) phases += static_cast<double>(span.duration_ns());
  }
  const double total = static_cast<double>(run.duration_ns());
  checks.expect(total > 0.0 && std::abs(total - phases) <= 0.01 * total,
                "phase spans do not add up to the sim.run span within 1%");
}

RunResult run_paper_dense(const RunOptions& options) {
  RunResult result;
  Context context{options, result};
  Checks& checks = result.checks;

  // One untimed warm-up trial: caches, allocator pools and lazy set-up.
  {
    const FieldSpec spec = paper_dense_trial(options.seed, 0);
    const SimRun warm = simulate(spec);
    Latency ignored;
    (void)serve(serve_config(spec.protocol.threshold_t), spec.field, warm.nodes, true,
                kDenseServeBlocks, spec.seed, ignored, checks, nullptr, 0, 0);
  }

  std::vector<double> setup_ns;
  std::vector<double> trial_ns;
  std::vector<SimCounts> counts;
  const std::size_t sweeps = pass_count(options, kDenseSweepSeconds);
  Latency latency(sweeps * kSweepTrials * kDenseServeBlocks);
  for (std::size_t sweep = 0; sweep < sweeps; ++sweep) {
    for (std::size_t i = 0; i < kSweepTrials; ++i) {
      const std::size_t index = sweep * kSweepTrials + i;
      const FieldSpec spec = paper_dense_trial(options.seed, index);
      const SimRun run = simulate(spec);
      setup_ns.push_back(static_cast<double>(run.setup_ns));
      trial_ns.push_back(static_cast<double>(run.run_ns));
      counts.push_back(run.counts);
      context.golden("trial" + std::to_string(index), trial_value(run));
      (void)serve(serve_config(spec.protocol.threshold_t), spec.field, run.nodes, true,
                  kDenseServeBlocks, spec.seed, latency, checks, nullptr, 0, 0);
    }
  }

  if (!options.traced) {
    add_metric(result, "setup_s", median(setup_ns) / 1e9, "s");
    add_metric(result, "peak_rss_mb", peak_rss_mb(), "MB");
    add_metric(result, "trial_ms_p50", median(trial_ns) / 1e6, "ms");
    add_metric(result, "us_per_node", median(trial_ns) / 1e3 / kDenseNodes, "us");
    add_serve_metrics(result, latency);
    return result;
  }

  // Traced replay of the same trials.
  std::vector<double> traced_ns;
  SpanLog& spans = result.spans;
  for (std::size_t index = 0; index < counts.size(); ++index) {
    const FieldSpec spec = paper_dense_trial(options.seed, index);
    const std::uint64_t trial = spans.begin("trial", 0, index + 1);
    const SimRun run = simulate(spec, &spans, trial, index + 1);
    traced_ns.push_back(static_cast<double>(run.run_ns));
    checks.expect(run.counts == counts[index], "traced trial counts differ from the untraced run");
    Latency ignored;
    (void)serve(serve_config(spec.protocol.threshold_t), spec.field, run.nodes, true,
                kDenseServeBlocks, spec.seed, ignored, checks, &spans, trial, index + 1);
    spans.end(trial);
  }
  for (const Span& span : spans.spans()) {
    if (std::string_view(span.name) == "sim.run") check_phase_sum(checks, spans, span.id);
  }
  add_layer_metrics(result, (median(traced_ns) / median(trial_ns) - 1.0) * 100.0);
  return result;
}

RunResult run_service_mixed(const RunOptions& options) {
  RunResult result;
  Context context{options, result};
  Checks& checks = result.checks;

  // Input generation, outside every timed region: the bootstrap field as
  // serve_qps draws it.
  const double width = side_for_degree(kServiceNodes, kServiceDegree);
  const util::Rect field{{0.0, 0.0}, {width, width}};
  std::vector<NodeView> nodes;
  nodes.reserve(kServiceNodes);
  util::Rng rng(options.seed);
  for (std::size_t i = 0; i < kServiceNodes; ++i) {
    NodeView node;
    node.identity = static_cast<NodeId>(i);
    node.position = {rng.uniform(0.0, width), rng.uniform(0.0, width)};
    nodes.push_back(std::move(node));
  }
  const service::ServiceConfig config = serve_config(kServiceThreshold);

  std::vector<double> seed_ns;
  std::vector<double> rebuild_ns;
  std::vector<double> loop_ns;
  std::size_t served_nodes = kServiceNodes;
  const std::size_t passes = pass_count(options, kServicePassSeconds);
  Latency latency(passes * kServiceBlocks);
  for (std::size_t pass = 0; pass < passes; ++pass) {
    const ServeOutcome outcome = serve(config, field, nodes, false, kServiceBlocks, options.seed,
                                       latency, checks, nullptr, 0, 0);
    seed_ns.push_back(static_cast<double>(outcome.seed_ns));
    rebuild_ns.push_back(static_cast<double>(outcome.rebuild_ns));
    loop_ns.push_back(static_cast<double>(outcome.loop_ns));
    served_nodes = outcome.nodes;
    if (pass == 0) context.golden("snapshot", hex(outcome.digest, 8));
  }

  if (!options.traced) {
    add_metric(result, "setup_s", median(seed_ns) / 1e9, "s");
    add_metric(result, "peak_rss_mb", peak_rss_mb(), "MB");
    add_metric(result, "trial_ms_p50", median(rebuild_ns) / 1e6, "ms");
    add_metric(result, "us_per_node", median(rebuild_ns) / 1e3 / static_cast<double>(served_nodes),
               "us");
    add_serve_metrics(result, latency);
    return result;
  }

  std::vector<double> traced_ns;
  SpanLog& spans = result.spans;
  for (std::size_t pass = 0; pass < loop_ns.size(); ++pass) {
    const std::uint64_t root = spans.begin("pass", 0, pass + 1);
    Latency ignored;
    const ServeOutcome outcome = serve(config, field, nodes, false, kServiceBlocks, options.seed,
                                       ignored, checks, &spans, root, pass + 1);
    traced_ns.push_back(static_cast<double>(outcome.loop_ns));
    spans.end(root);
  }
  add_layer_metrics(result, (median(traced_ns) / median(loop_ns) - 1.0) * 100.0);
  return result;
}

}  // namespace

bool Golden::load(const std::string& path, std::string& error) {
  std::ifstream in(path);
  if (!in) {
    error = "cannot read " + path;
    return false;
  }
  std::string line;
  std::size_t number = 0;
  while (std::getline(in, line)) {
    ++number;
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    std::string workload, seed, item, value, extra;
    if (!(fields >> workload >> seed >> item >> value) || (fields >> extra)) {
      error = path + ":" + std::to_string(number) + ": expected 'workload seed item value'";
      return false;
    }
    entries_[workload + " " + seed + " " + item] = value;
  }
  return true;
}

std::optional<std::string> Golden::find(std::string_view workload, std::uint64_t seed,
                                        std::string_view item) const {
  const auto it = entries_.find(std::string(workload) + " " + std::to_string(seed) + " " +
                                std::string(item));
  if (it == entries_.end()) return std::nullopt;
  return it->second;
}

void Checks::expect(bool ok, std::string_view what) { add(1, ok ? 0 : 1, what); }

void Checks::add(std::uint64_t outputs, std::uint64_t wrong, std::string_view what) {
  attempted += outputs;
  failed += wrong;
  if (wrong > 0 && failures.size() < 20) {
    failures.push_back(std::string(what) + " (" + std::to_string(wrong) + " of " +
                       std::to_string(outputs) + ")");
  }
}

FieldSpec paper_dense_trial(std::uint64_t base_seed, std::size_t index) {
  FieldSpec spec;
  spec.nodes = kDenseNodes;
  spec.field = {{0.0, 0.0}, {kDenseSide, kDenseSide}};
  spec.pin_center = true;
  spec.protocol.threshold_t = kThresholdStep * (index % kSweepTrials);
  spec.seed = util::derive_seed(base_seed, index);
  return spec;
}

FieldSpec field_sparse_field(std::uint64_t seed) {
  const double side = side_for_degree(kSparseNodes, kSparseDegree);
  FieldSpec spec;
  spec.nodes = kSparseNodes;
  spec.field = {{0.0, 0.0}, {side, side}};
  // bench/scale's configuration: one Hello, t = 1, no record updates.
  spec.protocol.hello_repeats = 1;
  spec.protocol.threshold_t = 1;
  spec.protocol.max_updates = 0;
  spec.seed = seed;
  return spec;
}

SimRun simulate(const FieldSpec& spec, SpanLog* spans, std::uint64_t parent, std::uint64_t trace) {
  const std::vector<util::Vec2> positions = field_positions(spec);
  SimRun run;
  std::unique_ptr<core::SndDeployment> deployment;
  {
    ScopedSpan span(spans, "core.setup", parent, trace);
    deployment = deploy(spec, positions, run.setup_ns);
    span.count("nodes", static_cast<double>(spec.nodes));
  }
  sim::Network& network = deployment->network();
  const Tally before = read_tally(network);
  std::uint64_t run_span = 0;
  if (spans == nullptr) {
    const Clock::time_point start = Clock::now();
    deployment->run();
    run.run_ns = elapsed_ns(start, Clock::now());
  } else {
    run_span = run_phases(*deployment, *spans, parent, trace);
    run.run_ns = spans->span(run_span).duration_ns();
  }
  const Tally after = read_tally(network);
  run.counts.events = after.events - before.events;
  run.counts.deliveries = after.deliveries - before.deliveries;
  run.counts.candidates = after.candidates - before.candidates;
  run.counts.hash_ops = after.hash_ops - before.hash_ops;

  Fnv64 digest;
  run.nodes.reserve(spec.nodes);
  for (const core::SndNode* agent : deployment->agents()) {
    NodeView node;
    node.identity = agent->identity();
    node.position = network.device(agent->device()).position;
    node.functional = agent->functional_neighbors();
    digest.add(node.identity);
    digest.add(node.functional.size());
    for (const NodeId neighbor : node.functional) digest.add(neighbor);
    run.counts.functional_edges += node.functional.size();
    run.nodes.push_back(std::move(node));
  }
  run.digest = digest.value();

  if (spec.pin_center) {
    const core::SndNode* center = deployment->agent_for_device(0);
    for (const sim::Device& device : network.devices()) {
      if (device.id == center->device() || !network.link(center->device(), device.id)) continue;
      ++run.center_actual;
      if (topology::contains(center->functional_neighbors(), device.identity)) {
        ++run.center_validated;
      }
    }
  }

  if (spans != nullptr) {
    const obs::TraceSummary summary = network.trace_summary();
    const auto reject = [&](obs::RejectReason reason) {
      return static_cast<double>(summary.rejects[static_cast<std::size_t>(reason)]);
    };
    const auto accept = [&](obs::AcceptVia via) {
      return static_cast<double>(summary.accepts[static_cast<std::size_t>(via)]);
    };
    spans->count(run_span, "nodes", static_cast<double>(spec.nodes));
    spans->count(run_span, "functional_edges", static_cast<double>(run.counts.functional_edges));
    spans->count(run_span, "rejects.stale_version", reject(obs::RejectReason::kStaleVersion));
    spans->count(run_span, "accepts.threshold", accept(obs::AcceptVia::kThreshold));
    spans->count(run_span, "accepts.commitment", accept(obs::AcceptVia::kCommitment));
  }
  return run;
}

bool known_workload(std::string_view name) {
  return name == "paper_dense" || name == "service_mixed";
}

RunResult run_workload(const RunOptions& options) {
  if (options.workload == "paper_dense") return run_paper_dense(options);
  return run_service_mixed(options);
}

}  // namespace perfbench
