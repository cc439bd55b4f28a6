// The benchmark's three workloads, driven through the library's public
// APIs only: core::SndDeployment, sim::Scheduler and sim::Metrics counters,
// crypto::hash_op_count, service::ValidationService and
// service::wire::handle_request. Everything runs in one process on one
// thread. README.md in this directory explains why each workload exists and
// what every metric means.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/config.h"
#include "spans.h"
#include "topology/graph.h"
#include "util/geometry.h"
#include "util/ids.h"

namespace perfbench {

using snd::NodeId;

/// Committed outputs of the seed state, keyed by workload, seed and item
/// (golden.txt in this directory). Seeds without entries are still checked
/// against the independent oracles; they just have nothing to match.
class Golden {
 public:
  /// Loads "workload seed item value" lines ('#' starts a comment).
  [[nodiscard]] bool load(const std::string& path, std::string& error);
  [[nodiscard]] std::optional<std::string> find(std::string_view workload, std::uint64_t seed,
                                                std::string_view item) const;

 private:
  std::map<std::string, std::string, std::less<>> entries_;
};

/// Output checks. Each checked output is one attempted operation; a
/// mismatch counts as a failed one and the run goes on.
struct Checks {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// The first few failure descriptions, for stderr.
  std::vector<std::string> failures;

  void expect(bool ok, std::string_view what);
  /// `outputs` checked outputs of one kind, `wrong` of them mismatched.
  void add(std::uint64_t outputs, std::uint64_t wrong, std::string_view what);
};

/// One simulated field: node count, area, protocol settings and seed.
struct FieldSpec {
  std::size_t nodes = 0;
  snd::util::Rect field;
  /// Deploy node 1 exactly at the field centre (the paper's measured node).
  bool pin_center = false;
  snd::core::ProtocolConfig protocol;
  std::uint64_t seed = 0;
};

/// Trials per paper_dense sweep: t = 0, 10, ..., 150.
inline constexpr std::size_t kSweepTrials = 16;

/// Trial `index` of the paper_dense trial sequence: sweep index / 16, with
/// t = 10 * (index % 16) and its own derived seed.
[[nodiscard]] FieldSpec paper_dense_trial(std::uint64_t base_seed, std::size_t index);
/// The sparse field of the phase-cut test: 30k nodes at mean degree 10 with
/// bench/scale's protocol settings (2.3M events). It is not a benchmark
/// workload: README.md says why.
[[nodiscard]] FieldSpec field_sparse_field(std::uint64_t seed);

/// What a simulator run must reproduce exactly, traced or not.
struct SimCounts {
  std::uint64_t events = 0;
  std::uint64_t deliveries = 0;
  std::uint64_t candidates = 0;
  std::uint64_t hash_ops = 0;
  std::uint64_t functional_edges = 0;

  friend bool operator==(const SimCounts&, const SimCounts&) = default;
};

struct NodeView {
  NodeId identity = snd::kNoNode;
  snd::util::Vec2 position;
  /// The node's functional neighbor list at quiescence.
  snd::topology::NeighborList functional;
};

struct SimRun {
  /// SndDeployment construction plus deployment of every node.
  std::int64_t setup_ns = 0;
  /// Scheduler run to quiescence (the phase cuts together, when traced).
  std::int64_t run_ns = 0;
  SimCounts counts;
  /// FNV-1a over every node's identity and functional list.
  std::uint64_t digest = 0;
  /// The pinned centre node's actual and validated neighbor counts.
  std::size_t center_actual = 0;
  std::size_t center_validated = 0;
  std::vector<NodeView> nodes;
};

/// Sets up `spec` and runs it to quiescence. With `spans`, the run is cut
/// at the protocol's window edges (discovery, exchange, validation) and
/// sampled every 1 ms of simulated time; the cut executes exactly the
/// events an uncut run does.
[[nodiscard]] SimRun simulate(const FieldSpec& spec, SpanLog* spans = nullptr,
                              std::uint64_t parent = 0, std::uint64_t trace = 0);

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool traced = false;
  const Golden* golden = nullptr;
  /// Emit the golden lines of this seed instead of checking them.
  bool record_golden = false;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct RunResult {
  Checks checks;
  /// End-to-end metrics (untraced run) or per-layer metrics (traced run).
  std::vector<Metric> metrics;
  SpanLog spans;
  std::vector<std::string> golden_lines;
};

[[nodiscard]] bool known_workload(std::string_view name);
/// Runs one workload for `options.seconds` (whole passes only).
[[nodiscard]] RunResult run_workload(const RunOptions& options);

}  // namespace perfbench
