// Microbenchmarks of the simulation substrate: event scheduling throughput,
// broadcast fan-out, broadcast receiver *resolution* (spatial grid vs the
// historical linear scan), and the end-to-end cost of a full protocol run at
// several network sizes (the scaling the paper-scale experiments rely on).
//
// Besides the google-benchmark suite, main() always measures the grid/linear
// broadcast-resolution comparison on a 2000-node field and writes it as
// BENCH_micro_sim.json into $SND_BENCH_DIR (default: the working directory),
// the per-PR perf artifact CI uploads.
#include <benchmark/benchmark.h>

#include <array>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "core/deployment_driver.h"
#include "obs/sink.h"
#include "util/runtime_config.h"
#include "util/simd.h"
#include "obs/tracer.h"
#include "sim/deployment.h"
#include "sim/scheduler.h"

namespace {

using namespace snd;

void BM_SchedulerPushPop(benchmark::State& state) {
  for (auto _ : state) {
    sim::Scheduler scheduler;
    const auto n = static_cast<std::size_t>(state.range(0));
    for (std::size_t i = 0; i < n; ++i) {
      scheduler.schedule_at(sim::Time::microseconds(static_cast<std::int64_t>((i * 7) % n)),
                            [] {});
    }
    scheduler.run();
    benchmark::DoNotOptimize(scheduler.executed());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_SchedulerPushPop)->Arg(1000)->Arg(100000);

/// Same push/pop loop but with a delivery-sized capture (~72 bytes): the
/// shape that used to heap-allocate on every event under std::function and
/// now stays in EventAction's 88-byte inline buffer.
void BM_SchedulerPushPopDeliverySizedCapture(benchmark::State& state) {
  struct DeliveryCapture {  // stand-in for the Network delivery closure
    std::array<std::uint8_t, 56> packet_fields;
    void* network;
    std::uint64_t device;
  };
  const DeliveryCapture capture{{}, nullptr, 0};
  for (auto _ : state) {
    sim::Scheduler scheduler;
    const auto n = static_cast<std::size_t>(state.range(0));
    for (std::size_t i = 0; i < n; ++i) {
      scheduler.schedule_at(sim::Time::microseconds(static_cast<std::int64_t>((i * 7) % n)),
                            [capture] { benchmark::DoNotOptimize(&capture); });
    }
    scheduler.run();
    benchmark::DoNotOptimize(scheduler.executed());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_SchedulerPushPopDeliverySizedCapture)->Arg(100000);

void BM_BroadcastFanout(benchmark::State& state) {
  sim::Network network(std::make_unique<sim::UnitDiskModel>(1000.0), sim::ChannelConfig{}, 1);
  const auto receivers = static_cast<std::size_t>(state.range(0));
  const sim::DeviceId sender = network.add_device(0, {0, 0});
  for (std::size_t i = 0; i < receivers; ++i) {
    const sim::DeviceId d = network.add_device(static_cast<NodeId>(i + 1),
                                               {static_cast<double>(i % 100), 1.0});
    network.set_receiver(d, [](const sim::Packet&) {});
  }
  for (auto _ : state) {
    network.transmit(sender, sim::Packet{.src = 0, .dst = kNoNode, .type = 1, .payload = {}},
                     obs::Phase::kOther);
    network.scheduler().run();
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_BroadcastFanout)->Arg(10)->Arg(100)->Arg(500);

/// A paper-scale field at fixed density (one node / 100 m^2, range 25 m:
/// ~20 neighbors each) where every device broadcasts once. Resolution cost
/// is what differs between the two modes: the linear scan walks all n
/// devices per transmission, the grid only the 3x3 cell block around the
/// sender.
sim::Network make_resolution_field(std::size_t nodes, bool use_index,
                                   obs::TraceLevel level = obs::TraceLevel::kOff,
                                   std::shared_ptr<obs::Sink> sink = nullptr) {
  auto network = sim::Network(std::make_unique<sim::UnitDiskModel>(25.0),
                              sim::ChannelConfig{}, 1);
  network.set_spatial_index_enabled(use_index);
  network.tracer() = obs::Tracer(level, std::move(sink));
  const double side = std::sqrt(static_cast<double>(nodes) * 100.0);
  util::Rng rng(7);
  NodeId identity = 1;
  for (const util::Vec2 p : sim::deploy_uniform(nodes, {{0.0, 0.0}, {side, side}}, rng)) {
    const sim::DeviceId d = network.add_device(identity++, p);
    network.set_receiver(d, [](const sim::Packet&) {});
  }
  return network;
}

/// Puts one broadcast per device on the air: this is the receiver
/// *resolution* phase -- the linear scan vs the 3x3 grid query -- plus
/// delivery-event scheduling. The queue is left full; callers drain it.
void broadcast_all(sim::Network& network) {
  for (sim::DeviceId d = 0; d < network.device_count(); ++d) {
    network.transmit(d, sim::Packet{.src = network.device(d).identity,
                                    .dst = kNoNode,
                                    .type = 1,
                                    .payload = {}},
                     obs::Phase::kOther);
  }
}

/// Third arg is the trace mode: 0 = kOff (runtime-disabled fast path),
/// 1 = kCounters, 2 = kEvents into a NullSink (everything emitted, nothing
/// written). Modes 1-2 quantify the enabled-tracing tax; the grid/linear
/// comparison runs at 0 so it stays comparable across PRs.
void BM_BroadcastResolution(benchmark::State& state) {
  const auto nodes = static_cast<std::size_t>(state.range(0));
  const bool use_index = state.range(1) != 0;
  const auto trace_mode = state.range(2);
  const obs::TraceLevel level = trace_mode == 0   ? obs::TraceLevel::kOff
                                : trace_mode == 1 ? obs::TraceLevel::kCounters
                                                  : obs::TraceLevel::kEvents;
  std::shared_ptr<obs::Sink> sink =
      trace_mode == 2 ? std::make_shared<obs::NullSink>() : nullptr;
  sim::Network network = make_resolution_field(nodes, use_index, level, std::move(sink));
  for (auto _ : state) {
    broadcast_all(network);
    state.PauseTiming();  // delivery processing is identical in both modes
    network.scheduler().run();
    benchmark::DoNotOptimize(network.metrics().deliveries());
    state.ResumeTiming();
  }
  const std::string mode = trace_mode == 0 ? "off" : trace_mode == 1 ? "counters" : "events+null";
  state.SetLabel((use_index ? "grid/trace=" : "linear/trace=") + mode);
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(nodes));
}
BENCHMARK(BM_BroadcastResolution)
    ->Unit(benchmark::kMillisecond)
    ->Args({2000, 0, 0})
    ->Args({2000, 1, 0})
    ->Args({2000, 1, 1})
    ->Args({2000, 1, 2});

void BM_FullProtocolRun(benchmark::State& state) {
  const auto nodes = static_cast<std::size_t>(state.range(0));
  std::uint64_t seed = 1;
  for (auto _ : state) {
    core::DeploymentConfig config;
    // Fixed density (one node / 100 m^2): the field grows with n.
    const double side = std::sqrt(static_cast<double>(nodes) * 100.0);
    config.field = {{0.0, 0.0}, {side, side}};
    config.radio_range = 50.0;
    config.protocol.threshold_t = 5;
    config.seed = seed++;
    core::SndDeployment deployment(config);
    deployment.deploy_round(nodes);
    deployment.run();
    benchmark::DoNotOptimize(deployment.functional_graph().edge_count());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_FullProtocolRun)->Unit(benchmark::kMillisecond)->Arg(100)->Arg(400)->Arg(1000);

struct RoundTimings {
  double resolution_s = 0.0;  // transmit loops only (receiver resolution)
  double total_s = 0.0;       // including delivery processing
};

/// Wall-clock of `rounds` broadcast rounds on a fresh field, with the
/// resolution phase (transmit loop) timed separately from the delivery
/// drain, which costs the same in both modes.
RoundTimings measure(std::size_t nodes, bool use_index, int rounds,
                     obs::TraceLevel level = obs::TraceLevel::kOff,
                     std::shared_ptr<obs::Sink> sink = nullptr) {
  sim::Network network = make_resolution_field(nodes, use_index, level, std::move(sink));
  broadcast_all(network);  // warm-up: faults pages, fills the grid map
  network.scheduler().run();
  RoundTimings timings;
  const auto begin = std::chrono::steady_clock::now();
  for (int i = 0; i < rounds; ++i) {
    const auto round_begin = std::chrono::steady_clock::now();
    broadcast_all(network);
    const auto resolved = std::chrono::steady_clock::now();
    network.scheduler().run();
    timings.resolution_s += std::chrono::duration<double>(resolved - round_begin).count();
  }
  timings.total_s = std::chrono::duration<double>(std::chrono::steady_clock::now() - begin).count();
  return timings;
}

/// The before/after artifact: broadcast receiver resolution on a 2000-node
/// field, linear scan vs grid index, written as BENCH_micro_sim.json.
int write_resolution_artifact() {
  constexpr std::size_t kNodes = 2000;
  constexpr int kRounds = 10;
  const RoundTimings linear = measure(kNodes, /*use_index=*/false, kRounds);
  const RoundTimings grid = measure(kNodes, /*use_index=*/true, kRounds);

  // Strip-filter series: the same field with the candidate classifier
  // pinned to the portable scalar tier vs the detected (vector) tier, in
  // both resolution modes. The grid already prunes to a 3x3 block, so the
  // vector classifier mostly helps the full-scan shape, where nearly every
  // candidate is a definite Out.
  util::set_forced_simd_tier(util::SimdTier::kScalar);
  const RoundTimings scalar_tier_grid = measure(kNodes, /*use_index=*/true, kRounds);
  const RoundTimings scalar_tier_linear = measure(kNodes, /*use_index=*/false, kRounds);
  util::set_forced_simd_tier(std::nullopt);
  const RoundTimings detected_tier_grid = measure(kNodes, /*use_index=*/true, kRounds);
  const RoundTimings detected_tier_linear = measure(kNodes, /*use_index=*/false, kRounds);
  const double grid_tier_speedup =
      detected_tier_grid.resolution_s > 0.0
          ? scalar_tier_grid.resolution_s / detected_tier_grid.resolution_s
          : 0.0;
  const double linear_tier_speedup =
      detected_tier_linear.resolution_s > 0.0
          ? scalar_tier_linear.resolution_s / detected_tier_linear.resolution_s
          : 0.0;
  // Trace-overhead sweep on the grid configuration: the runtime-disabled
  // fast path (kOff) is the baseline; kCounters adds the typed-array bumps,
  // kEvents+NullSink adds ring writes and the sink virtual call with no
  // I/O. Whole rounds are timed (deliveries included -- that is where
  // events dominate).
  const RoundTimings trace_off = measure(kNodes, /*use_index=*/true, kRounds);
  const RoundTimings trace_counters =
      measure(kNodes, /*use_index=*/true, kRounds, obs::TraceLevel::kCounters);
  const RoundTimings trace_events = measure(kNodes, /*use_index=*/true, kRounds,
                                            obs::TraceLevel::kEvents,
                                            std::make_shared<obs::NullSink>());
  const double resolution_speedup =
      grid.resolution_s > 0.0 ? linear.resolution_s / grid.resolution_s : 0.0;
  const double round_speedup = grid.total_s > 0.0 ? linear.total_s / grid.total_s : 0.0;
  const double per_tx = static_cast<double>(kRounds) * static_cast<double>(kNodes);
  const double counters_overhead =
      trace_off.total_s > 0.0 ? trace_counters.total_s / trace_off.total_s : 0.0;
  const double events_null_overhead =
      trace_off.total_s > 0.0 ? trace_events.total_s / trace_off.total_s : 0.0;

  char json[1024];
  std::snprintf(json, sizeof(json),
                "{\n"
                "  \"name\": \"micro_sim_broadcast_resolution\",\n"
                "  \"nodes\": %zu,\n"
                "  \"broadcasts\": %.0f,\n"
                "  \"linear_us_per_tx\": %.3f,\n"
                "  \"grid_us_per_tx\": %.3f,\n"
                "  \"resolution_speedup\": %.2f,\n"
                "  \"round_speedup\": %.2f,\n"
                "  \"trace\": {\n"
                "    \"off_round_us_per_tx\": %.3f,\n"
                "    \"counters_round_us_per_tx\": %.3f,\n"
                "    \"events_null_round_us_per_tx\": %.3f,\n"
                "    \"counters_overhead\": %.3f,\n"
                "    \"events_null_overhead\": %.3f\n"
                "  },\n"
                "  \"strip_filter\": {\n"
                "    \"grid_scalar_tier_us_per_tx\": %.3f,\n"
                "    \"grid_detected_tier_us_per_tx\": %.3f,\n"
                "    \"grid_tier_speedup\": %.2f,\n"
                "    \"linear_scalar_tier_us_per_tx\": %.3f,\n"
                "    \"linear_detected_tier_us_per_tx\": %.3f,\n"
                "    \"linear_tier_speedup\": %.2f\n"
                "  }\n"
                "}\n",
                kNodes, per_tx, linear.resolution_s / per_tx * 1e6,
                grid.resolution_s / per_tx * 1e6, resolution_speedup, round_speedup,
                trace_off.total_s / per_tx * 1e6, trace_counters.total_s / per_tx * 1e6,
                trace_events.total_s / per_tx * 1e6, counters_overhead, events_null_overhead,
                scalar_tier_grid.resolution_s / per_tx * 1e6,
                detected_tier_grid.resolution_s / per_tx * 1e6, grid_tier_speedup,
                scalar_tier_linear.resolution_s / per_tx * 1e6,
                detected_tier_linear.resolution_s / per_tx * 1e6, linear_tier_speedup);

  const std::string path = bench_artifact_path("BENCH_micro_sim.json");
  if (std::FILE* f = std::fopen(path.c_str(), "w")) {
    std::fwrite(json, 1, std::strlen(json), f);
    std::fclose(f);
  }
  std::printf("broadcast resolution, %zu nodes: linear %.2f us/tx, grid %.2f us/tx, "
              "resolution speedup %.2fx (full round incl. deliveries: %.2fx) -> %s\n",
              kNodes, linear.resolution_s / per_tx * 1e6, grid.resolution_s / per_tx * 1e6,
              resolution_speedup, round_speedup, path.c_str());
  std::printf("trace overhead per round (grid): off %.2f us/tx, counters %.2fx, "
              "events+nullsink %.2fx\n",
              trace_off.total_s / per_tx * 1e6, counters_overhead, events_null_overhead);
  std::printf("strip filter, scalar -> detected tier: grid %.2f -> %.2f us/tx (%.2fx), "
              "linear %.2f -> %.2f us/tx (%.2fx)\n",
              scalar_tier_grid.resolution_s / per_tx * 1e6,
              detected_tier_grid.resolution_s / per_tx * 1e6, grid_tier_speedup,
              scalar_tier_linear.resolution_s / per_tx * 1e6,
              detected_tier_linear.resolution_s / per_tx * 1e6, linear_tier_speedup);
  return resolution_speedup >= 1.0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return write_resolution_artifact();
}
