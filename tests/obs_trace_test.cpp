// Tests for the observability pipeline: typed Metrics, drop-cause
// accounting, the Tracer ring and sinks, the shared --log/--trace config
// surface, and the determinism of a sweep's trace fold across worker counts.
#include <gtest/gtest.h>

#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/deployment_driver.h"
#include "obs/config.h"
#include "obs/sink.h"
#include "obs/tracer.h"
#include "runner/trial_runner.h"
#include "shard/session.h"
#include "sim/network.h"
#include "util/cli.h"
#include "util/log.h"

namespace snd {
namespace {

using sim::DeviceId;
using sim::Packet;

std::unique_ptr<sim::Network> make_network(double range = 10.0,
                                           sim::ChannelConfig config = {}) {
  return std::make_unique<sim::Network>(std::make_unique<sim::UnitDiskModel>(range), config, 1);
}

// -- Typed Metrics ----------------------------------------------------------

TEST(MetricsTypedTest, PhaseCountersAccumulate) {
  sim::Metrics metrics;
  metrics.count_tx(obs::Phase::kHello, 10);
  metrics.count_tx(obs::Phase::kHello, 5);
  EXPECT_EQ(metrics.phase(obs::Phase::kHello).messages, 2u);
  EXPECT_EQ(metrics.phase(obs::Phase::kHello).bytes, 15u);
  EXPECT_EQ(metrics.total().messages, 2u);
}

TEST(MetricsTypedTest, ByCategoryExportsNonZeroPhaseNames) {
  sim::Metrics metrics;
  metrics.count_tx(obs::Phase::kCommit, 3);
  metrics.count_tx(obs::Phase::kOther, 7);
  const auto exported = metrics.by_category();
  EXPECT_EQ(exported.size(), 2u);
  EXPECT_EQ(exported.at("snd.commit").bytes, 3u);
  EXPECT_EQ(exported.at("other").bytes, 7u);
}

TEST(MetricsTypedTest, AccumulateIntoPreservesTotals) {
  sim::Metrics metrics;
  metrics.count_tx(obs::Phase::kHello, 4);
  metrics.count_tx(obs::Phase::kOther, 6);
  obs::TraceSummary summary;
  metrics.accumulate_into(summary);
  EXPECT_EQ(summary.tx[static_cast<std::size_t>(obs::Phase::kHello)].bytes, 4u);
  EXPECT_EQ(summary.tx[static_cast<std::size_t>(obs::Phase::kOther)].bytes, 6u);
  EXPECT_EQ(summary.total_messages(), metrics.total().messages);
}

// -- Drop-cause accounting --------------------------------------------------

TEST(DropCauseTest, ChannelLossIsCountedAsLoss) {
  sim::ChannelConfig config;
  config.loss_probability = 1.0;
  auto net = make_network(10.0, config);
  const DeviceId a = net->add_device(1, {0, 0});
  const DeviceId b = net->add_device(2, {1, 0});
  net->set_receiver(b, [](const Packet&) {});
  net->transmit(a, Packet{.src = 1, .dst = kNoNode, .type = 1, .payload = {}},
                obs::Phase::kHello);
  net->scheduler().run();
  EXPECT_EQ(net->metrics().deliveries(), 0u);
  EXPECT_EQ(net->metrics().drops(obs::DropCause::kLoss), 1u);
  EXPECT_EQ(net->metrics().total_drops(), 1u);
}

TEST(DropCauseTest, JammingIsCountedAsCollision) {
  auto net = make_network();
  const DeviceId a = net->add_device(1, {0, 0});
  const DeviceId b = net->add_device(2, {1, 0});
  net->set_receiver(b, [](const Packet&) {});
  net->add_jammer({{1, 0}, 2.0});
  net->transmit(a, Packet{.src = 1, .dst = kNoNode, .type = 1, .payload = {}},
                obs::Phase::kHello);
  net->scheduler().run();
  EXPECT_EQ(net->metrics().deliveries(), 0u);
  EXPECT_EQ(net->metrics().drops(obs::DropCause::kCollision), 1u);
  EXPECT_EQ(net->metrics().drops(obs::DropCause::kLoss), 0u);
}

TEST(DropCauseTest, HalfDuplexMissIsDistinguished) {
  sim::ChannelConfig config;
  config.half_duplex = true;
  auto net = make_network(10.0, config);
  const DeviceId a = net->add_device(1, {0, 0});
  const DeviceId b = net->add_device(2, {1, 0});
  net->set_receiver(a, [](const Packet&) {});
  net->set_receiver(b, [](const Packet&) {});
  // Both devices transmit in the same instant: each is mid-transmission
  // during the other's airtime, so both copies are half-duplex misses.
  net->transmit(a, Packet{.src = 1, .dst = kNoNode, .type = 1, .payload = util::Bytes(64, 0)},
                obs::Phase::kHello);
  net->transmit(b, Packet{.src = 2, .dst = kNoNode, .type = 1, .payload = util::Bytes(64, 0)},
                obs::Phase::kHello);
  net->scheduler().run();
  EXPECT_EQ(net->metrics().deliveries(), 0u);
  EXPECT_EQ(net->metrics().drops(obs::DropCause::kHalfDuplex), 2u);
  EXPECT_EQ(net->metrics().drops(obs::DropCause::kCollision), 0u);
  EXPECT_EQ(net->metrics().drops(obs::DropCause::kLoss), 0u);
}

TEST(DropCauseTest, NoLinkCandidatesAreOutOfRange) {
  auto net = make_network(10.0);
  net->set_spatial_index_enabled(false);  // whole field enumerated
  const DeviceId a = net->add_device(1, {0, 0});
  const DeviceId near = net->add_device(2, {1, 0});
  const DeviceId far = net->add_device(3, {50, 0});
  net->set_receiver(near, [](const Packet&) {});
  net->set_receiver(far, [](const Packet&) {});
  net->transmit(a, Packet{.src = 1, .dst = kNoNode, .type = 1, .payload = {}},
                obs::Phase::kHello);
  net->scheduler().run();
  EXPECT_EQ(net->metrics().deliveries(), 1u);
  EXPECT_EQ(net->metrics().drops(obs::DropCause::kOutOfRange), 1u);
}

// -- Tracer ring and sinks --------------------------------------------------

obs::Event make_event(std::uint8_t i) {
  return obs::Event{.kind = obs::EventKind::kPhase,
                    .code = 0,
                    .node = i,
                    .peer = kNoNode,
                    .bytes = 0,
                    .t_ns = i};
}

TEST(TracerTest, RingOverflowIsCountedNotSilent) {
  obs::Tracer tracer(obs::TraceLevel::kEvents, nullptr, /*ring_capacity=*/4);
  for (std::uint8_t i = 0; i < 6; ++i) tracer.emit(make_event(i));
  EXPECT_EQ(tracer.events(), 6u);
  EXPECT_EQ(tracer.ring_overflow(), 2u);
  const auto recent = tracer.recent();
  ASSERT_EQ(recent.size(), 4u);
  // Chronological: the two oldest events were overwritten.
  EXPECT_EQ(recent.front().t_ns, 2);
  EXPECT_EQ(recent.back().t_ns, 5);
}

/// Counts the events it is fed.
class ProbeSink final : public obs::Sink {
 public:
  void on_event(const obs::Event&) override { ++events; }
  std::size_t events = 0;
};

TEST(TracerTest, CountersLevelSkipsRingAndSink) {
  auto sink = std::make_shared<ProbeSink>();
  obs::Tracer tracer(obs::TraceLevel::kCounters, sink, 4);
  for (std::uint8_t i = 0; i < 3; ++i) tracer.emit(make_event(i));
  EXPECT_EQ(tracer.events(), 3u);
  EXPECT_TRUE(tracer.recent().empty());
  EXPECT_EQ(sink->events, 0u);  // sink only fed at kEvents

  obs::TraceSummary summary;
  tracer.accumulate_into(summary);
  EXPECT_EQ(summary.node_phases[0], 3u);

  tracer.set_level(obs::TraceLevel::kEvents);
  tracer.emit(make_event(3));
  EXPECT_EQ(sink->events, 1u);
}

TEST(TracerTest, OffLevelIsInert) {
  obs::Tracer tracer(obs::TraceLevel::kOff, nullptr, 4);
  for (std::uint8_t i = 0; i < 5; ++i) tracer.emit(make_event(i));
  EXPECT_EQ(tracer.events(), 0u);
  EXPECT_FALSE(tracer.active());
}

TEST(TracerTest, ProtocolRunEmitsLifecycleEvents) {
  core::DeploymentConfig config;
  config.field = {{0.0, 0.0}, {30.0, 30.0}};
  config.radio_range = 15.0;
  config.protocol.threshold_t = 0;
  config.seed = 7;
  core::SndDeployment deployment(config);
  deployment.deploy_round(8);
  deployment.run();

  const obs::TraceSummary summary = deployment.network().trace_summary();
  using NP = obs::NodePhase;
  EXPECT_EQ(summary.node_phases[static_cast<std::size_t>(NP::kDeployed)], 8u);
  EXPECT_EQ(summary.node_phases[static_cast<std::size_t>(NP::kDiscoveryDone)], 8u);
  EXPECT_EQ(summary.node_phases[static_cast<std::size_t>(NP::kValidated)], 8u);
  EXPECT_EQ(summary.node_phases[static_cast<std::size_t>(NP::kKeyErased)], 8u);
  std::uint64_t accepts = 0;
  for (const std::uint64_t n : summary.accepts) accepts += n;
  EXPECT_GT(accepts, 0u);
  EXPECT_GT(summary.tx[static_cast<std::size_t>(obs::Phase::kHello)].messages, 0u);
}

TEST(JsonLinesSinkTest, EventSerializationMatchesDocumentedSchema) {
  const obs::Event event{.kind = obs::EventKind::kDrop,
                         .code = static_cast<std::uint8_t>(obs::DropCause::kHalfDuplex),
                         .node = 3,
                         .peer = 9,
                         .bytes = 42,
                         .t_ns = 1234};
  EXPECT_EQ(obs::JsonLinesSink::to_json(event),
            R"({"kind":"drop","t_ns":1234,"code":"half_duplex","node":3,"peer":9,"bytes":42})");

  // Optional fields are omitted, not null.
  const obs::Event bare{.kind = obs::EventKind::kTx,
                        .code = static_cast<std::uint8_t>(obs::Phase::kAck),
                        .node = kNoNode,
                        .peer = kNoNode,
                        .bytes = 0,
                        .t_ns = 0};
  EXPECT_EQ(obs::JsonLinesSink::to_json(bare), R"({"kind":"tx","t_ns":0,"code":"snd.ack"})");
}

// -- Config surface ---------------------------------------------------------

util::Cli make_cli(std::vector<const char*> args) {
  args.insert(args.begin(), "test");
  return util::Cli(static_cast<int>(args.size()), args.data());
}

TEST(ObsConfigTest, ResolvesLevelsAndImpliesEventsForJson) {
  const util::Cli cli = make_cli({"--log", "debug", "--trace", "off"});
  const obs::ObsConfig config = obs::resolve_obs(cli);
  EXPECT_EQ(config.log_level, util::LogLevel::kDebug);
  EXPECT_EQ(config.trace_level, obs::TraceLevel::kOff);
  EXPECT_TRUE(cli.errors().empty());

  const util::Cli json_cli = make_cli({"--trace-json", "/tmp/t.jsonl"});
  const obs::ObsConfig json_config = obs::resolve_obs(json_cli);
  EXPECT_EQ(json_config.trace_level, obs::TraceLevel::kEvents);
  EXPECT_EQ(json_config.trace_json_path, "/tmp/t.jsonl");
}

TEST(ObsConfigTest, ValidateRejectsBadValues) {
  for (const auto& args : std::vector<std::vector<const char*>>{
           {"--trace", "verbose"},
           {"--log", "loud"},
           {"--trace", "off", "--trace-json", "x"}}) {
    const util::Cli cli = make_cli(args);
    (void)obs::resolve_obs(cli);
    std::ostringstream err;
    EXPECT_FALSE(cli.validate(err, {"trace", "log", "trace-json"})) << err.str();
    EXPECT_FALSE(err.str().empty());
  }
}

TEST(ObsConfigTest, TraceLevelNamesRoundTrip) {
  for (obs::TraceLevel level :
       {obs::TraceLevel::kOff, obs::TraceLevel::kCounters, obs::TraceLevel::kEvents}) {
    const auto parsed = obs::trace_level_from_name(obs::trace_level_name(level));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, level);
  }
  EXPECT_FALSE(obs::trace_level_from_name("bogus").has_value());
  EXPECT_EQ(obs::trace_level_from_name("2"), obs::TraceLevel::kEvents);
}

TEST(LogSinkTest, LogLinesRouteThroughInstalledSink) {
  std::vector<std::string> seen;
  util::set_log_sink([&seen](util::LogLevel level, const std::string& message) {
    seen.push_back(std::string(util::log_level_name(level)) + ": " + message);
  });
  const util::LogLevel before = util::log_level();
  util::set_log_level(util::LogLevel::kWarn);
  util::log_line(util::LogLevel::kDebug, "filtered");
  util::log_line(util::LogLevel::kError, "kept");
  util::set_log_level(before);
  util::set_log_sink(nullptr);

  ASSERT_EQ(seen.size(), 1u);
  EXPECT_EQ(seen[0], "error: kept");
}

// -- Trace fold determinism --------------------------------------------------

obs::TraceSummary traced_trial(std::uint64_t seed) {
  core::DeploymentConfig config;
  config.field = {{0.0, 0.0}, {40.0, 40.0}};
  config.radio_range = 15.0;
  config.protocol.threshold_t = 1;
  config.seed = seed;
  core::SndDeployment deployment(config);
  deployment.deploy_round(10);
  deployment.run();
  return deployment.network().trace_summary();
}

TEST(TraceFoldDeterminismTest, FoldIsByteIdenticalAcrossJobCounts) {
  shard::ShardSpec spec;
  spec.sweep_id = "traced";
  spec.base_seed = 55;
  spec.total_trials = 8;
  std::string baseline;
  for (const std::size_t jobs : {std::size_t{1}, std::size_t{4}, std::size_t{8}}) {
    runner::TrialRunner pool(jobs);
    shard::SweepReport report;
    shard::Session session(shard::SessionOptions{}, spec);
    ASSERT_TRUE(session.open(std::cerr));
    session.run(
        pool,
        [](std::size_t, std::uint64_t seed) {
          return shard::TrialOutput{{}, traced_trial(seed)};
        },
        &report);
    EXPECT_EQ(report.failed, 0u);
    ASSERT_TRUE(report.has_trace);
    const std::string folded = report.trace.to_json();
    if (baseline.empty()) {
      baseline = folded;
      EXPECT_NE(baseline.find("\"trials\":8"), std::string::npos);
    } else {
      EXPECT_EQ(folded, baseline) << "jobs=" << jobs;
    }
  }
}

}  // namespace
}  // namespace snd
