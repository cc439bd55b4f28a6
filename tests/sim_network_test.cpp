#include "sim/network.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <initializer_list>
#include <memory>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "crypto/sha256.h"
#include "obs/sink.h"
#include "simd_tiers.h"
#include "util/rng.h"

namespace snd::sim {
namespace {

std::unique_ptr<Network> make_network(double range = 50.0, ChannelConfig config = {},
                                      std::uint64_t seed = 1) {
  return std::make_unique<Network>(std::make_unique<UnitDiskModel>(range), config, seed);
}

TEST(NetworkTest, AddDeviceAssignsSequentialIds) {
  auto net = make_network();
  EXPECT_EQ(net->add_device(100, {0, 0}), 0u);
  EXPECT_EQ(net->add_device(101, {1, 1}), 1u);
  EXPECT_EQ(net->device_count(), 2u);
  EXPECT_EQ(net->device(0).identity, 100u);
}

TEST(NetworkTest, DeliversWithinRange) {
  auto net = make_network(10.0);
  const DeviceId a = net->add_device(1, {0, 0});
  const DeviceId b = net->add_device(2, {5, 0});
  int received = 0;
  net->set_receiver(b, [&](const Packet& p) {
    ++received;
    EXPECT_EQ(p.src, 1u);
    EXPECT_EQ(p.sender_device, a);
  });
  net->transmit(a, Packet{.src = 1, .dst = kNoNode, .type = 1, .payload = {}}, obs::Phase::kOther);
  net->scheduler().run();
  EXPECT_EQ(received, 1);
}

TEST(NetworkTest, NoDeliveryBeyondRange) {
  auto net = make_network(10.0);
  const DeviceId a = net->add_device(1, {0, 0});
  const DeviceId b = net->add_device(2, {50, 0});
  int received = 0;
  net->set_receiver(b, [&](const Packet&) { ++received; });
  net->transmit(a, Packet{.src = 1, .dst = kNoNode, .type = 1, .payload = {}}, obs::Phase::kOther);
  net->scheduler().run();
  EXPECT_EQ(received, 0);
}

TEST(NetworkTest, BroadcastReachesAllNeighbors) {
  auto net = make_network(20.0);
  const DeviceId center = net->add_device(1, {0, 0});
  int received = 0;
  for (int i = 0; i < 5; ++i) {
    const DeviceId d = net->add_device(static_cast<NodeId>(2 + i), {5.0 + i, 0});
    net->set_receiver(d, [&](const Packet&) { ++received; });
  }
  net->transmit(center, Packet{.src = 1, .dst = kNoNode, .type = 1, .payload = {}}, obs::Phase::kOther);
  net->scheduler().run();
  EXPECT_EQ(received, 5);
}

TEST(NetworkTest, SenderDoesNotHearItself) {
  auto net = make_network();
  const DeviceId a = net->add_device(1, {0, 0});
  int received = 0;
  net->set_receiver(a, [&](const Packet&) { ++received; });
  net->transmit(a, Packet{.src = 1, .dst = kNoNode, .type = 1, .payload = {}}, obs::Phase::kOther);
  net->scheduler().run();
  EXPECT_EQ(received, 0);
}

TEST(NetworkTest, DeadDeviceNeitherSendsNorReceives) {
  auto net = make_network(10.0);
  const DeviceId a = net->add_device(1, {0, 0});
  const DeviceId b = net->add_device(2, {5, 0});
  int received = 0;
  net->set_receiver(b, [&](const Packet&) { ++received; });

  net->set_alive(b, false);
  net->transmit(a, Packet{.src = 1, .dst = kNoNode, .type = 1, .payload = {}}, obs::Phase::kOther);
  net->scheduler().run();
  EXPECT_EQ(received, 0);

  net->set_alive(b, true);
  net->set_alive(a, false);
  net->transmit(a, Packet{.src = 1, .dst = kNoNode, .type = 1, .payload = {}}, obs::Phase::kOther);
  net->scheduler().run();
  EXPECT_EQ(received, 0);
}

TEST(NetworkTest, DeliveryDelayedByTransmissionTime) {
  ChannelConfig config;
  config.processing_delay = Time::zero();
  auto net = make_network(10.0, config);
  const DeviceId a = net->add_device(1, {0, 0});
  const DeviceId b = net->add_device(2, {5, 0});
  Time delivered_at = Time::zero();
  net->set_receiver(b, [&](const Packet&) { delivered_at = net->now(); });
  net->transmit(a, Packet{.src = 1, .dst = kNoNode, .type = 1, .payload = util::Bytes(100, 0)},
                obs::Phase::kOther);
  net->scheduler().run();
  // 111 bytes at 250 kbps = 3.552 ms, plus ~17 ns propagation.
  EXPECT_GT(delivered_at, Time::milliseconds(3));
  EXPECT_LT(delivered_at, Time::milliseconds(4));
}

TEST(NetworkTest, JammingBlocksBothDirections) {
  auto net = make_network(10.0);
  const DeviceId a = net->add_device(1, {0, 0});
  const DeviceId b = net->add_device(2, {5, 0});
  int received = 0;
  net->set_receiver(b, [&](const Packet&) { ++received; });

  const std::size_t jammer = net->add_jammer({{5, 0}, 2.0});  // covers b only
  net->transmit(a, Packet{.src = 1, .dst = kNoNode, .type = 1, .payload = {}}, obs::Phase::kOther);
  net->scheduler().run();
  EXPECT_EQ(received, 0);

  net->remove_jammer(jammer);
  net->transmit(a, Packet{.src = 1, .dst = kNoNode, .type = 1, .payload = {}}, obs::Phase::kOther);
  net->scheduler().run();
  EXPECT_EQ(received, 1);
}

TEST(NetworkTest, ChannelLossDropsFraction) {
  ChannelConfig config;
  config.loss_probability = 0.4;
  auto net = make_network(10.0, config, 9);
  const DeviceId a = net->add_device(1, {0, 0});
  const DeviceId b = net->add_device(2, {5, 0});
  int received = 0;
  net->set_receiver(b, [&](const Packet&) { ++received; });
  const int sent = 2000;
  for (int i = 0; i < sent; ++i) {
    net->transmit(a, Packet{.src = 1, .dst = kNoNode, .type = 1, .payload = {}}, obs::Phase::kOther);
  }
  net->scheduler().run();
  EXPECT_NEAR(static_cast<double>(received) / sent, 0.6, 0.04);
}

TEST(NetworkTest, MetricsChargeCategoriesOncePerTransmit) {
  auto net = make_network(10.0);
  const DeviceId a = net->add_device(1, {0, 0});
  for (int i = 0; i < 3; ++i) {
    const DeviceId d = net->add_device(static_cast<NodeId>(2 + i), {1.0 + i, 0});
    net->set_receiver(d, [](const Packet&) {});
  }
  net->transmit(a, Packet{.src = 1, .dst = kNoNode, .type = 1, .payload = util::Bytes(10, 0)},
                obs::Phase::kHello);
  net->transmit(a, Packet{.src = 1, .dst = kNoNode, .type = 1, .payload = {}}, obs::Phase::kAck);
  net->scheduler().run();

  EXPECT_EQ(net->metrics().phase(obs::Phase::kHello).messages, 1u);
  EXPECT_EQ(net->metrics().phase(obs::Phase::kHello).bytes, 10u + Packet::kHeaderBytes);
  EXPECT_EQ(net->metrics().phase(obs::Phase::kAck).messages, 1u);
  EXPECT_EQ(net->metrics().total().messages, 2u);
  EXPECT_EQ(net->metrics().deliveries(), 6u);  // 3 receivers x 2 packets
}

TEST(NetworkTest, DevicesWithIdentityFindsReplicas) {
  auto net = make_network();
  net->add_device(1, {0, 0});
  net->add_replica(1, {30, 30});
  net->add_device(2, {10, 10});
  const auto holders = net->devices_with_identity(1);
  EXPECT_EQ(holders.size(), 2u);
  EXPECT_TRUE(net->device(holders[1]).replica);
  EXPECT_TRUE(net->device(holders[1]).compromised);
  EXPECT_FALSE(net->device(holders[0]).replica);
}

TEST(NetworkTest, LinkIsSymmetricAndExcludesSelf) {
  auto net = make_network(10.0);
  const DeviceId a = net->add_device(1, {0, 0});
  const DeviceId b = net->add_device(2, {9, 0});
  EXPECT_TRUE(net->link(a, b));
  EXPECT_TRUE(net->link(b, a));
  EXPECT_FALSE(net->link(a, a));
}

TEST(NetworkTest, DevicesInRange) {
  auto net = make_network(10.0);
  const DeviceId a = net->add_device(1, {0, 0});
  net->add_device(2, {5, 0});
  net->add_device(3, {9, 0});
  net->add_device(4, {20, 0});
  EXPECT_EQ(net->devices_in_range(a).size(), 2u);
}

// One delivered packet as observed by a receiver: (time, receiver device,
// physical sender). Byte-identical traces across runs require identical
// loss-RNG draw order, delivery scheduling order, and event tie-breaking.
using DeliveryTrace = std::vector<std::tuple<std::int64_t, DeviceId, DeviceId>>;

struct TrafficResult {
  DeliveryTrace trace;
  std::uint64_t deliveries = 0;
  std::uint64_t messages = 0;
  std::uint64_t bytes = 0;

  friend bool operator==(const TrafficResult&, const TrafficResult&) = default;
};

/// `Model` without its strip classifier: link_exists and both ranges
/// forward to the model, and classify_links stays the base class's
/// all-kLinkCheck verdict, so the Network decides every candidate with a
/// scalar link_exists call -- the per-candidate reference filter.
template <typename Model>
class Unclassified final : public PropagationModel {
 public:
  template <typename... Args>
  explicit Unclassified(Args&&... args) : model_(std::forward<Args>(args)...) {}
  [[nodiscard]] bool link_exists(util::Vec2 a, util::Vec2 b) const override {
    return model_.link_exists(a, b);
  }
  [[nodiscard]] double nominal_range() const override { return model_.nominal_range(); }
  [[nodiscard]] double max_range() const override { return model_.max_range(); }

 private:
  Model model_;
};

/// The model itself, or its Unclassified wrapper when `classified` is false.
template <typename Model, typename... Args>
std::unique_ptr<PropagationModel> make_model(bool classified, Args... args) {
  if (classified) return std::make_unique<Model>(args...);
  return std::make_unique<Unclassified<Model>>(args...);
}

/// Builds a log-normal-shadowed field with loss and a jammer, including
/// devices exactly on grid-cell boundaries and far outside the populated
/// bounding box, runs broadcast + unicast traffic, and records everything
/// observable. The field and traffic depend only on the seeds, never on
/// `use_index` or `classified`.
TrafficResult run_traffic(bool use_index, bool classified = true) {
  ChannelConfig config;
  config.loss_probability = 0.25;
  Network net(make_model<LogNormalModel>(classified, 60.0, 3.0, 6.0, std::uint64_t{42}), config,
              7);
  net.set_spatial_index_enabled(use_index);
  EXPECT_EQ(net.spatial_index_enabled(), use_index);

  util::Rng place(99);
  const std::size_t n = 150;
  for (std::size_t i = 0; i < n; ++i) {
    net.add_device(static_cast<NodeId>(i + 1),
                   {place.uniform(0.0, 900.0), place.uniform(0.0, 900.0)});
  }
  // Cell boundaries: the cell side is the model's max_range; park devices
  // exactly on multiples of it (and at the origin corner).
  const double cell = net.propagation().max_range();
  net.add_device(200, {0.0, 0.0});
  net.add_device(201, {cell, cell});
  net.add_device(202, {2.0 * cell, 0.0});
  net.add_device(203, {cell, 0.0});
  // Outliers far outside the populated region (sparse grid, no bounding
  // box): they must neither crash queries nor ever hear anything.
  net.add_device(204, {-5000.0, -5000.0});
  net.add_device(205, {50000.0, 50000.0});
  net.add_replica(1, {450.0, 450.0});

  TrafficResult result;
  for (DeviceId d = 0; d < net.device_count(); ++d) {
    net.set_receiver(d, [&result, &net, d](const Packet& p) {
      result.trace.emplace_back(net.now().ns(), d, p.sender_device);
    });
  }
  net.add_jammer({{300.0, 300.0}, 80.0});

  for (DeviceId d = 0; d < net.device_count(); ++d) {
    const NodeId self = net.device(d).identity;
    net.transmit(d, Packet{.src = self, .dst = kNoNode, .type = 1, .payload = {}}, obs::Phase::kOther);
    net.transmit(d,
                 Packet{.src = self,
                        .dst = static_cast<NodeId>(((d + 1) % n) + 1),
                        .type = 2,
                        .payload = util::Bytes(16, 0xab)},
                 obs::Phase::kOther);
  }
  net.scheduler().run();

  result.deliveries = net.metrics().deliveries();
  result.messages = net.metrics().total().messages;
  result.bytes = net.metrics().total().bytes;
  return result;
}

TEST(SpatialIndexTest, GridTrafficBitIdenticalToLinearScan) {
  const TrafficResult grid = run_traffic(true);
  const TrafficResult linear = run_traffic(false);
  EXPECT_GT(grid.deliveries, 100u);  // the field is actually busy
  EXPECT_EQ(grid.trace, linear.trace);
  EXPECT_TRUE(grid == linear);
}

// Every tier's strip classifier must deliver exactly what the per-candidate
// scalar filter delivers, on the grid and on the linear candidate path.
TEST(SpatialIndexTest, StripFilterTrafficBitIdenticalToScalarFilter) {
  const TrafficResult scalar_grid = run_traffic(true, /*classified=*/false);
  const TrafficResult scalar_linear = run_traffic(false, /*classified=*/false);
  EXPECT_GT(scalar_grid.deliveries, 100u);
  EXPECT_TRUE(scalar_grid == scalar_linear);

  test::for_each_simd_tier([&] {
    EXPECT_TRUE(run_traffic(true) == scalar_grid);
    EXPECT_TRUE(run_traffic(false) == scalar_linear);
  });
}

/// Unit-disk variant: the strip path issues definite In verdicts here (not
/// just Out), including for receivers exactly on the disk boundary.
TrafficResult run_unit_disk_traffic(bool classified = true) {
  ChannelConfig config;
  config.loss_probability = 0.15;
  Network net(make_model<UnitDiskModel>(classified, 50.0), config, 11);

  util::Rng place(5);
  for (std::size_t i = 0; i < 120; ++i) {
    net.add_device(static_cast<NodeId>(i + 1),
                   {place.uniform(0.0, 500.0), place.uniform(0.0, 500.0)});
  }
  // Boundary-inclusive pair: exactly one radio range apart.
  net.add_device(300, {600.0, 0.0});
  net.add_device(301, {650.0, 0.0});

  TrafficResult result;
  for (DeviceId d = 0; d < net.device_count(); ++d) {
    net.set_receiver(d, [&result, &net, d](const Packet& p) {
      result.trace.emplace_back(net.now().ns(), d, p.sender_device);
    });
  }
  for (DeviceId d = 0; d < net.device_count(); ++d) {
    const NodeId self = net.device(d).identity;
    net.transmit(d, Packet{.src = self, .dst = kNoNode, .type = 1, .payload = {}},
                 obs::Phase::kOther);
  }
  net.scheduler().run();

  result.deliveries = net.metrics().deliveries();
  result.messages = net.metrics().total().messages;
  result.bytes = net.metrics().total().bytes;
  return result;
}

TEST(SpatialIndexTest, UnitDiskStripFilterBitIdenticalToScalar) {
  const TrafficResult scalar = run_unit_disk_traffic(/*classified=*/false);
  EXPECT_GT(scalar.deliveries, 50u);
  test::for_each_simd_tier([&] { EXPECT_TRUE(run_unit_disk_traffic() == scalar); });
}

TEST(SpatialIndexTest, DevicesInRangeMatchesLinearScan) {
  Network net(std::make_unique<UnitDiskModel>(50.0), ChannelConfig{}, 3);
  util::Rng place(17);
  for (std::size_t i = 0; i < 200; ++i) {
    net.add_device(static_cast<NodeId>(i + 1),
                   {place.uniform(-200.0, 400.0), place.uniform(-200.0, 400.0)});
  }
  // Exact cell-boundary placements, including a pair at exactly the radio
  // range (boundary-inclusive link).
  net.add_device(500, {50.0, 0.0});
  net.add_device(501, {100.0, 0.0});
  net.add_device(502, {0.0, -50.0});
  net.set_alive(5, false);  // dead devices stay indexed but invisible

  for (DeviceId d = 0; d < net.device_count(); ++d) {
    net.set_spatial_index_enabled(true);
    const auto indexed = net.devices_in_range(d);
    net.set_spatial_index_enabled(false);
    const auto linear = net.devices_in_range(d);
    EXPECT_EQ(indexed, linear) << "device " << d;
  }
}

TEST(SpatialIndexTest, IndexedBroadcastReachesBoundaryNeighbors) {
  // Receivers at exactly the radio range sit in neighboring grid cells;
  // the 3x3 block query must still find them.
  auto net = make_network(10.0);
  const DeviceId center = net->add_device(1, {0, 0});
  int received = 0;
  NodeId next_identity = 2;
  for (const util::Vec2 p :
       {util::Vec2{10, 0}, util::Vec2{-10, 0}, util::Vec2{0, 10}, util::Vec2{0, -10}}) {
    const DeviceId d = net->add_device(next_identity++, p);
    net->set_receiver(d, [&](const Packet&) { ++received; });
  }
  ASSERT_TRUE(net->spatial_index_enabled());
  net->transmit(center, Packet{.src = 1, .dst = kNoNode, .type = 1, .payload = {}}, obs::Phase::kOther);
  net->scheduler().run();
  EXPECT_EQ(received, 4);
}

TEST(SpatialIndexTest, DeviceAddedAfterBroadcastsStillReceives) {
  // Regression pin for stale candidate caches: the first broadcast warms
  // the 3x3 block cache around the sender; a device added afterwards must
  // invalidate it (grid_version_ bump) and hear the second broadcast.
  auto net = make_network(20.0);
  const DeviceId a = net->add_device(1, {0, 0});
  ASSERT_TRUE(net->spatial_index_enabled());
  net->transmit(a, Packet{.src = 1, .dst = kNoNode, .type = 1, .payload = {}}, obs::Phase::kOther);
  net->scheduler().run();

  const DeviceId late = net->add_device(2, {5, 0});
  int received = 0;
  net->set_receiver(late, [&](const Packet&) { ++received; });
  net->transmit(a, Packet{.src = 1, .dst = kNoNode, .type = 1, .payload = {}}, obs::Phase::kOther);
  net->scheduler().run();
  EXPECT_EQ(received, 1);
}

TEST(SpatialIndexTest, SetPositionMovesDeviceIntoRange) {
  // A device parked far away (different grid cell, cached as unreachable)
  // moves next to the sender: set_position must re-bucket it and invalidate
  // the cached candidate lists, or the move would be invisible to the
  // radio. Writing Device::position directly was exactly that bug.
  auto net = make_network(10.0);
  const DeviceId a = net->add_device(1, {0, 0});
  const DeviceId b = net->add_device(2, {500, 500});
  int received = 0;
  net->set_receiver(b, [&](const Packet&) { ++received; });

  net->transmit(a, Packet{.src = 1, .dst = kNoNode, .type = 1, .payload = {}}, obs::Phase::kOther);
  net->scheduler().run();
  EXPECT_EQ(received, 0);  // out of range, and the block cache is now warm

  net->set_position(b, {5, 0});
  EXPECT_EQ(net->device(b).position.x, 5.0);
  net->transmit(a, Packet{.src = 1, .dst = kNoNode, .type = 1, .payload = {}}, obs::Phase::kOther);
  net->scheduler().run();
  EXPECT_EQ(received, 1);
}

TEST(SpatialIndexTest, SetPositionMovesDeviceOutOfRange) {
  auto net = make_network(10.0);
  const DeviceId a = net->add_device(1, {0, 0});
  const DeviceId b = net->add_device(2, {5, 0});
  int received = 0;
  net->set_receiver(b, [&](const Packet&) { ++received; });
  net->transmit(a, Packet{.src = 1, .dst = kNoNode, .type = 1, .payload = {}}, obs::Phase::kOther);
  net->scheduler().run();
  EXPECT_EQ(received, 1);

  net->set_position(b, {800, 800});
  net->transmit(a, Packet{.src = 1, .dst = kNoNode, .type = 1, .payload = {}}, obs::Phase::kOther);
  net->scheduler().run();
  EXPECT_EQ(received, 1);  // unchanged: the moved device is out of reach
}

TEST(SpatialIndexTest, SetPositionKeepsGridIdenticalToLinearScan) {
  // After a batch of moves (cell-crossing and same-cell alike, including a
  // move onto an exact cell boundary), the indexed receiver resolution must
  // still match the ground-truth linear scan for every device.
  Network net(std::make_unique<UnitDiskModel>(50.0), ChannelConfig{}, 3);
  util::Rng place(23);
  for (std::size_t i = 0; i < 120; ++i) {
    net.add_device(static_cast<NodeId>(i + 1),
                   {place.uniform(0.0, 500.0), place.uniform(0.0, 500.0)});
  }
  util::Rng move(29);
  for (DeviceId d = 0; d < net.device_count(); d += 7) {
    net.set_position(d, {move.uniform(0.0, 500.0), move.uniform(0.0, 500.0)});
  }
  net.set_position(3, {50.0, 50.0});                           // exact cell corner
  net.set_position(10, net.device(10).position + util::Vec2{0.1, 0.1});  // same cell

  for (DeviceId d = 0; d < net.device_count(); ++d) {
    net.set_spatial_index_enabled(true);
    const auto indexed = net.devices_in_range(d);
    net.set_spatial_index_enabled(false);
    const auto linear = net.devices_in_range(d);
    EXPECT_EQ(indexed, linear) << "device " << d;
  }
}

// -- Recorded event trace of a busy, hostile channel ---------------------------

/// Deterministic fault hook that exercises every perturbation: by a hash of
/// (src, dst, call number) it drops, bursts, duplicates, delays or corrupts
/// a copy, or leaves it alone.
class PatternFaultHook final : public FaultHook {
 public:
  FaultDecision on_delivery(NodeId src, NodeId dst, obs::Phase /*phase*/, Time /*now*/) override {
    const std::uint32_t h = (src * 2654435761u) ^ (dst * 40503u) ^ (calls_++ * 97u);
    FaultDecision fd;
    switch (h % 16) {
      case 0:
        fd.drop = true;
        break;
      case 1:
        fd.drop = true;
        fd.drop_kind = obs::InjectKind::kBurst;
        break;
      case 2:
        fd.copies = 2;
        fd.copy_spacing = Time::microseconds(40);
        break;
      case 3:
        fd.extra_delay = Time::microseconds(300);
        break;
      case 4:
        fd.corrupt = true;
        break;
      case 5:
        fd.corrupt = true;
        fd.copies = 1;
        fd.copy_spacing = Time::microseconds(10);
        fd.extra_delay = Time::microseconds(5);
        break;
      default:
        break;
    }
    return fd;
  }
  void corrupt_packet(Packet& packet) override {
    if (packet.payload.empty()) {
      packet.payload.push_back(0x5a);
    } else {
      packet.payload[0] ^= 0x5a;
    }
  }
  [[nodiscard]] double timer_drift(NodeId /*node*/) const override { return 1.0; }
  [[nodiscard]] bool skews_timers() const override { return false; }

 private:
  std::uint32_t calls_ = 0;
};

/// Hashes every traced event in its JSON-lines form, one line each.
class DigestSink final : public obs::Sink {
 public:
  explicit DigestSink(crypto::Sha256& sha) : sha_(sha) {}
  void on_event(const obs::Event& event) override {
    sha_.update(obs::JsonLinesSink::to_json(event));
    sha_.update("\n");
  }

 private:
  crypto::Sha256& sha_;
};

/// A dense field (every transmission has ~100 receivers in range and ~100
/// candidates out of range) under loss 0.25, a jammer and the pattern
/// fault hook, with the tracer recording. Every device in turn broadcasts
/// and sends one unicast; every fifth device answers the first broadcast it
/// hears from inside its receive callback, so deliveries transmit while a
/// delivery is running. One device has no receiver and one dies mid-run.
/// The traced events and every received packet are hashed into `sha`.
void run_hostile_traffic(std::unique_ptr<PropagationModel> model, bool half_duplex,
                         std::uint64_t seed, crypto::Sha256& sha) {
  ChannelConfig config;
  config.loss_probability = 0.25;
  config.half_duplex = half_duplex;
  Network net(std::move(model), config, seed);
  PatternFaultHook hook;
  net.set_fault_hook(&hook);
  net.tracer().set_level(obs::TraceLevel::kEvents);
  net.tracer().set_sink(std::make_shared<DigestSink>(sha));

  util::Rng place(seed * 31 + 1);
  const std::size_t n = 200;
  for (std::size_t i = 0; i < n; ++i) {
    net.add_device(static_cast<NodeId>(i + 1),
                   {place.uniform(0.0, 100.0), place.uniform(0.0, 100.0)});
  }
  net.add_device(500, {100.0, 100.0});  // a far corner of the field
  net.add_device(501, {0.0, 50.0});     // exactly one range from 502
  net.add_device(502, {50.0, 50.0});
  net.add_jammer({{30.0, 70.0}, 15.0});

  std::vector<bool> answered(net.device_count(), false);
  for (DeviceId d = 0; d < net.device_count(); ++d) {
    if (d == 17) continue;  // no receiver installed
    net.set_receiver(d, [&net, &sha, &answered, d](const Packet& p) {
      const std::string line = std::to_string(net.now().ns()) + " rx " + std::to_string(d) +
                               " from " + std::to_string(p.sender_device) + " type " +
                               std::to_string(p.type) + " " + util::to_hex(p.payload) + "\n";
      sha.update(line);
      if (p.type == 1 && d % 5 == 0 && !answered[d]) {
        answered[d] = true;
        net.transmit(d,
                     Packet{.src = net.device(d).identity,
                            .dst = p.src,
                            .type = 3,
                            .payload = util::Bytes(8, static_cast<std::uint8_t>(d))},
                     obs::Phase::kAck);
      }
    });
  }
  net.scheduler().schedule_at(Time::milliseconds(20), [&net] { net.set_alive(42, false); });

  // Staggered senders, so half-duplex radios are mostly free to listen.
  for (DeviceId d = 0; d < net.device_count(); ++d) {
    net.scheduler().schedule_at(Time::microseconds(300 * d), [&net, d, n] {
      const NodeId self = net.device(d).identity;
      net.transmit(d,
                   Packet{.src = self, .dst = kNoNode, .type = 1, .payload = util::Bytes(4, 0x11)},
                   obs::Phase::kHello);
      net.transmit(d,
                   Packet{.src = self,
                          .dst = static_cast<NodeId>(((d + 7) % n) + 1),
                          .type = 2,
                          .payload = util::Bytes(16, 0xab)},
                   obs::Phase::kRecord);
    });
  }
  net.scheduler().run();

  const Metrics& m = net.metrics();
  EXPECT_GT(m.deliveries(), 10'000u);
  EXPECT_GT(m.drops(obs::DropCause::kOutOfRange), 1'000u);
  EXPECT_GT(m.drops(obs::DropCause::kLoss), 1'000u);
  EXPECT_GT(m.drops(obs::DropCause::kCollision), 100u);
  EXPECT_GT(m.drops(obs::DropCause::kInjected), 100u);
  EXPECT_GT(m.drops(obs::DropCause::kReceiverDead), 0u);
  sha.update("candidates " + std::to_string(m.candidates()) + " events " +
             std::to_string(net.scheduler().executed()) + "\n");
}

// The expected digest was recorded with the per-candidate receiver
// resolution and the closure-per-delivery scheduler that preceded the
// two-pass resolution and the key heap; both must reproduce the event
// stream byte for byte, drop order included.
TEST(TraceDigestTest, HostileDenseTrafficTraceMatchesRecordedDigest) {
  crypto::Sha256 sha;
  run_hostile_traffic(std::make_unique<UnitDiskModel>(50.0), false, 3, sha);
  run_hostile_traffic(std::make_unique<LogNormalModel>(50.0, 3.0, 4.0, 8), true, 5, sha);
  EXPECT_EQ(sha.finalize().hex(),
            "51479d349dda83b7181057b5de803e1abc66e76b78478a3c8c54374bc023b1a9");
}

// -- Audience cache and the overheard-types filter -----------------------------

/// One copy a receive callback was handed: (time, receiver, claimed src,
/// type).
using CopyLog = std::vector<std::tuple<std::int64_t, DeviceId, NodeId, std::uint8_t>>;

/// Every Metrics counter, plus the tracer's event count and the events the
/// scheduler ran, in one comparable list.
std::vector<std::uint64_t> all_counters(Network& net) {
  const Metrics& m = net.metrics();
  std::vector<std::uint64_t> out{m.deliveries(), m.candidates(), net.tracer().events(),
                                 net.scheduler().executed()};
  for (std::size_t p = 0; p < obs::kPhaseCount; ++p) {
    out.push_back(m.phase(static_cast<obs::Phase>(p)).messages);
    out.push_back(m.phase(static_cast<obs::Phase>(p)).bytes);
  }
  for (std::size_t c = 0; c < obs::kDropCauseCount; ++c) {
    out.push_back(m.drops(static_cast<obs::DropCause>(c)));
  }
  return out;
}

/// Consulted for every copy, perturbs none: its presence alone sends each
/// transmission through the per-copy pass.
class NoOpFaultHook final : public FaultHook {
 public:
  FaultDecision on_delivery(NodeId /*src*/, NodeId /*dst*/, obs::Phase /*phase*/,
                            Time /*now*/) override {
    ++calls;
    return {};
  }
  void corrupt_packet(Packet& /*packet*/) override {}
  [[nodiscard]] double timer_drift(NodeId /*node*/) const override { return 1.0; }
  [[nodiscard]] bool skews_timers() const override { return false; }

  std::uint64_t calls = 0;
};

enum class Channel { kQuiet, kLossy, kJammed, kNoOpHook };

struct LockstepRun {
  CopyLog copies;
  std::vector<std::uint64_t> counters;
  std::size_t dead = 0;
  std::uint64_t hook_calls = 0;
};

/// A dense field (about 20 neighbors each) under churn: kills and revivals,
/// energy deaths, moves inside and across grid cells, receivers removed and
/// installed, a device added mid-run, the linear scan switched on and off,
/// and three devices sharing identity 5 that unicasts address.
/// Every device broadcasts and sends one unicast per round. With `rescan`,
/// the tracer records every event (into a null sink), which makes each
/// transmission resolve its receivers afresh instead of reading the cache;
/// the field, the traffic and the churn do not depend on it.
LockstepRun run_lockstep(Channel channel, bool rescan) {
  ChannelConfig config;
  config.loss_probability = channel == Channel::kLossy ? 0.2 : 0.0;
  Network net(std::make_unique<UnitDiskModel>(50.0), config, 21,
              EnergyConfig{.enabled = true, .initial_j = 1.0});
  NoOpFaultHook hook;
  if (channel == Channel::kNoOpHook) net.set_fault_hook(&hook);
  if (rescan) {
    net.tracer() = obs::Tracer(obs::TraceLevel::kEvents, std::make_shared<obs::NullSink>());
  }

  constexpr std::size_t n = 60;
  util::Rng place(77);
  for (std::size_t i = 0; i < n; ++i) {
    net.add_device(static_cast<NodeId>(i + 1),
                   {place.uniform(0.0, 150.0), place.uniform(0.0, 150.0)});
  }
  net.add_replica(5, {40.0, 40.0});
  net.add_replica(5, {70.0, 45.0});
  const DeviceId wanderer = net.add_device(static_cast<NodeId>(n + 1), {52.0, 52.0});

  LockstepRun run;
  const auto recorder = [&run, &net](DeviceId d) {
    return [&run, &net, d](const Packet& p) {
      run.copies.emplace_back(net.now().ns(), d, p.src, p.type);
    };
  };
  for (DeviceId d = 0; d < net.device_count(); ++d) {
    if (d != 13) net.set_receiver(d, recorder(d));
    if (d % 9 == 0) net.set_energy_j(d, 0.02);  // dies in the first rounds
  }

  // Rounds start every 2 ms and last 1.6 ms. Each change but the jammer's
  // falls in the gap after a round, and a whole round without another
  // change follows it, so a cache that missed the change serves stale
  // audiences for a round. The weak batteries run out before the first.
  Scheduler& sched = net.scheduler();
  const auto after_round = [](std::int64_t round) {
    return Time::microseconds(2000 * round + 1800);
  };
  sched.schedule_at(after_round(2), [&net] { net.set_alive(4, false); });
  // Same cell, [50, 100)²: links and distances change, cell membership not.
  sched.schedule_at(after_round(3), [&net, wanderer] { net.set_position(wanderer, {97.0, 95.0}); });
  sched.schedule_at(after_round(4), [&net] { net.set_position(20, {140.0, 10.0}); });
  sched.schedule_at(after_round(5), [&net] { net.set_receiver(11, nullptr); });
  sched.schedule_at(after_round(6), [&net, &recorder] { net.set_receiver(13, recorder(13)); });
  // A newcomer, which hears and is heard but never transmits.
  sched.schedule_at(after_round(7), [&net, &recorder] {
    const DeviceId late = net.add_device(500, {75.0, 80.0});
    net.set_receiver(late, recorder(late));
  });
  // Out-of-range counts depend on the candidate source.
  sched.schedule_at(after_round(8), [&net] { net.set_spatial_index_enabled(false); });
  sched.schedule_at(after_round(9), [&net] { net.set_alive(4, true); });
  sched.schedule_at(after_round(10), [&net, &recorder] {
    net.set_spatial_index_enabled(true);
    net.set_receiver(11, recorder(11));
  });
  if (channel == Channel::kJammed) {
    sched.schedule_at(Time::microseconds(2900), [&net] {
      const std::size_t jammer = net.add_jammer({{75.0, 75.0}, 30.0});
      net.scheduler().schedule_at(Time::microseconds(9100),
                                  [&net, jammer] { net.remove_jammer(jammer); });
    });
  }

  for (std::int64_t round = 0; round < 12; ++round) {
    for (DeviceId d = 0; d < net.device_count(); ++d) {
      sched.schedule_at(Time::microseconds(2000 * round + 25 * d), [&net, d, round] {
        const NodeId self = net.device(d).identity;
        net.transmit(d, Packet{.src = self, .dst = kNoNode, .type = 1, .payload = util::Bytes(12)},
                     obs::Phase::kHello);
        const NodeId dst = (d + static_cast<DeviceId>(round)) % 3 == 0
                               ? NodeId{5}
                               : static_cast<NodeId>((d * 7 + round) % n + 1);
        net.transmit(d,
                     Packet{.src = self,
                            .dst = dst,
                            .type = static_cast<std::uint8_t>(2 + round % 2),
                            .payload = util::Bytes(20)},
                     obs::Phase::kRecord);
      });
    }
  }
  sched.run();

  run.counters = all_counters(net);
  for (const Device& d : net.devices()) run.dead += d.alive ? 0 : 1;
  run.hook_calls = hook.calls;
  return run;
}

TEST(AudienceCacheTest, CachedAudiencesMatchRescansThroughChurn) {
  for (const Channel channel :
       {Channel::kQuiet, Channel::kLossy, Channel::kJammed, Channel::kNoOpHook}) {
    SCOPED_TRACE(static_cast<int>(channel));
    const LockstepRun cached = run_lockstep(channel, false);
    const LockstepRun rescanned = run_lockstep(channel, true);
    EXPECT_GT(cached.copies.size(), 10'000u);
    EXPECT_GT(cached.dead, 0u);  // energy deaths happened
    EXPECT_EQ(cached.copies, rescanned.copies);
    EXPECT_EQ(cached.counters, rescanned.counters);
  }
}

TEST(AudienceCacheTest, PerCopyPassSchedulesExactlyWhatTheFastPathDoes) {
  // The hook perturbs nothing, so the per-copy pass runs where a quiet
  // channel takes the fast path; both must hand out the same copies at the
  // same times and count the same.
  const LockstepRun fast = run_lockstep(Channel::kQuiet, false);
  const LockstepRun per_copy = run_lockstep(Channel::kNoOpHook, false);
  EXPECT_EQ(fast.hook_calls, 0u);
  EXPECT_GT(per_copy.hook_calls, 10'000u);
  EXPECT_EQ(fast.copies, per_copy.copies);
  EXPECT_EQ(fast.counters, per_copy.counters);
}

/// Receivers on a line from the sender at the origin, as (identity, x);
/// an identity listed twice is a replica. Transmits to `dst` twice -- the
/// first warms the sender's audience, and `rescan` invalidates it before the
/// second -- and returns when each receiver heard the second copy, as
/// (device, ns after the send), in device order.
std::vector<std::pair<DeviceId, std::int64_t>> arrivals_on_a_line(
    const std::vector<std::pair<NodeId, double>>& line, NodeId dst, bool rescan) {
  ChannelConfig config;
  config.processing_delay = Time::zero();
  auto net = make_network(50.0, config);
  const DeviceId sender = net->add_device(1, {0, 0});
  std::vector<std::pair<DeviceId, std::int64_t>> heard;
  std::int64_t sent_at = 0;
  for (const auto& [identity, x] : line) {
    const DeviceId d = net->devices_with_identity(identity).empty()
                           ? net->add_device(identity, {x, 0})
                           : net->add_replica(identity, {x, 0});
    net->set_receiver(d, [&heard, &net, &sent_at, d](const Packet&) {
      heard.emplace_back(d, net->now().ns() - sent_at);
    });
  }
  const Packet unicast{.src = 1, .dst = dst, .type = 2, .payload = {}};
  net->transmit(sender, unicast, obs::Phase::kOther);
  net->scheduler().run();
  heard.clear();
  if (rescan) net->set_position(sender, {0, 0});
  sent_at = net->now().ns();
  net->transmit(sender, unicast, obs::Phase::kOther);
  net->scheduler().run();
  std::sort(heard.begin(), heard.end());
  return heard;
}

TEST(AudienceCacheTest, AddressedCopiesAndTheOverhearerDelayWithoutACache) {
  // Addressed receivers -- every holder of a replicated identity -- get
  // their own propagation delay; the shared overhearer event waits for the
  // farthest receiver that is not addressed. The cases cover no addressed
  // receiver, one that is not the farthest, one that is, and two that
  // include the farthest.
  const std::vector<std::pair<NodeId, double>> replica_far = {
      {2, 3.0}, {2, 49.0}, {3, 30.0}, {4, 45.0}};
  std::vector<std::pair<NodeId, double>> rim_far = replica_far;
  rim_far.emplace_back(6, 49.5);
  const Time airtime = make_network()->transmission_time(Packet::kHeaderBytes);
  for (const auto& [line, dst] :
       std::initializer_list<std::pair<std::vector<std::pair<NodeId, double>>, NodeId>>{
           {replica_far, kNoNode}, {replica_far, 4}, {rim_far, 6}, {replica_far, 2}}) {
    double group = 0.0;
    for (const auto& [identity, x] : line) {
      if (identity != dst) group = std::max(group, x);
    }
    std::vector<std::pair<DeviceId, std::int64_t>> expected;
    for (std::size_t i = 0; i < line.size(); ++i) {
      const double distance = line[i].first == dst ? line[i].second : group;
      expected.emplace_back(static_cast<DeviceId>(i + 1),
                            (airtime + PropagationModel::propagation_delay(distance)).ns());
    }
    for (const bool rescan : {false, true}) {
      SCOPED_TRACE("dst " + std::to_string(dst) + (rescan ? " rescan" : " cached"));
      EXPECT_EQ(arrivals_on_a_line(line, dst, rescan), expected);
    }
  }
}

/// Delivered copies as the tracer records them, in JSON-lines form.
class DeliveryLog final : public obs::Sink {
 public:
  void on_event(const obs::Event& event) override {
    if (event.kind == obs::EventKind::kDelivery) {
      lines.push_back(obs::JsonLinesSink::to_json(event));
    }
  }
  std::vector<std::string> lines;
};

struct FilterRun {
  std::vector<std::tuple<NodeId, NodeId, std::uint8_t>> handled;  // (src, dst, type)
  std::uint64_t deliveries = 0;
  double energy_j = 0.0;
  std::vector<std::string> traced;
};

/// Device 1 broadcasts, unicasts to the listener (identity 3) and unicasts
/// three types to identity 2, which the listener overhears.
FilterRun run_filtered_listener(PacketTypes overheard) {
  Network net(std::make_unique<UnitDiskModel>(50.0), ChannelConfig{}, 3,
              EnergyConfig{.enabled = true});
  auto log = std::make_shared<DeliveryLog>();
  net.tracer().set_level(obs::TraceLevel::kEvents);
  net.tracer().set_sink(log);
  const DeviceId a = net.add_device(1, {0, 0});
  const DeviceId b = net.add_device(2, {10, 0});
  const DeviceId listener = net.add_device(3, {5, 5});
  net.set_receiver(a, [](const Packet&) {});
  net.set_receiver(b, [](const Packet&) {});
  FilterRun run;
  net.set_receiver(
      listener, [&run](const Packet& p) { run.handled.emplace_back(p.src, p.dst, p.type); },
      overheard);
  for (const auto& [dst, type] : std::initializer_list<std::pair<NodeId, std::uint8_t>>{
           {kNoNode, 1}, {3, 1}, {2, 2}, {2, 3}, {2, 1}}) {
    net.transmit(a, Packet{.src = 1, .dst = dst, .type = type, .payload = util::Bytes(8)},
                 obs::Phase::kOther);
  }
  net.scheduler().run();
  std::sort(run.handled.begin(), run.handled.end());
  run.deliveries = net.metrics().deliveries();
  run.energy_j = net.energy_j(listener);
  run.traced = log->lines;
  return run;
}

TEST(OverheardTypesTest, ListenerIsHandedOnlyTheOverheardTypesItReads) {
  const FilterRun filtered = run_filtered_listener(PacketTypes{2});
  const FilterRun everything = run_filtered_listener(PacketTypes::all());
  using Copy = std::tuple<NodeId, NodeId, std::uint8_t>;
  EXPECT_EQ(filtered.handled, (std::vector<Copy>{{1, 2, 2}, {1, 3, 1}, {1, kNoNode, 1}}));
  EXPECT_EQ(everything.handled,
            (std::vector<Copy>{{1, 2, 1}, {1, 2, 2}, {1, 2, 3}, {1, 3, 1}, {1, kNoNode, 1}}));
  // The unread copies were still received: counted, charged and traced.
  EXPECT_EQ(filtered.deliveries, 10u);
  EXPECT_EQ(filtered.deliveries, everything.deliveries);
  EXPECT_EQ(filtered.energy_j, everything.energy_j);
  EXPECT_LT(filtered.energy_j, EnergyConfig{}.initial_j);
  EXPECT_EQ(filtered.traced.size(), 10u);
  EXPECT_EQ(filtered.traced, everything.traced);
}

TEST(MetricsTest, ResetClears) {
  Metrics metrics;
  metrics.count_tx(obs::Phase::kOther, 10);
  metrics.count_delivery();
  metrics.reset();
  EXPECT_EQ(metrics.total().messages, 0u);
  EXPECT_EQ(metrics.deliveries(), 0u);
}

TEST(MetricsTest, UntouchedPhaseIsZero) {
  Metrics metrics;
  EXPECT_EQ(metrics.phase(obs::Phase::kUpdate).messages, 0u);
  EXPECT_EQ(metrics.phase(obs::Phase::kUpdate).bytes, 0u);
}

}  // namespace
}  // namespace snd::sim
