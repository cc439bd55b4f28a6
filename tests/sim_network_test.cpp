#include "sim/network.h"

#include <gtest/gtest.h>

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

  net->device(b).alive = false;
  net->transmit(a, Packet{.src = 1, .dst = kNoNode, .type = 1, .payload = {}}, obs::Phase::kOther);
  net->scheduler().run();
  EXPECT_EQ(received, 0);

  net->device(b).alive = true;
  net->device(a).alive = false;
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
  net.device(5).alive = false;  // dead devices stay indexed but invisible

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
  net.scheduler().schedule_at(Time::milliseconds(20), [&net] { net.device(42).alive = false; });

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
