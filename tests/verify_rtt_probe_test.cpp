// Message-level distance bounding: validates the RttVerifier abstraction by
// running the actual challenge/response exchange over the simulated radio.
#include "verify/rtt_probe.h"

#include <gtest/gtest.h>

#include "adversary/wormhole.h"

namespace snd::verify {
namespace {

class RttProbeTest : public ::testing::Test {
 protected:
  RttProbeTest()
      : network_(std::make_unique<sim::UnitDiskModel>(120.0), sim::ChannelConfig{}, 1),
        keys_(crypto::KdcScheme::from_seed(3)) {}

  /// Creates a device running both probe halves (dispatcher included).
  std::pair<sim::DeviceId, std::shared_ptr<RttChallenger>> add_probe_node(NodeId identity,
                                                                          util::Vec2 position) {
    const sim::DeviceId device = network_.add_device(identity, position);
    auto challenger = std::make_shared<RttChallenger>(network_, device, identity, keys_);
    auto responder = std::make_shared<RttResponder>(network_, device, identity, keys_);
    network_.set_receiver(device, [challenger, responder](const sim::Packet& packet) {
      if (challenger->handle(packet)) return;
      (void)responder->handle(packet);
    });
    return {device, challenger};
  }

  std::optional<std::optional<double>> result_;  // outer: callback fired

  void probe_and_run(RttChallenger& challenger, NodeId target) {
    challenger.probe(target, sim::Time::milliseconds(50), [this](std::optional<double> d) {
      result_ = d;
    });
    network_.scheduler().run();
  }

  sim::Network network_;
  std::shared_ptr<crypto::KeyPredistribution> keys_;
};

TEST_F(RttProbeTest, MeasuresTrueDistance) {
  auto [a_dev, a] = add_probe_node(1, {0, 0});
  add_probe_node(2, {90, 0});
  probe_and_run(*a, 2);
  ASSERT_TRUE(result_.has_value());
  ASSERT_TRUE(result_->has_value());
  EXPECT_NEAR(**result_, 90.0, 1.0);
}

TEST_F(RttProbeTest, ZeroishDistanceForAdjacentNodes) {
  auto [a_dev, a] = add_probe_node(1, {0, 0});
  add_probe_node(2, {1, 0});
  probe_and_run(*a, 2);
  ASSERT_TRUE(result_.has_value() && result_->has_value());
  EXPECT_LT(**result_, 3.0);
}

TEST_F(RttProbeTest, TimeoutWhenTargetAbsent) {
  auto [a_dev, a] = add_probe_node(1, {0, 0});
  probe_and_run(*a, 99);  // nobody holds identity 99
  ASSERT_TRUE(result_.has_value());
  EXPECT_FALSE(result_->has_value());
}

TEST_F(RttProbeTest, TimeoutWhenTargetOutOfRange) {
  auto [a_dev, a] = add_probe_node(1, {0, 0});
  add_probe_node(2, {500, 0});
  probe_and_run(*a, 2);
  ASSERT_TRUE(result_.has_value());
  EXPECT_FALSE(result_->has_value());
}

TEST_F(RttProbeTest, ForgedResponseIgnored) {
  auto [a_dev, a] = add_probe_node(1, {0, 0});
  // An attacker device overhears the challenge and answers with a junk MAC
  // immediately (faster than any honest responder could).
  const sim::DeviceId eve = network_.add_device(666, {10, 0});
  network_.set_receiver(eve, [this, eve](const sim::Packet& packet) {
    if (packet.type != kRttChallengeType) return;
    util::Bytes payload(packet.payload);
    payload.insert(payload.end(), crypto::kShortMacSize, 0xee);
    network_.transmit(eve,
                      sim::Packet{.src = packet.dst,
                                  .dst = packet.src,
                                  .type = kRttResponseType,
                                  .payload = std::move(payload)},
                      obs::Phase::kAttack);
  });
  probe_and_run(*a, 2);  // identity 2 does not exist: only Eve answers
  ASSERT_TRUE(result_.has_value());
  EXPECT_FALSE(result_->has_value());  // junk rejected, probe times out
}

TEST_F(RttProbeTest, WormholeInflatesDistanceBeyondRange) {
  // Victim 2 sits 400 m away, far outside the 120 m radio, but a wormhole
  // tunnels both directions. The exchange completes -- and the measured
  // distance exposes the relay.
  auto [a_dev, a] = add_probe_node(1, {0, 0});
  add_probe_node(2, {400, 0});
  adversary::Wormhole wormhole(network_, {10, 0}, {390, 0},
                               /*tunnel_latency=*/sim::Time::microseconds(200));
  wormhole.start();

  probe_and_run(*a, 2);
  ASSERT_TRUE(result_.has_value());
  ASSERT_TRUE(result_->has_value());
  // Two tunnel traversals at 200 us each add >= 2*200us*c/2 ~ 60 km.
  EXPECT_GT(**result_, 10'000.0);
  EXPECT_GT(**result_, 120.0);  // and certainly beyond the radio range
}

TEST_F(RttProbeTest, NearbyReplicaAnswersInTime) {
  // A replica of identity 2 is adjacent to the challenger while the
  // original is out of range: distance bounding accepts the replica --
  // exactly the bypass the paper's protocol (not the verifier) must handle.
  auto [a_dev, a] = add_probe_node(1, {0, 0});
  add_probe_node(2, {500, 0});  // original: unreachable
  const sim::DeviceId replica = network_.add_replica(2, {30, 0});
  auto replica_responder = std::make_shared<RttResponder>(network_, replica, 2, keys_);
  network_.set_receiver(replica, [replica_responder](const sim::Packet& packet) {
    (void)replica_responder->handle(packet);
  });

  probe_and_run(*a, 2);
  ASSERT_TRUE(result_.has_value());
  ASSERT_TRUE(result_->has_value());
  EXPECT_NEAR(**result_, 30.0, 1.0);
}

TEST_F(RttProbeTest, ConcurrentProbesResolveIndependently) {
  auto [a_dev, a] = add_probe_node(1, {0, 0});
  add_probe_node(2, {60, 0});
  add_probe_node(3, {100, 0});
  std::optional<double> d2, d3;
  a->probe(2, sim::Time::milliseconds(50), [&](std::optional<double> d) { d2 = d; });
  a->probe(3, sim::Time::milliseconds(50), [&](std::optional<double> d) { d3 = d; });
  network_.scheduler().run();
  ASSERT_TRUE(d2.has_value() && d3.has_value());
  EXPECT_NEAR(*d2, 60.0, 1.0);
  EXPECT_NEAR(*d3, 100.0, 1.0);
}

}  // namespace
}  // namespace snd::verify
