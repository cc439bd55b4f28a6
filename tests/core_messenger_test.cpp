#include "core/messenger.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "simd_tiers.h"

namespace snd::core {
namespace {

class MessengerTest : public ::testing::Test {
 protected:
  MessengerTest()
      : network_(std::make_unique<sim::UnitDiskModel>(100.0), sim::ChannelConfig{}, 1),
        keys_(crypto::KdcScheme::from_seed(5)) {
    alice_device_ = network_.add_device(1, {0, 0});
    bob_device_ = network_.add_device(2, {10, 0});
    eve_device_ = network_.add_device(3, {5, 5});
    alice_ = std::make_unique<Messenger>(network_, alice_device_, 1, keys_);
    bob_ = std::make_unique<Messenger>(network_, bob_device_, 2, keys_);
    network_.set_receiver(bob_device_, [this](const sim::Packet& p) {
      last_packet_ = p;
      ++packets_seen_;
      if (auto payload = bob_->open(p)) {
        last_payload_.assign(payload->begin(), payload->end());
        ++accepted_;
      }
    });
  }

  void run() { network_.scheduler().run(); }

  sim::Network network_;
  std::shared_ptr<crypto::KeyPredistribution> keys_;
  sim::DeviceId alice_device_{}, bob_device_{}, eve_device_{};
  std::unique_ptr<Messenger> alice_, bob_;
  sim::Packet last_packet_;
  util::Bytes last_payload_;
  int packets_seen_ = 0;
  int accepted_ = 0;
};

TEST_F(MessengerTest, AuthenticatedRoundTrip) {
  EXPECT_TRUE(alice_->send(2, 9, {1, 2, 3}, snd::obs::Phase::kOther));
  run();
  EXPECT_EQ(accepted_, 1);
  EXPECT_EQ(last_payload_, (util::Bytes{1, 2, 3}));
}

TEST_F(MessengerTest, EmptyPayloadRoundTrip) {
  EXPECT_TRUE(alice_->send(2, 9, {}, snd::obs::Phase::kOther));
  run();
  EXPECT_EQ(accepted_, 1);
  EXPECT_TRUE(last_payload_.empty());
}

TEST_F(MessengerTest, WrongDestinationIgnored) {
  alice_->send(99, 9, {1}, snd::obs::Phase::kOther);  // bob overhears but it is not for him
  run();
  EXPECT_EQ(packets_seen_, 1);
  EXPECT_EQ(accepted_, 0);
}

TEST_F(MessengerTest, ReplayRejected) {
  alice_->send(2, 9, {1}, snd::obs::Phase::kOther);
  run();
  ASSERT_EQ(accepted_, 1);
  // Eve replays the captured packet verbatim from her own radio.
  sim::Packet replay = last_packet_;
  network_.transmit(eve_device_, std::move(replay), obs::Phase::kAttack);
  run();
  EXPECT_EQ(packets_seen_, 2);
  EXPECT_EQ(accepted_, 1);  // replay must not be accepted again
}

TEST_F(MessengerTest, SpoofedSourceRejected) {
  // Eve fabricates a packet claiming to be identity 1 without the MAC key.
  util::Bytes body = {0xde, 0xad};
  util::put_u64(body, 12345);                         // nonce
  body.insert(body.end(), crypto::kShortMacSize, 0);  // junk MAC
  network_.transmit(eve_device_,
                    sim::Packet{.src = 1, .dst = 2, .type = 9, .payload = std::move(body)},
                    obs::Phase::kAttack);
  run();
  EXPECT_EQ(packets_seen_, 1);
  EXPECT_EQ(accepted_, 0);
}

TEST_F(MessengerTest, TamperedPayloadRejected) {
  alice_->send(2, 9, {1, 2, 3}, snd::obs::Phase::kOther);
  run();
  sim::Packet tampered = last_packet_;
  tampered.payload[0] ^= 0xff;
  network_.transmit(eve_device_, std::move(tampered), obs::Phase::kAttack);
  run();
  EXPECT_EQ(accepted_, 1);
}

TEST_F(MessengerTest, TypeIsAuthenticated) {
  alice_->send(2, 9, {1}, snd::obs::Phase::kOther);
  run();
  sim::Packet retyped = last_packet_;
  retyped.type = 7;  // change the message type, keep payload+MAC
  network_.transmit(eve_device_, std::move(retyped), obs::Phase::kAttack);
  run();
  EXPECT_EQ(accepted_, 1);
}

TEST_F(MessengerTest, UnauthBroadcastHasNoMacOverhead) {
  alice_->broadcast(1, {5, 5}, snd::obs::Phase::kHello);
  run();
  EXPECT_EQ(last_packet_.payload.size(), 2u);
  EXPECT_TRUE(last_packet_.is_broadcast());
}

TEST_F(MessengerTest, SendUnauthAddressesPacket) {
  alice_->send_unauth(2, 2, {7}, snd::obs::Phase::kAck);
  run();
  EXPECT_EQ(last_packet_.dst, 2u);
  EXPECT_EQ(last_packet_.payload, (util::Bytes{7}));
}

TEST_F(MessengerTest, DistinctSendersDistinctNonces) {
  // A second device speaking as identity 1 (replica scenario) must not
  // collide with the original's nonces at the receiver.
  const sim::DeviceId replica = network_.add_replica(1, {20, 0});
  Messenger replica_messenger(network_, replica, 1, keys_);
  alice_->send(2, 9, {1}, snd::obs::Phase::kOther);
  replica_messenger.send(2, 9, {2}, snd::obs::Phase::kOther);
  run();
  EXPECT_EQ(accepted_, 2);
}

TEST_F(MessengerTest, SendFailsWithoutPairwiseKey) {
  // Identity 1 talking to itself has no pairwise key under any scheme.
  EXPECT_FALSE(alice_->send(1, 9, {1}, snd::obs::Phase::kOther));
}

TEST_F(MessengerTest, WireMacIsShortMacOverTheFramedMessage) {
  // Reference for the streamed MAC: frame u32 src | u32 dst | u8 type |
  // u16 len | payload | u64 nonce by hand and MAC it with the unbatched,
  // derive-per-call crypto::short_mac. The tag on the wire must match.
  const util::Bytes payload = {9, 8, 7, 6, 5};
  ASSERT_TRUE(alice_->send(2, 9, payload, obs::Phase::kOther));
  run();
  ASSERT_EQ(accepted_, 1);
  const sim::Packet sent = last_packet_;
  ASSERT_EQ(sent.payload.size(), payload.size() + Messenger::kAuthOverhead);
  EXPECT_TRUE(std::equal(payload.begin(), payload.end(), sent.payload.begin()));

  util::ByteReader tail(std::span(sent.payload).subspan(payload.size()));
  const auto nonce = tail.u64();
  const auto mac = tail.bytes_view(crypto::kShortMacSize);
  ASSERT_TRUE(nonce && mac);
  util::Bytes framed;
  util::put_u32(framed, 1);
  util::put_u32(framed, 2);
  util::put_u8(framed, 9);
  util::put_u16(framed, static_cast<std::uint16_t>(payload.size()));
  util::put_bytes(framed, payload);
  util::put_u64(framed, *nonce);
  const auto pairwise = keys_->pairwise(1, 2);
  ASSERT_TRUE(pairwise);
  const crypto::ShortMac expected = crypto::short_mac(*pairwise, framed);
  EXPECT_TRUE(std::equal(expected.begin(), expected.end(), mac->begin(), mac->end()));

  // A fresh receiver (empty replay windows) rejects the packet after any
  // one-bit flip, so the rejection is the MAC's, and then accepts the
  // original.
  Messenger receiver(network_, bob_device_, 2, keys_);
  for (const std::size_t byte : {std::size_t{0}, payload.size(), sent.payload.size() - 1}) {
    sim::Packet flipped = sent;
    flipped.payload[byte] ^= 0x01;
    EXPECT_FALSE(receiver.open(flipped).has_value()) << "byte " << byte;
  }
  EXPECT_TRUE(receiver.open(sent).has_value());
}

TEST_F(MessengerTest, BootEpochOutrunsStaleTrafficAfterReboot) {
  // Pre-crash traffic from Alice, captured off the air.
  alice_->send(2, 9, {1}, obs::Phase::kOther);
  run();
  ASSERT_EQ(accepted_, 1);
  const sim::Packet stale = last_packet_;

  // Alice reboots: a fresh Messenger on the same device with the next boot
  // epoch. The epoch stride keeps its nonces monotonically ahead of
  // everything sent before the crash, so Bob accepts the fresh traffic
  // without any handshake...
  alice_ = std::make_unique<Messenger>(network_, alice_device_, 1, keys_, /*boot_epoch=*/1);
  EXPECT_TRUE(alice_->send(2, 9, {2}, obs::Phase::kOther));
  run();
  EXPECT_EQ(accepted_, 2);
  EXPECT_EQ(last_payload_, (util::Bytes{2}));

  // ...and a replay of the pre-crash packet now falls far behind Bob's
  // window: rebooting never re-opens the door to stale traffic.
  network_.transmit(eve_device_, sim::Packet(stale), obs::Phase::kAttack);
  run();
  EXPECT_EQ(accepted_, 2);
  EXPECT_EQ(bob_->replay_rejects(), 1u);
  EXPECT_EQ(network_.metrics().drops(obs::DropCause::kReplay), 1u);
}

TEST_F(MessengerTest, ReplayStateStaysBoundedOverLongRuns) {
  // The seed kept every nonce ever seen (one std::set node per message);
  // the sliding window must hold steady at one window per (peer, device)
  // regardless of traffic volume, while still rejecting recent replays.
  std::vector<sim::Packet> captured;
  network_.set_receiver(bob_device_, [&](const sim::Packet& p) {
    captured.push_back(p);
    if (bob_->open(p)) ++accepted_;
  });
  constexpr int kMessages = 5000;
  for (int i = 0; i < kMessages; ++i) {
    alice_->send(2, 9, {static_cast<std::uint8_t>(i)}, snd::obs::Phase::kOther);
  }
  run();
  ASSERT_EQ(accepted_, kMessages);
  EXPECT_EQ(bob_->replay_window_count(), 1u);

  // The freshest packets are inside the window and must still be rejected
  // on replay.
  const std::size_t last = captured.size() - 1;
  EXPECT_FALSE(bob_->open(captured[last]).has_value());
  EXPECT_FALSE(bob_->open(captured[last - 5]).has_value());
  // Ancient packets fall off the window's left edge; they are also
  // rejected (as too-old), so no replay sneaks in either way.
  EXPECT_FALSE(bob_->open(captured[0]).has_value());
  EXPECT_EQ(bob_->replay_window_count(), 1u);
}

TEST_F(MessengerTest, OutOfOrderDeliveryWithinWindowAccepted) {
  // Capture two packets, deliver them newest-first: the older one is within
  // kReplayWindow of the newer and must still be accepted exactly once.
  std::vector<sim::Packet> captured;
  network_.set_receiver(bob_device_, [&](const sim::Packet& p) { captured.push_back(p); });
  alice_->send(2, 9, {1}, snd::obs::Phase::kOther);
  alice_->send(2, 9, {2}, snd::obs::Phase::kOther);
  run();
  ASSERT_EQ(captured.size(), 2u);

  EXPECT_TRUE(bob_->open(captured[1]).has_value());   // newer first
  EXPECT_TRUE(bob_->open(captured[0]).has_value());   // older, in window
  EXPECT_FALSE(bob_->open(captured[0]).has_value());  // replay of the older
  EXPECT_FALSE(bob_->open(captured[1]).has_value());  // replay of the newer
}

TEST_F(MessengerTest, SendManyMatchesSequentialSendByteForByte) {
  // send_many() must be indistinguishable on the wire from calling send()
  // in a loop: same nonces, same MACs, same packet order -- including a
  // mid-burst message with no establishable pairwise key (to self), which
  // is skipped without consuming a nonce. Checked at every SIMD dispatch
  // tier against one sequential reference.
  const std::vector<Messenger::Outgoing> burst = {
      {2, 9, {1, 2, 3}, obs::Phase::kCommit},
      {1, 9, {9}, obs::Phase::kCommit},  // no key with ourselves: skipped
      {2, 7, {}, obs::Phase::kEvidence},
      {2, 9, {4, 5, 6, 7}, obs::Phase::kOther},
  };

  std::vector<sim::Packet> captured;
  network_.set_receiver(bob_device_, [&](const sim::Packet& p) { captured.push_back(p); });

  const auto run_sequential = [&]() {
    captured.clear();
    Messenger sender(network_, alice_device_, 1, keys_);
    std::size_t sent = 0;
    for (const Messenger::Outgoing& m : burst) {
      if (sender.send(m.to, m.type, m.payload, m.phase)) ++sent;
    }
    run();
    return std::pair(sent, captured);
  };
  const auto run_batched = [&]() {
    captured.clear();
    Messenger sender(network_, alice_device_, 1, keys_);
    const std::size_t sent = sender.send_many(burst);
    run();
    return std::pair(sent, captured);
  };

  const auto [seq_sent, seq_packets] = run_sequential();
  ASSERT_EQ(seq_sent, 3u);
  ASSERT_EQ(seq_packets.size(), 3u);

  test::for_each_simd_tier([&] {
    const auto [batch_sent, batch_packets] = run_batched();
    EXPECT_EQ(batch_sent, seq_sent);
    ASSERT_EQ(batch_packets.size(), seq_packets.size());
    for (std::size_t i = 0; i < seq_packets.size(); ++i) {
      EXPECT_EQ(batch_packets[i].src, seq_packets[i].src);
      EXPECT_EQ(batch_packets[i].dst, seq_packets[i].dst);
      EXPECT_EQ(batch_packets[i].type, seq_packets[i].type);
      EXPECT_EQ(batch_packets[i].payload, seq_packets[i].payload) << "i=" << i;
    }
  });
}

TEST_F(MessengerTest, SendManyPacketsOpenAtTheReceiver) {
  std::vector<Messenger::Outgoing> burst;
  for (std::uint8_t i = 0; i < 5; ++i) {
    burst.push_back({2, 9, {i}, obs::Phase::kCommit});
  }
  EXPECT_EQ(alice_->send_many(burst), 5u);
  run();
  EXPECT_EQ(accepted_, 5);
}

}  // namespace
}  // namespace snd::core
