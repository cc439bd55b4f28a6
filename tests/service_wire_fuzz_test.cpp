// Structured fuzz of service::wire::handle_request, the parser that reads
// untrusted bytes off the daemon's socket. Every input must get a reply
// (kOk or a well-formed kError), no request but an accepted kEvent may move
// the epoch or the topology, and the incrementally-maintained snapshot must
// still equal a from-scratch rebuild at the end. Run under ASan/UBSan in CI.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "service/events.h"
#include "service/validation_service.h"
#include "service/wire.h"
#include "util/bytes.h"
#include "util/rng.h"

namespace snd::service {
namespace {

constexpr double kRange = 50.0;
constexpr double kField = 250.0;
constexpr NodeId kNodes = 200;
/// 50 * (2^31 - 1) - 25: the disc's upper cell index is exactly INT32_MAX.
constexpr double kBoundary = 107374182325.0;

class WireFuzz : public ::testing::Test {
 protected:
  WireFuzz() : service_({.radio_range = kRange, .threshold_t = 2}) {
    util::Rng rng(20090622);
    std::vector<std::pair<NodeId, util::Vec2>> nodes;
    for (NodeId id = 0; id < kNodes; ++id) {
      nodes.emplace_back(id, util::Vec2{rng.uniform(0.0, kField), rng.uniform(0.0, kField)});
    }
    service_.seed_topology(nodes);
    digest_ = service_.snapshot()->digest();
  }

  /// One request, checked: the reply is a kOk or a well-formed kError, only
  /// a well-formed kShutdown stops serving, and only an accepted kEvent
  /// changes the epoch (by one) or the topology.
  void run(std::span<const std::uint8_t> payload) {
    SCOPED_TRACE("payload of " + std::to_string(payload.size()) + " bytes, opcode " +
                 (payload.empty() ? std::string("none") : std::to_string(payload[0])));
    const std::uint64_t epoch = service_.snapshot()->epoch();
    util::Bytes out;
    const bool keep_serving = wire::handle_request(service_, payload, out);
    ++calls_;

    ASSERT_FALSE(out.empty());
    const bool ok = out[0] == wire::kOk;
    if (!ok) {
      ASSERT_EQ(out[0], wire::kError);
      util::ByteReader reader(out);
      (void)reader.u8();
      ASSERT_TRUE(reader.var_bytes_view().has_value());
      EXPECT_TRUE(reader.exhausted());
    }
    const bool shutdown = payload.size() == 1 && payload[0] == wire::kShutdown;
    EXPECT_EQ(keep_serving, !shutdown);

    const bool event = !payload.empty() && payload[0] == wire::kEvent;
    const std::uint64_t now = service_.snapshot()->epoch();
    if (event && ok) {
      EXPECT_EQ(now, epoch + 1);
      digest_ = service_.snapshot()->digest();
      ++accepted_events_;
    } else {
      EXPECT_EQ(now, epoch);
      EXPECT_EQ(service_.snapshot()->digest(), digest_);
    }
  }
  void run(const util::Bytes& payload) { run(std::span<const std::uint8_t>(payload)); }

  /// A well-formed request of every opcode.
  std::vector<util::Bytes> valid_payloads() const {
    return {wire::encode_query(3, 4),
            wire::encode_batch_query(std::vector<std::pair<NodeId, NodeId>>{{1, 2}, {5, 9}}),
            wire::encode_event(TopologyEvent::update(7, {10.0, 20.0})),
            wire::encode_event(TopologyEvent::deploy(kNodes + 1, {30.0, 40.0})),
            wire::encode_event(TopologyEvent::revoke(11)),
            wire::encode_stats(),
            wire::encode_digest(),
            wire::encode_shutdown()};
  }

  static util::Bytes raw_event(std::uint8_t kind, NodeId node, std::uint64_t x_bits,
                               std::uint64_t y_bits) {
    util::Bytes payload;
    util::put_u8(payload, wire::kEvent);
    util::put_u8(payload, kind);
    util::put_u32(payload, node);
    util::put_u64(payload, x_bits);
    util::put_u64(payload, y_bits);
    return payload;
  }

  void expect_equivalent_to_rebuild() {
    EXPECT_EQ(service_.snapshot()->first_difference(*service_.rebuild()).value_or(""), "");
  }

  ValidationService service_;
  std::uint32_t digest_ = 0;
  std::size_t calls_ = 0;
  std::size_t accepted_events_ = 0;
};

TEST_F(WireFuzz, EveryTruncationAndTrailingByte) {
  for (const util::Bytes& payload : valid_payloads()) {
    for (std::size_t length = 0; length < payload.size(); ++length) {
      run(std::span<const std::uint8_t>(payload.data(), length));
    }
    util::Bytes longer = payload;
    longer.push_back(0x00);
    run(longer);
  }
  expect_equivalent_to_rebuild();
}

TEST_F(WireFuzz, SeededByteFlips) {
  util::Rng rng(0xF11F);
  const std::vector<util::Bytes> valid = valid_payloads();
  for (int round = 0; round < 3000; ++round) {
    util::Bytes payload = valid[rng.uniform_int(valid.size())];
    const std::uint64_t flips = 1 + rng.uniform_int(3);
    for (std::uint64_t i = 0; i < flips; ++i) {
      payload[rng.uniform_int(payload.size())] ^=
          static_cast<std::uint8_t>(1 + rng.uniform_int(255));
    }
    run(payload);
  }
  expect_equivalent_to_rebuild();
}

TEST_F(WireFuzz, UnknownOpcodes) {
  util::Rng rng(7);
  std::vector<std::uint8_t> opcodes = {0};
  for (unsigned op = 7; op <= 255; ++op) opcodes.push_back(static_cast<std::uint8_t>(op));
  for (const std::uint8_t op : opcodes) {
    run(util::Bytes{op});
    util::Bytes payload{op};
    for (int i = 0; i < 8; ++i) payload.push_back(static_cast<std::uint8_t>(rng.uniform_int(256)));
    run(payload);
  }
  expect_equivalent_to_rebuild();
}

TEST_F(WireFuzz, BatchCountLengthMismatches) {
  const auto batch = [](std::uint32_t count, std::size_t pairs) {
    util::Bytes payload;
    util::put_u8(payload, wire::kBatchQuery);
    util::put_u32(payload, count);
    for (std::size_t i = 0; i < pairs; ++i) {
      util::put_u32(payload, static_cast<NodeId>(i));
      util::put_u32(payload, static_cast<NodeId>(i + 1));
    }
    return payload;
  };
  for (const std::uint32_t count : {0u, 1u, 3u, 1000u, 0x1FFFFFFFu, 0x20000000u, 0xFFFFFFFFu}) {
    for (const std::size_t pairs : {0u, 1u, 2u, 3u, 4u}) {
      const util::Bytes payload = batch(count, pairs);
      run(payload);
      util::Bytes ragged = payload;  // a partial trailing pair
      ragged.push_back(0xAB);
      run(ragged);
    }
  }
  // A matching count is answered with one verdict per pair.
  util::Bytes out;
  ASSERT_TRUE(wire::handle_request(service_, batch(3, 3), out));
  ASSERT_EQ(out.size(), 1u + 8u + 4u + 3u);
  EXPECT_EQ(out[0], wire::kOk);
  expect_equivalent_to_rebuild();
}

TEST_F(WireFuzz, EventPositionsFromRandomBitPatterns) {
  util::Rng rng(0xB175);
  const std::vector<double> special = {std::numeric_limits<double>::quiet_NaN(),
                                       -std::numeric_limits<double>::quiet_NaN(),
                                       std::numeric_limits<double>::infinity(),
                                       -std::numeric_limits<double>::infinity(),
                                       kBoundary,
                                       -kBoundary,
                                       std::numeric_limits<double>::max(),
                                       std::numeric_limits<double>::lowest(),
                                       std::numeric_limits<double>::denorm_min(),
                                       -0.0};
  const auto bits = [](double value) { return std::bit_cast<std::uint64_t>(value); };
  NodeId fresh = 1000;
  for (int round = 0; round < 600; ++round) {
    const auto kind = static_cast<std::uint8_t>(rng.uniform_int(3));
    const NodeId node =
        rng.chance(0.5) ? static_cast<NodeId>(rng.uniform_int(kNodes)) : fresh++;
    std::uint64_t x = rng.next();
    std::uint64_t y = rng.next();
    if (rng.chance(0.3)) x = bits(special[rng.uniform_int(special.size())]);
    if (rng.chance(0.3)) y = bits(special[rng.uniform_int(special.size())]);
    run(raw_event(kind, node, x, y));
  }
  // Non-finite values and values whose disc reaches the clamped extreme
  // cells are rejected on either axis, for deploys and updates alike; the
  // finite ones near the origin are accepted.
  constexpr NodeId kMover = 900;  // neither a seeded id nor a fresh one
  run(wire::encode_event(TopologyEvent::deploy(kMover, {10.0, 10.0})));
  ASSERT_NE(service_.snapshot()->find(kMover), nullptr);
  for (const double value : special) {
    const bool indexable = std::isfinite(value) && std::fabs(value) < 1.0;
    for (const std::uint8_t kind : {std::uint8_t{0}, std::uint8_t{1}}) {
      const NodeId node = kind == 0 ? fresh++ : kMover;
      for (const bool on_x : {true, false}) {
        const std::uint64_t x = on_x ? bits(value) : bits(10.0);
        const std::uint64_t y = on_x ? bits(10.0) : bits(value);
        util::Bytes out;
        ASSERT_TRUE(wire::handle_request(service_, raw_event(kind, node, x, y), out));
        ASSERT_FALSE(out.empty());
        EXPECT_EQ(out[0] == wire::kOk, indexable) << value << " kind " << int{kind};
        if (indexable) digest_ = service_.snapshot()->digest();
        if (indexable && kind == 0) {  // take the fresh node out again
          out.clear();
          ASSERT_TRUE(
              wire::handle_request(service_, wire::encode_event(TopologyEvent::revoke(node)), out));
          digest_ = service_.snapshot()->digest();
        }
      }
    }
  }
  EXPECT_GT(accepted_events_, 0u);  // finite in-range patterns do get through
  EXPECT_LT(accepted_events_, calls_);
  expect_equivalent_to_rebuild();
}

}  // namespace
}  // namespace snd::service
