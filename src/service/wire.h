// Binary request/response protocol for apps/snd_serve.
//
// Framing: every message is a big-endian u32 payload length followed by
// that many bytes. A request payload starts with a u8 opcode; the matching
// response payload starts with a u8 status (kOk / kError). Full field
// layouts are documented in docs/SERVICE.md; positions travel as the IEEE
// bit pattern of the double (u64), so a round trip is exact.
//
//   kQuery       u32 u, u32 v            -> status, u8 verdict, u64 epoch
//   kBatchQuery  u32 n, n * (u32 u, u32 v)
//                                        -> status, u64 epoch, u32 n, n * u8
//   kEvent       u8 kind, u32 node, u64 x_bits, u64 y_bits
//                                        -> status, u64 epoch
//   kStats       (empty)                 -> status, u64 epoch, u64 nodes,
//                                           u64 validated_edges, u64 events
//   kDigest      (empty)                 -> status, u64 epoch, u32 digest
//   kShutdown    (empty)                 -> status
//
// An error response carries a length-prefixed (u16) UTF-8 message after the
// status byte. handle_request is transport-independent: the daemon, the
// load generator's socket mode, and the unit tests all feed it the same
// payload bytes.
#pragma once

#include <cstdint>
#include <optional>
#include <span>

#include "service/validation_service.h"
#include "util/bytes.h"

namespace snd::service::wire {

inline constexpr std::uint8_t kQuery = 1;
inline constexpr std::uint8_t kBatchQuery = 2;
inline constexpr std::uint8_t kEvent = 3;
inline constexpr std::uint8_t kStats = 4;
inline constexpr std::uint8_t kDigest = 5;
inline constexpr std::uint8_t kShutdown = 6;

inline constexpr std::uint8_t kOk = 0;
inline constexpr std::uint8_t kError = 1;

/// Largest accepted request payload (a batch of ~1M pairs); oversized
/// frames poison the connection and the server closes it.
inline constexpr std::uint32_t kMaxFrameBytes = 8u << 20;

// -- request encoders (payload only; frame() adds the length prefix) ------
[[nodiscard]] util::Bytes encode_query(NodeId u, NodeId v);
[[nodiscard]] util::Bytes encode_batch_query(
    std::span<const std::pair<NodeId, NodeId>> pairs);
[[nodiscard]] util::Bytes encode_event(const TopologyEvent& event);
[[nodiscard]] util::Bytes encode_stats();
[[nodiscard]] util::Bytes encode_digest();
[[nodiscard]] util::Bytes encode_shutdown();

/// Wraps a payload in the u32 length prefix.
[[nodiscard]] util::Bytes frame(const util::Bytes& payload);

/// Executes one request payload against the service, appending the response
/// payload to `out`. Returns false only for a well-formed kShutdown (the
/// caller should stop serving after sending the response); malformed
/// requests -- wrong length for their opcode included -- produce a kError
/// response and return true.
bool handle_request(ValidationService& service, std::span<const std::uint8_t> payload,
                    util::Bytes& out);

// -- response decoders (used by serve_qps and the tests) ------------------
struct QueryReply {
  bool accepted = false;
  std::uint64_t epoch = 0;
};
[[nodiscard]] std::optional<QueryReply> decode_query_reply(
    std::span<const std::uint8_t> payload);

struct StatsReply {
  std::uint64_t epoch = 0;
  std::uint64_t nodes = 0;
  std::uint64_t validated_edges = 0;
  std::uint64_t events_applied = 0;
};
[[nodiscard]] std::optional<StatsReply> decode_stats_reply(
    std::span<const std::uint8_t> payload);

struct DigestReply {
  std::uint64_t epoch = 0;
  std::uint32_t digest = 0;
};
[[nodiscard]] std::optional<DigestReply> decode_digest_reply(
    std::span<const std::uint8_t> payload);

}  // namespace snd::service::wire
