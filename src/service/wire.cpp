#include "service/wire.h"

#include <bit>
#include <string>

namespace snd::service::wire {

namespace {

void put_error(util::Bytes& out, const std::string& message) {
  util::put_u8(out, kError);
  util::put_var_bytes(out, std::span<const std::uint8_t>(
                               reinterpret_cast<const std::uint8_t*>(message.data()),
                               message.size()));
}

}  // namespace

util::Bytes encode_query(NodeId u, NodeId v) {
  util::Bytes payload;
  util::put_u8(payload, kQuery);
  util::put_u32(payload, u);
  util::put_u32(payload, v);
  return payload;
}

util::Bytes encode_batch_query(std::span<const std::pair<NodeId, NodeId>> pairs) {
  util::Bytes payload;
  util::put_u8(payload, kBatchQuery);
  util::put_u32(payload, static_cast<std::uint32_t>(pairs.size()));
  for (const auto& [u, v] : pairs) {
    util::put_u32(payload, u);
    util::put_u32(payload, v);
  }
  return payload;
}

util::Bytes encode_event(const TopologyEvent& event) {
  util::Bytes payload;
  util::put_u8(payload, kEvent);
  util::put_u8(payload, static_cast<std::uint8_t>(event.kind));
  util::put_u32(payload, event.node);
  util::put_u64(payload, std::bit_cast<std::uint64_t>(event.position.x));
  util::put_u64(payload, std::bit_cast<std::uint64_t>(event.position.y));
  return payload;
}

util::Bytes encode_stats() { return {kStats}; }
util::Bytes encode_digest() { return {kDigest}; }
util::Bytes encode_shutdown() { return {kShutdown}; }

util::Bytes frame(const util::Bytes& payload) {
  util::Bytes framed;
  framed.reserve(payload.size() + 4);
  util::put_u32(framed, static_cast<std::uint32_t>(payload.size()));
  util::put_bytes(framed, payload);
  return framed;
}

bool handle_request(ValidationService& service, std::span<const std::uint8_t> payload,
                    util::Bytes& out) {
  util::ByteReader reader(payload);
  const auto opcode = reader.u8();
  if (!opcode) {
    put_error(out, "empty request");
    return true;
  }
  switch (*opcode) {
    case kQuery: {
      const auto u = reader.u32();
      const auto v = reader.u32();
      if (!v || !reader.exhausted()) {
        put_error(out, "query: expected u32 u, u32 v");
        return true;
      }
      const auto snapshot = service.snapshot();
      util::put_u8(out, kOk);
      util::put_u8(out, snapshot->validate(*u, *v) ? 1 : 0);
      util::put_u64(out, snapshot->epoch());
      return true;
    }
    case kBatchQuery: {
      const auto count = reader.u32();
      if (!count || *count * 8ull != reader.remaining()) {
        put_error(out, "batch: expected u32 n then n pairs");
        return true;
      }
      const auto snapshot = service.snapshot();
      util::put_u8(out, kOk);
      util::put_u64(out, snapshot->epoch());
      util::put_u32(out, *count);
      for (std::uint32_t i = 0; i < *count; ++i) {
        const auto u = reader.u32();
        const auto v = reader.u32();
        util::put_u8(out, snapshot->validate(*u, *v) ? 1 : 0);
      }
      return true;
    }
    case kEvent: {
      const auto kind = reader.u8();
      const auto node = reader.u32();
      const auto x_bits = reader.u64();
      const auto y_bits = reader.u64();
      if (!y_bits || !reader.exhausted() || *kind > 2) {
        put_error(out, "event: expected u8 kind<=2, u32 node, u64 x, u64 y");
        return true;
      }
      TopologyEvent event;
      event.kind = static_cast<EventKind>(*kind);
      event.node = *node;
      event.position = {std::bit_cast<double>(*x_bits), std::bit_cast<double>(*y_bits)};
      const ApplyResult result = service.apply(event);
      if (!result.ok) {
        put_error(out, result.error);
        return true;
      }
      util::put_u8(out, kOk);
      util::put_u64(out, service.snapshot()->epoch());
      return true;
    }
    case kStats: {
      if (!reader.exhausted()) {
        put_error(out, "stats: expected an empty body");
        return true;
      }
      const auto snapshot = service.snapshot();
      util::put_u8(out, kOk);
      util::put_u64(out, snapshot->epoch());
      util::put_u64(out, snapshot->node_count());
      util::put_u64(out, snapshot->validated_edge_count());
      util::put_u64(out, service.events_applied());
      return true;
    }
    case kDigest: {
      if (!reader.exhausted()) {
        put_error(out, "digest: expected an empty body");
        return true;
      }
      const auto snapshot = service.snapshot();
      util::put_u8(out, kOk);
      util::put_u64(out, snapshot->epoch());
      util::put_u32(out, snapshot->digest());
      return true;
    }
    case kShutdown: {
      if (!reader.exhausted()) {
        put_error(out, "shutdown: expected an empty body");
        return true;
      }
      util::put_u8(out, kOk);
      return false;
    }
    default:
      put_error(out, "unknown opcode " + std::to_string(*opcode));
      return true;
  }
}

std::optional<QueryReply> decode_query_reply(std::span<const std::uint8_t> payload) {
  util::ByteReader reader(payload);
  if (reader.u8().value_or(kError) != kOk) return std::nullopt;
  const auto verdict = reader.u8();
  const auto epoch = reader.u64();
  if (!epoch || !reader.exhausted()) return std::nullopt;
  return QueryReply{*verdict != 0, *epoch};
}

std::optional<StatsReply> decode_stats_reply(std::span<const std::uint8_t> payload) {
  util::ByteReader reader(payload);
  if (reader.u8().value_or(kError) != kOk) return std::nullopt;
  StatsReply reply;
  const auto epoch = reader.u64();
  const auto nodes = reader.u64();
  const auto edges = reader.u64();
  const auto events = reader.u64();
  if (!events || !reader.exhausted()) return std::nullopt;
  reply.epoch = *epoch;
  reply.nodes = *nodes;
  reply.validated_edges = *edges;
  reply.events_applied = *events;
  return reply;
}

std::optional<DigestReply> decode_digest_reply(std::span<const std::uint8_t> payload) {
  util::ByteReader reader(payload);
  if (reader.u8().value_or(kError) != kOk) return std::nullopt;
  const auto epoch = reader.u64();
  const auto digest = reader.u32();
  if (!digest || !reader.exhausted()) return std::nullopt;
  return DigestReply{*epoch, *digest};
}

}  // namespace snd::service::wire
