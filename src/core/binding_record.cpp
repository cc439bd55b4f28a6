#include "core/binding_record.h"

#include <algorithm>

namespace snd::core {

BindingRecord BindingRecord::make(const crypto::SymmetricKey& master, NodeId node,
                                  std::uint32_t version, topology::NeighborList neighbors) {
  std::sort(neighbors.begin(), neighbors.end());
  neighbors.erase(std::unique(neighbors.begin(), neighbors.end()), neighbors.end());
  BindingRecord record{
      .node = node, .version = version, .neighbors = std::move(neighbors), .commitment = {}};
  record.commitment = binding_commitment(master, node, version, record.neighbors);
  return record;
}

bool BindingRecord::verify(const crypto::SymmetricKey& master) const {
  if (!std::is_sorted(neighbors.begin(), neighbors.end())) return false;
  return binding_commitment(master, node, version, neighbors) == commitment;
}

util::Bytes BindingRecord::serialize() const {
  util::Bytes out;
  util::put_u32(out, node);
  util::put_u32(out, version);
  util::put_u16(out, static_cast<std::uint16_t>(neighbors.size()));
  for (NodeId n : neighbors) util::put_u32(out, n);
  util::put_bytes(out, commitment.bytes);
  return out;
}

std::optional<BindingRecord> BindingRecord::parse(std::span<const std::uint8_t> data) {
  // node u32 | version u32 | count u16 | count x u32 | commitment, all
  // big-endian: the count fixes the exact length, so one check bounds
  // every read below.
  constexpr std::size_t kHeader = 10;
  if (data.size() < kHeader) return std::nullopt;
  const std::size_t count = static_cast<std::size_t>(data[8]) << 8 | data[9];
  if (data.size() != kHeader + 4 * count + crypto::kDigestSize) return std::nullopt;
  const auto u32_at = [&data](std::size_t at) {
    return static_cast<std::uint32_t>(data[at]) << 24 |
           static_cast<std::uint32_t>(data[at + 1]) << 16 |
           static_cast<std::uint32_t>(data[at + 2]) << 8 | static_cast<std::uint32_t>(data[at + 3]);
  };
  BindingRecord record{.node = u32_at(0), .version = u32_at(4), .neighbors = {}, .commitment = {}};
  record.neighbors.resize(count);
  for (std::size_t i = 0; i < count; ++i) record.neighbors[i] = u32_at(kHeader + 4 * i);
  std::copy(data.end() - static_cast<std::ptrdiff_t>(crypto::kDigestSize), data.end(),
            record.commitment.bytes.begin());
  return record;
}

}  // namespace snd::core
