#include "core/commitment.h"

#include <array>
#include <cassert>
#include <span>

#include "crypto/sha256_mb.h"

namespace snd::core {
namespace {

// Absorb helpers shared by the scalar (Ctx = crypto::Sha256) and batched
// (Ctx = crypto::HashBatch::Job) derivations: one byte sequence per
// derivation, written once, so the two paths cannot drift apart.
template <typename Ctx>
void absorb_vkey(Ctx& ctx, const crypto::SymmetricKey& master, NodeId node) {
  ctx.update_framed("snd.vkey");
  ctx.update_framed(master.material());
  ctx.update_u64(node);
}

template <typename Ctx>
void absorb_binding(Ctx& ctx, const crypto::SymmetricKey& master, NodeId node,
                    std::uint32_t version, const topology::NeighborList& neighbors) {
  ctx.update_framed("snd.binding");
  ctx.update_framed(master.material());
  ctx.update_u64(version);
  ctx.update_u64(neighbors.size());
  // N(u) as big-endian u64s, encoded a block at a time: the same bytes as
  // one update_u64 per id, so digests and compression counts match, for
  // one update call per block.
  constexpr std::size_t kIdsPerBlock = 32;
  std::array<std::uint8_t, 8 * kIdsPerBlock> block;
  std::size_t filled = 0;
  for (const NodeId n : neighbors) {
    std::uint64_t v = n;
    for (std::size_t i = 8; i-- > 0;) {
      block[filled + i] = static_cast<std::uint8_t>(v);
      v >>= 8;
    }
    filled += 8;
    if (filled == block.size()) {
      ctx.update(std::span<const std::uint8_t>(block.data(), filled));
      filled = 0;
    }
  }
  if (filled != 0) ctx.update(std::span<const std::uint8_t>(block.data(), filled));
  ctx.update_u64(node);
}

template <typename Ctx>
void absorb_relation(Ctx& ctx, const crypto::SymmetricKey& verification_key_of_v, NodeId u) {
  ctx.update_framed("snd.relation");
  ctx.update_framed(verification_key_of_v.material());
  ctx.update_u64(u);
}

template <typename Ctx>
void absorb_evidence(Ctx& ctx, const crypto::SymmetricKey& master, NodeId u, NodeId v,
                     std::uint32_t version) {
  ctx.update_framed("snd.evidence");
  ctx.update_framed(master.material());
  ctx.update_u64(u);
  ctx.update_u64(v);
  ctx.update_u64(version);
}

/// Batch drained and reused by every batched derivation below: the service
/// ingest loop calls these thousands of times, and keeping the job buffers'
/// capacity across drains keeps the hot path allocation-free. Mutators are
/// single-threaded per thread of callers (thread_local), and no absorb
/// helper re-enters a batched derivation.
crypto::HashBatch& scratch_batch() {
  static thread_local crypto::HashBatch batch;
  batch.clear();
  return batch;
}

}  // namespace

crypto::SymmetricKey verification_key(const crypto::SymmetricKey& master, NodeId node) {
  crypto::Sha256 ctx;
  absorb_vkey(ctx, master, node);
  return crypto::SymmetricKey::from_digest(ctx.finalize());
}

crypto::Digest binding_commitment(const crypto::SymmetricKey& master, NodeId node,
                                  std::uint32_t version,
                                  const topology::NeighborList& neighbors) {
  crypto::Sha256 ctx;
  absorb_binding(ctx, master, node, version, neighbors);
  return ctx.finalize();
}

crypto::Digest relation_commitment(const crypto::SymmetricKey& verification_key_of_v, NodeId u) {
  crypto::Sha256 ctx;
  absorb_relation(ctx, verification_key_of_v, u);
  return ctx.finalize();
}

crypto::Digest relation_evidence(const crypto::SymmetricKey& master, NodeId u, NodeId v,
                                 std::uint32_t version) {
  crypto::Sha256 ctx;
  absorb_evidence(ctx, master, u, v, version);
  return ctx.finalize();
}

void verification_keys(const crypto::SymmetricKey& master, std::span<const NodeId> nodes,
                       std::span<crypto::SymmetricKey> out) {
  assert(nodes.size() == out.size());
  crypto::HashBatch& batch = scratch_batch();
  for (NodeId node : nodes) {
    crypto::HashBatch::Job job = batch.add();
    absorb_vkey(job, master, node);
  }
  batch.run();
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    out[i] = crypto::SymmetricKey::from_digest(batch.digest(i));
  }
}

void relation_commitments(std::span<const crypto::SymmetricKey> verification_keys_of_v, NodeId u,
                          std::span<crypto::Digest> out) {
  assert(verification_keys_of_v.size() == out.size());
  crypto::HashBatch& batch = scratch_batch();
  for (const crypto::SymmetricKey& vkey : verification_keys_of_v) {
    crypto::HashBatch::Job job = batch.add();
    absorb_relation(job, vkey, u);
  }
  batch.run();
  for (std::size_t i = 0; i < out.size(); ++i) out[i] = batch.digest(i);
}

void relation_evidences(const crypto::SymmetricKey& master, std::span<const EvidenceSpec> specs,
                        std::span<crypto::Digest> out) {
  assert(specs.size() == out.size());
  crypto::HashBatch& batch = scratch_batch();
  for (const EvidenceSpec& spec : specs) {
    crypto::HashBatch::Job job = batch.add();
    absorb_evidence(job, master, spec.u, spec.v, spec.version);
  }
  batch.run();
  for (std::size_t i = 0; i < out.size(); ++i) out[i] = batch.digest(i);
}

void binding_commitments(const crypto::SymmetricKey& master, std::span<const BindingSpec> specs,
                         std::span<crypto::Digest> out) {
  assert(specs.size() == out.size());
  crypto::HashBatch& batch = scratch_batch();
  for (const BindingSpec& spec : specs) {
    crypto::HashBatch::Job job = batch.add();
    absorb_binding(job, master, spec.node, spec.version, *spec.neighbors);
  }
  batch.run();
  for (std::size_t i = 0; i < out.size(); ++i) out[i] = batch.digest(i);
}

}  // namespace snd::core
