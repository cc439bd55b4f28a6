// Per-endpoint pairwise session-key cache.
//
// Deriving pairwise(u, v) is the single most expensive step on the message
// hot path: a KDF hash for KdcScheme, a λ-degree polynomial evaluation for
// BlundoScheme. The derivation is deterministic per pair, so each endpoint
// derives the key the first time it talks to a peer, hashes the HMAC pads
// once, and keeps only the resulting HmacKey: two 32-byte chaining values,
// 68 bytes an entry, trivially copyable. The raw key is never stored. Every
// later send()/open() is one probe of an open-addressing table
// (util::PeerTable), which nothing iterates, so its slot order cannot reach
// an output.
//
// Absent keys are deliberately NOT cached: with probabilistic schemes (or
// incremental deployment, where a peer provisions after our first attempt)
// a pair that fails today can succeed tomorrow, so a miss re-derives on
// every call. Caching only positives keeps the retry semantics of deriving
// per call.
#pragma once

#include <memory>
#include <type_traits>

#include "crypto/hmac.h"
#include "crypto/keypredist.h"
#include "util/ids.h"
#include "util/peer_table.h"

namespace snd::crypto {

class PairKeyCache {
 public:
  struct Entry {
    HmacKey mac;  // pad midstates of the pairwise key; absent if there is none
    [[nodiscard]] bool present() const { return mac.present(); }
  };

  PairKeyCache(std::shared_ptr<const KeyPredistribution> scheme, NodeId self)
      : scheme_(std::move(scheme)), self_(self) {}

  /// The cached pairwise entry for (self, peer). Derives and caches on the
  /// first hit; negative results are returned but never stored. Any later
  /// get() that inserts, and invalidate()/clear(), may invalidate the
  /// reference -- every call site consumes the entry immediately.
  const Entry& get(NodeId peer);

  /// Drops one peer's entry (e.g. after re-keying in tests).
  void invalidate(NodeId peer) { entries_.erase(peer); }
  /// Drops every entry and releases the table.
  void clear() { entries_ = {}; }
  [[nodiscard]] std::size_t size() const { return entries_.size(); }
  [[nodiscard]] NodeId self() const { return self_; }
  /// Heap bytes the entry table holds (capacity × slot size).
  [[nodiscard]] std::size_t footprint_bytes() const { return entries_.footprint_bytes(); }

 private:
  std::shared_ptr<const KeyPredistribution> scheme_;
  NodeId self_;
  util::PeerTable<NodeId, Entry> entries_;
  Entry absent_;  // returned (not stored) when derivation fails
};

static_assert(std::is_trivially_copyable_v<PairKeyCache::Entry> &&
                  sizeof(PairKeyCache::Entry) <= 68,
              "a cache entry is two SHA-256 chaining values and a flag");

}  // namespace snd::crypto
