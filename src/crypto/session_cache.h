// Per-endpoint pairwise session-key cache.
//
// Deriving pairwise(u, v) is the single most expensive step on the message
// hot path: a KDF hash for KdcScheme, a λ-degree polynomial evaluation for
// BlundoScheme. The derivation is deterministic per pair, so each endpoint
// memoizes the key -- and the HMAC ipad/opad midstates computed from it --
// the first time it talks to a peer, and every later send()/open() is a
// lookup in a sorted array.
//
// Absent keys are deliberately NOT cached: with probabilistic schemes (or
// incremental deployment, where a peer provisions after our first attempt)
// a pair that fails today can succeed tomorrow, so a miss re-derives on
// every call. Caching only positives keeps the retry semantics of deriving
// per call.
#pragma once

#include <memory>

#include "crypto/hmac.h"
#include "crypto/keypredist.h"
#include "util/flat.h"
#include "util/ids.h"

namespace snd::crypto {

class PairKeyCache {
 public:
  struct Entry {
    SymmetricKey key;   // absent when the scheme has no key for the pair
    HmacKey mac;        // midstates for `key`; absent iff key is absent
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
  void clear() { entries_.clear(); }
  [[nodiscard]] std::size_t size() const { return entries_.size(); }
  [[nodiscard]] NodeId self() const { return self_; }

 private:
  std::shared_ptr<const KeyPredistribution> scheme_;
  NodeId self_;
  util::FlatMap<NodeId, Entry> entries_;
  Entry absent_;  // returned (not stored) when derivation fails
};

}  // namespace snd::crypto
