#include "crypto/session_cache.h"

namespace snd::crypto {

const PairKeyCache::Entry& PairKeyCache::get(NodeId peer) {
  if (const Entry* hit = entries_.find(peer)) return *hit;

  auto derived = scheme_->pairwise(self_, peer);
  if (!derived || !derived->present()) return absent_;

  Entry& slot = entries_.get_or_insert(peer);
  slot.key = std::move(*derived);
  slot.mac = HmacKey(slot.key);
  return slot;
}

}  // namespace snd::crypto
