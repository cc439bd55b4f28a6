#include "crypto/session_cache.h"

namespace snd::crypto {

const PairKeyCache::Entry& PairKeyCache::get(NodeId peer) {
  if (const Entry* hit = entries_.find(peer)) return *hit;

  auto derived = scheme_->pairwise(self_, peer);
  if (!derived || !derived->present()) return absent_;

  return *entries_.try_emplace(peer, Entry{HmacKey(*derived)}).first;
}

}  // namespace snd::crypto
