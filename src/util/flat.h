// Flat sorted-array associative containers for the data-oriented core.
//
// FlatMap/FlatSet store sorted, duplicate-free contiguous arrays: one
// allocation, cache-line friendly scans, and iteration in ascending key
// order -- every simulation loop that walks one of these containers draws
// RNG values in key order, which the golden outcome digests pin
// (tests/golden_outcome_test.cpp). Per-node protocol state is dominated by
// containers holding ~radio-degree entries, where a contiguous array beats
// a red-black tree on every axis that matters at million-node scale: no
// per-entry 48-byte node header, no pointer chasing, no allocator traffic.
//
// Which maps stay sorted, and why: those whose key order reaches an output
// (SndNode's evidence buffer, walked into update requests and stolen
// secrets; the validation service's commitments), and cold ones touched a
// few times per peer (neighbor records, acked identities, replay windows),
// where a hash table bought no time and cost memory. Maps probed on every
// overheard copy (the discovery verdicts, the pairwise-key cache) use
// util::PeerTable instead: one probe and an in-place insert, where a sorted
// array pays a binary search and shifts every later entry.
//
// References returned by find()/get_or_insert() are invalidated by any
// mutation (vector growth or shifting); callers on hot paths consume them
// immediately.
#pragma once

#include <algorithm>
#include <cstddef>
#include <utility>
#include <vector>

namespace snd::util {

/// Sorted-vector map. Keys unique, iteration ascending by key.
template <typename Key, typename Value>
class FlatMap {
 public:
  using Item = std::pair<Key, Value>;

  [[nodiscard]] const Value* find(const Key& key) const {
    const auto it = lower(key);
    return (it != items_.end() && it->first == key) ? &it->second : nullptr;
  }
  [[nodiscard]] Value* find(const Key& key) {
    const auto it = lower(key);
    return (it != items_.end() && it->first == key) ? &it->second : nullptr;
  }
  [[nodiscard]] bool contains(const Key& key) const { return find(key) != nullptr; }

  /// Reference to the value for `key`, default-constructing it if absent.
  Value& get_or_insert(const Key& key) {
    auto it = lower(key);
    if (it == items_.end() || it->first != key) {
      it = items_.insert(it, Item{key, Value{}});
    }
    return it->second;
  }

  void insert_or_assign(const Key& key, Value value) {
    auto it = lower(key);
    if (it != items_.end() && it->first == key) {
      it->second = std::move(value);
    } else {
      items_.insert(it, Item{key, std::move(value)});
    }
  }

  /// Inserts only if absent; returns true when the insertion happened.
  bool try_emplace(const Key& key, Value value) {
    auto it = lower(key);
    if (it != items_.end() && it->first == key) return false;
    items_.insert(it, Item{key, std::move(value)});
    return true;
  }

  bool erase(const Key& key) {
    const auto it = lower(key);
    if (it == items_.end() || it->first != key) return false;
    items_.erase(it);
    return true;
  }

  [[nodiscard]] std::size_t size() const { return items_.size(); }
  [[nodiscard]] bool empty() const { return items_.empty(); }
  void clear() { items_.clear(); }
  void reserve(std::size_t n) { items_.reserve(n); }
  /// Heap bytes held: capacity × element size.
  [[nodiscard]] std::size_t footprint_bytes() const { return items_.capacity() * sizeof(Item); }

  [[nodiscard]] const std::vector<Item>& items() const { return items_; }
  [[nodiscard]] auto begin() const { return items_.begin(); }
  [[nodiscard]] auto end() const { return items_.end(); }

 private:
  [[nodiscard]] auto lower(const Key& key) {
    return std::lower_bound(items_.begin(), items_.end(), key,
                            [](const Item& item, const Key& k) { return item.first < k; });
  }
  [[nodiscard]] auto lower(const Key& key) const {
    return std::lower_bound(items_.begin(), items_.end(), key,
                            [](const Item& item, const Key& k) { return item.first < k; });
  }

  std::vector<Item> items_;
};

/// Sorted-vector set. Iteration ascending.
template <typename Key>
class FlatSet {
 public:
  /// Returns true when `key` was newly inserted.
  bool insert(const Key& key) {
    const auto it = std::lower_bound(keys_.begin(), keys_.end(), key);
    if (it != keys_.end() && *it == key) return false;
    keys_.insert(it, key);
    return true;
  }
  [[nodiscard]] bool contains(const Key& key) const {
    return std::binary_search(keys_.begin(), keys_.end(), key);
  }
  [[nodiscard]] std::size_t size() const { return keys_.size(); }
  [[nodiscard]] bool empty() const { return keys_.empty(); }
  void clear() { keys_.clear(); }
  [[nodiscard]] const std::vector<Key>& keys() const { return keys_; }
  /// Heap bytes held: capacity × element size.
  [[nodiscard]] std::size_t footprint_bytes() const { return keys_.capacity() * sizeof(Key); }

 private:
  std::vector<Key> keys_;
};

}  // namespace snd::util
