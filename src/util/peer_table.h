// Open-addressing hash table for per-peer state on the receive path.
//
// A node in the paper's Fig. 3 field hears about a hundred others, each of
// them many times over, and looks the sender up on every copy. A sorted
// array answers that in a binary search and inserts by shifting every later
// entry; this table answers in about one probe and inserts in place, with no
// allocation per entry (unlike std::unordered_map's node per element).
//
// - Linear probing over a power-of-two slot array. The home slot is the top
//   bits of a mixing hash (a Fibonacci multiply), and the table grows before
//   it would be more than 3/4 full.
// - Erase shifts the rest of the probe chain back instead of leaving a
//   tombstone, so chains stay as short as in a freshly built table.
// - Each slot keeps an occupancy flag apart from its key, so every key value
//   can be stored: 0 and kNoNode (0xFFFFFFFF) included, which a forged
//   packet can claim as its source.
// - There is no iteration. Slot order depends on the hash and the insertion
//   history, and no output may depend on it; maps that are walked in key
//   order stay util::FlatMap.
//
// Pointers returned by find() and try_emplace() are invalidated by the next
// insertion (which may grow the table) and by erase() (which may shift
// slots); callers consume them immediately. Assigning `{}` releases the
// slot array.
#pragma once

#include <cstddef>
#include <cstdint>
#include <type_traits>
#include <utility>
#include <vector>

namespace snd::util {

/// The default mixing hash: the table takes the product's top bits, which
/// depend on every bit of the key.
template <typename Key>
struct PeerHash {
  std::uint64_t operator()(Key key) const {
    return static_cast<std::uint64_t>(key) * 0x9E3779B97F4A7C15ULL;
  }
};

template <typename Key, typename Value, typename Hash = PeerHash<Key>>
class PeerTable {
  static_assert(std::is_integral_v<Key>, "PeerTable keys are ids");
  static_assert(std::is_default_constructible_v<Value>, "free slots hold a Value{}");

 public:
  [[nodiscard]] std::size_t size() const { return size_; }
  /// Slots allocated: 0, or a power of two at least 4/3 of size().
  [[nodiscard]] std::size_t capacity() const { return slots_.size(); }
  /// Heap bytes held: capacity × slot size.
  [[nodiscard]] std::size_t footprint_bytes() const { return slots_.capacity() * sizeof(Slot); }

  [[nodiscard]] Value* find(Key key) {
    const std::size_t i = locate(key);
    return i == kMissing ? nullptr : &slots_[i].value;
  }
  [[nodiscard]] const Value* find(Key key) const {
    const std::size_t i = locate(key);
    return i == kMissing ? nullptr : &slots_[i].value;
  }

  /// One probe sequence: the value stored for `key` and false if present,
  /// else the value built from `args` and true.
  template <typename... Args>
  std::pair<Value*, bool> try_emplace(Key key, Args&&... args) {
    std::size_t i = 0;
    if (!slots_.empty()) {
      for (i = home(key); slots_[i].used; i = next(i)) {
        if (slots_[i].key == key) return {&slots_[i].value, false};
      }
    }
    if ((size_ + 1) * 4 > slots_.size() * 3) {
      grow();
      i = free_slot(key);
    }
    Slot& slot = slots_[i];
    slot.value = Value(std::forward<Args>(args)...);
    slot.key = key;
    slot.used = true;
    ++size_;
    return {&slot.value, true};
  }

  /// Removes `key`; returns whether it was present.
  bool erase(Key key) {
    std::size_t hole = locate(key);
    if (hole == kMissing) return false;
    // Backward shift: walk the chain after the hole and move back every
    // entry whose home slot does not lie cyclically in (hole, j].
    for (std::size_t j = next(hole); slots_[j].used; j = next(j)) {
      const std::size_t mask = slots_.size() - 1;
      if (((j - home(slots_[j].key)) & mask) >= ((j - hole) & mask)) {
        slots_[hole] = std::move(slots_[j]);
        hole = j;
      }
    }
    slots_[hole] = Slot{};
    --size_;
    return true;
  }

 private:
  struct Slot {
    Key key{};
    bool used = false;
    Value value{};
  };
  static constexpr std::size_t kMissing = static_cast<std::size_t>(-1);
  static constexpr std::size_t kMinCapacity = 8;

  [[nodiscard]] std::size_t home(Key key) const {
    return static_cast<std::size_t>(Hash{}(key) >> shift_);
  }
  [[nodiscard]] std::size_t next(std::size_t i) const { return (i + 1) & (slots_.size() - 1); }

  [[nodiscard]] std::size_t locate(Key key) const {
    if (slots_.empty()) return kMissing;
    for (std::size_t i = home(key); slots_[i].used; i = next(i)) {
      if (slots_[i].key == key) return i;
    }
    return kMissing;
  }

  /// The first free slot of `key`'s chain; the key must be absent.
  [[nodiscard]] std::size_t free_slot(Key key) const {
    std::size_t i = home(key);
    while (slots_[i].used) i = next(i);
    return i;
  }

  void grow() {
    std::vector<Slot> old = std::move(slots_);
    const std::size_t capacity = old.empty() ? kMinCapacity : 2 * old.size();
    slots_ = std::vector<Slot>(capacity);
    shift_ = 64;
    for (std::size_t c = capacity; c > 1; c >>= 1) --shift_;
    for (Slot& slot : old) {
      if (slot.used) slots_[free_slot(slot.key)] = std::move(slot);
    }
  }

  std::vector<Slot> slots_;
  std::size_t size_ = 0;
  unsigned shift_ = 64;
};

}  // namespace snd::util
