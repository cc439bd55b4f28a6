// A persistent map from 32-bit keys: a fixed-fanout radix trie with path
// copying.
//
// Each trie level consumes kBits bits of the key, most significant first;
// the trie is as tall as the largest key inserted so far needs (a map whose
// keys are all below 32^3 = 32768 is three levels deep) and never taller
// than kMaxHeight. Leaves hold the values inline; inner nodes hold
// shared_ptr children, so two maps can share any subtree.
//
// Copying a map is O(1): the copy shares the whole trie. A mutation copies
// only the nodes on the path to the key it changes -- O(height) nodes --
// and everything else stays shared. Path copying uses an edit token: every
// map holds a token no other live map holds, every node records the token
// of the map that created it, and a mutation edits in place any node
// carrying the map's own token (the map created it, so nobody else can see
// it). A run of mutations on one map therefore copies each trie node at most
// once. Copying a map hands both the copy and the source fresh tokens, so
// neither can edit a node the other can reach. Whether a node is shared is
// never inferred from its reference count: readers on other threads drop
// their references concurrently.
//
// Iteration visits entries in ascending key order, like std::map, and yields
// (key, const value&) pairs by value. Iterators and the pointers find()
// returns are invalidated by any mutation of the map they came from (never
// by mutations of a copy).
#pragma once

#include <array>
#include <atomic>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <utility>

namespace snd::util {

/// Persistent radix-trie map keyed by std::uint32_t. `Value` must be default
/// constructible and copyable; an empty leaf slot holds a default Value.
template <typename Value>
class RadixMap {
  struct Node;

 public:
  using Key = std::uint32_t;
  static constexpr unsigned kBits = 5;
  static constexpr unsigned kFanout = 1u << kBits;
  static constexpr unsigned kMaxHeight = (32 + kBits - 1) / kBits;

  RadixMap() = default;
  /// O(1): shares the trie, and retires the source's edit token (see the
  /// header comment). The token is not part of the map's value, so copying
  /// a const map -- even from several threads at once -- is allowed.
  RadixMap(const RadixMap& other)
      : root_(other.root_), size_(other.size_), height_(other.height_) {
    other.edit_.store(next_edit(), std::memory_order_relaxed);
  }
  RadixMap(RadixMap&& other) noexcept
      : root_(std::move(other.root_)), size_(other.size_), height_(other.height_),
        edit_(other.edit_.load(std::memory_order_relaxed)) {
    other.reset();
  }
  RadixMap& operator=(const RadixMap& other) {
    if (this != &other) *this = RadixMap(other);
    return *this;
  }
  RadixMap& operator=(RadixMap&& other) noexcept {
    if (this != &other) {
      root_ = std::move(other.root_);
      size_ = other.size_;
      height_ = other.height_;
      edit_.store(other.edit_.load(std::memory_order_relaxed), std::memory_order_relaxed);
      other.reset();
    }
    return *this;
  }

  [[nodiscard]] const Value* find(Key key) const {
    if (root_ == nullptr || !fits(key)) return nullptr;
    const Node* node = root_.get();
    for (unsigned level = height_ - 1; level > 0; --level) {
      node = static_cast<const Inner*>(node)->child[digit(key, level)].get();
      if (node == nullptr) return nullptr;
    }
    const auto* leaf = static_cast<const Leaf*>(node);
    const unsigned slot = digit(key, 0);
    return (leaf->occupied >> slot) & 1u ? &leaf->value[slot] : nullptr;
  }
  [[nodiscard]] bool contains(Key key) const { return find(key) != nullptr; }

  void insert_or_assign(Key key, Value value) {
    while (!fits(key)) grow();
    const std::uint64_t edit = edit_.load(std::memory_order_relaxed);
    std::shared_ptr<Node>* slot = &root_;
    for (unsigned level = height_ - 1; level > 0; --level) {
      auto* inner = static_cast<Inner*>(editable(*slot, level, edit));
      const unsigned index = digit(key, level);
      inner->occupied |= 1u << index;
      slot = &inner->child[index];
    }
    auto* leaf = static_cast<Leaf*>(editable(*slot, 0, edit));
    const unsigned index = digit(key, 0);
    if (((leaf->occupied >> index) & 1u) == 0) {
      leaf->occupied |= 1u << index;
      ++size_;
    }
    leaf->value[index] = std::move(value);
  }

  /// Removes `key`; returns whether it was present. Nodes left empty are
  /// released, so the trie never holds an empty subtree.
  bool erase(Key key) {
    if (!contains(key)) return false;
    const std::uint64_t edit = edit_.load(std::memory_order_relaxed);
    std::array<std::shared_ptr<Node>*, kMaxHeight> slots{};
    std::shared_ptr<Node>* slot = &root_;
    for (unsigned level = height_ - 1; level > 0; --level) {
      slots[level] = slot;
      slot = &static_cast<Inner*>(editable(*slot, level, edit))->child[digit(key, level)];
    }
    slots[0] = slot;
    auto* leaf = static_cast<Leaf*>(editable(*slot, 0, edit));
    leaf->occupied &= ~(1u << digit(key, 0));
    leaf->value[digit(key, 0)] = Value{};
    --size_;
    // Unlink emptied nodes bottom-up; every node on the path is ours now.
    for (unsigned level = 0; level < height_ && (*slots[level])->occupied == 0; ++level) {
      slots[level]->reset();
      if (level + 1 < height_) (*slots[level + 1])->occupied &= ~(1u << digit(key, level + 1));
    }
    if (size_ == 0) height_ = 1;
    return true;
  }

  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] bool empty() const { return size_ == 0; }
  /// Trie levels, leaf level included: the number of nodes a lookup visits.
  [[nodiscard]] unsigned height() const { return height_; }

  /// Calls `visit(const void* node)` once per trie node (pre-order). Two maps
  /// share a subtree exactly when they report the same node address, which
  /// is how the tests check the path-copying bound.
  template <typename Visit>
  void for_each_node(Visit&& visit) const {
    if (root_ != nullptr) walk(root_.get(), height_ - 1, visit);
  }

  /// Forward iterator over (key, const value&) pairs, ascending by key.
  class const_iterator {
   public:
    const_iterator() = default;

    [[nodiscard]] std::pair<Key, const Value&> operator*() const {
      return {key_, static_cast<const Leaf*>(path_[0])->value[digit(key_, 0)]};
    }
    const_iterator& operator++() {
      for (unsigned level = 0; level < height_; ++level) {
        // Occupied slots of this node past the current one.
        const unsigned current = digit(key_, level);
        const std::uint32_t later =
            current + 1 < kFanout ? path_[level]->occupied >> (current + 1) << (current + 1) : 0;
        if (later != 0) {
          descend(level, static_cast<unsigned>(std::countr_zero(later)));
          return *this;
        }
      }
      return *this = const_iterator();  // past the end
    }
    friend bool operator==(const const_iterator& a, const const_iterator& b) {
      return a.path_[0] == b.path_[0] && a.key_ == b.key_;
    }

   private:
    friend class RadixMap;
    /// Starts at the smallest key under `root` (non-null, non-empty).
    const_iterator(const Node* root, unsigned height) : height_(height) {
      path_[height - 1] = root;
      descend(height - 1, static_cast<unsigned>(std::countr_zero(root->occupied)));
    }
    /// Moves to slot `index` of the node at `level`, then to the leftmost
    /// entry below it.
    void descend(unsigned level, unsigned index) {
      key_ = with_digit(key_, level, index);
      while (level > 0) {
        path_[level - 1] = static_cast<const Inner*>(path_[level])->child[index].get();
        --level;
        index = static_cast<unsigned>(std::countr_zero(path_[level]->occupied));
        key_ = with_digit(key_, level, index);
      }
    }

    /// path_[level] is the node at `level` on the way to key_; all null (and
    /// key_ 0) past the end.
    std::array<const Node*, kMaxHeight> path_{};
    Key key_ = 0;
    unsigned height_ = 0;
  };

  [[nodiscard]] const_iterator begin() const {
    return root_ != nullptr ? const_iterator(root_.get(), height_) : end();
  }
  [[nodiscard]] const_iterator end() const { return {}; }

 private:
  static constexpr std::uint32_t kMask = kFanout - 1;

  struct Node {
    explicit Node(std::uint64_t owner) : edit(owner) {}
    /// Token of the map that created this node (and may edit it in place).
    std::uint64_t edit;
    /// Bit i set iff slot i holds a value (leaf) or a child (inner node).
    std::uint32_t occupied = 0;
  };
  struct Inner : Node {
    using Node::Node;
    std::array<std::shared_ptr<Node>, kFanout> child;
  };
  struct Leaf : Node {
    using Node::Node;
    std::array<Value, kFanout> value{};
  };

  static unsigned digit(Key key, unsigned level) {
    return static_cast<unsigned>(key >> (kBits * level)) & kMask;
  }
  /// `key` with the digit at `level` set to `index` and every lower digit 0.
  static Key with_digit(Key key, unsigned level, unsigned index) {
    const unsigned above = kBits * (level + 1);
    const std::uint64_t high = above < 32 ? std::uint64_t{key} >> above << above : 0;
    return static_cast<Key>(high | (std::uint64_t{index} << (kBits * level)));
  }

  static std::uint64_t next_edit() {
    static std::atomic<std::uint64_t> counter{0};
    return counter.fetch_add(1, std::memory_order_relaxed) + 1;
  }

  [[nodiscard]] bool fits(Key key) const {
    return height_ >= kMaxHeight || (std::uint64_t{key} >> (kBits * height_)) == 0;
  }

  /// One more level on top: the old root becomes slot 0 of a new root.
  void grow() {
    if (root_ != nullptr) {
      auto top = std::make_shared<Inner>(edit_.load(std::memory_order_relaxed));
      top->child[0] = std::move(root_);
      top->occupied = 1;
      root_ = std::move(top);
    }
    ++height_;
  }

  /// The node in `slot` (a node at `level`), made editable by this map:
  /// created if absent, copied if another map's token created it.
  static Node* editable(std::shared_ptr<Node>& slot, unsigned level, std::uint64_t edit) {
    if (slot == nullptr) {
      slot = level == 0 ? std::shared_ptr<Node>(std::make_shared<Leaf>(edit))
                        : std::shared_ptr<Node>(std::make_shared<Inner>(edit));
    } else if (slot->edit != edit) {
      std::shared_ptr<Node> copy =
          level == 0 ? std::shared_ptr<Node>(std::make_shared<Leaf>(static_cast<const Leaf&>(*slot)))
                     : std::shared_ptr<Node>(std::make_shared<Inner>(static_cast<const Inner&>(*slot)));
      copy->edit = edit;
      slot = std::move(copy);
    }
    return slot.get();
  }

  template <typename Visit>
  static void walk(const Node* node, unsigned level, Visit& visit) {
    visit(static_cast<const void*>(node));
    if (level == 0) return;
    for (const auto& child : static_cast<const Inner*>(node)->child) {
      if (child != nullptr) walk(child.get(), level - 1, visit);
    }
  }

  /// Empty, with a fresh token: what a moved-from map is left as.
  void reset() {
    root_.reset();
    size_ = 0;
    height_ = 1;
    edit_.store(next_edit(), std::memory_order_relaxed);
  }

  std::shared_ptr<Node> root_;
  std::size_t size_ = 0;
  unsigned height_ = 1;
  /// This map's edit token. Atomic only because copying a const map
  /// replaces it; it is never read by lookups.
  mutable std::atomic<std::uint64_t> edit_{next_edit()};
};

}  // namespace snd::util
