// util::PeerTable: differential runs against std::unordered_map, plus the
// cases linear probing gets wrong most easily -- keys that a sentinel would
// shadow, probe chains that wrap around the slot array, and erasure from the
// middle of a chain.
#include "util/peer_table.h"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <random>
#include <unordered_map>
#include <vector>

#include "util/ids.h"

namespace snd::util {
namespace {

/// Sends every multiple of 4 to the last slot, whatever the capacity, so
/// those keys share one probe chain that wraps around to slot 0. Other keys
/// hash as usual and land in (and must be found across) that chain.
template <typename Key>
struct ClusteredHash {
  std::uint64_t operator()(Key key) const {
    return key % 4 == 0 ? ~std::uint64_t{0} : PeerHash<Key>{}(key);
  }
};

template <typename Table>
void expect_shape(const Table& table) {
  const std::size_t capacity = table.capacity();
  if (capacity == 0) {
    EXPECT_EQ(table.size(), 0u);
    return;
  }
  EXPECT_TRUE(std::has_single_bit(capacity)) << capacity;
  EXPECT_LE(table.size() * 4, capacity * 3) << "more than 3/4 full";
}

/// ~20k seeded operations on `Table` and a std::unordered_map reference,
/// in three phases: insert-heavy (grows the table), erase-heavy (backward
/// shifts), then mixed (erase-then-reinsert). Between phases the table is
/// released with `= {}` once and rebuilt.
template <typename Table, typename Key>
void differential_run(const std::vector<Key>& pool, std::uint64_t seed) {
  Table table;
  std::unordered_map<Key, std::uint64_t> reference;
  std::mt19937_64 rng(seed);
  const auto pick = [&] { return pool[rng() % pool.size()]; };

  const auto check_all = [&] {
    ASSERT_EQ(table.size(), reference.size());
    expect_shape(table);
    for (const Key key : pool) {
      const auto it = reference.find(key);
      const std::uint64_t* found = table.find(key);
      if (it == reference.end()) {
        EXPECT_EQ(found, nullptr) << "stale key " << key;
      } else {
        ASSERT_NE(found, nullptr) << "lost key " << key;
        EXPECT_EQ(*found, it->second) << "key " << key;
      }
    }
  };

  constexpr int kSteps = 20000;
  std::size_t peak_capacity = 0;
  for (int step = 0; step < kSteps; ++step) {
    // Insert-heavy, then erase-heavy, then mixed.
    const int insert_pct = step < 8000 ? 75 : step < 14000 ? 25 : 50;
    const int roll = static_cast<int>(rng() % 100);
    const Key key = pick();
    if (roll < insert_pct) {
      const std::uint64_t value = rng();
      const auto [slot, inserted] = table.try_emplace(key, value);
      const auto [it, ref_inserted] = reference.try_emplace(key, value);
      ASSERT_EQ(inserted, ref_inserted) << "key " << key;
      ASSERT_NE(slot, nullptr);
      EXPECT_EQ(*slot, it->second);
      if (!inserted && rng() % 2 == 0) {  // the returned slot is writable
        *slot = value;
        it->second = value;
      }
    } else if (roll < insert_pct + 15) {
      const std::uint64_t* found = table.find(key);
      const auto it = reference.find(key);
      ASSERT_EQ(found != nullptr, it != reference.end()) << "key " << key;
      if (found != nullptr) {
        EXPECT_EQ(*found, it->second);
      }
    } else {
      ASSERT_EQ(table.erase(key), reference.erase(key) == 1) << "key " << key;
    }
    peak_capacity = std::max(peak_capacity, table.capacity());
    if (step % 1000 == 999) check_all();
    if (step == 11000) {  // release mid-run, then keep going from empty
      table = {};
      reference.clear();
      EXPECT_EQ(table.capacity(), 0u);
      EXPECT_EQ(table.footprint_bytes(), 0u);
      check_all();
    }
  }
  check_all();
  EXPECT_GE(peak_capacity, 512u) << "the run never grew the table far";
}

template <typename Key>
std::vector<Key> key_pool(std::uint64_t seed, Key top) {
  std::mt19937_64 rng(seed);
  std::vector<Key> pool = {0, 1, 2, top, static_cast<Key>(top - 1), 0xFFFFFFFFu};
  for (Key chained = 4; pool.size() < 64; chained += 4) pool.push_back(chained);
  while (pool.size() < 1200) pool.push_back(static_cast<Key>(rng() % top));
  return pool;
}

TEST(PeerTableTest, DifferentialNodeIdKeys) {
  const auto pool = key_pool<NodeId>(11, kNoNode);
  differential_run<PeerTable<NodeId, std::uint64_t>>(pool, 1);
}

TEST(PeerTableTest, DifferentialU64Keys) {
  const auto pool = key_pool<std::uint64_t>(12, ~std::uint64_t{0});
  differential_run<PeerTable<std::uint64_t, std::uint64_t>>(pool, 2);
}

TEST(PeerTableTest, DifferentialNodeIdKeysInOneChain) {
  const auto pool = key_pool<NodeId>(13, kNoNode);
  differential_run<PeerTable<NodeId, std::uint64_t, ClusteredHash<NodeId>>>(pool, 3);
}

TEST(PeerTableTest, DifferentialU64KeysInOneChain) {
  const auto pool = key_pool<std::uint64_t>(14, ~std::uint64_t{0});
  differential_run<PeerTable<std::uint64_t, std::uint64_t, ClusteredHash<std::uint64_t>>>(pool,
                                                                                          4);
}

TEST(PeerTableTest, StoresZeroAndNoNode) {
  // No key value doubles as "empty": a forged packet may claim either.
  PeerTable<NodeId, bool> table;
  EXPECT_EQ(table.find(0), nullptr);
  EXPECT_EQ(table.find(kNoNode), nullptr);
  EXPECT_TRUE(table.try_emplace(kNoNode, true).second);
  EXPECT_TRUE(table.try_emplace(0, false).second);
  EXPECT_EQ(table.size(), 2u);
  ASSERT_NE(table.find(kNoNode), nullptr);
  EXPECT_TRUE(*table.find(kNoNode));
  ASSERT_NE(table.find(0), nullptr);
  EXPECT_FALSE(*table.find(0));
  EXPECT_FALSE(table.try_emplace(0, true).second);  // present: not overwritten
  EXPECT_FALSE(*table.find(0));
  EXPECT_TRUE(table.erase(kNoNode));
  EXPECT_EQ(table.find(kNoNode), nullptr);
  EXPECT_NE(table.find(0), nullptr);
}

TEST(PeerTableTest, EraseFromWrappedChainKeepsTheRestReachable) {
  // Every multiple of 4 homes to the last slot: the chain wraps to slot 0.
  PeerTable<NodeId, NodeId, ClusteredHash<NodeId>> table;
  const std::vector<NodeId> chain = {4, 8, 12, 16, 20};
  for (const NodeId key : chain) ASSERT_TRUE(table.try_emplace(key, key * 10).second);
  ASSERT_EQ(table.capacity(), 8u);
  for (const NodeId gone : chain) {
    PeerTable<NodeId, NodeId, ClusteredHash<NodeId>> copy = table;
    ASSERT_TRUE(copy.erase(gone));
    EXPECT_FALSE(copy.erase(gone));
    for (const NodeId key : chain) {
      const NodeId* found = copy.find(key);
      if (key == gone) {
        EXPECT_EQ(found, nullptr);
      } else {
        ASSERT_NE(found, nullptr) << "erasing " << gone << " lost " << key;
        EXPECT_EQ(*found, key * 10);
      }
    }
    EXPECT_TRUE(copy.try_emplace(gone, 7).second);  // reinsert after the shift
    EXPECT_EQ(*copy.find(gone), 7u);
    EXPECT_EQ(copy.size(), chain.size());
  }
}

TEST(PeerTableTest, GrowsAtThreeQuartersAndReleasesOnAssignEmpty) {
  PeerTable<NodeId, bool> table;
  EXPECT_EQ(table.capacity(), 0u);
  EXPECT_EQ(table.find(1), nullptr);
  EXPECT_FALSE(table.erase(1));
  for (NodeId key = 1; key <= 6; ++key) table.try_emplace(key, true);
  EXPECT_EQ(table.capacity(), 8u);  // 6 of 8 is exactly 3/4
  table.try_emplace(7, true);
  EXPECT_EQ(table.capacity(), 16u);
  EXPECT_GT(table.footprint_bytes(), 0u);
  table = {};
  EXPECT_EQ(table.size(), 0u);
  EXPECT_EQ(table.capacity(), 0u);
  EXPECT_EQ(table.footprint_bytes(), 0u);
  EXPECT_EQ(table.find(1), nullptr);
  EXPECT_TRUE(table.try_emplace(1, true).second);
}

}  // namespace
}  // namespace snd::util
