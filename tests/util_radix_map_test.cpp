#include "util/radix_map.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "util/ids.h"
#include "util/rng.h"

namespace snd::util {
namespace {

using Map = RadixMap<std::string>;

std::vector<std::pair<std::uint32_t, std::string>> entries(const Map& map) {
  std::vector<std::pair<std::uint32_t, std::string>> out;
  for (const auto& [key, value] : map) out.emplace_back(key, value);
  return out;
}

std::vector<std::pair<std::uint32_t, std::string>> entries(
    const std::map<std::uint32_t, std::string>& map) {
  return {map.begin(), map.end()};
}

/// Trie nodes of `map` that `base` does not share.
std::unordered_set<const void*> unshared_nodes(const Map& map, const Map& base) {
  std::unordered_set<const void*> shared;
  base.for_each_node([&](const void* node) { shared.insert(node); });
  std::unordered_set<const void*> fresh;
  map.for_each_node([&](const void* node) {
    if (shared.count(node) == 0) fresh.insert(node);
  });
  return fresh;
}

TEST(RadixMapTest, EmptyMap) {
  const Map map;
  EXPECT_TRUE(map.empty());
  EXPECT_EQ(map.size(), 0u);
  EXPECT_EQ(map.find(0), nullptr);
  EXPECT_EQ(map.find(kNoNode), nullptr);
  EXPECT_TRUE(map.begin() == map.end());
}

TEST(RadixMapTest, InsertAssignErase) {
  Map map;
  map.insert_or_assign(2, "two");
  map.insert_or_assign(1, "one");
  map.insert_or_assign(40, "forty");
  EXPECT_EQ(map.size(), 3u);
  ASSERT_NE(map.find(2), nullptr);
  EXPECT_EQ(*map.find(2), "two");
  EXPECT_TRUE(map.contains(40));
  EXPECT_FALSE(map.contains(41));

  map.insert_or_assign(2, "TWO");
  EXPECT_EQ(map.size(), 3u);
  EXPECT_EQ(*map.find(2), "TWO");

  EXPECT_TRUE(map.erase(2));
  EXPECT_FALSE(map.erase(2));
  EXPECT_FALSE(map.erase(1u << 20));  // beyond the trie's current height
  EXPECT_EQ(map.size(), 2u);
  EXPECT_EQ(entries(map), (std::vector<std::pair<std::uint32_t, std::string>>{
                              {1, "one"}, {40, "forty"}}));
}

TEST(RadixMapTest, RandomizedAgainstStdMap) {
  Rng rng(0x5eed);
  Map map;
  std::map<std::uint32_t, std::string> reference;
  for (int step = 0; step < 20000; ++step) {
    // Mostly a dense low range (shared leaves), sometimes any 32-bit key.
    const auto key = rng.chance(0.9) ? static_cast<std::uint32_t>(rng.uniform_int(3000))
                                     : static_cast<std::uint32_t>(rng.next());
    if (rng.chance(0.35)) {
      EXPECT_EQ(map.erase(key), reference.erase(key) == 1) << "key " << key;
    } else {
      const std::string value = std::to_string(step);
      map.insert_or_assign(key, value);
      reference.insert_or_assign(key, value);
    }
    const auto probe = static_cast<std::uint32_t>(rng.uniform_int(3000));
    const auto it = reference.find(probe);
    const std::string* found = map.find(probe);
    ASSERT_EQ(found != nullptr, it != reference.end()) << "probe " << probe;
    if (found != nullptr) {
      EXPECT_EQ(*found, it->second);
    }
    if (step % 1000 == 0) {
      ASSERT_EQ(entries(map), entries(reference)) << "step " << step;
    }
  }
  EXPECT_EQ(map.size(), reference.size());
  EXPECT_EQ(entries(map), entries(reference));

  // Erase everything: the map returns to the empty state.
  for (const auto& [key, value] : reference) EXPECT_TRUE(map.erase(key));
  EXPECT_TRUE(map.empty());
  EXPECT_EQ(map.height(), 1u);
  EXPECT_TRUE(map.begin() == map.end());
  std::size_t nodes = 0;
  map.for_each_node([&](const void*) { ++nodes; });
  EXPECT_EQ(nodes, 0u);
}

TEST(RadixMapTest, BoundaryKeysAndHeightGrowth) {
  constexpr std::uint32_t kFanout = Map::kFanout;
  Map map;
  map.insert_or_assign(0, "zero");
  EXPECT_EQ(map.height(), 1u);
  map.insert_or_assign(kFanout - 1, "last of leaf 0");
  EXPECT_EQ(map.height(), 1u);
  map.insert_or_assign(kFanout, "first of leaf 1");
  EXPECT_EQ(map.height(), 2u);
  map.insert_or_assign(0xFFFFFFFEu, "top - 1");
  EXPECT_EQ(map.height(), Map::kMaxHeight);
  map.insert_or_assign(kNoNode, "top");
  EXPECT_EQ(map.height(), Map::kMaxHeight);

  // Growth kept every earlier key reachable.
  const std::vector<std::pair<std::uint32_t, std::string>> expected = {
      {0, "zero"},
      {kFanout - 1, "last of leaf 0"},
      {kFanout, "first of leaf 1"},
      {0xFFFFFFFEu, "top - 1"},
      {kNoNode, "top"}};
  EXPECT_EQ(entries(map), expected);
  for (const auto& [key, value] : expected) {
    ASSERT_NE(map.find(key), nullptr) << key;
    EXPECT_EQ(*map.find(key), value);
  }
  EXPECT_FALSE(map.contains(kFanout + 1));
  EXPECT_FALSE(map.contains(0xFFFFFFFDu));

  EXPECT_TRUE(map.erase(kNoNode));
  EXPECT_TRUE(map.erase(0));
  EXPECT_EQ(entries(map), (std::vector<std::pair<std::uint32_t, std::string>>{
                              {kFanout - 1, "last of leaf 0"},
                              {kFanout, "first of leaf 1"},
                              {0xFFFFFFFEu, "top - 1"}}));
}

TEST(RadixMapTest, CopiesAreIndependentInBothDirections) {
  Map source;
  for (std::uint32_t key = 0; key < 200; ++key) source.insert_or_assign(key, std::to_string(key));
  const auto before = entries(source);

  // Mutating the copy leaves the source alone.
  Map copy = source;
  copy.insert_or_assign(5, "changed");
  copy.erase(6);
  copy.insert_or_assign(1000, "new");
  EXPECT_EQ(entries(source), before);
  EXPECT_EQ(*copy.find(5), "changed");

  // Mutating the source after the copy leaves the copy alone, including
  // nodes the source created (and owned) before it was copied: keys 100
  // and 150 live in leaves the copy has not copied.
  const auto copied = entries(copy);
  source.insert_or_assign(100, "source only");
  source.erase(150);
  EXPECT_EQ(entries(copy), copied);
  EXPECT_EQ(*copy.find(100), "100");
  EXPECT_TRUE(copy.contains(150));
  EXPECT_EQ(*source.find(5), "5");
  EXPECT_EQ(*source.find(100), "source only");

  // Copy assignment and moves behave the same way.
  Map assigned;
  assigned = source;
  assigned.insert_or_assign(9, "assigned");
  EXPECT_EQ(*source.find(9), "9");
  Map moved = std::move(assigned);
  EXPECT_EQ(*moved.find(9), "assigned");
  moved.insert_or_assign(10, "moved");
  EXPECT_EQ(*source.find(10), "10");
  EXPECT_EQ(*copy.find(10), "10");
}

TEST(RadixMapTest, AssignmentsCopyOnlyTheirPaths) {
  Map source;
  for (std::uint32_t key = 0; key < 30000; ++key) source.insert_or_assign(key, "v");
  const std::size_t depth = source.height();
  EXPECT_EQ(depth, 3u);

  Rng rng(11);
  for (const std::size_t k : {1u, 2u, 17u, 200u}) {
    Map copy = source;
    EXPECT_TRUE(unshared_nodes(copy, source).empty());
    for (std::size_t i = 0; i < k; ++i) {
      copy.insert_or_assign(static_cast<std::uint32_t>(rng.uniform_int(30000)), "w");
    }
    EXPECT_LE(unshared_nodes(copy, source).size(), k * depth + 1) << "k = " << k;
  }

  // Later edits on the same path reuse the nodes this copy already owns:
  // the same node addresses, not fresh copies.
  Map copy = source;
  copy.insert_or_assign(12345, "first");
  const auto owned = unshared_nodes(copy, source);
  EXPECT_EQ(owned.size(), depth);
  copy.insert_or_assign(12345, "second");
  copy.insert_or_assign(12346, "neighbor");
  EXPECT_EQ(unshared_nodes(copy, source), owned);
  EXPECT_EQ(*source.find(12345), "v");
}

TEST(RadixMapTest, ErasedValuesAreReleased) {
  RadixMap<std::shared_ptr<int>> map;
  auto value = std::make_shared<int>(7);
  map.insert_or_assign(3, value);
  EXPECT_EQ(value.use_count(), 2);
  auto copy = map;
  map.erase(3);
  EXPECT_EQ(value.use_count(), 2);  // the copy still holds it
  copy.erase(3);
  EXPECT_EQ(value.use_count(), 1);
}

}  // namespace
}  // namespace snd::util
