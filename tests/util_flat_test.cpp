#include "util/flat.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

namespace snd::util {
namespace {

TEST(FlatMapTest, InsertFindErase) {
  FlatMap<int, std::string> map;
  EXPECT_TRUE(map.empty());
  EXPECT_EQ(map.find(1), nullptr);

  map.insert_or_assign(2, "two");
  map.insert_or_assign(1, "one");
  map.insert_or_assign(3, "three");
  EXPECT_EQ(map.size(), 3u);
  ASSERT_NE(map.find(2), nullptr);
  EXPECT_EQ(*map.find(2), "two");
  EXPECT_TRUE(map.contains(1));
  EXPECT_FALSE(map.contains(4));

  map.insert_or_assign(2, "TWO");
  EXPECT_EQ(map.size(), 3u);
  EXPECT_EQ(*map.find(2), "TWO");

  EXPECT_TRUE(map.erase(2));
  EXPECT_FALSE(map.erase(2));
  EXPECT_EQ(map.size(), 2u);
}

TEST(FlatMapTest, IterationAscendingByKey) {
  FlatMap<int, int> map;
  for (int k : {5, 1, 4, 2, 3}) map.insert_or_assign(k, k * 10);
  std::vector<int> keys;
  for (const auto& [k, v] : map) {
    keys.push_back(k);
    EXPECT_EQ(v, k * 10);
  }
  EXPECT_EQ(keys, (std::vector<int>{1, 2, 3, 4, 5}));
}

TEST(FlatMapTest, TryEmplaceOnlyInsertsWhenAbsent) {
  FlatMap<int, int> map;
  EXPECT_TRUE(map.try_emplace(1, 10));
  EXPECT_FALSE(map.try_emplace(1, 20));
  EXPECT_EQ(*map.find(1), 10);
}

TEST(FlatMapTest, GetOrInsertDefaultConstructs) {
  FlatMap<int, int> map;
  int& v = map.get_or_insert(7);
  EXPECT_EQ(v, 0);
  v = 42;
  EXPECT_EQ(*map.find(7), 42);
  EXPECT_EQ(map.get_or_insert(7), 42);
  EXPECT_EQ(map.size(), 1u);
}

TEST(FlatSetTest, InsertContainsOrdering) {
  FlatSet<int> set;
  EXPECT_TRUE(set.insert(3));
  EXPECT_TRUE(set.insert(1));
  EXPECT_TRUE(set.insert(2));
  EXPECT_FALSE(set.insert(2));  // duplicate
  EXPECT_EQ(set.size(), 3u);
  EXPECT_TRUE(set.contains(1));
  EXPECT_FALSE(set.contains(9));
  EXPECT_EQ(set.keys(), (std::vector<int>{1, 2, 3}));
}

}  // namespace
}  // namespace snd::util
