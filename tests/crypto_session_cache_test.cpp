#include "crypto/session_cache.h"

#include <gtest/gtest.h>

#include <thread>

#include "crypto/blundo.h"
#include "crypto/eg_pool.h"
#include "crypto/sha256.h"

namespace snd::crypto {
namespace {

TEST(PairKeyCacheTest, DerivesAndCachesOnFirstLookup) {
  std::shared_ptr<const KeyPredistribution> scheme = KdcScheme::from_seed(7);
  PairKeyCache cache(scheme, 1);
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.self(), 1u);
  const PairKeyCache::Entry& entry = cache.get(2);
  EXPECT_TRUE(entry.present());
  EXPECT_TRUE(entry.mac.present());
  EXPECT_EQ(cache.size(), 1u);
}

TEST(PairKeyCacheTest, SecondLookupCostsNoHashes) {
  std::shared_ptr<const KeyPredistribution> scheme = KdcScheme::from_seed(7);
  PairKeyCache cache(scheme, 1);
  (void)cache.get(2);
  reset_hash_op_count();
  EXPECT_TRUE(cache.get(2).present());
  EXPECT_EQ(hash_op_count(), 0u);  // pure map lookup, no KDF, no pad hashing
}

TEST(PairKeyCacheTest, SymmetricAcrossEndpoints) {
  // pairwise(u,v) == pairwise(v,u): both ends' cached entries must produce
  // identical MACs over the same message (the observable form of equality).
  std::shared_ptr<const KeyPredistribution> kdc = KdcScheme::from_seed(7);
  auto blundo = std::make_shared<BlundoScheme>(3, 5);
  blundo->provision(1);
  blundo->provision(2);
  const util::Bytes message = {1, 2, 3};
  for (std::shared_ptr<const KeyPredistribution> scheme :
       {kdc, std::static_pointer_cast<const KeyPredistribution>(blundo)}) {
    PairKeyCache u(scheme, 1);
    PairKeyCache v(scheme, 2);
    const PairKeyCache::Entry& a = u.get(2);
    const PairKeyCache::Entry& b = v.get(1);
    ASSERT_TRUE(a.present());
    ASSERT_TRUE(b.present());
    EXPECT_EQ(a.mac.short_mac(message), b.mac.short_mac(message)) << scheme->name();
  }
}

TEST(PairKeyCacheTest, CachedMacMatchesDirectDerivation) {
  auto blundo = std::make_shared<BlundoScheme>(9, 4);
  blundo->provision(5);
  blundo->provision(6);
  PairKeyCache cache(std::static_pointer_cast<const KeyPredistribution>(blundo), 5);
  const util::Bytes message = {4, 4, 4};
  const auto direct = blundo->pairwise(5, 6);
  ASSERT_TRUE(direct.has_value());
  EXPECT_EQ(cache.get(6).mac.short_mac(message), short_mac(*direct, message));
}

TEST(PairKeyCacheTest, InvalidateDropsEntryAndRederives) {
  std::shared_ptr<const KeyPredistribution> scheme = KdcScheme::from_seed(7);
  PairKeyCache cache(scheme, 1);
  (void)cache.get(2);
  (void)cache.get(3);
  EXPECT_EQ(cache.size(), 2u);
  cache.invalidate(2);
  EXPECT_EQ(cache.size(), 1u);
  reset_hash_op_count();
  EXPECT_TRUE(cache.get(2).present());
  EXPECT_GT(hash_op_count(), 0u);  // really re-derived
  cache.clear();
  EXPECT_EQ(cache.size(), 0u);
}

TEST(PairKeyCacheTest, SelfPairIsAbsent) {
  std::shared_ptr<const KeyPredistribution> scheme = KdcScheme::from_seed(7);
  PairKeyCache cache(scheme, 1);
  const PairKeyCache::Entry& entry = cache.get(1);
  EXPECT_FALSE(entry.present());
  EXPECT_FALSE(entry.mac.present());
  EXPECT_EQ(cache.size(), 0u);
}

TEST(PairKeyCacheTest, AbsentResultNotCachedSoLateProvisioningWorks) {
  // Incremental deployment: the peer provisions after our first attempt.
  // A negative cache would pin the failure; the spec is to re-derive.
  auto eg = std::make_shared<EschenauerGligorScheme>(9, 100, 80);
  eg->provision(1);
  PairKeyCache cache(std::static_pointer_cast<const KeyPredistribution>(eg), 1);
  const PairKeyCache::Entry& miss = cache.get(2);  // peer not provisioned yet
  EXPECT_FALSE(miss.present());
  EXPECT_EQ(cache.size(), 0u);

  eg->provision(2);  // rings of 80 from a pool of 100 always intersect
  const PairKeyCache::Entry& hit = cache.get(2);
  EXPECT_TRUE(hit.present());
  EXPECT_TRUE(hit.mac.present());
  EXPECT_EQ(cache.size(), 1u);
}

TEST(HashOpCounterTest, IsPerThread) {
  // g_hash_ops became thread_local so parallel Monte-Carlo trials stop
  // contending on (and double-counting into) one atomic. Each thread sees
  // only its own work.
  reset_hash_op_count();
  std::uint64_t worker_ops = 0;
  std::thread worker([&worker_ops] {
    reset_hash_op_count();
    (void)Sha256::hash(util::Bytes{1, 2, 3});
    worker_ops = hash_op_count();
  });
  worker.join();
  EXPECT_GT(worker_ops, 0u);
  EXPECT_EQ(hash_op_count(), 0u);  // the worker's hashing never leaked here
}

}  // namespace
}  // namespace snd::crypto
