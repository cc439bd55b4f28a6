// Concurrent reader/ingester stress for the service's snapshot path.
// Readers must never block ingestion, never see a half-published epoch, and
// a retained snapshot must stay self-consistent while the world moves on.
// Run under -DSND_SANITIZE=thread to have TSan check the claim.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <utility>
#include <vector>

#include "service/events.h"
#include "service/validation_service.h"
#include "util/rng.h"

namespace snd::service {
namespace {

TEST(ServiceStressTest, ConcurrentReadersDuringIngestion) {
  const util::Rect field{{0.0, 0.0}, {120.0, 120.0}};
  ValidationService service({.radio_range = 25.0, .threshold_t = 2});

  util::Rng rng(7);
  std::vector<std::pair<NodeId, util::Vec2>> initial;
  std::vector<NodeId> live;
  for (NodeId id = 1; id <= 150; ++id) {
    initial.emplace_back(id, util::Vec2{rng.uniform(0.0, 120.0), rng.uniform(0.0, 120.0)});
    live.push_back(id);
  }
  service.seed_topology(initial);
  const auto events = random_events(600, field, std::move(live), 8);

  std::atomic<bool> done{false};
  std::atomic<std::uint64_t> queries{0};
  std::atomic<bool> failed{false};

  const auto reader = [&](std::uint64_t seed) {
    util::Rng local(seed);
    std::uint64_t last_epoch = 0;
    while (!done.load(std::memory_order_acquire)) {
      const auto snapshot = service.snapshot();
      // Epochs only move forward.
      if (snapshot->epoch() < last_epoch) failed.store(true);
      last_epoch = snapshot->epoch();
      // A snapshot is internally consistent: a validated neighbor is a
      // tentative neighbor of a node the snapshot knows.
      const NodeId u = static_cast<NodeId>(local.uniform_int(200)) + 1;
      const NodeState* state = snapshot->find(u);
      if (state != nullptr && !state->validated.empty()) {
        const NodeId v = state->validated[local.uniform_int(state->validated.size())];
        if (!snapshot->validate(u, v)) failed.store(true);
        if (!topology::contains(state->neighbors, v)) failed.store(true);
      }
      queries.fetch_add(1, std::memory_order_relaxed);
    }
  };

  const auto retained = service.snapshot();  // pin the seed epoch for the whole run
  const std::string retained_json = retained->canonical_json();

  std::vector<std::thread> readers;
  for (std::uint64_t i = 0; i < 4; ++i) {
    readers.emplace_back(reader, util::derive_seed(123, i));
  }

  std::size_t applied = 0;
  for (const TopologyEvent& event : events) {
    if (service.apply(event).ok) ++applied;
  }
  done.store(true, std::memory_order_release);
  for (std::thread& t : readers) t.join();

  EXPECT_FALSE(failed.load());
  EXPECT_EQ(applied, events.size());
  EXPECT_GT(queries.load(), 0u);
  // The pinned snapshot never changed underneath the readers.
  EXPECT_EQ(retained->canonical_json(), retained_json);
  EXPECT_EQ(service.snapshot()->epoch(), retained->epoch() + events.size());
}

TEST(ServiceStressTest, BatchIngestionPublishesOnce) {
  const util::Rect field{{0.0, 0.0}, {80.0, 80.0}};
  ValidationService service({.radio_range = 20.0, .threshold_t = 1});
  util::Rng rng(3);
  std::vector<std::pair<NodeId, util::Vec2>> initial;
  std::vector<NodeId> live;
  for (NodeId id = 1; id <= 60; ++id) {
    initial.emplace_back(id, util::Vec2{rng.uniform(0.0, 80.0), rng.uniform(0.0, 80.0)});
    live.push_back(id);
  }
  service.seed_topology(initial);
  const std::uint64_t before = service.snapshot()->epoch();

  std::atomic<bool> done{false};
  std::atomic<bool> saw_intermediate{false};
  std::thread watcher([&] {
    while (!done.load(std::memory_order_acquire)) {
      const std::uint64_t epoch = service.snapshot()->epoch();
      if (epoch != before && epoch != before + 1) saw_intermediate.store(true);
    }
  });

  const auto events = random_events(200, field, std::move(live), 4);
  EXPECT_EQ(service.apply_all(events), events.size());
  done.store(true, std::memory_order_release);
  watcher.join();

  // apply_all publishes exactly one epoch, so readers can never observe a
  // partially-applied batch.
  EXPECT_FALSE(saw_intermediate.load());
  EXPECT_EQ(service.snapshot()->epoch(), before + 1);
}

}  // namespace
}  // namespace snd::service
