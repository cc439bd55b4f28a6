#include "sim/propagation.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <vector>

#include "simd_tiers.h"
#include "util/rng.h"

namespace snd::sim {
namespace {

TEST(UnitDiskTest, BoundaryInclusive) {
  UnitDiskModel model(10.0);
  EXPECT_TRUE(model.link_exists({0, 0}, {10, 0}));
  EXPECT_FALSE(model.link_exists({0, 0}, {10.001, 0}));
  EXPECT_TRUE(model.link_exists({0, 0}, {0, 0}));
  EXPECT_DOUBLE_EQ(model.nominal_range(), 10.0);
}

TEST(UnitDiskTest, Symmetric) {
  UnitDiskModel model(10.0);
  const util::Vec2 a{1, 2};
  const util::Vec2 b{8, 5};
  EXPECT_EQ(model.link_exists(a, b), model.link_exists(b, a));
}

TEST(PropagationDelayTest, SpeedOfLight) {
  // 300 m at c is almost exactly 1 microsecond.
  const Time delay = PropagationModel::propagation_delay(300.0);
  EXPECT_NEAR(static_cast<double>(delay.ns()), 1000.0, 2.0);
}

TEST(LogNormalTest, ZeroSigmaReducesToUnitDisk) {
  LogNormalModel model(50.0, 3.0, 0.0, 1);
  EXPECT_TRUE(model.link_exists({0, 0}, {49.9, 0}));
  EXPECT_FALSE(model.link_exists({0, 0}, {50.1, 0}));
}

TEST(LogNormalTest, DeterministicPerLink) {
  LogNormalModel model(50.0, 3.0, 6.0, 7);
  const util::Vec2 a{0, 0};
  const util::Vec2 b{48, 0};
  const bool first = model.link_exists(a, b);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(model.link_exists(a, b), first);
}

TEST(LogNormalTest, SymmetricLinks) {
  LogNormalModel model(50.0, 3.0, 6.0, 7);
  for (double x : {10.0, 30.0, 45.0, 55.0, 70.0}) {
    const util::Vec2 a{0, 0};
    const util::Vec2 b{x, 3.0};
    EXPECT_EQ(model.link_exists(a, b), model.link_exists(b, a)) << x;
  }
}

TEST(LogNormalTest, SeedChangesFadePattern) {
  LogNormalModel m1(50.0, 3.0, 8.0, 1);
  LogNormalModel m2(50.0, 3.0, 8.0, 2);
  int differences = 0;
  for (int i = 0; i < 200; ++i) {
    const util::Vec2 a{0, 0};
    const util::Vec2 b{45.0 + 0.1 * i, static_cast<double>(i)};
    if (m1.link_exists(a, b) != m2.link_exists(a, b)) ++differences;
  }
  EXPECT_GT(differences, 10);
}

TEST(LogNormalTest, ConnectivityDecreasesWithDistance) {
  LogNormalModel model(50.0, 3.0, 6.0, 11);
  // Estimate link probability at two distances by sampling many links.
  auto link_fraction = [&](double distance) {
    int connected = 0;
    const int samples = 500;
    for (int i = 0; i < samples; ++i) {
      const util::Vec2 a{static_cast<double>(i) * 13.0, 0.0};
      const util::Vec2 b{a.x + distance, 1.0};
      if (model.link_exists(a, b)) ++connected;
    }
    return static_cast<double>(connected) / samples;
  };
  const double near = link_fraction(30.0);
  const double mid = link_fraction(50.0);
  const double far = link_fraction(80.0);
  EXPECT_GT(near, mid);
  EXPECT_GT(mid, far);
  EXPECT_GT(near, 0.85);
  EXPECT_LT(far, 0.25);
}

TEST(LogNormalTest, CoincidentPointsAlwaysLinked) {
  LogNormalModel model(50.0, 3.0, 10.0, 3);
  EXPECT_TRUE(model.link_exists({5, 5}, {5, 5}));
}

TEST(MaxRangeTest, UnitDiskMaxRangeIsItsRange) {
  EXPECT_DOUBLE_EQ(UnitDiskModel(10.0).max_range(), 10.0);
}

TEST(MaxRangeTest, LogNormalCapIsTheTruncatedFadeDistance) {
  LogNormalModel model(50.0, 3.0, 6.0, 7);
  // d_max = R * 10^(4 sigma / (10 n)) = 50 * 10^0.8.
  EXPECT_DOUBLE_EQ(model.max_range(), 50.0 * std::pow(10.0, 0.8));
  EXPECT_GE(model.max_range(), model.nominal_range());
  // Zero sigma leaves nothing to truncate: the cap is the nominal range.
  EXPECT_DOUBLE_EQ(LogNormalModel(50.0, 3.0, 0.0, 1).max_range(), 50.0);
}

TEST(MaxRangeTest, NoLinkEverBeyondMaxRange) {
  // The spatial index relies on this bound absolutely: sample many link
  // queries just past max_range and require every one to be false, however
  // lucky the hashed fade.
  LogNormalModel model(50.0, 3.0, 8.0, 13);
  const double beyond = model.max_range() * 1.0001;
  for (int i = 0; i < 5000; ++i) {
    const util::Vec2 a{i * 3.7, i * 1.3};
    const util::Vec2 b{a.x + beyond, a.y + 0.1 * i};
    EXPECT_FALSE(model.link_exists(a, b)) << i;
  }
}

// -- Strip classification ----------------------------------------------------

/// Checks classify_links() soundness against the model's own link_exists():
/// a definite verdict must agree, and Check is always allowed.
void expect_classes_sound(const PropagationModel& model, util::Vec2 from,
                          const std::vector<double>& xs, const std::vector<double>& ys) {
  std::vector<std::uint8_t> classes(xs.size(), 99);
  model.classify_links(from, xs.data(), ys.data(), xs.size(), classes.data());
  for (std::size_t i = 0; i < xs.size(); ++i) {
    const bool linked = model.link_exists(from, {xs[i], ys[i]});
    if (classes[i] == kLinkIn) {
      EXPECT_TRUE(linked) << "i=" << i << " x=" << xs[i] << " y=" << ys[i];
    } else if (classes[i] == kLinkOut) {
      EXPECT_FALSE(linked) << "i=" << i << " x=" << xs[i] << " y=" << ys[i];
    } else {
      EXPECT_EQ(classes[i], kLinkCheck) << "i=" << i;
    }
  }
}

// Survivor classes must agree with the scalar filter at every dispatch
// tier, over candidates packed onto the range boundary (cell-edge cases:
// exactly range, one ulp either side) and at every ragged strip length.
TEST(StripClassifyTest, UnitDiskClassesSoundAtBoundaries) {
  const double range = 10.0;
  UnitDiskModel model(range);
  const util::Vec2 from{3.0, -2.0};

  util::Rng rng(0xd15c);
  test::for_each_simd_tier([&] {
    for (std::size_t n : {1u, 2u, 3u, 4u, 5u, 7u, 8u, 9u, 33u}) {
      std::vector<double> xs;
      std::vector<double> ys;
      for (std::size_t i = 0; i < n; ++i) {
        if (i % 3 == 0) {
          // Boundary pack: exactly on the disk edge and one ulp off it.
          const double edge = from.x + std::nextafter(
                                           range, i % 2 == 0
                                                      ? 0.0
                                                      : std::numeric_limits<double>::infinity());
          xs.push_back(i % 6 == 0 ? from.x + range : edge);
          ys.push_back(from.y);
        } else {
          xs.push_back(from.x + rng.uniform(-2.0 * range, 2.0 * range));
          ys.push_back(from.y + rng.uniform(-2.0 * range, 2.0 * range));
        }
      }
      expect_classes_sound(model, from, xs, ys);
    }
  });
}

// Log-normal strips: definite Out only past the truncated-fade cutoff;
// fade-edge candidates (just inside max_range) must be Check, never In.
TEST(StripClassifyTest, LogNormalClassesSoundAroundFadeEdge) {
  LogNormalModel model(50.0, 3.0, 6.0, 7);
  const util::Vec2 from{10.0, 20.0};
  const double cutoff = model.max_range();

  util::Rng rng(0xfade);
  test::for_each_simd_tier([&] {
    std::vector<double> xs;
    std::vector<double> ys;
    std::vector<std::uint8_t> expected_never_in;
    for (int i = 0; i < 64; ++i) {
      const double d = rng.uniform(0.0, 2.0 * cutoff);
      const double angle = rng.uniform(0.0, 2.0 * M_PI);
      xs.push_back(from.x + d * std::cos(angle));
      ys.push_back(from.y + d * std::sin(angle));
    }
    // Fade-edge pack: straddle the cutoff exactly.
    for (const double d : {cutoff, std::nextafter(cutoff, 0.0), cutoff * 1.000001}) {
      xs.push_back(from.x + d);
      ys.push_back(from.y);
    }
    expect_classes_sound(model, from, xs, ys);

    std::vector<std::uint8_t> classes(xs.size());
    model.classify_links(from, xs.data(), ys.data(), xs.size(), classes.data());
    for (const std::uint8_t c : classes) EXPECT_NE(c, kLinkIn);
  });
}

// The base-class default defers everything to the scalar path.
TEST(StripClassifyTest, DefaultClassifierMarksEverythingCheck) {
  class OpaqueModel final : public PropagationModel {
   public:
    [[nodiscard]] bool link_exists(util::Vec2, util::Vec2) const override { return true; }
    [[nodiscard]] double nominal_range() const override { return 1.0; }
    [[nodiscard]] double max_range() const override { return 1.0; }
  };
  OpaqueModel model;
  const std::vector<double> xs = {0.0, 1.0, 2.0};
  const std::vector<double> ys = {0.0, 1.0, 2.0};
  std::vector<std::uint8_t> classes(3, 99);
  model.classify_links({0, 0}, xs.data(), ys.data(), 3, classes.data());
  for (const std::uint8_t c : classes) EXPECT_EQ(c, kLinkCheck);
}

}  // namespace
}  // namespace snd::sim
