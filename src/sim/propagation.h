// Radio propagation models. A model answers one question -- does a link
// exist between two positions -- plus the propagation delay. Link decisions
// are pure functions of the endpoint positions (log-normal shadowing hashes
// the endpoints into a stable per-link fade), so the same pair always gets
// the same answer within a run: links are symmetric and stable, matching the
// paper's static-network assumption.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>

#include "sim/time.h"
#include "util/geometry.h"

namespace snd::sim {

/// classify_links() verdicts. kLinkIn / kLinkOut are *definite*: they must
/// imply link_exists() true / false for the same pair. kLinkCheck defers to
/// a scalar link_exists() call, so a model that cannot decide a candidate
/// cheaply (or at all) stays exactly as accurate as the scalar path.
inline constexpr std::uint8_t kLinkOut = 0;
inline constexpr std::uint8_t kLinkIn = 1;
inline constexpr std::uint8_t kLinkCheck = 2;

class PropagationModel {
 public:
  virtual ~PropagationModel() = default;

  [[nodiscard]] virtual bool link_exists(util::Vec2 a, util::Vec2 b) const = 0;

  /// Vectorized candidate filter: classifies the n candidates at
  /// (xs[i], ys[i]) against a transmission from `from`, writing one of
  /// kLinkIn / kLinkOut / kLinkCheck per candidate to `out`. Distance² is
  /// computed width-4 (AVX) / width-2 (SSE2) in doubles and compared
  /// against a guard-banded threshold: candidates inside the band are
  /// kLinkCheck, so a definite verdict never disagrees with link_exists()
  /// even at rounding boundaries -- the strip path stays bit-identical to
  /// the scalar filter by construction. The base implementation marks
  /// everything kLinkCheck, which is the per-candidate scalar filter.
  virtual void classify_links(util::Vec2 from, const double* xs, const double* ys,
                              std::size_t n, std::uint8_t* out) const;

  /// The nominal maximum radio range R used by analytical formulas and the
  /// safety definitions (for shadowing models, the threshold-crossing
  /// distance at zero fade).
  [[nodiscard]] virtual double nominal_range() const = 0;

  /// Hard reach bound: link_exists is guaranteed false for any pair of
  /// positions further apart than this. Spatial indexing relies on the
  /// bound being finite, so every model must truncate whatever randomness
  /// it carries (see LogNormalModel for the truncated-fade semantics).
  [[nodiscard]] virtual double max_range() const = 0;

  /// Signal propagation delay over `distance` meters (speed of light,
  /// rounded -- not truncated -- to the nanosecond tick).
  [[nodiscard]] static Time propagation_delay(double distance);
};

/// Classic unit-disk model: link iff distance <= range.
class UnitDiskModel final : public PropagationModel {
 public:
  explicit UnitDiskModel(double range) : range_(range) {}
  [[nodiscard]] bool link_exists(util::Vec2 a, util::Vec2 b) const override;
  [[nodiscard]] double nominal_range() const override { return range_; }
  [[nodiscard]] double max_range() const override { return range_; }

  /// d² <= range² is decidable straight from the strip: definite In below
  /// the banded threshold, definite Out above it, Check inside the band.
  void classify_links(util::Vec2 from, const double* xs, const double* ys, std::size_t n,
                      std::uint8_t* out) const override;

 private:
  double range_;
};

/// Log-normal shadowing: the link margin at distance d is
///   M(d) = 10 * n * log10(R / d) + X,  X ~ N(0, sigma) per link,
/// and the link exists iff M >= 0. X is derived deterministically from the
/// endpoint positions and a seed, so the radio graph is stable but
/// irregular (non-disk), which exercises the protocol beyond the paper's
/// unit-disk evaluation.
///
/// Truncated-fade semantics: an untruncated normal fade gives the model
/// unbounded reach (any distance is linkable under a lucky enough draw),
/// which no spatial index can serve. Fades beyond +kFadeCapSigmas standard
/// deviations are therefore defined not to occur: link_exists is false past
/// max_range() = R * 10^(kFadeCapSigmas * sigma / (10 * n)), the distance at
/// which even a capped fade cannot lift the margin to zero. This discards
/// links of probability < 4e-5 each, all beyond several nominal ranges.
class LogNormalModel final : public PropagationModel {
 public:
  /// Largest fade considered physical, in standard deviations.
  static constexpr double kFadeCapSigmas = 4.0;

  LogNormalModel(double range, double path_loss_exponent, double sigma_db,
                 std::uint64_t seed);
  [[nodiscard]] bool link_exists(util::Vec2 a, util::Vec2 b) const override;
  [[nodiscard]] double nominal_range() const override { return range_; }
  [[nodiscard]] double max_range() const override { return max_range_; }

  /// Only the truncated-fade cutoff is strip-decidable: candidates beyond
  /// max_range() are definite Out (sparing them the sqrt + per-link fade
  /// hash), everything nearer is Check -- the fade draw is unbounded below,
  /// so no distance guarantees a link.
  void classify_links(util::Vec2 from, const double* xs, const double* ys, std::size_t n,
                      std::uint8_t* out) const override;

 private:
  [[nodiscard]] double link_fade_db(util::Vec2 a, util::Vec2 b) const;

  double range_;
  double exponent_;
  double sigma_db_;
  double max_range_;
  std::uint64_t seed_;
};

}  // namespace snd::sim
