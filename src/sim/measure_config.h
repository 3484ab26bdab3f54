#ifndef XSDF_SIM_MEASURE_CONFIG_H_
#define XSDF_SIM_MEASURE_CONFIG_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/result.h"

namespace xsdf::sim {

/// An ordered similarity-measure composition: (registered measure name,
/// weight) pairs, weights non-negative and summing to 1. This is the
/// only way to name a measure composition — the CLI parses
/// `--measures` into one, Disambiguator/CombinedMeasure build their
/// components from it, the serve layer reports its ToSpec() string,
/// and the runtime similarity cache keys entries on its Fingerprint().
/// An empty config in DisambiguatorOptions::measure_config means the
/// paper default; DisambiguatorOptions::EffectiveMeasureConfig() is
/// the one place that substitutes PaperHybrid() for it.
struct MeasureConfig {
  std::vector<std::pair<std::string, double>> entries;

  bool empty() const { return entries.empty(); }

  /// Paper Definition 9: wu-palmer/lin/gloss-overlap under the
  /// (edge, node, gloss) weights, equal thirds by default.
  static MeasureConfig PaperHybrid(double edge = 1.0 / 3.0,
                                   double node = 1.0 / 3.0,
                                   double gloss = 1.0 / 3.0);

  /// Parses "name:weight,name:weight,..." (the `--measures` grammar).
  /// Rejects the empty string, malformed items, names not in
  /// MeasureRegistry::Global(), duplicate names, negative weights, and
  /// weight sums off 1 by more than 1e-4; accepted weights are
  /// rescaled so they sum to 1 exactly (within double rounding), which
  /// lets users write "a:0.333333,b:0.333333,c:0.333333".
  static Result<MeasureConfig> Parse(std::string_view spec);

  /// Validates this config against the global registry (same rules as
  /// Parse, without the rescale). OK status when usable.
  Status Validate() const;

  /// Canonical round-trippable spec string, "name:weight,..." with
  /// weights formatted %.17g then trimmed ("wu-palmer:0.5,lin:0.5");
  /// Parse(ToSpec()) reproduces the config. Reported by /explain,
  /// /stats, and the access log.
  std::string ToSpec() const;

  /// Order-sensitive 64-bit fingerprint over entry count, each name's
  /// bytes, and each weight's exact bit pattern. Two distinct
  /// compositions — different names, different weights, or the same
  /// pairs in a different order — get different fingerprints, so
  /// similarity-cache entries keyed on it can never alias across
  /// configs (the pre-registry fingerprint hashed only the three
  /// default weights and aliased every composition sharing them).
  uint64_t Fingerprint() const;

  bool operator==(const MeasureConfig& other) const {
    return entries == other.entries;
  }
};

}  // namespace xsdf::sim

#endif  // XSDF_SIM_MEASURE_CONFIG_H_
