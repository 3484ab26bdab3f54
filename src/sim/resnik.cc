#include "sim/resnik.h"

#include <algorithm>
#include <cmath>

#include "sim/kernels.h"

namespace xsdf::sim {

double ResnikMeasure::LegacySimilarity(
    const wordnet::SemanticNetwork& network, wordnet::ConceptId a,
    wordnet::ConceptId b) {
  if (a == b) return 1.0;
  auto da = network.AncestorDistances(a);
  auto db = network.AncestorDistances(b);
  double total = network.TotalFrequency();
  if (total <= 0.0) return 0.0;
  double best_ic = -1.0;
  for (const auto& [ancestor, dist] : da) {
    (void)dist;
    if (db.find(ancestor) == db.end()) continue;
    double p = network.CumulativeFrequency(ancestor) / total;
    double ic = (p <= 0.0 || p >= 1.0) ? 0.0 : -std::log(p);
    best_ic = std::max(best_ic, ic);
  }
  if (best_ic < 0.0) return 0.0;  // unrelated
  double ic_max = -std::log(1.0 / total);
  if (ic_max <= 0.0) return 0.0;
  return std::min(1.0, best_ic / ic_max);
}

double ResnikMeasure::Similarity(const wordnet::SemanticNetwork& network,
                                 wordnet::ConceptId a,
                                 wordnet::ConceptId b) const {
  if (a == b) return 1.0;
  double total = network.TotalFrequency();
  if (total <= 0.0) return 0.0;
  // Most informative common subsumer via the SIMD sorted-ancestor
  // intersect; the IC table holds exactly the doubles the legacy path
  // recomputed per pair, the intersect finds the same matches at every
  // dispatch level, and max() is order-independent — so scores are
  // bit-identical.
  std::span<const wordnet::AncestorEntry> aa = network.Ancestors(a);
  std::span<const wordnet::AncestorEntry> ab = network.Ancestors(b);
  double best_ic = -1.0;
  AncestorMatches lcs = IntersectAncestors(aa, ab, /*need_b_positions=*/false);
  for (size_t k = 0; k < lcs.count; ++k) {
    best_ic = std::max(best_ic, network.InformationContentOf(aa[lcs.a[k]].id));
  }
  if (best_ic < 0.0) return 0.0;  // unrelated
  double ic_max = network.MaxInformationContent();
  if (ic_max <= 0.0) return 0.0;
  return std::min(1.0, best_ic / ic_max);
}

}  // namespace xsdf::sim
