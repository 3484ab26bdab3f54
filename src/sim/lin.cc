#include "sim/lin.h"

#include <cmath>

#include "sim/kernels.h"

namespace xsdf::sim {

namespace {

/// IC(c) = -log p(c), clamped to 0 for concepts whose cumulative
/// probability is 1 (taxonomy roots).
double InformationContent(const wordnet::SemanticNetwork& network,
                          wordnet::ConceptId id) {
  double p = network.CumulativeFrequency(id) / network.TotalFrequency();
  if (p <= 0.0) return 0.0;
  if (p >= 1.0) return 0.0;
  return -std::log(p);
}

}  // namespace

double LinMeasure::LegacySimilarity(const wordnet::SemanticNetwork& network,
                                    wordnet::ConceptId a,
                                    wordnet::ConceptId b) {
  if (a == b) return 1.0;
  // Most informative common subsumer.
  auto da = network.AncestorDistances(a);
  auto db = network.AncestorDistances(b);
  double best_ic = -1.0;
  for (const auto& [ancestor, dist] : da) {
    (void)dist;
    if (db.find(ancestor) == db.end()) continue;
    double ic = InformationContent(network, ancestor);
    if (ic > best_ic) best_ic = ic;
  }
  if (best_ic < 0.0) return 0.0;  // unrelated
  double denom = InformationContent(network, a) +
                 InformationContent(network, b);
  if (denom <= 0.0) return 0.0;
  double sim = 2.0 * best_ic / denom;
  return sim > 1.0 ? 1.0 : sim;
}

double LinMeasure::Similarity(const wordnet::SemanticNetwork& network,
                              wordnet::ConceptId a,
                              wordnet::ConceptId b) const {
  if (a == b) return 1.0;
  // Most informative common subsumer via the SIMD sorted-ancestor
  // intersect over the precomputed tables (see ResnikMeasure::Similarity
  // for why this is bit-identical to the legacy hash-map walk).
  std::span<const wordnet::AncestorEntry> aa = network.Ancestors(a);
  std::span<const wordnet::AncestorEntry> ab = network.Ancestors(b);
  double best_ic = -1.0;
  AncestorMatches lcs = IntersectAncestors(aa, ab, /*need_b_positions=*/false);
  for (size_t k = 0; k < lcs.count; ++k) {
    double ic = network.InformationContentOf(aa[lcs.a[k]].id);
    if (ic > best_ic) best_ic = ic;
  }
  if (best_ic < 0.0) return 0.0;  // unrelated
  double denom = network.InformationContentOf(a) +
                 network.InformationContentOf(b);
  if (denom <= 0.0) return 0.0;
  double sim = 2.0 * best_ic / denom;
  return sim > 1.0 ? 1.0 : sim;
}

}  // namespace xsdf::sim
