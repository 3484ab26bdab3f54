#ifndef XSDF_SIM_WU_PALMER_H_
#define XSDF_SIM_WU_PALMER_H_

#include "sim/measure.h"

namespace xsdf::sim {

/// The edge-based measure of Wu & Palmer (1994), the paper's Sim_Edge:
///
///   sim(c1, c2) = 2 * depth(lcs) / (len(c1, lcs) + len(c2, lcs)
///                                   + 2 * depth(lcs))
///
/// where lcs is the least common subsumer of the two concepts and
/// depth/len count hypernym edges. Unrelated concepts (no shared
/// ancestor, e.g. across parts of speech) score 0; identical concepts
/// score 1.
///
/// The LCS search is a linear merge of the two precomputed id-sorted
/// ancestor arrays plus depth-table reads (network must be finalized)
/// — bit-identical to (and much faster than) the legacy per-pair
/// upward BFS, which remains available as LegacySimilarity() for
/// equivalence tests and kernel benchmarks.
class WuPalmerMeasure : public SimilarityMeasure {
 public:
  double Similarity(const wordnet::SemanticNetwork& network,
                    wordnet::ConceptId a,
                    wordnet::ConceptId b) const override;
  std::string name() const override { return "wu-palmer"; }

  /// The pre-interning implementation (hash-map ancestor walks); the
  /// oracle the id-based kernel is verified against.
  static double LegacySimilarity(const wordnet::SemanticNetwork& network,
                                 wordnet::ConceptId a,
                                 wordnet::ConceptId b);
};

}  // namespace xsdf::sim

#endif  // XSDF_SIM_WU_PALMER_H_
