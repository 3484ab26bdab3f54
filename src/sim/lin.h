#ifndef XSDF_SIM_LIN_H_
#define XSDF_SIM_LIN_H_

#include "sim/measure.h"

namespace xsdf::sim {

/// The node-based (information content) measure of Lin (1998), the
/// paper's Sim_Node:
///
///   sim(c1, c2) = 2 * IC(lcs) / (IC(c1) + IC(c2))
///
/// where IC(c) = -log(p(c)) and p(c) is the cumulative corpus frequency
/// of c (counting all hyponym descendants) over the taxonomy total —
/// the statistics the weighted network SN-bar carries (paper Figure 2).
/// The lcs chosen maximizes IC among common ancestors (Resnik's "most
/// informative subsumer"). Requires FinalizeFrequencies().
/// The subsumer search merges the precomputed ancestor arrays and
/// reads the IC table — bit-identical to the legacy hash-map walk kept
/// as LegacySimilarity().
class LinMeasure : public SimilarityMeasure {
 public:
  double Similarity(const wordnet::SemanticNetwork& network,
                    wordnet::ConceptId a,
                    wordnet::ConceptId b) const override;
  std::string name() const override { return "lin"; }

  /// The pre-interning implementation; oracle for the id-based kernel.
  static double LegacySimilarity(const wordnet::SemanticNetwork& network,
                                 wordnet::ConceptId a,
                                 wordnet::ConceptId b);
};

}  // namespace xsdf::sim

#endif  // XSDF_SIM_LIN_H_
