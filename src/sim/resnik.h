#ifndef XSDF_SIM_RESNIK_H_
#define XSDF_SIM_RESNIK_H_

#include "sim/measure.h"

namespace xsdf::sim {

/// The information-content measure of Resnik (1995), normalized:
///
///   sim(c1, c2) = IC(mics) / IC_max
///
/// where mics is the most informative common subsumer, IC(c) =
/// -log p(c) over the weighted network's cumulative frequencies, and
/// IC_max = -log(1/N) (the IC of a singleton leaf) bounds the measure
/// into [0, 1]. Registered as "resnik" in the measure registry — an
/// additional node-based alternative to Lin, demonstrating the
/// registry's extensibility (paper footnote 8: "any other semantic
/// similarity measure can be used, or combined").
/// The subsumer search merges the precomputed ancestor arrays of the
/// finalized network and reads the IC table — bit-identical to the
/// legacy hash-map walk kept as LegacySimilarity().
class ResnikMeasure : public SimilarityMeasure {
 public:
  double Similarity(const wordnet::SemanticNetwork& network,
                    wordnet::ConceptId a,
                    wordnet::ConceptId b) const override;
  std::string name() const override { return "resnik"; }

  /// The pre-interning implementation; oracle for the id-based kernel.
  static double LegacySimilarity(const wordnet::SemanticNetwork& network,
                                 wordnet::ConceptId a,
                                 wordnet::ConceptId b);
};

}  // namespace xsdf::sim

#endif  // XSDF_SIM_RESNIK_H_
