#ifndef XSDF_SIM_CONCEPTUAL_DENSITY_H_
#define XSDF_SIM_CONCEPTUAL_DENSITY_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "sim/measure.h"

namespace xsdf::sim {

/// Conceptual density (Agirre & Rigau 1996), adapted from their
/// context-window formulation to the pairwise SimilarityMeasure
/// contract so it composes with the paper's hybrid through the same
/// id kernels and seqlock cache.
///
/// For two marks (the concept pair) under a common subsumer c, the
/// original density of the subhierarchy rooted at c with m marks is
///
///   CD(c, m) = (sum_{i=0}^{m-1} nhyp(c)^i) / descendants(c)
///
/// — the size of the idealized nhyp-ary tree expected to contain the
/// marks, over the size of the actual subhierarchy. With m = 2 the
/// numerator is 1 + nhyp(c). The pair score is the maximum density
/// over the common subsumers, clamped to [0, 1]:
///
///   Sim(a, b) = max over c in anc(a) ∩ anc(b) of
///               min(1, (1 + nhyp(c)) / descendants(c))
///
/// where nhyp(c) counts concepts at shortest hypernym distance exactly
/// 1 from c (direct hyponyms) and descendants(c) counts concepts whose
/// hypernym closure contains c (including c itself, so >= 1). A dense,
/// specific subsumer — few descendants relative to its branching —
/// scores high; a subsumer near the root scores near 0; unrelated
/// concepts score 0 and Sim(c, c) = 1.
///
/// Both counts come from one O(sum of CSR row lengths) pass over the
/// finalized network's ancestor table, memoized per network behind
/// a mutex-guarded shared_ptr (instances are safely shared across
/// threads), and the common-subsumer set comes from the SIMD sorted
/// intersect — max over the matched set is order-independent, so
/// scores are bit-identical at every dispatch level. LegacySimilarity
/// recomputes both counts per call from AncestorDistances() walks (the
/// same BFS FinalizeFrequencies() builds the CSR rows from) and is the
/// oracle the table path is verified against.
class ConceptualDensityMeasure : public SimilarityMeasure {
 public:
  double Similarity(const wordnet::SemanticNetwork& network,
                    wordnet::ConceptId a,
                    wordnet::ConceptId b) const override;
  std::string name() const override { return "conceptual-density"; }

  /// Table-free reference implementation (per-call whole-network
  /// AncestorDistances walks): the bit-identity oracle in tests and
  /// benchmarks.
  static double LegacySimilarity(const wordnet::SemanticNetwork& network,
                                 wordnet::ConceptId a,
                                 wordnet::ConceptId b);

 private:
  /// Per-network derived counts, built lazily on first use.
  struct SubtreeTable {
    const wordnet::SemanticNetwork* network = nullptr;
    std::vector<uint32_t> descendants;  ///< |{j : c in anc(j)}|, >= 1
    std::vector<uint32_t> children;     ///< |{j : dist(j, c) == 1}|
  };

  std::shared_ptr<const SubtreeTable> TableFor(
      const wordnet::SemanticNetwork& network) const;

  mutable std::mutex table_mu_;
  mutable std::shared_ptr<const SubtreeTable> table_;
};

}  // namespace xsdf::sim

#endif  // XSDF_SIM_CONCEPTUAL_DENSITY_H_
