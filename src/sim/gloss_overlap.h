#ifndef XSDF_SIM_GLOSS_OVERLAP_H_
#define XSDF_SIM_GLOSS_OVERLAP_H_

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "sim/measure.h"

namespace xsdf::sim {

/// A normalized extension of Banerjee & Pedersen's (2003) extended
/// gloss overlap, the paper's Sim_Gloss.
///
/// Each concept is expanded to an *extended gloss*: its own gloss plus
/// the glosses of directly related concepts (hypernyms, hyponyms,
/// meronyms, holonyms), tokenized, stop-word filtered, and stemmed.
/// The raw Lesk-style score sums |phrase|^2 over the maximal shared
/// word sequences of the two extended glosses (longer shared phrases
/// are quadratically more informative). The score is normalized by
/// min(|g1|, |g2|)^2 — the largest value the phrase-overlap sum can
/// take — giving a measure in [0, 1].
///
/// The per-pair work never touches a string: the extended glosses are
/// the finalized network's precomputed interned token-id sequences
/// (SemanticNetwork::GlossTokens()), a sorted-bag intersection pass
/// proves zero overlap cheaply, and the phrase DP runs over uint32 ids
/// in reused thread-local scratch. Token ids are injective over
/// spellings, so id equality is string equality and the score is
/// bit-identical to the legacy string path (LegacySimilarity()).
class GlossOverlapMeasure : public SimilarityMeasure {
 public:
  double Similarity(const wordnet::SemanticNetwork& network,
                    wordnet::ConceptId a,
                    wordnet::ConceptId b) const override;
  std::string name() const override { return "gloss-overlap"; }

  /// The pre-interning implementation (re-tokenizes both extended
  /// glosses per call); oracle for the id-based kernel.
  static double LegacySimilarity(const wordnet::SemanticNetwork& network,
                                 wordnet::ConceptId a,
                                 wordnet::ConceptId b);

  /// Token sequence of the extended gloss of `id` (exposed for tests).
  static std::vector<std::string> ExtendedGloss(
      const wordnet::SemanticNetwork& network, wordnet::ConceptId id);

  /// The raw phrase-overlap score between two token sequences: repeated
  /// extraction of the longest common (contiguous) phrase, adding
  /// length^2 each time, until no common token remains.
  static double PhraseOverlapScore(std::vector<std::string> a,
                                   std::vector<std::string> b);

  /// Same extraction over interned token ids, using flat thread-local
  /// scratch for the DP table and the shrinking sequences.
  static double PhraseOverlapScoreIds(std::span<const uint32_t> a,
                                      std::span<const uint32_t> b);
};

}  // namespace xsdf::sim

#endif  // XSDF_SIM_GLOSS_OVERLAP_H_
