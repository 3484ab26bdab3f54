#ifndef XSDF_CORE_SCORES_H_
#define XSDF_CORE_SCORES_H_

#include <cstdint>
#include <span>
#include <vector>

#include "core/context_vector.h"
#include "core/label_space.h"
#include "sim/combined.h"
#include "wordnet/semantic_network.h"

namespace xsdf::core {

/// A candidate meaning for a target node label: a single sense for
/// simple labels, or a pair of senses (one per token) for compound
/// labels whose collocation is not in the network (Eqs. 10/12).
struct SenseCandidate {
  wordnet::ConceptId primary = wordnet::kInvalidConcept;
  wordnet::ConceptId secondary = wordnet::kInvalidConcept;

  bool is_compound() const {
    return secondary != wordnet::kInvalidConcept;
  }
  friend bool operator==(const SenseCandidate& a, const SenseCandidate& b) {
    return a.primary == b.primary && a.secondary == b.secondary;
  }
};

/// Enumerates the sense candidates of a (preprocessed) node label:
/// the label's senses when the network knows it (or its single token);
/// otherwise all combinations of its two sense-bearing compound tokens.
/// Empty when no token has any sense.
std::vector<SenseCandidate> EnumerateCandidates(
    const wordnet::SemanticNetwork& network, const std::string& label);

/// The immutable, shareable sense inventory of one label. Produced
/// once, then passed around as shared_ptr<const SenseEntry>: a cache
/// hit hands out another reference instead of copying the candidate
/// vector, and an entry held by an in-flight worker stays alive after
/// the cache evicts it.
struct SenseEntry {
  std::vector<SenseCandidate> candidates;
};

/// EnumerateCandidates() keyed by interned label id, served from the
/// space's memoized sense resolution (no string splitting or lemma
/// hashing after a label's first sight). Candidate order is identical
/// to EnumerateCandidates() on the spelling of `label_id`.
std::vector<SenseCandidate> EnumerateCandidatesById(LabelSpace& space,
                                                    uint32_t label_id);

/// A sphere context resolved against the sense inventory once, so that
/// scoring N candidates resolves each sphere label a single time
/// instead of N times per sphere member. Sphere labels resolve through
/// the LabelSpace's memoized per-id sense table, distinct labels
/// collapse to one entry, and each candidate's per-label similarity is
/// computed once and reused for every member carrying that label
/// (recomputation is deterministic, so reuse is bit-identical).
///
/// Holds pointers into `space`'s memo — build, score, and discard while
/// the space and its network are alive.
class IdResolvedContext {
 public:
  IdResolvedContext(LabelSpace& space, const IdSphere& sphere,
                    const IdContextVector& vector);

  /// Concept_Score(candidate, S_d(x), SN-bar) of Definition 8 (and its
  /// compound extension Eq. 10): the average over context nodes of the
  /// maximum candidate-to-context-sense similarity, scaled by each
  /// context node's context-vector weight. The center node itself is
  /// not scored against (its own label's best sense is the candidate
  /// itself, a constant across candidates).
  double Score(const wordnet::SemanticNetwork& network,
               const sim::CombinedMeasure& measure,
               const SenseCandidate& candidate) const;

 private:
  struct Member {
    uint32_t label_index = 0;  ///< into labels_
    double weight = 0.0;       ///< vector.WeightById(label_id)
  };

  /// One distinct sphere label id, in first-occurrence order; points at
  /// the space's stable memoized resolution.
  std::vector<const LabelSenses*> labels_;
  std::vector<Member> members_;
  int sphere_size_ = 0;
};

/// How two context vectors are compared in Context_Score: cosine (the
/// paper's default) or weighted Jaccard (footnote 10's alternative).
enum class VectorSimilarity { kCosine, kJaccard };

/// Context_Score(s_p, S_d(x), SN) of Definition 10 (and Eq. 12): the
/// vector similarity between the XML context vector and the concept
/// sphere context vector of the candidate (union sphere for compound
/// candidates).
double IdContextScore(const wordnet::SemanticNetwork& network,
                      const SenseCandidate& candidate,
                      const IdContextVector& xml_vector, int radius,
                      VectorSimilarity vector_similarity =
                          VectorSimilarity::kCosine);

/// The combined score of Eq. 13:
///   w_concept * Concept_Score + w_context * Context_Score,
/// with w_concept + w_context = 1.
struct CombinationWeights {
  double concept_weight = 1.0;  ///< w_Concept
  double context_weight = 0.0;  ///< w_Context
};

}  // namespace xsdf::core

#endif  // XSDF_CORE_SCORES_H_
