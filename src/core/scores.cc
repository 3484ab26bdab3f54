#include "core/scores.h"

#include <algorithm>

#include "common/simd.h"
#include "core/tree_builder.h"

namespace xsdf::core {

IdResolvedContext::IdResolvedContext(LabelSpace& space,
                                     const IdSphere& sphere,
                                     const IdContextVector& vector)
    : sphere_size_(sphere.size()) {
  // First-occurrence label grouping via SIMD scan over the small flat
  // set of distinct ids seen so far (spheres rarely hold more than a
  // few dozen distinct labels; see IdContextVector for the same
  // tradeoff).
  const size_t member_count = sphere.label_ids.size();
  std::vector<uint32_t> seen_ids;
  seen_ids.reserve(member_count);
  members_.reserve(member_count);
  bool center_skipped = false;
  for (size_t m = 0; m < member_count; ++m) {
    const uint32_t label_id = sphere.label_ids[m];
    if (!center_skipped && sphere.distances[m] == 0) {
      center_skipped = true;  // skip exactly the center occurrence
      continue;
    }
    const uint32_t entry = static_cast<uint32_t>(
        simd::FindU32(seen_ids.data(), seen_ids.size(), label_id));
    if (entry == seen_ids.size()) {
      seen_ids.push_back(label_id);
      labels_.push_back(&space.Senses(label_id));
    }
    members_.push_back({entry, vector.WeightById(label_id)});
  }
}

double IdResolvedContext::Score(const wordnet::SemanticNetwork& network,
                                const sim::CombinedMeasure& measure,
                                const SenseCandidate& candidate) const {
  if (sphere_size_ == 0) return 0.0;
  // Similarity between the candidate and each distinct context label.
  // For simple context labels a compound candidate is compared exactly
  // per Eq. 10: max over context senses of the average of the two
  // token-sense similarities. For compound context labels each context
  // token is matched independently and the results averaged.
  thread_local std::vector<double> label_sims;
  label_sims.assign(labels_.size(), 0.0);
  // Per sense list the candidate-to-context similarities are fetched
  // through one SimilarityMany() batch (one pipelined cache probe for
  // the whole list) instead of per-sense calls. Values are identical —
  // similarity is a pure function and the miss compute order is
  // unchanged — and the max-reduction below runs in the original sense
  // order, so scores stay bit-identical to the per-call loop.
  thread_local std::vector<double> sims_primary;
  thread_local std::vector<double> sims_secondary;
  for (size_t li = 0; li < labels_.size(); ++li) {
    double total = 0.0;
    int counted = 0;
    for (std::span<const wordnet::ConceptId> senses :
         labels_[li]->token_senses) {
      if (sims_primary.size() < senses.size()) {
        sims_primary.resize(senses.size());
      }
      measure.SimilarityMany(network, candidate.primary, senses,
                             sims_primary.data());
      if (candidate.is_compound()) {
        if (sims_secondary.size() < senses.size()) {
          sims_secondary.resize(senses.size());
        }
        measure.SimilarityMany(network, candidate.secondary, senses,
                               sims_secondary.data());
      }
      double best = 0.0;
      for (size_t si = 0; si < senses.size(); ++si) {
        double sim = sims_primary[si];
        if (candidate.is_compound()) {
          sim = (sim + sims_secondary[si]) / 2.0;
        }
        best = std::max(best, sim);
      }
      total += best;
      ++counted;
    }
    label_sims[li] =
        counted == 0 ? 0.0 : total / static_cast<double>(counted);
  }
  double sum = 0.0;
  for (const Member& member : members_) {
    double sim = label_sims[member.label_index];
    if (sim <= 0.0) continue;
    sum += sim * member.weight;
  }
  return sum / static_cast<double>(sphere_size_);
}

std::vector<SenseCandidate> EnumerateCandidates(
    const wordnet::SemanticNetwork& network, const std::string& label) {
  std::vector<SenseCandidate> candidates;
  std::vector<std::string> tokens = LabelSenseTokens(network, label);
  // Keep only sense-bearing tokens.
  std::vector<const std::vector<wordnet::ConceptId>*> sense_lists;
  for (const std::string& token : tokens) {
    const std::vector<wordnet::ConceptId>& senses = network.Senses(token);
    if (!senses.empty()) sense_lists.push_back(&senses);
  }
  if (sense_lists.empty()) return candidates;
  if (sense_lists.size() == 1) {
    for (wordnet::ConceptId sense : *sense_lists[0]) {
      candidates.push_back({sense, wordnet::kInvalidConcept});
    }
    return candidates;
  }
  // Compound: combinations over the first two sense-bearing tokens
  // (tags with more than two terms are unlikely in practice — paper
  // §3.2 footnote).
  for (wordnet::ConceptId p : *sense_lists[0]) {
    for (wordnet::ConceptId q : *sense_lists[1]) {
      candidates.push_back({p, q});
    }
  }
  return candidates;
}

std::vector<SenseCandidate> EnumerateCandidatesById(LabelSpace& space,
                                                    uint32_t label_id) {
  const LabelSenses& senses = space.Senses(label_id);
  std::vector<SenseCandidate> candidates;
  if (senses.token_senses.empty()) return candidates;
  if (senses.token_senses.size() == 1) {
    for (wordnet::ConceptId sense : senses.token_senses[0]) {
      candidates.push_back({sense, wordnet::kInvalidConcept});
    }
    return candidates;
  }
  // Compound: combinations over the first two sense-bearing tokens,
  // exactly as EnumerateCandidates().
  for (wordnet::ConceptId p : senses.token_senses[0]) {
    for (wordnet::ConceptId q : senses.token_senses[1]) {
      candidates.push_back({p, q});
    }
  }
  return candidates;
}

double IdContextScore(const wordnet::SemanticNetwork& network,
                      const SenseCandidate& candidate,
                      const IdContextVector& xml_vector, int radius,
                      VectorSimilarity vector_similarity) {
  IdSphere concept_sphere =
      candidate.is_compound()
          ? BuildCompoundConceptIdSphere(network, candidate.primary,
                                         candidate.secondary, radius)
          : BuildConceptIdSphere(network, candidate.primary, radius);
  IdContextVector concept_vector(concept_sphere);
  return vector_similarity == VectorSimilarity::kJaccard
             ? xml_vector.Jaccard(concept_vector)
             : xml_vector.Cosine(concept_vector);
}

}  // namespace xsdf::core
