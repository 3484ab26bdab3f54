// Test oracles for the id-based similarity kernels: the pre-interning
// implementations of the five registered measures, which re-walk the
// hypernym graph through SemanticNetwork::AncestorDistances() and
// re-tokenize extended glosses on every call. The production kernels
// (src/sim) read the finalized network's dense tables instead, and
// must reproduce these scores bit for bit — sim_kernels_test,
// measure_conformance_test, the fuzz harnesses and bench_sim_kernels'
// --smoke gate hold them to it.

#ifndef XSDF_TESTS_SIM_ORACLES_H_
#define XSDF_TESTS_SIM_ORACLES_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "text/porter_stemmer.h"
#include "text/stopwords.h"
#include "text/tokenizer.h"
#include "wordnet/semantic_network.h"

namespace xsdf::testing::legacy {

/// Least common subsumer of `a` and `b` minimizing the summed path
/// length (ties broken toward greater depth). kInvalidConcept when
/// the two concepts share no ancestor.
inline wordnet::ConceptId LeastCommonSubsumer(
    const wordnet::SemanticNetwork& network, wordnet::ConceptId a,
    wordnet::ConceptId b) {
  std::unordered_map<wordnet::ConceptId, int> da =
      network.AncestorDistances(a);
  std::unordered_map<wordnet::ConceptId, int> db =
      network.AncestorDistances(b);
  wordnet::ConceptId best = wordnet::kInvalidConcept;
  int best_sum = std::numeric_limits<int>::max();
  int best_depth = -1;
  for (const auto& [ancestor, dist_a] : da) {
    auto it = db.find(ancestor);
    if (it == db.end()) continue;
    int sum = dist_a + it->second;
    int depth = network.Depth(ancestor);
    if (sum < best_sum || (sum == best_sum && depth > best_depth)) {
      best_sum = sum;
      best_depth = depth;
      best = ancestor;
    }
  }
  return best;
}

/// IC(c) = -log p(c), clamped to 0 for concepts whose cumulative
/// probability is 1 (taxonomy roots).
inline double InformationContent(const wordnet::SemanticNetwork& network,
                                 wordnet::ConceptId id) {
  double p = network.CumulativeFrequency(id) / network.TotalFrequency();
  if (p <= 0.0) return 0.0;
  if (p >= 1.0) return 0.0;
  return -std::log(p);
}

/// Wu & Palmer through an upward-BFS least common subsumer.
inline double WuPalmer(const wordnet::SemanticNetwork& network,
                       wordnet::ConceptId a, wordnet::ConceptId b) {
  if (a == b) return 1.0;
  wordnet::ConceptId lcs = LeastCommonSubsumer(network, a, b);
  if (lcs == wordnet::kInvalidConcept) return 0.0;
  auto da = network.AncestorDistances(a);
  auto db = network.AncestorDistances(b);
  int len_a = da.at(lcs);
  int len_b = db.at(lcs);
  int depth_lcs = network.Depth(lcs);
  double denominator = static_cast<double>(len_a + len_b + 2 * depth_lcs);
  if (denominator <= 0.0) return 0.0;  // both are roots and disjoint
  return (2.0 * depth_lcs) / denominator;
}

/// Normalized Resnik with the information content recomputed per pair.
inline double Resnik(const wordnet::SemanticNetwork& network,
                     wordnet::ConceptId a, wordnet::ConceptId b) {
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

/// Lin over the most informative common subsumer.
inline double Lin(const wordnet::SemanticNetwork& network,
                  wordnet::ConceptId a, wordnet::ConceptId b) {
  if (a == b) return 1.0;
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
  double denom =
      InformationContent(network, a) + InformationContent(network, b);
  if (denom <= 0.0) return 0.0;
  double sim = 2.0 * best_ic / denom;
  return sim > 1.0 ? 1.0 : sim;
}

/// Token sequence of the extended gloss of `id`: its own gloss plus
/// the glosses of its taxonomic and meronymic neighbours, tokenized,
/// stop-word filtered and stemmed.
inline std::vector<std::string> ExtendedGloss(
    const wordnet::SemanticNetwork& network, wordnet::ConceptId id) {
  std::string combined = network.GetConcept(id).gloss;
  for (const wordnet::Edge& edge : network.GetConcept(id).edges) {
    switch (edge.relation) {
      case wordnet::Relation::kHypernym:
      case wordnet::Relation::kInstanceHypernym:
      case wordnet::Relation::kHyponym:
      case wordnet::Relation::kInstanceHyponym:
      case wordnet::Relation::kMemberMeronym:
      case wordnet::Relation::kPartMeronym:
      case wordnet::Relation::kSubstanceMeronym:
      case wordnet::Relation::kMemberHolonym:
      case wordnet::Relation::kPartHolonym:
      case wordnet::Relation::kSubstanceHolonym:
        combined += ' ';
        combined += network.GetConcept(edge.target).gloss;
        break;
      default:
        break;
    }
  }
  std::vector<std::string> tokens = text::Tokenize(combined);
  tokens = text::RemoveStopWords(tokens);
  for (std::string& token : tokens) token = text::PorterStem(token);
  return tokens;
}

/// The raw phrase-overlap score between two token sequences: repeated
/// extraction of the longest common (contiguous) phrase, adding
/// length^2 each time, until no common token remains.
inline double PhraseOverlapScore(std::vector<std::string> a,
                                 std::vector<std::string> b) {
  double score = 0.0;
  while (!a.empty() && !b.empty()) {
    size_t best_len = 0;
    size_t best_a = 0;
    size_t best_b = 0;
    std::vector<std::vector<size_t>> dp(a.size() + 1,
                                        std::vector<size_t>(b.size() + 1, 0));
    for (size_t i = 1; i <= a.size(); ++i) {
      for (size_t j = 1; j <= b.size(); ++j) {
        if (a[i - 1] == b[j - 1]) {
          dp[i][j] = dp[i - 1][j - 1] + 1;
          if (dp[i][j] > best_len) {
            best_len = dp[i][j];
            best_a = i - best_len;
            best_b = j - best_len;
          }
        }
      }
    }
    if (best_len == 0) break;
    score += static_cast<double>(best_len) * static_cast<double>(best_len);
    a.erase(a.begin() + static_cast<long>(best_a),
            a.begin() + static_cast<long>(best_a + best_len));
    b.erase(b.begin() + static_cast<long>(best_b),
            b.begin() + static_cast<long>(best_b + best_len));
  }
  return score;
}

/// Extended gloss overlap, re-tokenizing both glosses per call.
inline double GlossOverlap(const wordnet::SemanticNetwork& network,
                           wordnet::ConceptId a, wordnet::ConceptId b) {
  if (a == b) return 1.0;
  std::vector<std::string> gloss_a = ExtendedGloss(network, a);
  std::vector<std::string> gloss_b = ExtendedGloss(network, b);
  size_t min_len = std::min(gloss_a.size(), gloss_b.size());
  if (min_len == 0) return 0.0;
  double raw = PhraseOverlapScore(std::move(gloss_a), std::move(gloss_b));
  double norm = static_cast<double>(min_len) * static_cast<double>(min_len);
  double sim = raw / norm;
  return sim > 1.0 ? 1.0 : sim;
}

/// Conceptual density with both subtree counts recomputed per call from
/// whole-network AncestorDistances() walks.
inline double ConceptualDensity(const wordnet::SemanticNetwork& network,
                                wordnet::ConceptId a, wordnet::ConceptId b) {
  if (a == b) return 1.0;
  std::unordered_map<wordnet::ConceptId, int> da =
      network.AncestorDistances(a);
  std::unordered_map<wordnet::ConceptId, int> db =
      network.AncestorDistances(b);
  // Counts for the common subsumers only, from per-concept closure
  // walks — the exact quantities the finalized table accumulates.
  std::unordered_map<wordnet::ConceptId, std::pair<uint32_t, uint32_t>>
      counts;  // subsumer -> (descendants, children)
  for (const auto& [anc, dist] : da) {
    if (db.count(anc) != 0) counts.emplace(anc, std::make_pair(0u, 0u));
  }
  if (counts.empty()) return 0.0;
  const int n = static_cast<int>(network.size());
  for (wordnet::ConceptId j = 0; j < n; ++j) {
    for (const auto& [anc, dist] : network.AncestorDistances(j)) {
      auto it = counts.find(anc);
      if (it == counts.end()) continue;
      ++it->second.first;
      if (dist == 1) ++it->second.second;
    }
  }
  double best = 0.0;
  for (const auto& [anc, dc] : counts) {
    // descendants >= 1 always (every concept's closure contains itself).
    double density = (1.0 + static_cast<double>(dc.second)) /
                     static_cast<double>(dc.first);
    best = std::max(best, density > 1.0 ? 1.0 : density);
  }
  return best;
}

}  // namespace xsdf::testing::legacy

#endif  // XSDF_TESTS_SIM_ORACLES_H_
