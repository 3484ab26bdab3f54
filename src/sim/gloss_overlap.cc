#include "sim/gloss_overlap.h"

#include <algorithm>

#include "common/simd.h"
#include "text/porter_stemmer.h"
#include "text/stopwords.h"
#include "text/tokenizer.h"

namespace xsdf::sim {

std::vector<std::string> GlossOverlapMeasure::ExtendedGloss(
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

double GlossOverlapMeasure::PhraseOverlapScore(std::vector<std::string> a,
                                               std::vector<std::string> b) {
  // Repeatedly extract the longest common contiguous phrase.
  // Quadratic-time LCS-substring via dynamic programming per round; the
  // extended glosses are short (tens of tokens), so this stays cheap.
  double score = 0.0;
  while (!a.empty() && !b.empty()) {
    size_t best_len = 0;
    size_t best_a = 0;
    size_t best_b = 0;
    std::vector<std::vector<size_t>> dp(
        a.size() + 1, std::vector<size_t>(b.size() + 1, 0));
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

double GlossOverlapMeasure::PhraseOverlapScoreIds(
    std::span<const uint32_t> a, std::span<const uint32_t> b) {
  // Same round structure and row-major tie-breaking as the string
  // version, so the extracted phrases (and hence the score) are
  // identical — only the token representation and the storage differ:
  // flat per-thread buffers replace per-round vector<vector> tables.
  thread_local std::vector<uint32_t> va;
  thread_local std::vector<uint32_t> vb;
  thread_local std::vector<uint32_t> dp;
  va.assign(a.begin(), a.end());
  vb.assign(b.begin(), b.end());
  double score = 0.0;
  while (!va.empty() && !vb.empty()) {
    const size_t cols = vb.size() + 1;
    dp.assign((va.size() + 1) * cols, 0);
    size_t best_len = 0;
    size_t best_a = 0;
    size_t best_b = 0;
    for (size_t i = 1; i <= va.size(); ++i) {
      for (size_t j = 1; j <= vb.size(); ++j) {
        if (va[i - 1] == vb[j - 1]) {
          uint32_t run = dp[(i - 1) * cols + (j - 1)] + 1;
          dp[i * cols + j] = run;
          if (run > best_len) {
            best_len = run;
            best_a = i - best_len;
            best_b = j - best_len;
          }
        }
      }
    }
    if (best_len == 0) break;
    score += static_cast<double>(best_len) * static_cast<double>(best_len);
    va.erase(va.begin() + static_cast<long>(best_a),
             va.begin() + static_cast<long>(best_a + best_len));
    vb.erase(vb.begin() + static_cast<long>(best_b),
             vb.begin() + static_cast<long>(best_b + best_len));
  }
  return score;
}

double GlossOverlapMeasure::LegacySimilarity(
    const wordnet::SemanticNetwork& network, wordnet::ConceptId a,
    wordnet::ConceptId b) {
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

namespace {

/// True when the two sorted id sets share at least one element — the
/// SIMD early-exit intersect probe (identical verdict at every
/// dispatch level; pure integer work, so no score can change).
bool SortedBagsIntersect(std::span<const uint32_t> a,
                         std::span<const uint32_t> b) {
  return simd::SortedIntersectNonEmptyU32(a.data(), a.size(), b.data(),
                                          b.size());
}

}  // namespace

double GlossOverlapMeasure::Similarity(
    const wordnet::SemanticNetwork& network, wordnet::ConceptId a,
    wordnet::ConceptId b) const {
  if (a == b) return 1.0;
  std::span<const uint32_t> gloss_a = network.GlossTokens(a);
  std::span<const uint32_t> gloss_b = network.GlossTokens(b);
  size_t min_len = std::min(gloss_a.size(), gloss_b.size());
  if (min_len == 0) return 0.0;
  // Disjoint bags ⇒ the phrase DP would find nothing; 0/norm == 0.0
  // exactly, so the early exit cannot change a score.
  if (!SortedBagsIntersect(network.GlossTokenBag(a),
                           network.GlossTokenBag(b))) {
    return 0.0;
  }
  double raw = PhraseOverlapScoreIds(gloss_a, gloss_b);
  double norm = static_cast<double>(min_len) * static_cast<double>(min_len);
  double sim = raw / norm;
  return sim > 1.0 ? 1.0 : sim;
}

}  // namespace xsdf::sim
