#include "sim/conceptual_density.h"

#include <algorithm>
#include <unordered_map>

#include "sim/kernels.h"

namespace xsdf::sim {

namespace {

double DensityAt(uint32_t children, uint32_t descendants) {
  // descendants >= 1 always (every concept's closure contains itself).
  double density = (1.0 + static_cast<double>(children)) /
                   static_cast<double>(descendants);
  return density > 1.0 ? 1.0 : density;
}

}  // namespace

double ConceptualDensityMeasure::LegacySimilarity(
    const wordnet::SemanticNetwork& network, wordnet::ConceptId a,
    wordnet::ConceptId b) {
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
    best = std::max(best, DensityAt(dc.second, dc.first));
  }
  return best;
}

std::shared_ptr<const ConceptualDensityMeasure::SubtreeTable>
ConceptualDensityMeasure::TableFor(
    const wordnet::SemanticNetwork& network) const {
  std::lock_guard<std::mutex> lock(table_mu_);
  if (table_ == nullptr || table_->network != &network) {
    auto table = std::make_shared<SubtreeTable>();
    table->network = &network;
    const size_t n = network.size();
    table->descendants.assign(n, 0);
    table->children.assign(n, 0);
    for (size_t j = 0; j < n; ++j) {
      for (const wordnet::AncestorEntry& e :
           network.Ancestors(static_cast<wordnet::ConceptId>(j))) {
        ++table->descendants[static_cast<size_t>(e.id)];
        if (e.distance == 1) ++table->children[static_cast<size_t>(e.id)];
      }
    }
    table_ = std::move(table);
  }
  return table_;
}

double ConceptualDensityMeasure::Similarity(
    const wordnet::SemanticNetwork& network, wordnet::ConceptId a,
    wordnet::ConceptId b) const {
  if (a == b) return 1.0;
  std::shared_ptr<const SubtreeTable> table = TableFor(network);
  std::span<const wordnet::AncestorEntry> aa = network.Ancestors(a);
  std::span<const wordnet::AncestorEntry> ab = network.Ancestors(b);
  AncestorMatches common =
      IntersectAncestors(aa, ab, /*need_b_positions=*/false);
  // Max over the matched set is order-independent, and the intersect
  // finds the same matches at every SIMD level — bit-identical to the
  // legacy per-call walk, which tallies the same closure rows.
  double best = 0.0;
  for (size_t k = 0; k < common.count; ++k) {
    const size_t anc = static_cast<size_t>(aa[common.a[k]].id);
    best = std::max(best,
                    DensityAt(table->children[anc], table->descendants[anc]));
  }
  return best;
}

}  // namespace xsdf::sim
