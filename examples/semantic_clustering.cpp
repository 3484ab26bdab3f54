// Semantic document clustering (a motivating application from the
// paper's §1): cluster heterogeneous XML documents by the *concepts*
// XSDF assigns rather than by their tag strings. Documents from the
// movie, bibliography, food, and plant families are clustered with
// simple agglomerative clustering over concept-set similarity.
//
//   build/examples/semantic_clustering

#include <cstdio>
#include <set>
#include <string>
#include <vector>

#include "core/disambiguator.h"
#include "datasets/generator.h"
#include "sim/combined.h"
#include "wordnet/mini_wordnet.h"

namespace {

struct DocumentProfile {
  std::string name;
  std::set<xsdf::wordnet::ConceptId> concepts;
};

/// Average best-match similarity between two concept sets (a
/// soft Jaccard driven by the combined semantic measure).
double ProfileSimilarity(const xsdf::wordnet::SemanticNetwork& network,
                         const xsdf::sim::CombinedMeasure& measure,
                         const DocumentProfile& a,
                         const DocumentProfile& b) {
  if (a.concepts.empty() || b.concepts.empty()) return 0.0;
  double total = 0.0;
  for (xsdf::wordnet::ConceptId ca : a.concepts) {
    double best = 0.0;
    for (xsdf::wordnet::ConceptId cb : b.concepts) {
      best = std::max(best, measure.Similarity(network, ca, cb));
    }
    total += best;
  }
  return total / static_cast<double>(a.concepts.size());
}

}  // namespace

int main() {
  auto network = xsdf::wordnet::BuildMiniWordNet();
  if (!network.ok()) return 1;
  xsdf::core::Disambiguator disambiguator(&*network);
  xsdf::sim::CombinedMeasure measure(
      xsdf::sim::MeasureConfig::PaperHybrid());

  // Two documents from each of four families, generated fresh.
  std::vector<DocumentProfile> profiles;
  for (size_t family : {3, 4, 6, 7}) {  // imdb, bib, food, plant
    auto docs = xsdf::datasets::AllDatasets()[family]->Generate(2026);
    for (size_t i = 0; i < 2 && i < docs.size(); ++i) {
      auto result = disambiguator.RunOnXml(docs[i].xml);
      if (!result.ok()) continue;
      DocumentProfile profile;
      profile.name = docs[i].name;
      for (const auto& [id, assignment] : result->assignments) {
        profile.concepts.insert(assignment.sense.primary);
      }
      profiles.push_back(std::move(profile));
    }
  }

  std::printf("Pairwise semantic similarity of %zu documents:\n\n%-18s",
              profiles.size(), "");
  for (const auto& p : profiles) std::printf("%8.7s", p.name.c_str());
  std::printf("\n");
  std::vector<std::vector<double>> sim(
      profiles.size(), std::vector<double>(profiles.size(), 0.0));
  for (size_t i = 0; i < profiles.size(); ++i) {
    std::printf("%-18s", profiles[i].name.c_str());
    for (size_t j = 0; j < profiles.size(); ++j) {
      sim[i][j] = (ProfileSimilarity(*network, measure, profiles[i],
                                     profiles[j]) +
                   ProfileSimilarity(*network, measure, profiles[j],
                                     profiles[i])) /
                  2.0;
      std::printf("%8.3f", sim[i][j]);
    }
    std::printf("\n");
  }

  // Single-linkage clustering at a fixed threshold.
  const double kThreshold = 0.55;
  std::vector<int> cluster(profiles.size());
  for (size_t i = 0; i < profiles.size(); ++i) {
    cluster[i] = static_cast<int>(i);
  }
  bool merged = true;
  while (merged) {
    merged = false;
    for (size_t i = 0; i < profiles.size(); ++i) {
      for (size_t j = i + 1; j < profiles.size(); ++j) {
        if (sim[i][j] >= kThreshold && cluster[i] != cluster[j]) {
          int from = cluster[j];
          for (auto& c : cluster) {
            if (c == from) c = cluster[i];
          }
          merged = true;
        }
      }
    }
  }

  std::printf("\nClusters at threshold %.2f:\n", kThreshold);
  std::set<int> seen;
  for (size_t i = 0; i < profiles.size(); ++i) {
    if (!seen.insert(cluster[i]).second) continue;
    std::printf("  cluster %d:", cluster[i]);
    for (size_t j = 0; j < profiles.size(); ++j) {
      if (cluster[j] == cluster[i]) {
        std::printf(" %s", profiles[j].name.c_str());
      }
    }
    std::printf("\n");
  }
  std::printf("\nDocuments cluster by domain (movies with movies, menus "
              "with menus) even though\ntheir tags differ — the "
              "clustering runs on disambiguated concepts.\n");
  return 0;
}
