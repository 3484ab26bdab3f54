// Corpus-wide property tests: invariants that must hold for every
// document of the generated evaluation corpus, every assignment the
// disambiguator makes, and every context vector it builds. These are
// the repository's broadest safety net — they exercise the full
// pipeline on all 60 documents rather than hand-picked fixtures.

#include <gtest/gtest.h>

#include <algorithm>

#include "core/context_vector.h"
#include "core/disambiguator.h"
#include "core/label_space.h"
#include "core/tree_builder.h"
#include "eval/experiment.h"
#include "wordnet/mini_wordnet.h"
#include "xml/parser.h"
#include "xml/serializer.h"

namespace xsdf {
namespace {

class CorpusInvariantsTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    auto network = wordnet::BuildMiniWordNet();
    ASSERT_TRUE(network.ok());
    network_ = new wordnet::SemanticNetwork(std::move(network).value());
    auto corpus = eval::BuildCorpus(*network_);
    ASSERT_TRUE(corpus.ok());
    corpus_ = new std::vector<eval::CorpusDocument>(
        std::move(corpus).value());
  }
  static const wordnet::SemanticNetwork& network() { return *network_; }
  static const std::vector<eval::CorpusDocument>& corpus() {
    return *corpus_;
  }

 private:
  static const wordnet::SemanticNetwork* network_;
  static const std::vector<eval::CorpusDocument>* corpus_;
};

const wordnet::SemanticNetwork* CorpusInvariantsTest::network_ = nullptr;
const std::vector<eval::CorpusDocument>* CorpusInvariantsTest::corpus_ =
    nullptr;

TEST_F(CorpusInvariantsTest, AssignedConceptsAreSensesOfTheirLabels) {
  // The most important correctness invariant: whatever sense the
  // system picks for a node, that concept must actually be a sense of
  // (a token of) the node's label in the network.
  core::Disambiguator system(&network());
  for (const auto& doc : corpus()) {
    auto result = system.RunOnTree(doc.tree);
    ASSERT_TRUE(result.ok());
    for (const auto& [id, assignment] : result->assignments) {
      const std::string& label = result->tree.node(id).label;
      std::vector<wordnet::ConceptId> legal;
      for (const std::string& token :
           core::LabelSenseTokens(network(), label)) {
        const auto& senses = network().Senses(token);
        legal.insert(legal.end(), senses.begin(), senses.end());
      }
      EXPECT_NE(std::find(legal.begin(), legal.end(),
                          assignment.sense.primary),
                legal.end())
          << doc.generated.name << " node " << id << " label " << label;
      if (assignment.sense.is_compound()) {
        EXPECT_NE(std::find(legal.begin(), legal.end(),
                            assignment.sense.secondary),
                  legal.end())
            << doc.generated.name << " compound secondary for " << label;
      }
    }
  }
}

TEST_F(CorpusInvariantsTest, ScoresAndAmbiguitiesBounded) {
  core::Disambiguator system(&network());
  for (const auto& doc : corpus()) {
    auto result = system.RunOnTree(doc.tree);
    ASSERT_TRUE(result.ok());
    for (const auto& [id, assignment] : result->assignments) {
      // Normalized score + MFS prior stays within [0, 1 + prior].
      EXPECT_GE(assignment.score, 0.0) << doc.generated.name;
      EXPECT_LE(assignment.score, 1.0 + 0.15 + 1e-9)
          << doc.generated.name;
      EXPECT_GE(assignment.ambiguity, 0.0);
      EXPECT_LE(assignment.ambiguity, 1.0);
      EXPECT_GE(assignment.candidate_count, 1);
    }
  }
}

TEST_F(CorpusInvariantsTest, DisambiguationIsDeterministic) {
  core::Disambiguator system(&network());
  const auto& doc = corpus()[0];
  auto a = system.RunOnTree(doc.tree);
  auto b = system.RunOnTree(doc.tree);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  ASSERT_EQ(a->assignments.size(), b->assignments.size());
  for (const auto& [id, assignment] : a->assignments) {
    const auto& other = b->assignments.at(id);
    EXPECT_EQ(assignment.sense.primary, other.sense.primary);
    EXPECT_EQ(assignment.sense.secondary, other.sense.secondary);
    EXPECT_DOUBLE_EQ(assignment.score, other.score);
  }
}

TEST_F(CorpusInvariantsTest, WndbRoundTripPreservesDisambiguation) {
  // Consuming the lexicon through the WNDB on-disk format must not
  // change any disambiguation decision.
  auto via_wndb = wordnet::BuildMiniWordNetViaWndb();
  ASSERT_TRUE(via_wndb.ok());
  core::Disambiguator direct(&network());
  core::Disambiguator from_files(&*via_wndb);
  for (size_t i = 0; i < corpus().size(); i += 7) {
    const auto& doc = corpus()[i];
    auto a = direct.RunOnTree(doc.tree);
    auto b = from_files.RunOnTree(doc.tree);
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    ASSERT_EQ(a->assignments.size(), b->assignments.size())
        << doc.generated.name;
    for (const auto& [id, assignment] : a->assignments) {
      const auto& other = b->assignments.at(id);
      // Concept ids shift across the round trip (the parser groups
      // synsets by part of speech), so compare stable identity: the
      // gloss, which is unique per synset in the lexicon.
      EXPECT_EQ(network().GetConcept(assignment.sense.primary).gloss,
                via_wndb->GetConcept(other.sense.primary).gloss)
          << doc.generated.name << " node " << id;
    }
  }
}

TEST_F(CorpusInvariantsTest, SerializerRoundTripsEveryDocument) {
  for (const auto& doc : corpus()) {
    auto parsed = xml::Parse(doc.generated.xml);
    ASSERT_TRUE(parsed.ok()) << doc.generated.name;
    std::string serialized = xml::Serialize(*parsed);
    auto reparsed = xml::Parse(serialized);
    ASSERT_TRUE(reparsed.ok()) << doc.generated.name;
    // Structure-preserving: same element count and same root.
    EXPECT_EQ(reparsed->CountElements(), parsed->CountElements())
        << doc.generated.name;
    EXPECT_EQ(reparsed->root()->name(), parsed->root()->name());
  }
}

TEST_F(CorpusInvariantsTest, TreesRebuildIdentically) {
  for (size_t i = 0; i < corpus().size(); i += 5) {
    const auto& doc = corpus()[i];
    auto rebuilt = core::BuildTreeFromXml(doc.generated.xml, network());
    ASSERT_TRUE(rebuilt.ok());
    ASSERT_EQ(rebuilt->size(), doc.tree.size()) << doc.generated.name;
    for (size_t n = 0; n < doc.tree.size(); ++n) {
      EXPECT_EQ(rebuilt->node(static_cast<int>(n)).label,
                doc.tree.node(static_cast<int>(n)).label);
    }
  }
}

TEST_F(CorpusInvariantsTest, ContextVectorInvariantsEverywhere) {
  // Over a sample of nodes from every document: weights in (0, 1],
  // every sphere label has a weight, cosine self-similarity is 1.
  core::LabelSpace space(&network());
  for (const auto& doc : corpus()) {
    std::vector<uint32_t> label_ids;
    label_ids.reserve(doc.tree.size());
    for (const auto& node : doc.tree.nodes()) {
      label_ids.push_back(space.Resolve(node.label));
    }
    for (size_t i = 0; i < doc.target_sample.size(); i += 3) {
      xml::NodeId id = doc.target_sample[i];
      for (int radius : {1, 3}) {
        core::IdSphere sphere =
            core::BuildXmlIdSphere(doc.tree, label_ids, id, radius);
        core::IdContextVector vector(sphere);
        ASSERT_EQ(sphere.distances.size(), sphere.label_ids.size());
        for (int m = 0; m < sphere.size(); ++m) {
          EXPECT_GT(vector.WeightById(sphere.label_ids[m]), 0.0)
              << doc.generated.name;
          EXPECT_LE(vector.WeightById(sphere.label_ids[m]), 1.0);
          EXPECT_LE(sphere.distances[m], radius);
        }
        EXPECT_NEAR(vector.Cosine(vector), 1.0, 1e-9);
        EXPECT_NEAR(vector.Jaccard(vector), 1.0, 1e-9);
      }
    }
  }
}

TEST_F(CorpusInvariantsTest, RingsPartitionWithinRadius) {
  // Rings are disjoint, sorted, and their distances are exact.
  for (size_t i = 0; i < corpus().size(); i += 11) {
    const auto& tree = corpus()[i].tree;
    xml::NodeId center = static_cast<xml::NodeId>(tree.size() / 2);
    auto rings = tree.Rings(center, 3);
    std::vector<bool> seen(tree.size(), false);
    for (int d = 0; d < static_cast<int>(rings.size()); ++d) {
      for (xml::NodeId id : rings[static_cast<size_t>(d)]) {
        EXPECT_FALSE(seen[static_cast<size_t>(id)]);
        seen[static_cast<size_t>(id)] = true;
        EXPECT_EQ(tree.Distance(center, id), d);
      }
    }
  }
}

TEST_F(CorpusInvariantsTest, JaccardProcessStillDisambiguates) {
  core::DisambiguatorOptions options;
  options.process = core::DisambiguationProcess::kContextBased;
  options.vector_similarity = core::VectorSimilarity::kJaccard;
  core::Disambiguator system(&network(), options);
  const auto& doc = corpus()[0];
  auto result = system.RunOnTree(doc.tree);
  ASSERT_TRUE(result.ok());
  EXPECT_FALSE(result->assignments.empty());
}

}  // namespace
}  // namespace xsdf
