// Tests for the ambiguity degree (paper §3.3): Propositions 1-3,
// Assumptions 1-4, the Definition 3 ratio, the compound special case,
// and threshold-based target selection, all on the id path the
// disambiguator runs (labels interned into a LabelSpace, Eq. 1 read
// from its per-label memo); plus that path checked bit for bit
// against the string definitions of tests/ambiguity_oracle.h.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "ambiguity_oracle.h"
#include "core/ambiguity.h"
#include "core/disambiguator.h"
#include "core/label_space.h"
#include "core/streaming_builder.h"
#include "core/tree_builder.h"
#include "datasets/generator.h"
#include "snapshot/snapshot.h"
#include "wordnet/mini_wordnet.h"
#include "xml/labeled_tree.h"

namespace xsdf::core {
namespace {

using wordnet::SemanticNetwork;
using xml::kInvalidNode;
using xml::LabeledTree;
using xml::NodeId;
using xml::TreeNodeKind;

const SemanticNetwork& Network() {
  static const SemanticNetwork* network = [] {
    auto result = wordnet::BuildMiniWordNet();
    return new SemanticNetwork(std::move(result).value());
  }();
  return *network;
}

/// The label space every test tree below is interned through.
LabelSpace& Space() {
  static LabelSpace* space = new LabelSpace(&Network());
  return *space;
}

/// `tree` with every label interned through Space().
LabeledTree Interned(LabeledTree tree) {
  for (NodeId id = 0; id < static_cast<NodeId>(tree.size()); ++id) {
    tree.set_label_id(id, Space().Resolve(tree.node(id).label));
  }
  return tree;
}

/// Amb_Deg of `id` as target selection computes it: Amb_Polysemy read
/// from the label-id memo.
double Degree(const LabeledTree& tree, NodeId id,
              const AmbiguityWeights& weights = {}) {
  LabeledTree interned = Interned(tree);
  return AmbiguityDegreeFromPolysemy(
      interned, id, Space().Senses(interned.label_id(id)).polysemy, weights);
}

/// Disambiguator::SelectTargets on the interned tree.
std::vector<NodeId> SelectTargets(const LabeledTree& tree, double threshold,
                                  const AmbiguityWeights& weights = {}) {
  DisambiguatorOptions options;
  options.ambiguity_threshold = threshold;
  options.ambiguity_weights = weights;
  options.label_space = &Space();
  Disambiguator system(&Network(), options);
  return system.SelectTargets(Interned(tree));
}

/// Figure 5.a-style tree: picture with several distinct children.
LabeledTree RichTree() {
  LabeledTree tree;
  NodeId picture =
      tree.AddNode(kInvalidNode, "picture", TreeNodeKind::kElement);
  tree.AddNode(picture, "director", TreeNodeKind::kElement);
  NodeId cast = tree.AddNode(picture, "cast", TreeNodeKind::kElement);
  tree.AddNode(cast, "star", TreeNodeKind::kElement);
  tree.AddNode(cast, "star", TreeNodeKind::kElement);
  tree.AddNode(picture, "genre", TreeNodeKind::kElement);
  tree.AddNode(picture, "plot", TreeNodeKind::kElement);
  return tree;
}

/// Figure 5.b-style tree: picture with identical children labels.
LabeledTree PoorTree() {
  LabeledTree tree;
  NodeId picture =
      tree.AddNode(kInvalidNode, "picture", TreeNodeKind::kElement);
  for (int i = 0; i < 4; ++i) {
    tree.AddNode(picture, "star", TreeNodeKind::kElement);
  }
  return tree;
}

TEST(AmbiguityPolysemyTest, Proposition1Monotonicity) {
  // More senses -> higher polysemy factor.
  double head = AmbiguityPolysemy(Network(), "head");    // 33 senses
  double state = AmbiguityPolysemy(Network(), "state");  // 8 senses
  double genre = AmbiguityPolysemy(Network(), "genre");  // 2 senses
  EXPECT_GT(head, state);
  EXPECT_GT(state, genre);
  EXPECT_GT(genre, 0.0);
}

TEST(AmbiguityPolysemyTest, MaximalForMaxPolysemyWord) {
  // head carries Max(senses(SN)) -> factor exactly 1 (Eq. 1).
  EXPECT_DOUBLE_EQ(AmbiguityPolysemy(Network(), "head"), 1.0);
}

TEST(AmbiguityPolysemyTest, Assumption4MonosemousIsZero) {
  EXPECT_DOUBLE_EQ(AmbiguityPolysemy(Network(), "wheelchair"), 0.0);
  EXPECT_DOUBLE_EQ(AmbiguityPolysemy(Network(), "zzqq_xxyy"), 0.0);
}

TEST(AmbiguityPolysemyTest, CompoundAveragesTokens) {
  double movie = AmbiguityPolysemy(Network(), "movie");
  double star = AmbiguityPolysemy(Network(), "star");
  EXPECT_NEAR(AmbiguityPolysemy(Network(), "movie_star"),
              (movie + star) / 2.0, 1e-12);
}

TEST(AmbiguityDepthTest, Proposition2Monotonicity) {
  LabeledTree tree = RichTree();
  // Root is most ambiguous by depth; leaves least.
  EXPECT_DOUBLE_EQ(AmbiguityDepth(tree, 0), 1.0);
  EXPECT_GT(AmbiguityDepth(tree, 0), AmbiguityDepth(tree, 2));
  EXPECT_GT(AmbiguityDepth(tree, 2), AmbiguityDepth(tree, 3));
  EXPECT_DOUBLE_EQ(AmbiguityDepth(tree, 3), 0.0);  // max depth
}

TEST(AmbiguityDensityTest, Proposition3Monotonicity) {
  // Within one tree (the Eq. 3 normalizer is per-tree): the rich root
  // (4 distinct child labels) is less density-ambiguous than "cast",
  // whose two children share one label.
  LabeledTree rich = RichTree();
  EXPECT_LT(AmbiguityDensity(rich, 0), AmbiguityDensity(rich, 2));
  // And leaves (no children at all) are maximal.
  EXPECT_LT(AmbiguityDensity(rich, 2), AmbiguityDensity(rich, 3) + 1e-12);
}

TEST(AmbiguityDegreeTest, Figure5Intuition) {
  // Figure 5: "picture" over distinct children (director/cast/genre/
  // plot) vs over four identical "star" children. Put both shapes in
  // one tree so the per-tree normalizers cancel, then compare the two
  // picture nodes.
  LabeledTree tree;
  NodeId root = tree.AddNode(kInvalidNode, "collection",
                             TreeNodeKind::kElement);
  NodeId rich = tree.AddNode(root, "picture", TreeNodeKind::kElement);
  tree.AddNode(rich, "director", TreeNodeKind::kElement);
  tree.AddNode(rich, "cast", TreeNodeKind::kElement);
  tree.AddNode(rich, "genre", TreeNodeKind::kElement);
  tree.AddNode(rich, "plot", TreeNodeKind::kElement);
  NodeId poor = tree.AddNode(root, "picture", TreeNodeKind::kElement);
  for (int i = 0; i < 4; ++i) {
    tree.AddNode(poor, "star", TreeNodeKind::kElement);
  }
  EXPECT_LT(Degree(tree, rich), Degree(tree, poor));
}

TEST(AmbiguityDegreeTest, RangeAndAssumption4) {
  LabeledTree tree = RichTree();
  for (const auto& node : tree.nodes()) {
    double degree = Degree(tree, node.id);
    EXPECT_GE(degree, 0.0);
    EXPECT_LE(degree, 1.0);
  }
  // "director" has several senses -> nonzero; a monosemous label is 0
  // regardless of structure (Assumption 4).
  LabeledTree mono;
  mono.AddNode(kInvalidNode, "wheelchair", TreeNodeKind::kElement);
  EXPECT_DOUBLE_EQ(Degree(mono, 0), 0.0);
}

TEST(AmbiguityDegreeTest, PolysemyWeightZeroDisables) {
  LabeledTree tree = RichTree();
  AmbiguityWeights weights;
  weights.polysemy = 0.0;
  for (const auto& node : tree.nodes()) {
    EXPECT_DOUBLE_EQ(Degree(tree, node.id, weights), 0.0);
  }
}

TEST(AmbiguityDegreeTest, DepthWeightRaisesShallowNodes) {
  LabeledTree tree = RichTree();
  AmbiguityWeights depth_on{1.0, 1.0, 0.0};
  AmbiguityWeights depth_off{1.0, 0.0, 0.0};
  // Eq. 4's denominator grows with (1 - Amb_Depth); for the root
  // (Amb_Depth = 1) the depth term vanishes, so both configs agree.
  EXPECT_NEAR(Degree(tree, 0, depth_on), Degree(tree, 0, depth_off), 1e-12);
  // For a deep node the depth term penalizes (deep = less ambiguous).
  EXPECT_LT(Degree(tree, 3, depth_on), Degree(tree, 3, depth_off));
}

TEST(SelectTargetsTest, EmptyTreeSelectsNothing) {
  EXPECT_TRUE(SelectTargets(LabeledTree(), 0.0).empty());
}

TEST(SelectTargetsTest, ThresholdZeroSelectsAllSenseBearing) {
  LabeledTree tree = RichTree();
  auto targets = SelectTargets(tree, 0.0);
  // Every label of RichTree is in the lexicon.
  EXPECT_EQ(targets.size(), tree.size());
}

TEST(SelectTargetsTest, SenselessLabelsNeverSelected) {
  LabeledTree tree;
  tree.AddNode(kInvalidNode, "zzunknownzz", TreeNodeKind::kElement);
  EXPECT_TRUE(SelectTargets(tree, 0.0).empty());
}

TEST(SelectTargetsTest, ThresholdMonotone) {
  LabeledTree tree = RichTree();
  size_t previous = tree.size() + 1;
  for (double threshold : {0.0, 0.01, 0.05, 0.2, 0.9}) {
    auto targets = SelectTargets(tree, threshold);
    EXPECT_LE(targets.size(), previous);
    previous = targets.size();
  }
}

TEST(SelectTargetsTest, HighThresholdKeepsOnlyMostAmbiguous) {
  LabeledTree tree = PoorTree();
  // picture (5 senses, root, low density) should outrank star children
  // once thresholded near its own degree.
  double root_degree = Degree(tree, 0);
  auto targets = SelectTargets(tree, root_degree);
  ASSERT_FALSE(targets.empty());
  EXPECT_EQ(targets[0], 0);
}

TEST(LabelSenseTokensTest, SingleAndCompound) {
  EXPECT_EQ(LabelSenseTokens(Network(), "star"),
            (std::vector<std::string>{"star"}));
  // A collocation the lexicon knows stays whole.
  EXPECT_EQ(LabelSenseTokens(Network(), "first_name"),
            (std::vector<std::string>{"first_name"}));
  // An unknown compound splits.
  EXPECT_EQ(LabelSenseTokens(Network(), "movie_star"),
            (std::vector<std::string>{"movie", "star"}));
  EXPECT_TRUE(LabelSenseTokens(Network(), "").empty());
}

// ============== Id pipeline vs. the string definitions ============

uint64_t Bits(double value) { return std::bit_cast<uint64_t>(value); }

TEST(PolysemyMemoTest, MatchesStringDefinitionForEveryLabel) {
  LabelSpace space(&Network());
  // Every id the network interner owns: lemmas, collocations and the
  // gloss-only tokens alike.
  for (uint32_t id = 0; id < space.network_size(); ++id) {
    const std::string& spelling = space.Spelling(id);
    ASSERT_EQ(Bits(space.Senses(id).polysemy),
              Bits(AmbiguityPolysemy(Network(), spelling)))
        << spelling;
  }
  // Out-of-vocabulary and '_'-joined compounds (overflow ids), where
  // sense-less tokens still count in Eq. 1's average.
  for (const char* label :
       {"zzunknownzz", "movie_star", "head_state_genre", "star_zzqq",
        "zzqq_head", "_star_", "head__movie", "first_name_star", ""}) {
    const uint32_t id = space.Resolve(label);
    EXPECT_EQ(Bits(space.Senses(id).polysemy),
              Bits(AmbiguityPolysemy(Network(), label)))
        << label;
  }
}

std::vector<std::string> SampleDocuments() {
  std::vector<std::string> docs;
  for (const auto& doc : datasets::Figure1Documents()) docs.push_back(doc.xml);
  for (const auto& doc : datasets::AllDatasets()[0]->Generate(/*seed=*/3)) {
    docs.push_back(doc.xml);
  }
  for (const auto& doc : datasets::GiantDocuments(1, 16u << 10, 5)) {
    docs.push_back(doc.xml);
  }
  return docs;
}

TEST(IdAmbiguityTest, DegreeAndTargetsMatchIdLessTree) {
  AmbiguityWeights skewed;
  skewed.depth = 0.3;
  skewed.density = 0.8;
  for (const AmbiguityWeights& weights : {AmbiguityWeights{}, skewed}) {
    DisambiguatorOptions options;
    options.ambiguity_weights = weights;
    Disambiguator system(&Network(), options);
    for (const std::string& doc : SampleDocuments()) {
      auto with_ids = BuildTreeStreaming(doc, Network(), {}, true,
                                         system.label_space());
      auto without_ids = BuildTreeStreaming(doc, Network());
      ASSERT_TRUE(with_ids.ok() && without_ids.ok());
      ASSERT_TRUE(with_ids->has_label_ids());
      ASSERT_FALSE(without_ids->has_label_ids());
      ASSERT_EQ(with_ids->MaxDensity(), without_ids->MaxDensity());
      for (const xml::TreeNode& node : without_ids->nodes()) {
        ASSERT_EQ(with_ids->DistinctChildLabelCount(node.id),
                  without_ids->DistinctChildLabelCount(node.id));
        const double expected = testing::StringAmbiguityDegree(
            *without_ids, node.id, Network(), weights);
        const double polysemy =
            system.label_space()->Senses(with_ids->label_id(node.id))
                .polysemy;
        ASSERT_EQ(Bits(AmbiguityDegreeFromPolysemy(*with_ids, node.id,
                                                   polysemy, weights)),
                  Bits(expected))
            << node.label;
        auto assignment = system.DisambiguateNode(*with_ids, node.id);
        if (assignment.ok()) {
          ASSERT_EQ(Bits(assignment->ambiguity), Bits(expected))
              << node.label;
        }
      }
      EXPECT_EQ(system.SelectTargets(*with_ids),
                testing::StringSelectTargets(*without_ids, Network(), 0.0,
                                             weights));
      // Selection reads label ids only; an id-less tree selects nothing.
      EXPECT_TRUE(system.SelectTargets(*without_ids).empty());
    }
  }
  // Thresholded selection agrees too.
  for (double threshold : {0.01, 0.05, 0.2}) {
    DisambiguatorOptions options;
    options.ambiguity_threshold = threshold;
    Disambiguator system(&Network(), options);
    for (const std::string& doc : SampleDocuments()) {
      auto with_ids = BuildTreeStreaming(doc, Network(), {}, true,
                                         system.label_space());
      auto without_ids = BuildTreeStreaming(doc, Network());
      ASSERT_TRUE(with_ids.ok() && without_ids.ok());
      EXPECT_EQ(system.SelectTargets(*with_ids),
                testing::StringSelectTargets(*without_ids, Network(),
                                             threshold, AmbiguityWeights{}))
          << threshold;
    }
  }
}

/// Max(senses(SN)) by a full scan of the sense index.
int ScanMaxPolysemy(const SemanticNetwork& network) {
  size_t max_senses = 0;
  for (uint32_t id = 0; id < network.interner().size(); ++id) {
    max_senses = std::max(max_senses, network.SensesByTokenId(id).size());
  }
  return static_cast<int>(max_senses);
}

TEST(MaxPolysemyTest, StoredValueMatchesFullScan) {
  EXPECT_EQ(Network().MaxPolysemy(), ScanMaxPolysemy(Network()));
  EXPECT_EQ(Network().MaxPolysemy(), 33);

  auto parsed = wordnet::BuildMiniWordNetViaWndb();
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->MaxPolysemy(), ScanMaxPolysemy(*parsed));

  auto bytes = snapshot::WriteNetworkSnapshot(Network());
  ASSERT_TRUE(bytes.ok()) << bytes.status().ToString();
  auto aligned = std::make_shared<std::vector<uint64_t>>(
      (bytes->size() + 7) / 8);
  std::memcpy(aligned->data(), bytes->data(), bytes->size());
  auto restored = snapshot::LoadNetworkSnapshotFromBuffer(
      std::shared_ptr<const void>(aligned, aligned->data()),
      reinterpret_cast<const uint8_t*>(aligned->data()), bytes->size());
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_EQ((*restored)->MaxPolysemy(), ScanMaxPolysemy(**restored));

  // A network under construction stays current concept by concept.
  SemanticNetwork growing;
  EXPECT_EQ(growing.MaxPolysemy(), 0);
  growing.AddConcept(wordnet::PartOfSpeech::kNoun, {"bank"}, "a slope");
  growing.AddConcept(wordnet::PartOfSpeech::kNoun, {"bank", "depository"},
                     "a financial institution");
  EXPECT_EQ(growing.MaxPolysemy(), 2);
  EXPECT_EQ(growing.MaxPolysemy(), ScanMaxPolysemy(growing));
}

}  // namespace
}  // namespace xsdf::core
