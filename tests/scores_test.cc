// Tests for candidate enumeration and the disambiguation scores
// (paper Definitions 8-10, Eqs. 8-13), including the compound special
// cases.

#include <gtest/gtest.h>

#include "core/disambiguator.h"
#include "core/label_space.h"
#include "core/scores.h"
#include "core/tree_builder.h"
#include "wordnet/mini_wordnet.h"

namespace xsdf::core {
namespace {

using wordnet::ConceptId;
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

ConceptId Key(const char* key) {
  auto id = wordnet::MiniWordNetConceptByKey(key);
  EXPECT_TRUE(id.ok()) << key;
  return *id;
}

/// The label id space every tree below is interned through.
LabelSpace& Space() {
  static LabelSpace* space = new LabelSpace(&Network());
  return *space;
}

/// Interns every node label of `tree` through Space().
LabeledTree WithIds(LabeledTree tree) {
  for (NodeId id = 0; id < static_cast<NodeId>(tree.size()); ++id) {
    tree.set_label_id(id, Space().Resolve(tree.node(id).label));
  }
  return tree;
}

IdSphere XmlSphere(const LabeledTree& tree, NodeId center, int radius) {
  return BuildXmlIdSphere(tree, tree.label_ids(), center, radius);
}

/// Concept_Score of `candidate` over `sphere` (Definition 8).
double ConceptScore(const sim::CombinedMeasure& measure,
                    const SenseCandidate& candidate, const IdSphere& sphere) {
  IdContextVector vector(sphere);
  return IdResolvedContext(Space(), sphere, vector)
      .Score(Network(), measure, candidate);
}

LabeledTree MovieTree() {
  LabeledTree tree;
  NodeId films = tree.AddNode(kInvalidNode, "film",
                              TreeNodeKind::kElement);
  NodeId picture = tree.AddNode(films, "picture", TreeNodeKind::kElement);
  NodeId cast = tree.AddNode(picture, "cast", TreeNodeKind::kElement);
  NodeId star1 = tree.AddNode(cast, "star", TreeNodeKind::kElement);
  tree.AddNode(star1, "stewart", TreeNodeKind::kToken);
  NodeId star2 = tree.AddNode(cast, "star", TreeNodeKind::kElement);
  tree.AddNode(star2, "kelly", TreeNodeKind::kToken);
  NodeId director = tree.AddNode(picture, "director",
                                 TreeNodeKind::kElement);
  tree.AddNode(director, "hitchcock", TreeNodeKind::kToken);
  return WithIds(std::move(tree));
}

TEST(EnumerateCandidatesTest, SimpleLabel) {
  auto candidates = EnumerateCandidates(Network(), "star");
  EXPECT_EQ(candidates.size(),
            static_cast<size_t>(Network().SenseCount("star")));
  for (const SenseCandidate& candidate : candidates) {
    EXPECT_FALSE(candidate.is_compound());
  }
}

TEST(EnumerateCandidatesTest, UnknownLabelEmpty) {
  EXPECT_TRUE(EnumerateCandidates(Network(), "zzz_unknown").empty());
}

TEST(EnumerateCandidatesTest, LexiconCollocationStaysSimple) {
  auto candidates = EnumerateCandidates(Network(), "first_name");
  ASSERT_FALSE(candidates.empty());
  EXPECT_FALSE(candidates[0].is_compound());
}

TEST(EnumerateCandidatesTest, CompoundCartesianProduct) {
  auto candidates = EnumerateCandidates(Network(), "movie_star");
  size_t movie = static_cast<size_t>(Network().SenseCount("movie"));
  size_t star = static_cast<size_t>(Network().SenseCount("star"));
  EXPECT_EQ(candidates.size(), movie * star);
  for (const SenseCandidate& candidate : candidates) {
    EXPECT_TRUE(candidate.is_compound());
  }
}

TEST(EnumerateCandidatesTest, CompoundWithOneSenselessToken) {
  // "zz" has no senses; the compound degenerates to the other token.
  auto candidates = EnumerateCandidates(Network(), "zz_star");
  EXPECT_EQ(candidates.size(),
            static_cast<size_t>(Network().SenseCount("star")));
  EXPECT_FALSE(candidates[0].is_compound());
}

TEST(ConceptScoreTest, RangeAndDiscrimination) {
  LabeledTree tree = MovieTree();
  IdSphere sphere = XmlSphere(tree, 3, 2);  // around first "star"
  sim::CombinedMeasure measure(sim::MeasureConfig::PaperHybrid());
  double performer = ConceptScore(
      measure, {Key("star.performer.n"), wordnet::kInvalidConcept}, sphere);
  double celestial = ConceptScore(
      measure, {Key("star.celestial.n"), wordnet::kInvalidConcept}, sphere);
  EXPECT_GE(performer, 0.0);
  EXPECT_LE(performer, 1.0);
  // Surrounded by cast/director/kelly/stewart, the performer sense
  // must beat the celestial body.
  EXPECT_GT(performer, celestial);
}

TEST(ConceptScoreTest, EmptySphereScoresZero) {
  LabeledTree tree;
  tree.AddNode(kInvalidNode, "star", TreeNodeKind::kElement);
  tree = WithIds(std::move(tree));
  IdSphere sphere = XmlSphere(tree, 0, 2);  // only the center
  sim::CombinedMeasure measure(sim::MeasureConfig::PaperHybrid());
  EXPECT_DOUBLE_EQ(
      ConceptScore(measure,
                   {Key("star.performer.n"), wordnet::kInvalidConcept},
                   sphere),
      0.0);
}

TEST(ConceptScoreTest, CompoundCandidateAveragesPair) {
  LabeledTree tree = MovieTree();
  IdSphere sphere = XmlSphere(tree, 3, 2);
  sim::CombinedMeasure measure(sim::MeasureConfig::PaperHybrid());
  SenseCandidate compound{Key("movie.n"), Key("star.performer.n")};
  double score = ConceptScore(measure, compound, sphere);
  EXPECT_GT(score, 0.0);
  EXPECT_LE(score, 1.0);
}

TEST(ContextScoreTest, MatchingDomainsScoreHigher) {
  LabeledTree tree = MovieTree();
  IdContextVector vector(XmlSphere(tree, 3, 2));
  double performer = IdContextScore(
      Network(), {Key("star.performer.n"), wordnet::kInvalidConcept},
      vector, 2);
  double celestial = IdContextScore(
      Network(), {Key("star.celestial.n"), wordnet::kInvalidConcept},
      vector, 2);
  EXPECT_GE(performer, 0.0);
  EXPECT_LE(performer, 1.0);
  EXPECT_GT(performer, celestial);
}

TEST(ContextScoreTest, CompoundUsesUnionSphere) {
  LabeledTree tree = MovieTree();
  IdContextVector vector(XmlSphere(tree, 3, 2));
  SenseCandidate compound{Key("movie.n"), Key("star.performer.n")};
  double score = IdContextScore(Network(), compound, vector, 2);
  EXPECT_GE(score, 0.0);
  EXPECT_LE(score, 1.0);
}

TEST(CombinedScoreTest, Equation13Blend) {
  // The combined process scores each candidate as
  // w_concept * Concept_Score + w_context * Context_Score; with the
  // frequency prior off, the disambiguator's per-candidate scores are
  // exactly that blend of the two single-process scores.
  LabeledTree tree = MovieTree();
  const NodeId star = 3;
  auto scores = [&](DisambiguationProcess process,
                    CombinationWeights weights) {
    DisambiguatorOptions options;
    options.label_space = &Space();
    options.frequency_prior = 0.0;
    options.process = process;
    options.combination_weights = weights;
    return Disambiguator(&Network(), options).ScoreCandidates(tree, star);
  };
  std::vector<double> concept_scores =
      scores(DisambiguationProcess::kConceptBased, {});
  std::vector<double> context_scores =
      scores(DisambiguationProcess::kContextBased, {});
  std::vector<double> blended =
      scores(DisambiguationProcess::kCombined, {0.6, 0.4});
  ASSERT_GT(blended.size(), 1u);
  ASSERT_EQ(concept_scores.size(), blended.size());
  ASSERT_EQ(context_scores.size(), blended.size());
  for (size_t i = 0; i < blended.size(); ++i) {
    EXPECT_NEAR(blended[i], 0.6 * concept_scores[i] + 0.4 * context_scores[i],
                1e-12);
  }
  // Degenerate weights reduce to the individual scores.
  std::vector<double> concept_only =
      scores(DisambiguationProcess::kCombined, {1.0, 0.0});
  std::vector<double> context_only =
      scores(DisambiguationProcess::kCombined, {0.0, 1.0});
  for (size_t i = 0; i < blended.size(); ++i) {
    EXPECT_NEAR(concept_only[i], concept_scores[i], 1e-12);
    EXPECT_NEAR(context_only[i], context_scores[i], 1e-12);
  }
}

}  // namespace
}  // namespace xsdf::core
