// Tests for sphere neighborhoods and context vectors (paper
// Definitions 4-7), including an exact check of the paper's Figure 7
// weights for the d=1 sphere of the Figure 6 tree.

#include <gtest/gtest.h>

#include <algorithm>

#include "core/context_vector.h"
#include "core/label_space.h"
#include "wordnet/mini_wordnet.h"
#include "xml/labeled_tree.h"

namespace xsdf::core {
namespace {

using xml::kInvalidNode;
using xml::LabeledTree;
using xml::NodeId;
using xml::TreeNodeKind;

const wordnet::SemanticNetwork& Network() {
  static const wordnet::SemanticNetwork* network = [] {
    auto result = wordnet::BuildMiniWordNet();
    return new wordnet::SemanticNetwork(std::move(result).value());
  }();
  return *network;
}

/// The label id space every tree and lookup below is interned through
/// (XML and concept labels share it).
LabelSpace& Space() {
  static LabelSpace* space = new LabelSpace(&Network());
  return *space;
}

uint32_t Id(const char* label) { return Space().Resolve(label); }

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

double Weight(const IdContextVector& vector, const char* label) {
  return vector.WeightById(Id(label));
}

/// A one-node tree labelled `label`.
LabeledTree Singleton(const char* label) {
  LabeledTree tree;
  tree.AddNode(kInvalidNode, label, TreeNodeKind::kElement);
  return WithIds(std::move(tree));
}

/// The paper's Figure 6 tree.
LabeledTree Figure6Tree() {
  LabeledTree tree;
  NodeId films = tree.AddNode(kInvalidNode, "films",
                              TreeNodeKind::kElement);
  NodeId picture = tree.AddNode(films, "picture", TreeNodeKind::kElement);
  NodeId cast = tree.AddNode(picture, "cast", TreeNodeKind::kElement);
  NodeId star1 = tree.AddNode(cast, "star", TreeNodeKind::kElement);
  tree.AddNode(star1, "stewart", TreeNodeKind::kToken);
  NodeId star2 = tree.AddNode(cast, "star", TreeNodeKind::kElement);
  tree.AddNode(star2, "kelly", TreeNodeKind::kToken);
  tree.AddNode(picture, "plot", TreeNodeKind::kElement);
  return WithIds(std::move(tree));
}

TEST(StructuralProximityTest, Equation7) {
  // Struct(x_i, S_d(x)) = 1 - Dist/(d+1).
  EXPECT_DOUBLE_EQ(StructuralProximity(0, 1), 1.0);
  EXPECT_DOUBLE_EQ(StructuralProximity(1, 1), 0.5);
  EXPECT_DOUBLE_EQ(StructuralProximity(1, 2), 1.0 - 1.0 / 3.0);
  EXPECT_DOUBLE_EQ(StructuralProximity(2, 2), 1.0 - 2.0 / 3.0);
  // The farthest ring keeps a non-null weight (the paper's +1 shift).
  EXPECT_GT(StructuralProximity(4, 4), 0.0);
}

TEST(XmlSphereTest, Definition5Membership) {
  LabeledTree tree = Figure6Tree();
  IdSphere s1 = XmlSphere(tree, 2, 1);
  // Center (cast) + picture + star + star.
  EXPECT_EQ(s1.size(), 4);
  EXPECT_EQ(s1.label_ids[0], Id("cast"));
  IdSphere s2 = XmlSphere(tree, 2, 2);
  EXPECT_EQ(s2.size(), 8);  // whole tree
  // Distances recorded per member.
  int at_zero = 0;
  for (int32_t distance : s2.distances) {
    if (distance == 0) ++at_zero;
    EXPECT_LE(distance, 2);
  }
  EXPECT_EQ(at_zero, 1);
}

TEST(ContextVectorTest, Figure7ExactWeightsAtRadius1) {
  // Paper Figure 7: V_1(T[2]) = {cast: 0.4, picture: 0.2, star: 0.4}.
  LabeledTree tree = Figure6Tree();
  IdContextVector vector(XmlSphere(tree, 2, 1));
  EXPECT_DOUBLE_EQ(Weight(vector, "cast"), 0.4);
  EXPECT_DOUBLE_EQ(Weight(vector, "picture"), 0.2);
  EXPECT_DOUBLE_EQ(Weight(vector, "star"), 0.4);
  EXPECT_EQ(vector.dimension_count(), 3u);
  EXPECT_DOUBLE_EQ(Weight(vector, "missing"), 0.0);
}

TEST(ContextVectorTest, Figure7ProportionsAtRadius2) {
  // With the sphere cardinality convention fixed to include the
  // center, the paper's d=2 column is reproduced up to one constant
  // factor (the printed table uses |S|=7 there; see DESIGN.md). Check
  // the proportions, which is what disambiguation depends on.
  LabeledTree tree = Figure6Tree();
  IdContextVector vector(XmlSphere(tree, 2, 2));
  double cast = Weight(vector, "cast");
  EXPECT_NEAR(Weight(vector, "star") / cast, 0.3334 / 0.25, 1e-3);
  EXPECT_NEAR(Weight(vector, "picture") / cast, 0.1667 / 0.25, 1e-3);
  EXPECT_NEAR(Weight(vector, "films") / cast, 0.0835 / 0.25, 2e-3);
  EXPECT_NEAR(Weight(vector, "kelly"), Weight(vector, "stewart"), 1e-12);
  EXPECT_NEAR(Weight(vector, "kelly"), Weight(vector, "plot"), 1e-12);
}

TEST(ContextVectorTest, Assumption5CloserNodesWeighMore) {
  LabeledTree tree = Figure6Tree();
  IdContextVector vector(XmlSphere(tree, 2, 2));
  // picture (distance 1) outweighs films (distance 2).
  EXPECT_GT(Weight(vector, "picture"), Weight(vector, "films"));
}

TEST(ContextVectorTest, Assumption6RepeatedLabelsWeighMore) {
  LabeledTree tree = Figure6Tree();
  IdContextVector vector(XmlSphere(tree, 2, 1));
  // star occurs twice at distance 1, picture once: w(star)=2*w(picture).
  EXPECT_DOUBLE_EQ(Weight(vector, "star"), 2.0 * Weight(vector, "picture"));
}

TEST(ContextVectorTest, WeightsAreCapped) {
  LabeledTree tree = Figure6Tree();
  for (int radius : {1, 2, 3, 4}) {
    IdContextVector vector(XmlSphere(tree, 2, radius));
    for (size_t i = 0; i < vector.dimension_count(); ++i) {
      const std::string& label = Space().Spelling(vector.ids()[i]);
      EXPECT_GT(vector.weights()[i], 0.0) << label;
      EXPECT_LE(vector.weights()[i], 1.0) << label;
    }
  }
}

TEST(ContextVectorTest, UniformProximityIgnoresDistance) {
  LabeledTree tree = Figure6Tree();
  IdContextVector bag(XmlSphere(tree, 2, 2), true);
  // Bag-of-words: picture (distance 1) and films (distance 2) weigh
  // the same.
  EXPECT_DOUBLE_EQ(Weight(bag, "picture"), Weight(bag, "films"));
}

TEST(ContextVectorTest, EmptyVector) {
  IdContextVector vector;
  EXPECT_EQ(vector.dimension_count(), 0u);
  EXPECT_DOUBLE_EQ(vector.Cosine(vector), 0.0);
}

TEST(CosineTest, IdenticalVectorsScoreOne) {
  LabeledTree tree = Figure6Tree();
  IdContextVector vector(XmlSphere(tree, 2, 1));
  EXPECT_NEAR(vector.Cosine(vector), 1.0, 1e-12);
}

TEST(CosineTest, DisjointVectorsScoreZero) {
  IdContextVector va(XmlSphere(Singleton("alpha"), 0, 1));
  IdContextVector vb(XmlSphere(Singleton("beta"), 0, 1));
  EXPECT_DOUBLE_EQ(va.Cosine(vb), 0.0);
}

TEST(CosineTest, SymmetricAndBounded) {
  LabeledTree tree = Figure6Tree();
  IdContextVector v1(XmlSphere(tree, 2, 1));
  IdContextVector v2(XmlSphere(tree, 1, 2));
  EXPECT_DOUBLE_EQ(v1.Cosine(v2), v2.Cosine(v1));
  EXPECT_GE(v1.Cosine(v2), 0.0);
  EXPECT_LE(v1.Cosine(v2), 1.0);
}

TEST(JaccardTest, IdenticalVectorsScoreOne) {
  LabeledTree tree = Figure6Tree();
  IdContextVector vector(XmlSphere(tree, 2, 1));
  EXPECT_NEAR(vector.Jaccard(vector), 1.0, 1e-12);
}

TEST(JaccardTest, DisjointVectorsScoreZero) {
  IdContextVector va(XmlSphere(Singleton("alpha"), 0, 1));
  IdContextVector vb(XmlSphere(Singleton("beta"), 0, 1));
  EXPECT_DOUBLE_EQ(va.Jaccard(vb), 0.0);
}

TEST(JaccardTest, SymmetricBoundedAndBelowCosine) {
  LabeledTree tree = Figure6Tree();
  IdContextVector v1(XmlSphere(tree, 2, 1));
  IdContextVector v2(XmlSphere(tree, 1, 2));
  EXPECT_DOUBLE_EQ(v1.Jaccard(v2), v2.Jaccard(v1));
  EXPECT_GE(v1.Jaccard(v2), 0.0);
  EXPECT_LE(v1.Jaccard(v2), 1.0);
}

// ---- Concept spheres over the semantic network ---------------------------

TEST(ConceptSphereTest, RingsFollowSemanticRelations) {
  auto id = wordnet::MiniWordNetConceptByKey("actor.n");
  ASSERT_TRUE(id.ok());
  IdSphere sphere = BuildConceptIdSphere(Network(), *id, 1);
  // Distance-1 members: performer (hypernym), actress/star (hyponyms)...
  ASSERT_GT(sphere.size(), 3);
  EXPECT_EQ(sphere.label_ids[0], Id("actor"));
  EXPECT_EQ(sphere.distances[0], 0);
  bool performer = false;
  for (int m = 0; m < sphere.size(); ++m) {
    if (sphere.label_ids[m] == Id("performer") && sphere.distances[m] == 1) {
      performer = true;
    }
  }
  EXPECT_TRUE(performer);
}

TEST(ConceptSphereTest, GrowsWithRadius) {
  auto id = wordnet::MiniWordNetConceptByKey("movie.n");
  ASSERT_TRUE(id.ok());
  int previous = 0;
  for (int radius : {1, 2, 3}) {
    IdSphere sphere = BuildConceptIdSphere(Network(), *id, radius);
    EXPECT_GT(sphere.size(), previous);
    previous = sphere.size();
  }
}

TEST(CompoundConceptSphereTest, UnionKeepsSmallestDistance) {
  auto p = wordnet::MiniWordNetConceptByKey("movie.n");
  auto q = wordnet::MiniWordNetConceptByKey("star.performer.n");
  ASSERT_TRUE(p.ok());
  ASSERT_TRUE(q.ok());
  IdSphere compound = BuildCompoundConceptIdSphere(Network(), *p, *q, 2);
  IdSphere sp = BuildConceptIdSphere(Network(), *p, 2);
  IdSphere sq = BuildConceptIdSphere(Network(), *q, 2);
  // Union is at least as large as the bigger sphere and at most the
  // sum.
  EXPECT_GE(compound.size(), std::max(sp.size(), sq.size()));
  EXPECT_LE(compound.size(), sp.size() + sq.size());
  // Both centers appear at distance 0.
  int centers = 0;
  for (int32_t distance : compound.distances) {
    if (distance == 0) ++centers;
  }
  EXPECT_EQ(centers, 2);
}

}  // namespace
}  // namespace xsdf::core
