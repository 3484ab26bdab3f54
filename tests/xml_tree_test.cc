// Unit tests for the rooted ordered labeled tree (paper Definition 1):
// preorder ids, distances, rings, root paths, subtrees, and shape
// statistics. Building trees from XML is covered by streaming_test.

#include <gtest/gtest.h>

#include "xml/labeled_tree.h"
#include "xml/tree_stats.h"

namespace xsdf::xml {
namespace {

/// The paper's Figure 6 example tree:
/// films(0) -> picture(1) -> { cast(2) -> star(3) -> stewart(4),
///                                         star(5) -> kelly(6),
///                             plot(7) }
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
  return tree;
}

TEST(LabeledTreeTest, PreorderIdsAndDepths) {
  LabeledTree tree = Figure6Tree();
  ASSERT_EQ(tree.size(), 8u);
  EXPECT_EQ(tree.root(), 0);
  EXPECT_EQ(tree.node(0).label, "films");
  EXPECT_EQ(tree.node(0).depth, 0);
  EXPECT_EQ(tree.node(2).label, "cast");
  EXPECT_EQ(tree.node(2).depth, 2);
  EXPECT_EQ(tree.node(4).label, "stewart");
  EXPECT_EQ(tree.node(4).depth, 4);
  EXPECT_EQ(tree.node(7).label, "plot");
}

TEST(LabeledTreeTest, AddNodeKeepsIdsInPreorder) {
  // After plot(7) only plot, picture and films are open; cast's
  // subtree is closed, and a child of it would break preorder ids.
  LabeledTree tree = Figure6Tree();
  NodeId added = 0;
  EXPECT_DEBUG_DEATH(added = tree.AddNode(2, "late", TreeNodeKind::kElement),
                     "preorder");
#ifdef NDEBUG
  EXPECT_EQ(added, kInvalidNode);
  EXPECT_EQ(tree.size(), 8u);
#endif
  EXPECT_EQ(tree.AddNode(7, "summary", TreeNodeKind::kElement), 8);
  EXPECT_EQ(tree.AddNode(0, "award", TreeNodeKind::kElement), 9);
  EXPECT_TRUE(tree.Validate().ok());
}

TEST(LabeledTreeTest, FanOutAndDensity) {
  LabeledTree tree = Figure6Tree();
  EXPECT_EQ(tree.node(2).fan_out(), 2);           // cast has 2 children
  EXPECT_EQ(tree.DistinctChildLabelCount(2), 1);  // both labelled "star"
  EXPECT_EQ(tree.node(1).fan_out(), 2);           // picture: cast, plot
  EXPECT_EQ(tree.DistinctChildLabelCount(1), 2);
  EXPECT_EQ(tree.MaxDepth(), 4);
  EXPECT_EQ(tree.MaxFanOut(), 2);
  EXPECT_EQ(tree.MaxDensity(), 2);
}

TEST(LabeledTreeTest, DistanceMatchesPaperExample) {
  LabeledTree tree = Figure6Tree();
  // Paper: Dist(T[2], T[6]) between "cast" and "kelly" equals 2.
  EXPECT_EQ(tree.Distance(2, 6), 2);
  EXPECT_EQ(tree.Distance(2, 2), 0);
  EXPECT_EQ(tree.Distance(0, 4), 4);
  EXPECT_EQ(tree.Distance(4, 6), 4);  // stewart <-> kelly via cast
  EXPECT_EQ(tree.Distance(7, 3), 3);  // plot <-> star via picture, cast
  // Symmetry.
  EXPECT_EQ(tree.Distance(6, 2), tree.Distance(2, 6));
}

TEST(LabeledTreeTest, LowestCommonAncestor) {
  LabeledTree tree = Figure6Tree();
  EXPECT_EQ(tree.LowestCommonAncestor(4, 6), 2);  // cast
  EXPECT_EQ(tree.LowestCommonAncestor(3, 7), 1);  // picture
  EXPECT_EQ(tree.LowestCommonAncestor(0, 5), 0);  // root with descendant
}

TEST(LabeledTreeTest, RingsMatchPaperExample) {
  LabeledTree tree = Figure6Tree();
  // Paper: R_1(T[2]) = {picture(1), star(3), star(5)};
  //        R_2(T[2]) = {films(0), stewart(4), kelly(6), plot(7)}.
  auto rings = tree.Rings(2, 2);
  ASSERT_EQ(rings.size(), 3u);
  EXPECT_EQ(rings[0], (std::vector<NodeId>{2}));
  EXPECT_EQ(rings[1], (std::vector<NodeId>{1, 3, 5}));
  EXPECT_EQ(rings[2], (std::vector<NodeId>{0, 4, 6, 7}));
}

TEST(LabeledTreeTest, RingsExhaustTree) {
  LabeledTree tree = Figure6Tree();
  auto rings = tree.Rings(2, 10);
  size_t total = 0;
  for (const auto& ring : rings) total += ring.size();
  EXPECT_EQ(total, tree.size());  // every node in exactly one ring
  EXPECT_TRUE(rings[10].empty());
}

TEST(LabeledTreeTest, RootPath) {
  LabeledTree tree = Figure6Tree();
  EXPECT_EQ(tree.RootPath(6), (std::vector<NodeId>{0, 1, 2, 5, 6}));
  EXPECT_EQ(tree.RootPath(0), (std::vector<NodeId>{0}));
}

TEST(LabeledTreeTest, SubtreePreorder) {
  LabeledTree tree = Figure6Tree();
  EXPECT_EQ(tree.Subtree(2), (std::vector<NodeId>{2, 3, 4, 5, 6}));
  EXPECT_EQ(tree.Subtree(7), (std::vector<NodeId>{7}));
  EXPECT_EQ(tree.Subtree(0).size(), tree.size());
}

TEST(TreeStatsTest, ComputeTreeShape) {
  LabeledTree tree = Figure6Tree();
  TreeShape shape = ComputeTreeShape(tree);
  EXPECT_EQ(shape.node_count, 8);
  EXPECT_EQ(shape.max_depth, 4);
  EXPECT_EQ(shape.max_fan_out, 2);
  EXPECT_EQ(shape.max_density, 2);
  EXPECT_NEAR(shape.avg_depth, (0 + 1 + 2 + 3 + 4 + 3 + 4 + 2) / 8.0,
              1e-9);
  EXPECT_NEAR(shape.avg_fan_out, 7.0 / 8.0, 1e-9);
}

TEST(TreeStatsTest, StructDegreeRangeAndMonotonicity) {
  LabeledTree tree = Figure6Tree();
  for (const TreeNode& node : tree.nodes()) {
    double degree = StructDegree(tree, node.id);
    EXPECT_GE(degree, 0.0);
    EXPECT_LE(degree, 1.0);
  }
  // The deepest leaf outranks the root on the depth component alone.
  StructDegreeWeights depth_only{1.0, 0.0, 0.0};
  EXPECT_GT(StructDegree(tree, 4, depth_only),
            StructDegree(tree, 0, depth_only));
  // The root outranks a leaf on the density component alone: films has
  // one distinct child label, leaves have none.
  StructDegreeWeights density_only{0.0, 0.0, 1.0};
  EXPECT_GT(StructDegree(tree, 0, density_only),
            StructDegree(tree, 4, density_only));
}

TEST(TreeStatsTest, AverageStructDegreeInRange) {
  LabeledTree tree = Figure6Tree();
  double avg = AverageStructDegree(tree);
  EXPECT_GT(avg, 0.0);
  EXPECT_LT(avg, 1.0);
}

TEST(TreeStatsTest, SingleNodeTree) {
  LabeledTree tree;
  tree.AddNode(kInvalidNode, "only", TreeNodeKind::kElement);
  EXPECT_EQ(tree.MaxDepth(), 0);
  EXPECT_EQ(ComputeTreeShape(tree).node_count, 1);
  EXPECT_EQ(AverageStructDegree(tree), 0.0);
  EXPECT_EQ(tree.Rings(0, 3)[1].size(), 0u);
}

}  // namespace
}  // namespace xsdf::xml
