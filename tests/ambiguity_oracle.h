// Test oracle for target selection (paper §3.3): Amb_Deg (Eq. 4) and
// threshold selection computed from each node's label string, with no
// label ids and no memo. Disambiguator::SelectTargets reads Eq. 1 from
// the per-label-id LabelSpace memo instead, and must select exactly
// these nodes with exactly these degrees.

#ifndef XSDF_TESTS_AMBIGUITY_ORACLE_H_
#define XSDF_TESTS_AMBIGUITY_ORACLE_H_

#include <string>
#include <vector>

#include "core/ambiguity.h"
#include "core/tree_builder.h"
#include "wordnet/semantic_network.h"
#include "xml/labeled_tree.h"

namespace xsdf::testing {

/// Amb_Deg of `id` with Amb_Polysemy computed from its label string.
inline double StringAmbiguityDegree(const xml::LabeledTree& tree,
                                    xml::NodeId id,
                                    const wordnet::SemanticNetwork& network,
                                    const core::AmbiguityWeights& weights) {
  return core::AmbiguityDegreeFromPolysemy(
      tree, id, core::AmbiguityPolysemy(network, tree.node(id).label),
      weights);
}

/// Nodes whose label has at least one sense and whose Amb_Deg reaches
/// `threshold`, in node order.
inline std::vector<xml::NodeId> StringSelectTargets(
    const xml::LabeledTree& tree, const wordnet::SemanticNetwork& network,
    double threshold, const core::AmbiguityWeights& weights) {
  std::vector<xml::NodeId> targets;
  for (const xml::TreeNode& node : tree.nodes()) {
    bool has_sense = false;
    for (const std::string& token :
         core::LabelSenseTokens(network, node.label)) {
      if (network.SenseCount(token) > 0) {
        has_sense = true;
        break;
      }
    }
    if (!has_sense) continue;
    if (StringAmbiguityDegree(tree, node.id, network, weights) >=
        threshold) {
      targets.push_back(node.id);
    }
  }
  return targets;
}

}  // namespace xsdf::testing

#endif  // XSDF_TESTS_AMBIGUITY_ORACLE_H_
