#ifndef XSDF_CORE_AMBIGUITY_H_
#define XSDF_CORE_AMBIGUITY_H_

#include <string>

#include "wordnet/semantic_network.h"
#include "xml/labeled_tree.h"

namespace xsdf::core {

/// Weights of the ambiguity degree (paper Definition 3). Each lies in
/// [0, 1] and they are independent (they need not sum to 1).
struct AmbiguityWeights {
  double polysemy = 1.0;  ///< w_Polysemy
  double depth = 1.0;     ///< w_Depth
  double density = 1.0;   ///< w_Density
};

/// Amb_Polysemy(x.l, SN) of Eq. 1: (senses-1) / (Max(senses(SN))-1).
/// Unknown labels have 0 senses and score 0. Compound labels average
/// their tokens' polysemy factors (the Definition 3 special case).
double AmbiguityPolysemy(const wordnet::SemanticNetwork& network,
                         const std::string& label);

/// Amb_Depth(x, T) of Eq. 2: 1 - depth(x) / Max(depth(T)).
double AmbiguityDepth(const xml::LabeledTree& tree, xml::NodeId id);

/// Amb_Density(x, T) of Eq. 3: 1 - density(x) / Max(density(T)), where
/// density is the number of children with distinct labels.
double AmbiguityDensity(const xml::LabeledTree& tree, xml::NodeId id);

/// Amb_Deg(x, T, SN) of Eq. 4 — the full ambiguity degree in [0, 1]:
///
///              w_P * Amb_Polysemy
///   ---------------------------------------------------
///   w_Dep * (1 - Amb_Depth) + w_Den * (1 - Amb_Density) + 1
///
/// from the node's already-known Amb_Polysemy factor `polysemy` (Eq. 1).
/// Monolysemous labels (polysemy 0) score 0 (Assumption 4). Callers
/// feed it the per-label-id memo LabelSenses::polysemy
/// (LabelSpace::Senses), which is AmbiguityPolysemy() of the label.
double AmbiguityDegreeFromPolysemy(const xml::LabeledTree& tree,
                                   xml::NodeId id, double polysemy,
                                   const AmbiguityWeights& weights = {});

}  // namespace xsdf::core

#endif  // XSDF_CORE_AMBIGUITY_H_
