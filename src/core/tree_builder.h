#ifndef XSDF_CORE_TREE_BUILDER_H_
#define XSDF_CORE_TREE_BUILDER_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "wordnet/semantic_network.h"
#include "xml/labeled_tree.h"

namespace xsdf::core {

/// A preprocessed node label together with its interned id
/// (xml::kNoLabelId when the build interns nothing).
struct ResolvedLabel {
  std::string label;
  uint32_t id = xml::kNoLabelId;
};

/// Cross-document memo for BuildTreeStreaming's pure pre-processing
/// and interning. XML corpora share one vocabulary across documents,
/// so a persistent cache turns tag stemming, token normalization, AND
/// label interning into a single hash probe per node after the first
/// few documents. Entries key raw input text and hold outputs identical
/// to the direct computation, so cached and uncached builds produce
/// byte-identical trees with identical label ids.
///
/// Not thread-safe, and valid only for one (semantic network, label
/// space) pairing — the probe the normalizers consult and the interner
/// the ids come from: callers building trees concurrently keep one
/// cache per worker, as the runtime engine does.
struct TreeBuildCache {
  /// raw tag name -> preprocessed node label + interned id.
  std::unordered_map<std::string, ResolvedLabel> tags;
  /// raw text value -> preprocessed, interned token list.
  std::unordered_map<std::string, std::vector<ResolvedLabel>> values;
  /// raw token -> normalized token (second level under `values`).
  std::unordered_map<std::string, ResolvedLabel> tokens;
};

/// Splits a node label into the lemma tokens that carry its senses:
/// a label the network knows as one lemma (including collocations like
/// "first_name") is a single token; otherwise an underscore-joined
/// compound is split into its constituent tokens (paper §3.2's
/// unresolved-compound case, whose senses are combined by Eqs. 10/12).
std::vector<std::string> LabelSenseTokens(
    const wordnet::SemanticNetwork& network, const std::string& label);

}  // namespace xsdf::core

#endif  // XSDF_CORE_TREE_BUILDER_H_
