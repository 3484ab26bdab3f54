#ifndef XSDF_CORE_TREE_BUILDER_H_
#define XSDF_CORE_TREE_BUILDER_H_

#include <string>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "wordnet/semantic_network.h"
#include "xml/labeled_tree.h"

namespace xsdf::core {

class LabelSpace;

/// Cross-document memo for the tree builders' pure pre-processing and
/// interning (BuildTreeStreaming takes one; BuildTree keeps a
/// per-document one). XML corpora share one vocabulary across documents, so a
/// persistent cache turns tag stemming, token normalization, AND label
/// interning into a single hash probe per node after the first few
/// documents. Entries key raw input text and hold outputs identical to
/// the direct computation, so cached and uncached builds produce
/// byte-identical trees with identical label ids.
///
/// Not thread-safe, and valid only for one (semantic network, label
/// space) pairing — the probe the normalizers consult and the interner
/// the ids come from: callers building trees concurrently keep one
/// cache per worker, as the runtime engine does.
struct TreeBuildCache {
  /// raw tag name -> preprocessed node label + interned id.
  std::unordered_map<std::string, xml::ResolvedLabel> tags;
  /// raw text value -> preprocessed, interned token list.
  std::unordered_map<std::string, std::vector<xml::ResolvedLabel>> values;
  /// raw token -> normalized token (second level under `values`).
  std::unordered_map<std::string, xml::ResolvedLabel> tokens;
};

/// Memoized raw-tag -> (preprocessed label, interned id) mapping: the
/// exact hook BuildTree installs as resolved_label_transform, exposed
/// so the streaming front end interns through the same memo and the
/// two builders stay byte- and id-identical. The returned reference is
/// a cache entry — valid until the cache is destroyed.
const xml::ResolvedLabel& ResolveTagMemo(
    TreeBuildCache& cache, const wordnet::SemanticNetwork& network,
    LabelSpace* label_space, const std::string& tag);

/// Memoized raw-value -> preprocessed, interned token list (BuildTree's
/// resolved_value_tokenizer hook), under the same sharing contract as
/// ResolveTagMemo. Tokens that normalize to nothing keep an empty label
/// and are never interned; builders skip them.
const std::vector<xml::ResolvedLabel>& TokenizeValueMemo(
    TreeBuildCache& cache, const wordnet::SemanticNetwork& network,
    LabelSpace* label_space, const std::string& value);

/// Splits a node label into the lemma tokens that carry its senses:
/// a label the network knows as one lemma (including collocations like
/// "first_name") is a single token; otherwise an underscore-joined
/// compound is split into its constituent tokens (paper §3.2's
/// unresolved-compound case, whose senses are combined by Eqs. 10/12).
std::vector<std::string> LabelSenseTokens(
    const wordnet::SemanticNetwork& network, const std::string& label);

/// Builds the rooted ordered labeled tree of an XML document with
/// XSDF's linguistic pre-processing (paper §3.2) plugged in:
/// tag names go through compound splitting + lexicon-aware stemming,
/// text values through tokenization + stop-word removal + stemming.
/// `include_values` selects structure-and-content (true) vs
/// structure-only (false) processing (paper §3.1).
///
/// Pre-processing results are memoized per document (XML vocabularies
/// repeat tags and values heavily). With a `label_space` every built
/// node also carries its interned label id (tree.has_label_ids()
/// holds), as the disambiguator's per-node entry points require. For
/// callers that already hold a DOM; from text, use BuildTreeFromXml.
Result<xml::LabeledTree> BuildTree(const xml::Document& doc,
                                   const wordnet::SemanticNetwork& network,
                                   bool include_values = true,
                                   LabelSpace* label_space = nullptr);

/// The same tree from an XML string, built in one streaming pass
/// (BuildTreeStreaming with default parse options; no DOM).
Result<xml::LabeledTree> BuildTreeFromXml(
    const std::string& xml_text, const wordnet::SemanticNetwork& network,
    bool include_values = true, LabelSpace* label_space = nullptr);

}  // namespace xsdf::core

#endif  // XSDF_CORE_TREE_BUILDER_H_
