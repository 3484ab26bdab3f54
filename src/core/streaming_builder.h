#ifndef XSDF_CORE_STREAMING_BUILDER_H_
#define XSDF_CORE_STREAMING_BUILDER_H_

#include <cstddef>
#include <string_view>

#include "common/result.h"
#include "core/tree_builder.h"
#include "wordnet/semantic_network.h"
#include "xml/labeled_tree.h"
#include "xml/parser.h"

namespace xsdf::core {

class LabelSpace;

/// Memory accounting for one streaming build.
struct StreamingBuildStats {
  /// High-water mark of the builder's transient scaffolding (the
  /// open-element stack plus the buffered attributes and pending text
  /// of the element currently being opened). Bounded by tree depth
  /// plus one start tag, not document size.
  size_t scaffold_peak_bytes = 0;
};

/// The front end: parses `xml_text` with `xml::StreamParse` and builds
/// the rooted ordered labeled tree of Definition 1 directly from the
/// open/attribute/text/close event stream, never materializing a DOM.
/// Nodes are emitted in preorder: element, then its attributes sorted
/// by name (each followed by its value tokens), then content in
/// document order. XSDF's linguistic pre-processing (paper §3.2) is
/// plugged in: tag names go through compound splitting + lexicon-aware
/// stemming, text values through tokenization + stop-word removal +
/// stemming. `include_values` selects structure-and-content (true) vs
/// structure-only (false) processing (paper §3.1).
///
/// With a `label_space` every node also carries its interned label id
/// (tree.has_label_ids() holds), as the disambiguator's per-node entry
/// points require. `cache` memoizes pre-processing across documents (a
/// private one is used when null) and is single-threaded. The
/// tree equals a per-node DOM walk over xml::Parse output, which
/// tests/labeled_tree_oracle.h implements and tests/streaming_test.cc
/// and the fuzz harnesses compare against. Parse failures and limit
/// violations return the parser's Status unchanged.
Result<xml::LabeledTree> BuildTreeStreaming(
    std::string_view xml_text, const wordnet::SemanticNetwork& network,
    const xml::ParseOptions& parse_options = {}, bool include_values = true,
    LabelSpace* label_space = nullptr, TreeBuildCache* cache = nullptr,
    StreamingBuildStats* stats = nullptr);

}  // namespace xsdf::core

#endif  // XSDF_CORE_STREAMING_BUILDER_H_
