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

/// Memory accounting for one streaming build.
struct StreamingBuildStats {
  /// High-water mark of the builder's transient scaffolding (the
  /// open-element stack plus the buffered attributes and pending text
  /// of the element currently being opened) — what replaces the DOM +
  /// arena that Parse + BuildTree keep resident. Bounded by tree depth
  /// plus one start tag, not document size.
  size_t scaffold_peak_bytes = 0;
};

/// One-pass streaming front end: parses `xml_text` with
/// `xml::StreamParse` and builds the labeled tree directly from the
/// open/attribute/text/close event stream, never materializing a DOM.
/// Interning and pre-processing run through the same `TreeBuildCache`
/// memos as `BuildTree` (ResolveTagMemo / TokenizeValueMemo) and nodes
/// are emitted in the same order the DOM walk produces — element, then
/// attributes sorted by name with their value tokens, then content in
/// document order — so the resulting tree (labels, raws, kinds,
/// structure, and interned ids, including LabelSpace interning order)
/// is identical to Parse + BuildTree on the same input. That identity
/// is pinned by tests/streaming_test.cc over the generated-XML corpus.
///
/// `cache` and `label_space` follow the BuildTree contract (optional,
/// single-threaded use). Parse failures and limit violations return
/// the parser's Status unchanged.
Result<xml::LabeledTree> BuildTreeStreaming(
    std::string_view xml_text, const wordnet::SemanticNetwork& network,
    const xml::ParseOptions& parse_options = {}, bool include_values = true,
    LabelSpace* label_space = nullptr, TreeBuildCache* cache = nullptr,
    StreamingBuildStats* stats = nullptr);

}  // namespace xsdf::core

#endif  // XSDF_CORE_STREAMING_BUILDER_H_
