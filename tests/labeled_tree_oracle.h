// Test oracle for core::BuildTreeStreaming: the labeled tree of
// Definition 1 built by a plain recursive walk over the xml::Parse DOM
// — element, then its attributes sorted by name with their value
// tokens, then content in document order — with every node's label
// preprocessed and interned on its own (no memo, no hooks). The
// streaming builder must reproduce it node for node and id for id.

#ifndef XSDF_TESTS_LABELED_TREE_ORACLE_H_
#define XSDF_TESTS_LABELED_TREE_ORACLE_H_

#include <algorithm>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/strings.h"
#include "core/label_space.h"
#include "text/preprocess.h"
#include "wordnet/semantic_network.h"
#include "xml/dom.h"
#include "xml/labeled_tree.h"

namespace xsdf::testing {

struct LabeledTreeOracle {
  const wordnet::SemanticNetwork& network;
  bool include_values;
  core::LabelSpace* label_space;  ///< null: nodes carry no ids
  xml::LabeledTree tree;

  text::LexiconProbe Probe() const {
    return [this](const std::string& lemma) {
      return network.Contains(lemma);
    };
  }

  xml::NodeId Add(xml::NodeId parent, const std::string& label,
                  xml::TreeNodeKind kind, const std::string& raw) {
    uint32_t id = label_space != nullptr ? label_space->Resolve(label)
                                         : xml::kNoLabelId;
    return tree.AddNode(parent, label, id, kind, raw);
  }

  void AddTokens(xml::NodeId parent, const std::string& text) {
    if (!include_values) return;
    for (const std::string& token :
         text::PreprocessTextValue(text, Probe())) {
      if (token.empty()) continue;
      Add(parent, token, xml::TreeNodeKind::kToken, token);
    }
  }

  xml::NodeId AddTag(xml::NodeId parent, const std::string& raw,
                     xml::TreeNodeKind kind) {
    return Add(parent, text::PreprocessTagName(raw, Probe()).label, kind,
               raw);
  }

  void AddElement(xml::NodeId parent, const xml::Node& element) {
    const xml::NodeId id =
        AddTag(parent, element.name(), xml::TreeNodeKind::kElement);
    std::vector<xml::Attribute> attributes = element.attributes();
    std::sort(attributes.begin(), attributes.end(),
              [](const xml::Attribute& a, const xml::Attribute& b) {
                return a.name < b.name;
              });
    for (const xml::Attribute& attribute : attributes) {
      AddTokens(AddTag(id, attribute.name, xml::TreeNodeKind::kAttribute),
                attribute.value);
    }
    for (const xml::Node* child : element.children()) {
      if (child->is_element()) {
        AddElement(id, *child);
      } else if (child->is_text()) {
        AddTokens(id, child->text());
      }
    }
  }
};

/// The oracle tree of `doc`; InvalidArgument when it has no root.
inline Result<xml::LabeledTree> OracleLabeledTree(
    const xml::Document& doc, const wordnet::SemanticNetwork& network,
    bool include_values = true, core::LabelSpace* label_space = nullptr) {
  if (doc.root() == nullptr) {
    return Status::InvalidArgument("document has no root element");
  }
  LabeledTreeOracle oracle{network, include_values, label_space, {}};
  oracle.AddElement(xml::kInvalidNode, *doc.root());
  return std::move(oracle.tree);
}

/// The first difference between two labeled trees — structure, labels,
/// raws, kinds and interned ids — or "" when they are identical.
inline std::string DiffLabeledTrees(const xml::LabeledTree& expected,
                                    const xml::LabeledTree& actual) {
  if (expected.size() != actual.size()) {
    return StrFormat("size %zu != %zu", expected.size(), actual.size());
  }
  for (xml::NodeId id = 0; id < static_cast<xml::NodeId>(expected.size());
       ++id) {
    const xml::TreeNode& a = expected.node(id);
    const xml::TreeNode& b = actual.node(id);
    if (a.label != b.label || a.raw != b.raw || a.kind != b.kind ||
        a.parent != b.parent || a.children != b.children ||
        a.depth != b.depth || expected.label_id(id) != actual.label_id(id)) {
      return StrFormat("node %d: '%s' (raw '%s', id %u) != '%s' (raw '%s', "
                       "id %u)",
                       id, a.label.c_str(), a.raw.c_str(),
                       expected.label_id(id), b.label.c_str(), b.raw.c_str(),
                       actual.label_id(id));
    }
  }
  if (expected.has_label_ids() != actual.has_label_ids()) {
    return "has_label_ids differs";
  }
  return "";
}

}  // namespace xsdf::testing

#endif  // XSDF_TESTS_LABELED_TREE_ORACLE_H_
