#ifndef XSDF_XML_DOM_H_
#define XSDF_XML_DOM_H_

#include <deque>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace xsdf::xml {

/// Kind of a DOM node produced by the parser.
enum class NodeKind {
  kElement,
  kText,
  kCData,
  kComment,
  kProcessingInstruction,
};

/// A single name="value" attribute on an element.
struct Attribute {
  std::string name;
  std::string value;
};

/// One node of the parsed XML document (W3C DOM-inspired, trimmed to
/// what XSDF consumes). All nodes of a document live in the document's
/// node storage; elements link to their children by plain pointer, and
/// all other kinds are leaves.
class Node {
 public:
  /// Nodes are normally created through Document::NewNode()/
  /// NewElement() or the Add* helpers below; `storage` is the owning
  /// document's node storage and must outlive the node.
  Node(NodeKind kind, std::deque<Node>* storage)
      : kind_(kind), storage_(storage) {}

  Node(const Node&) = delete;
  Node& operator=(const Node&) = delete;

  NodeKind kind() const { return kind_; }
  bool is_element() const { return kind_ == NodeKind::kElement; }
  bool is_text() const {
    return kind_ == NodeKind::kText || kind_ == NodeKind::kCData;
  }

  /// Element tag name, or processing-instruction target.
  const std::string& name() const { return name_; }
  void set_name(std::string name) { name_ = std::move(name); }

  /// Character content for text/CDATA/comment/PI nodes.
  const std::string& text() const { return text_; }
  void set_text(std::string text) { text_ = std::move(text); }

  const std::vector<Attribute>& attributes() const { return attributes_; }
  std::vector<Attribute>& mutable_attributes() { return attributes_; }
  void AddAttribute(std::string name, std::string value) {
    attributes_.push_back({std::move(name), std::move(value)});
  }
  /// Returns the value of attribute `name`, or nullptr when absent.
  const std::string* FindAttribute(std::string_view name) const;

  /// Children in document order (borrowed; owned by the document).
  const std::vector<Node*>& children() const { return children_; }
  /// Appends `child` (a node of the same document) and returns it.
  Node* AddChild(Node* child);
  /// Creates, appends, and returns a new child element named `name`.
  Node* AddElement(std::string name);
  /// Creates and appends a text child holding `text`.
  Node* AddText(std::string text);

  /// First child element with the given tag name, or nullptr.
  const Node* FindChildElement(std::string_view name) const;
  /// All child elements with the given tag name.
  std::vector<const Node*> FindChildElements(std::string_view name) const;

  /// Concatenation of all descendant text content (no separators).
  std::string InnerText() const;

  /// Number of element children.
  size_t ElementChildCount() const;

 private:
  NodeKind kind_;
  std::deque<Node>* storage_;
  std::string name_;
  std::string text_;
  std::vector<Attribute> attributes_;
  std::vector<Node*> children_;
};

/// A parsed XML document: optional declaration, prolog misc nodes, and
/// exactly one root element. The document owns every node; node
/// pointers stay valid while the document (or a document it was moved
/// into) is alive.
class Document {
 public:
  Document() : nodes_(std::make_unique<std::deque<Node>>()) {}
  Document(const Document&) = delete;
  Document& operator=(const Document&) = delete;
  Document(Document&&) = default;
  Document& operator=(Document&&) = default;

  const std::string& version() const { return version_; }
  const std::string& encoding() const { return encoding_; }
  void set_version(std::string v) { version_ = std::move(v); }
  void set_encoding(std::string e) { encoding_ = std::move(e); }

  /// Creates a node owned by this document.
  Node* NewNode(NodeKind kind) {
    return &nodes_->emplace_back(kind, nodes_.get());
  }
  /// Creates an element node named `name` owned by this document.
  Node* NewElement(std::string name);

  const Node* root() const { return root_; }
  Node* mutable_root() { return root_; }
  void set_root(Node* root) { root_ = root; }

  /// Comments / PIs appearing before the root element.
  const std::vector<Node*>& prolog() const { return prolog_; }
  void AddPrologNode(Node* node) { prolog_.push_back(node); }

  /// Total number of element nodes in the document.
  size_t CountElements() const;

 private:
  /// Every node of the document. Heap-held, so a move of the document
  /// keeps node pointers valid; a deque never relocates its elements,
  /// and destroys them one after another rather than recursively, so
  /// any nesting depth is safe to free.
  std::unique_ptr<std::deque<Node>> nodes_;
  std::string version_ = "1.0";
  std::string encoding_;
  Node* root_ = nullptr;
  std::vector<Node*> prolog_;
};

}  // namespace xsdf::xml

#endif  // XSDF_XML_DOM_H_
