#include "xml/dom.h"

namespace xsdf::xml {

const std::string* Node::FindAttribute(std::string_view name) const {
  for (const Attribute& attr : attributes_) {
    if (attr.name == name) return &attr.value;
  }
  return nullptr;
}

Node* Node::AddChild(Node* child) {
  children_.push_back(child);
  return child;
}

Node* Node::AddElement(std::string name) {
  Node* child = &storage_->emplace_back(NodeKind::kElement, storage_);
  child->set_name(std::move(name));
  return AddChild(child);
}

Node* Node::AddText(std::string text) {
  Node* child = &storage_->emplace_back(NodeKind::kText, storage_);
  child->set_text(std::move(text));
  return AddChild(child);
}

const Node* Node::FindChildElement(std::string_view name) const {
  for (const Node* child : children_) {
    if (child->is_element() && child->name() == name) return child;
  }
  return nullptr;
}

std::vector<const Node*> Node::FindChildElements(
    std::string_view name) const {
  std::vector<const Node*> out;
  for (const Node* child : children_) {
    if (child->is_element() && child->name() == name) {
      out.push_back(child);
    }
  }
  return out;
}

std::string Node::InnerText() const {
  std::string out;
  if (is_text()) out += text_;
  for (const Node* child : children_) out += child->InnerText();
  return out;
}

size_t Node::ElementChildCount() const {
  size_t n = 0;
  for (const Node* child : children_) {
    if (child->is_element()) ++n;
  }
  return n;
}

Node* Document::NewElement(std::string name) {
  Node* node = NewNode(NodeKind::kElement);
  node->set_name(std::move(name));
  return node;
}

namespace {
size_t CountElementsIn(const Node& node) {
  size_t n = node.is_element() ? 1 : 0;
  for (const Node* child : node.children()) n += CountElementsIn(*child);
  return n;
}
}  // namespace

size_t Document::CountElements() const {
  return root_ ? CountElementsIn(*root_) : 0;
}

}  // namespace xsdf::xml
