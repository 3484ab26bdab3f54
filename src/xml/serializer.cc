#include "xml/serializer.h"

#ifdef __SSE2__
#include <emmintrin.h>
#endif

namespace xsdf::xml {

size_t FindEscapable(std::string_view text, size_t from, bool quote) {
  const char* data = text.data();
  const size_t size = text.size();
  size_t i = from;
#ifdef __SSE2__
  const __m128i lt = _mm_set1_epi8('<');
  const __m128i gt = _mm_set1_epi8('>');
  const __m128i amp = _mm_set1_epi8('&');
  const __m128i quot = _mm_set1_epi8(quote ? '"' : '<');
  for (; i + 16 <= size; i += 16) {
    const __m128i block =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(data + i));
    const __m128i hits = _mm_or_si128(
        _mm_or_si128(_mm_cmpeq_epi8(block, lt), _mm_cmpeq_epi8(block, gt)),
        _mm_or_si128(_mm_cmpeq_epi8(block, amp),
                     _mm_cmpeq_epi8(block, quot)));
    const int mask = _mm_movemask_epi8(hits);
    if (mask != 0) return i + static_cast<size_t>(__builtin_ctz(mask));
  }
#endif
  for (; i < size; ++i) {
    const char c = data[i];
    if (c == '<' || c == '>' || c == '&' || (quote && c == '"')) return i;
  }
  return size;
}

namespace {

void AppendIndent(std::string* out, int indent, int depth) {
  if (indent <= 0) return;
  out->push_back('\n');
  out->append(static_cast<size_t>(indent) * static_cast<size_t>(depth), ' ');
}

/// True when the element's content is entirely text (so it is rendered
/// inline: <name>text</name>).
bool HasOnlyTextContent(const Node& node) {
  for (const auto& child : node.children()) {
    if (!child->is_text()) return false;
  }
  return true;
}

void SerializeNode(const Node& node, const SerializeOptions& options,
                   int depth, std::string* out) {
  switch (node.kind()) {
    case NodeKind::kText:
      AppendEscaped<false>(out, node.text());
      return;
    case NodeKind::kCData:
      out->append("<![CDATA[");
      out->append(node.text());
      out->append("]]>");
      return;
    case NodeKind::kComment:
      out->append("<!--");
      out->append(node.text());
      out->append("-->");
      return;
    case NodeKind::kProcessingInstruction:
      out->append("<?");
      out->append(node.name());
      if (!node.text().empty()) {
        out->push_back(' ');
        out->append(node.text());
      }
      out->append("?>");
      return;
    case NodeKind::kElement:
      break;
  }

  out->push_back('<');
  out->append(node.name());
  for (const Attribute& attr : node.attributes()) {
    out->push_back(' ');
    out->append(attr.name);
    out->append("=\"");
    AppendEscapedAttribute(out, attr.value);
    out->push_back('"');
  }
  if (node.children().empty()) {
    out->append("/>");
    return;
  }
  out->push_back('>');
  if (HasOnlyTextContent(node)) {
    for (const auto& child : node.children()) {
      SerializeNode(*child, options, depth + 1, out);
    }
  } else {
    for (const auto& child : node.children()) {
      AppendIndent(out, options.indent, depth + 1);
      SerializeNode(*child, options, depth + 1, out);
    }
    AppendIndent(out, options.indent, depth);
  }
  out->append("</");
  out->append(node.name());
  out->push_back('>');
}

}  // namespace

std::string Serialize(const Node& node, const SerializeOptions& options) {
  std::string out;
  SerializeNode(node, options, 0, &out);
  return out;
}

std::string Serialize(const Document& doc, const SerializeOptions& options) {
  std::string out;
  if (options.declaration) {
    out.append("<?xml version=\"");
    out.append(doc.version().empty() ? "1.0" : doc.version());
    out.push_back('"');
    if (!doc.encoding().empty()) {
      out.append(" encoding=\"");
      out.append(doc.encoding());
      out.push_back('"');
    }
    out.append("?>");
    if (options.indent > 0) out.push_back('\n');
  }
  for (const auto& misc : doc.prolog()) {
    SerializeNode(*misc, options, 0, &out);
    if (options.indent > 0) out.push_back('\n');
  }
  if (doc.root() != nullptr) {
    SerializeNode(*doc.root(), options, 0, &out);
  }
  return out;
}

}  // namespace xsdf::xml
