#ifndef XSDF_XML_SERIALIZER_H_
#define XSDF_XML_SERIALIZER_H_

#include <string>
#include <string_view>

#include "xml/dom.h"

namespace xsdf::xml {

/// Options controlling XML serialization.
struct SerializeOptions {
  /// Indent child elements by this many spaces per level; 0 emits a
  /// single line.
  int indent = 2;
  /// Emit the `<?xml version=... ?>` declaration.
  bool declaration = true;
};

/// Index of the first byte of `text` at or after `from` that needs an
/// entity reference — '<', '>', '&', and '"' when `quote` — or
/// text.size() when none does. Scans 16 bytes per step where SSE2 is
/// available: attribute values (glosses above all) are most of the
/// semantic XML's bytes and almost never hold such a byte.
size_t FindEscapable(std::string_view text, size_t from, bool quote);

/// Appends `text` to `out` with '<', '>' and '&' (and '"' when
/// kQuote) replaced by entity references; runs of plain bytes are
/// appended whole. `Out` is std::string or any sink with
/// append(const char*, size_t), so a byte counter and a writer share
/// the exact escaping.
template <bool kQuote, class Out>
void AppendEscaped(Out* out, std::string_view text) {
  size_t run = 0;  // start of the pending unescaped run
  for (size_t i = FindEscapable(text, 0, kQuote); i < text.size();
       i = FindEscapable(text, i + 1, kQuote)) {
    std::string_view entity;
    switch (text[i]) {
      case '<':
        entity = "&lt;";
        break;
      case '>':
        entity = "&gt;";
        break;
      case '&':
        entity = "&amp;";
        break;
      default:
        entity = "&quot;";
        break;
    }
    out->append(text.data() + run, i - run);
    out->append(entity.data(), entity.size());
    run = i + 1;
  }
  out->append(text.data() + run, text.size() - run);
}

/// Appends `value` escaped for a double-quoted attribute. The DOM
/// serializer and the direct semantic-XML writer both use it.
template <class Out>
void AppendEscapedAttribute(Out* out, std::string_view value) {
  AppendEscaped<true>(out, value);
}

/// Serializes `node` (and its subtree) to XML text.
std::string Serialize(const Node& node, const SerializeOptions& options = {});

/// Serializes the whole document to XML text.
std::string Serialize(const Document& doc,
                      const SerializeOptions& options = {});

}  // namespace xsdf::xml

#endif  // XSDF_XML_SERIALIZER_H_
