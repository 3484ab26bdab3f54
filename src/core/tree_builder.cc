#include "core/tree_builder.h"

#include "common/strings.h"

namespace xsdf::core {

std::vector<std::string> LabelSenseTokens(
    const wordnet::SemanticNetwork& network, const std::string& label) {
  if (label.empty()) return {};
  if (network.Contains(label)) return {label};
  if (label.find('_') == std::string::npos) return {label};
  std::vector<std::string> tokens;
  for (std::string& token : StrSplit(label, '_')) {
    if (!token.empty()) tokens.push_back(std::move(token));
  }
  return tokens;
}

}  // namespace xsdf::core
