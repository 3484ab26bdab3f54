// Whole-document byte comparison for tests that compare engine outputs
// of up to several MB. EXPECT_EQ on two such strings hands them to
// gtest's line diff, which on a mismatch can take long enough (and
// allocate enough) that the binary dies after "[ RUN ]" without a
// report. SameBytes compares with ==, and on a mismatch reports both
// sizes, the first differing offset and ~64 bytes of context from each
// side:
//
//   EXPECT_TRUE(testing::SameBytes(reference, output)) << name;

#ifndef XSDF_TESTS_SAME_BYTES_H_
#define XSDF_TESTS_SAME_BYTES_H_

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <string>
#include <string_view>

namespace xsdf::testing {

/// Up to 64 bytes of `text` around `offset`, with control bytes
/// escaped so a newline cannot break the report.
inline std::string ContextAround(std::string_view text, size_t offset) {
  const size_t begin = std::min(offset < 16 ? 0 : offset - 16, text.size());
  const std::string_view window = text.substr(begin, 64);
  std::string out;
  for (char c : window) {
    if (c == '\n') {
      out += "\\n";
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += '?';
    } else {
      out += c;
    }
  }
  return out;
}

inline ::testing::AssertionResult SameBytes(std::string_view expected,
                                            std::string_view actual) {
  if (expected == actual) return ::testing::AssertionSuccess();
  const size_t common = std::min(expected.size(), actual.size());
  size_t offset = 0;
  while (offset < common && expected[offset] == actual[offset]) ++offset;
  return ::testing::AssertionFailure()
         << "outputs differ: expected " << expected.size()
         << " bytes, actual " << actual.size()
         << " bytes; first difference at offset " << offset
         << "\n  expected: \"" << ContextAround(expected, offset)
         << "\"\n  actual:   \"" << ContextAround(actual, offset) << "\"";
}

}  // namespace xsdf::testing

#endif  // XSDF_TESTS_SAME_BYTES_H_
