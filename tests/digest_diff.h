// FirstDiffLine: a bounded failure message for comparing two whole-fleet dumps.
//
// Tests that diff table dumps check `EXPECT_TRUE(a == b) << FirstDiffLine(a, b)`
// rather than `EXPECT_EQ(a, b)`: on a mismatch gtest builds a line diff of the two
// strings whose memory grows with the product of their line counts, which for a
// fleet dump can exhaust the machine. This reports only the first differing line.

#ifndef TESTS_DIGEST_DIFF_H_
#define TESTS_DIGEST_DIFF_H_

#include <string>

#include "src/common/strings.h"

namespace p2 {

inline std::string FirstDiffLine(const std::string& a, const std::string& b) {
  size_t start = 0;
  size_t line = 1;
  while (start < a.size() && start < b.size()) {
    size_t ea = a.find('\n', start);
    size_t eb = b.find('\n', start);
    std::string la = a.substr(start, ea - start);
    std::string lb = b.substr(start, eb - start);
    if (la != lb || ea != eb) {
      return StrFormat("line %zu:\n  expected: %s\n  actual:   %s", line, la.c_str(),
                       lb.c_str());
    }
    if (ea == std::string::npos) {
      break;
    }
    start = ea + 1;
    ++line;
  }
  return a.size() == b.size() ? "(no diff)" : "(one digest is a prefix of the other)";
}

}  // namespace p2

#endif  // TESTS_DIGEST_DIFF_H_
