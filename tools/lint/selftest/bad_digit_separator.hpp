// Fixture: digit separators. A C++14 digit separator is not a char-literal
// quote, so the code after it on the line is still scanned (here by the
// wall-clock rule). An encoding-prefixed char literal still blanks.
#pragma once
#include <cstdlib>

namespace fixture {

inline long digit_separators() {
  long n = 1'000'000 + 0xFF'FF + rand();  // EXPECT-LINT: wall-clock
  long m = 10'000 * rand();               // EXPECT-LINT: wall-clock
  auto c = u8'a' + rand();                // EXPECT-LINT: wall-clock

  // GOOD: a plain char literal still blanks what it holds.
  const char q = 'r';
  return n + m + c + q;
}

}  // namespace fixture
