#pragma once
// Decode of a flat canonical shell-pair index, pair = i*(i+1)/2 + j with
// i >= j. The builders use Screening::pair_shells, a precomputed table;
// this closed form is the independent decode the tests check it against.

#include <cmath>
#include <cstddef>

namespace mc::test {

inline void unpack_pair(std::size_t pair, std::size_t& i, std::size_t& j) {
  // i = floor((sqrt(8p+1)-1)/2), then j = p - i(i+1)/2, with a guard for
  // floating-point edge cases.
  auto ii = static_cast<std::size_t>(
      (std::sqrt(8.0 * static_cast<double>(pair) + 1.0) - 1.0) / 2.0);
  while (ii * (ii + 1) / 2 > pair) --ii;
  while ((ii + 1) * (ii + 2) / 2 <= pair) ++ii;
  i = ii;
  j = pair - ii * (ii + 1) / 2;
}

}  // namespace mc::test
