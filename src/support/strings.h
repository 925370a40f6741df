// Numbered names for generated nodes, elements, circuits and jobs.
#pragma once

#include <string>
#include <string_view>

namespace symref::support {

/// `prefix` followed by the decimal digits of `n` ("n", 12 -> "n12").
/// Built by appending: g++ 12 reports a false-positive -Wrestrict wherever
/// it inlines the equivalent `"n" + std::to_string(n)`.
template <typename Integer>
std::string numbered(std::string_view prefix, Integer n) {
  std::string out(prefix);
  out += std::to_string(n);
  return out;
}

}  // namespace symref::support
