// Fixture: a recipe struct whose sharing key forgot a member.
#pragma once
#include <cstdint>
#include <string>

struct KeyedBad {
  std::uint32_t blocks = 8;
  double threshold = 0.05;
  std::uint64_t seed = 42;  // never folded into keyOf
};

inline std::string
keyOf(const KeyedBad &r)
{
  return std::to_string(r.blocks) + "|" + std::to_string(r.threshold);
}
