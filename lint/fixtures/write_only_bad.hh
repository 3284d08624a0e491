// Fixture: a keyed settings struct with a member nothing reads.
#pragma once
#include <cmath>
#include <cstdint>
#include <string>

struct SettingsBad {
  std::uint32_t lanes = 16;
  // Keyed and written, never read. The call in its initializer must
  // not hide it from the member scan.
  double unusedFraction = std::ldexp(1.0, -1);
};

inline std::string
settingsKey(const SettingsBad &s)
{
  return std::to_string(s.lanes) + "|" +
      std::to_string(s.unusedFraction);
}

inline std::uint32_t
bytesFor(const SettingsBad &s, std::uint32_t elem_bytes)
{
  return s.lanes * elem_bytes;
}

inline void
halve(SettingsBad &s)
{
  s.unusedFraction = 0.25;  // a write is not a read
}
