// Fixture: nested-name lookup for wholesale snapshot classes.
// `NestedBad::State` must resolve to the State inside NestedBad, not
// to the first `struct State` in the file, so the aliasing member of
// the nested one is flagged and the clean decoy is not.
#pragma once
#include <cstdint>

struct Decoy {
  struct State {
    std::uint64_t value = 0;
  };
};

struct NestedBad {
  struct State {
    std::uint64_t value = 0;
    std::uint64_t *shared = nullptr;  // aliases across forks
  };
  State s;
};
