// Fixture: public member functions nothing outside tests calls.
#pragma once
#include <cstdint>

class Widget {
 public:
  Widget() = default;
  ~Widget() = default;
  Widget &operator=(const Widget &) = default;

  std::uint64_t used() const { return count_; }
  // Defined out of line below; the definition is not a call.
  std::uint64_t
  neverCalled(std::uint64_t x) const;
  // lint: allow(test-only, fixture: an audit hook kept for tests)
  void auditHook() const {}
  static Widget make();

 private:
  // Private members need no caller; a function pointer is data.
  std::uint64_t helper() const { return 1; }
  void (*callback_)(int) = nullptr;
  std::uint64_t count_ = 0;
};

struct Plain {
  int widthHint() const { return 4; }  // structs default to public
};

inline std::uint64_t
Widget::neverCalled(std::uint64_t x) const
{
  return x + count_;
}

inline Widget
Widget::make()
{
  return Widget{};
}

inline std::uint64_t
total(const Widget &w)
{
  // A digit separator is not a char literal: the calls after it
  // stay visible.
  return 1'000 + w.used() + Widget::make().used();
}
