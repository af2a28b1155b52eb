// One name table per enum. The same rows render a value (to_string, the
// RunReport config) and parse it back (command-line flags, artifact fields),
// so the two directions cannot drift apart.
//
// An enum opts in by declaring, next to itself,
//   inline auto enum_names(E) {
//     static constexpr EnumName<E> kNames[] = {{E::A, "a"}, ...};
//     return std::span(kNames);
//   }
// which to_string() and enum_from_string() find by argument-dependent
// lookup. Enums outside namespace pdslin bring to_string into their own
// namespace with `using pdslin::to_string;`.
#pragma once

#include <span>
#include <string_view>

namespace pdslin {

template <class E>
struct EnumName {
  E value;
  const char* name;
};

template <class E>
concept NamedEnum = requires(E e) { enum_names(e); };

/// The table name of `v`, or "?" when the table lacks it.
template <NamedEnum E>
const char* to_string(E v) {
  for (const EnumName<E>& n : enum_names(v)) {
    if (n.value == v) return n.name;
  }
  return "?";
}

/// Parse a table name; returns false (leaving `out` alone) on unknown names.
template <NamedEnum E>
bool enum_from_string(std::string_view s, E& out) {
  for (const EnumName<E>& n : enum_names(E{})) {
    if (s == n.name) {
      out = n.value;
      return true;
    }
  }
  return false;
}

}  // namespace pdslin
