//===- support/Flags.h - Declarative command-line flags ---------*- C++ -*-===//
//
// Part of the Typilus C++ reproduction.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// One flag table per tool. Each flag is declared once: its spelling, the
/// field its value lands in (whose type picks the parse), an inclusive
/// range and its help text. parseFlags fills the fields from a command
/// line; flagHelp renders the usage lines from the same table.
///
/// Parsing is strict. A number must be the whole token, base 10, fit its
/// field and lie in the flag's range; a double must also be finite. A
/// missing value, an unknown flag, a value after a switch and two flags
/// sharing one field (an alias next to its canonical flag) are errors
/// too. Every error is one line naming the flag and the value it got.
///
//===----------------------------------------------------------------------===//

#ifndef TYPILUS_SUPPORT_FLAGS_H
#define TYPILUS_SUPPORT_FLAGS_H

#include <charconv>
#include <cmath>
#include <cstdint>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

namespace typilus {

/// A switch that stores a fixed spelling into a string field: `--exact`
/// is `--index exact`.
struct FlagAlias {
  std::string *Dest;
  const char *Value;
};

/// Where a flag's value lands. Bool and FlagAlias fields are switches
/// (no value); a string vector collects every repetition of its flag.
using FlagDest =
    std::variant<bool *, int *, int64_t *, uint64_t *, double *, std::string *,
                 std::vector<std::string> *, FlagAlias>;

struct Flag {
  const char *Name; ///< Spelling with the dashes, e.g. "--hidden".
  FlagDest Dest;
  const char *Meta; ///< Value placeholder in the help ("N"); "" for switches.
  const char *Help;
  double Min = -HUGE_VAL; ///< Inclusive range; numeric fields only.
  double Max = HUGE_VAL;
};

/// Parses \p Args against \p Table into the flags' fields. \returns false
/// with \p Err set to a one-line message at the first bad argument (the
/// fields may then be partly written).
bool parseFlags(const std::vector<Flag> &Table,
                const std::vector<std::string> &Args, std::string *Err);

/// The usage lines for \p Table: one "  --name META  help" entry per flag,
/// help wrapped to 80 columns.
std::string flagHelp(const std::vector<Flag> &Table);

/// Strict number parse: all of \p Text is one base-10 number that fits T
/// and is finite. \p Out is written only on success.
template <typename T> bool parseNumber(std::string_view Text, T &Out) {
  T V{};
  const char *End = Text.data() + Text.size();
  auto [Stop, Ec] = std::from_chars(Text.data(), End, V);
  if (Ec != std::errc() || Stop != End || !std::isfinite(double(V)))
    return false;
  Out = V;
  return true;
}

} // namespace typilus

#endif // TYPILUS_SUPPORT_FLAGS_H
