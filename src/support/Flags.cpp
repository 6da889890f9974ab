//===- support/Flags.cpp - Declarative command-line flags -----------------===//
//
// Part of the Typilus C++ reproduction.
//
//===----------------------------------------------------------------------===//

#include "support/Flags.h"

#include "support/Str.h"

#include <algorithm>
#include <map>
#include <sstream>
#include <type_traits>

namespace typilus {

namespace {

/// The field \p F writes; two flags naming one field are exclusive.
const void *fieldOf(const Flag &F) {
  return std::visit(
      [](auto Dest) -> const void * {
        if constexpr (std::is_same_v<decltype(Dest), FlagAlias>)
          return Dest.Dest;
        else
          return Dest;
      },
      F.Dest);
}

/// Stores \p V (ignored by switches) into \p F's field. \returns false
/// when V is not a number of the field's type inside F's range.
bool assign(const Flag &F, const std::string &V) {
  return std::visit(
      [&](auto Dest) {
        using T = decltype(Dest);
        if constexpr (std::is_same_v<T, FlagAlias>) {
          *Dest.Dest = Dest.Value;
        } else if constexpr (std::is_same_v<T, bool *>) {
          *Dest = true;
        } else if constexpr (std::is_same_v<T, std::string *>) {
          *Dest = V;
        } else if constexpr (std::is_same_v<T, std::vector<std::string> *>) {
          Dest->push_back(V);
        } else {
          std::remove_pointer_t<T> N{};
          if (!parseNumber(V, N) || static_cast<double>(N) < F.Min ||
              static_cast<double>(N) > F.Max)
            return false;
          *Dest = N;
        }
        return true;
      },
      F.Dest);
}

/// What numeric flag \p F accepts, e.g. "an integer in 0..65535".
std::string expectation(const Flag &F) {
  std::string S = "an integer";
  if (std::holds_alternative<double *>(F.Dest))
    S = "a finite number";
  else if (std::holds_alternative<uint64_t *>(F.Dest))
    S = "a non-negative integer";
  if (F.Max != HUGE_VAL)
    return S + strformat(" in %g..%g", F.Min, F.Max);
  return F.Min != -HUGE_VAL ? S + strformat(" >= %g", F.Min) : S;
}

/// "--a, --b and --c": every flag of \p Table writing \p F's field.
std::string sharers(const std::vector<Flag> &Table, const Flag &F) {
  std::vector<std::string> Names;
  for (const Flag &G : Table)
    if (fieldOf(G) == fieldOf(F))
      Names.push_back(G.Name);
  std::string Last = Names.back();
  Names.pop_back();
  return join(Names, ", ") + " and " + Last;
}

} // namespace

bool parseFlags(const std::vector<Flag> &Table,
                const std::vector<std::string> &Args, std::string *Err) {
  std::map<const void *, const Flag *> Given; // field -> the flag that set it
  const Flag *LastSwitch = nullptr;
  for (size_t I = 0; I != Args.size(); ++I) {
    const std::string &A = Args[I];
    auto It = std::find_if(Table.begin(), Table.end(),
                           [&](const Flag &F) { return A == F.Name; });
    if (It == Table.end()) {
      // A bare word right after a switch reads as that switch's value.
      if (LastSwitch && A.rfind("--", 0) != 0)
        *Err = std::string(LastSwitch->Name) + " takes no value, got '" + A +
               "'";
      else
        *Err = "unknown option '" + A + "'";
      return false;
    }
    const Flag &F = *It;
    const Flag *&Prev = Given[fieldOf(F)];
    if (Prev && Prev != &F) {
      *Err = sharers(Table, F) + " are mutually exclusive";
      return false;
    }
    Prev = &F;
    bool Switch = std::holds_alternative<bool *>(F.Dest) ||
                  std::holds_alternative<FlagAlias>(F.Dest);
    std::string V;
    if (!Switch) {
      if (I + 1 == Args.size()) {
        *Err = std::string(F.Name) + " expects a value";
        return false;
      }
      V = Args[++I];
    }
    if (!assign(F, V)) {
      *Err = std::string(F.Name) + " expects " + expectation(F) + ", got '" +
             V + "'";
      return false;
    }
    LastSwitch = Switch ? &F : nullptr;
  }
  return true;
}

std::string flagHelp(const std::vector<Flag> &Table) {
  auto Head = [](const Flag &F) {
    return std::string("  ") + F.Name + (*F.Meta ? " " : "") + F.Meta;
  };
  size_t Col = 0;
  for (const Flag &F : Table)
    Col = std::max(Col, Head(F).size() + 2);
  std::string Out;
  for (const Flag &F : Table) {
    std::string Line = Head(F);
    Line.resize(Col, ' ');
    std::istringstream Words(F.Help);
    for (std::string W; Words >> W;) {
      if (Line.size() > Col && Line.size() + 1 + W.size() > 80) {
        Out += Line + "\n";
        Line.assign(Col, ' ');
      }
      if (Line.size() > Col)
        Line += ' ';
      Line += W;
    }
    Out += Line + "\n";
  }
  return Out;
}

} // namespace typilus
