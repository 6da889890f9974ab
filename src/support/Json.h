//===- support/Json.h - Minimal JSON reader/writer ----------------*- C++ -*-===//
//
// Part of the Typilus C++ reproduction.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The JSON substrate of the serving protocol (docs/ARCHITECTURE.md
/// "Serving"): a small DOM value, a strict recursive-descent parser with
/// depth and size guards, and string-literal emission. Follows the
/// codebase's error style — no exceptions, `std::string *Err`
/// out-parameters — and is deliberately tiny: the protocol needs flat
/// objects of scalars plus one nested candidates array, not a framework.
///
//===----------------------------------------------------------------------===//

#ifndef TYPILUS_SUPPORT_JSON_H
#define TYPILUS_SUPPORT_JSON_H

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace typilus {
namespace json {

/// One parsed JSON value. Object members preserve source order and are
/// looked up linearly (protocol objects have a handful of keys).
class Value {
public:
  enum class Kind { Null, Bool, Number, String, Array, Object };

  Value() = default;

  Kind kind() const { return K; }
  bool isNull() const { return K == Kind::Null; }
  bool isBool() const { return K == Kind::Bool; }
  bool isNumber() const { return K == Kind::Number; }
  bool isString() const { return K == Kind::String; }
  bool isArray() const { return K == Kind::Array; }
  bool isObject() const { return K == Kind::Object; }

  bool asBool() const { return B; }
  double asNumber() const { return Num; }
  /// The number when it is an integer in [\p Lo, \p Hi]; nothing for a
  /// non-number, a fraction or a value outside the range (request ids,
  /// limits).
  std::optional<int64_t> asInt(int64_t Lo = INT64_MIN,
                               int64_t Hi = INT64_MAX) const;
  const std::string &asString() const { return Str; }
  const std::vector<Value> &array() const { return Arr; }
  const std::vector<std::pair<std::string, Value>> &members() const {
    return Members;
  }

  /// First member named \p Key, or null when absent / not an object.
  const Value *find(std::string_view Key) const;

  /// Typed member accessors with defaults (absent or wrongly-typed members,
  /// and for getInt non-integers, yield the default — callers validate
  /// presence with find()).
  int64_t getInt(std::string_view Key, int64_t Default) const;
  std::string getString(std::string_view Key, std::string_view Default) const;
  bool getBool(std::string_view Key, bool Default) const;

  static Value makeNull() { return Value(); }
  static Value makeBool(bool V);
  static Value makeNumber(double V);
  static Value makeString(std::string V);
  static Value makeArray(std::vector<Value> V);
  static Value makeObject(std::vector<std::pair<std::string, Value>> V);

private:
  Kind K = Kind::Null;
  bool B = false;
  double Num = 0;
  std::string Str;
  std::vector<Value> Arr;
  std::vector<std::pair<std::string, Value>> Members;
};

/// Parses exactly one JSON value spanning all of \p Text (trailing
/// whitespace allowed, trailing garbage rejected). Nesting is capped at
/// \p MaxDepth. \returns false and sets \p Err on malformed input.
bool parse(std::string_view Text, Value &Out, std::string *Err,
           int MaxDepth = 64);

/// Appends \p S as a JSON string literal (quotes included) to \p Out,
/// escaping quotes, backslashes and control characters.
void appendQuoted(std::string &Out, std::string_view S);

/// appendQuoted into a fresh string.
std::string quoted(std::string_view S);

/// Appends \p V in shortest round-trip form ("%.17g"; NaN/Inf, which JSON
/// cannot carry, are emitted as null).
void appendNumber(std::string &Out, double V);

} // namespace json
} // namespace typilus

#endif // TYPILUS_SUPPORT_JSON_H
