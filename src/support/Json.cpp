//===- support/Json.cpp - Minimal JSON reader/writer ---------------------------===//

#include "support/Json.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>

using namespace typilus;
using namespace typilus::json;

//===----------------------------------------------------------------------===//
// Value
//===----------------------------------------------------------------------===//

const Value *Value::find(std::string_view Key) const {
  if (K != Kind::Object)
    return nullptr;
  for (const auto &[Name, V] : Members)
    if (Name == Key)
      return &V;
  return nullptr;
}

std::optional<int64_t> Value::asInt(int64_t Lo, int64_t Hi) const {
  // -2^63 and 2^63 are exact doubles, and every integral double in
  // [-2^63, 2^63) converts to int64_t without overflow.
  if (!isNumber() || Num != std::trunc(Num) || !(Num >= -0x1p63) ||
      !(Num < 0x1p63))
    return std::nullopt;
  int64_t I = static_cast<int64_t>(Num);
  if (I < Lo || I > Hi)
    return std::nullopt;
  return I;
}

int64_t Value::getInt(std::string_view Key, int64_t Default) const {
  const Value *V = find(Key);
  return V ? V->asInt().value_or(Default) : Default;
}

std::string Value::getString(std::string_view Key,
                             std::string_view Default) const {
  const Value *V = find(Key);
  return V && V->isString() ? V->asString() : std::string(Default);
}

bool Value::getBool(std::string_view Key, bool Default) const {
  const Value *V = find(Key);
  return V && V->isBool() ? V->asBool() : Default;
}

Value Value::makeBool(bool V) {
  Value R;
  R.K = Kind::Bool;
  R.B = V;
  return R;
}

Value Value::makeNumber(double V) {
  Value R;
  R.K = Kind::Number;
  R.Num = V;
  return R;
}

Value Value::makeString(std::string V) {
  Value R;
  R.K = Kind::String;
  R.Str = std::move(V);
  return R;
}

Value Value::makeArray(std::vector<Value> V) {
  Value R;
  R.K = Kind::Array;
  R.Arr = std::move(V);
  return R;
}

Value Value::makeObject(std::vector<std::pair<std::string, Value>> V) {
  Value R;
  R.K = Kind::Object;
  R.Members = std::move(V);
  return R;
}

//===----------------------------------------------------------------------===//
// Parser
//===----------------------------------------------------------------------===//

namespace {

/// Strict single-pass recursive-descent parser. Position-carrying so error
/// messages name the byte offset.
class Parser {
public:
  Parser(std::string_view Text, int MaxDepth) : T(Text), Limit(MaxDepth) {}

  bool run(Value &Out, std::string *Err) {
    Error.clear();
    if (!parseValue(Out, 0))
      return fail(Err);
    skipWs();
    if (Pos != T.size()) {
      Error = "trailing garbage";
      return fail(Err);
    }
    return true;
  }

private:
  bool fail(std::string *Err) {
    if (Error.empty())
      return true;
    if (Err)
      *Err = "invalid JSON at byte " + std::to_string(Pos) + ": " + Error;
    return false;
  }

  void skipWs() {
    while (Pos < T.size() && (T[Pos] == ' ' || T[Pos] == '\t' ||
                              T[Pos] == '\n' || T[Pos] == '\r'))
      ++Pos;
  }

  bool eat(char C) {
    skipWs();
    if (Pos < T.size() && T[Pos] == C) {
      ++Pos;
      return true;
    }
    return false;
  }

  bool expect(char C, const char *What) {
    if (eat(C))
      return true;
    Error = std::string("expected ") + What;
    return false;
  }

  bool literal(std::string_view Word) {
    if (T.substr(Pos, Word.size()) != Word)
      return false;
    Pos += Word.size();
    return true;
  }

  bool parseValue(Value &Out, int Depth) {
    if (Depth > Limit) {
      Error = "nesting too deep";
      return false;
    }
    skipWs();
    if (Pos >= T.size()) {
      Error = "unexpected end of input";
      return false;
    }
    char C = T[Pos];
    switch (C) {
    case '{':
      return parseObject(Out, Depth);
    case '[':
      return parseArray(Out, Depth);
    case '"': {
      std::string S;
      if (!parseString(S))
        return false;
      Out = Value::makeString(std::move(S));
      return true;
    }
    case 't':
      if (literal("true")) {
        Out = Value::makeBool(true);
        return true;
      }
      break;
    case 'f':
      if (literal("false")) {
        Out = Value::makeBool(false);
        return true;
      }
      break;
    case 'n':
      if (literal("null")) {
        Out = Value::makeNull();
        return true;
      }
      break;
    default:
      if (C == '-' || (C >= '0' && C <= '9'))
        return parseNumber(Out);
      break;
    }
    Error = "unexpected character";
    return false;
  }

  bool parseObject(Value &Out, int Depth) {
    ++Pos; // '{'
    std::vector<std::pair<std::string, Value>> Members;
    skipWs();
    if (eat('}')) {
      Out = Value::makeObject(std::move(Members));
      return true;
    }
    for (;;) {
      skipWs();
      if (Pos >= T.size() || T[Pos] != '"') {
        Error = "expected object key";
        return false;
      }
      std::string Key;
      if (!parseString(Key))
        return false;
      if (!expect(':', "':' after object key"))
        return false;
      Value V;
      if (!parseValue(V, Depth + 1))
        return false;
      Members.emplace_back(std::move(Key), std::move(V));
      if (eat(','))
        continue;
      if (!expect('}', "',' or '}' in object"))
        return false;
      Out = Value::makeObject(std::move(Members));
      return true;
    }
  }

  bool parseArray(Value &Out, int Depth) {
    ++Pos; // '['
    std::vector<Value> Elems;
    skipWs();
    if (eat(']')) {
      Out = Value::makeArray(std::move(Elems));
      return true;
    }
    for (;;) {
      Value V;
      if (!parseValue(V, Depth + 1))
        return false;
      Elems.push_back(std::move(V));
      if (eat(','))
        continue;
      if (!expect(']', "',' or ']' in array"))
        return false;
      Out = Value::makeArray(std::move(Elems));
      return true;
    }
  }

  /// Appends \p Code as UTF-8.
  static void appendUtf8(std::string &S, uint32_t Code) {
    if (Code < 0x80) {
      S.push_back(static_cast<char>(Code));
    } else if (Code < 0x800) {
      S.push_back(static_cast<char>(0xC0 | (Code >> 6)));
      S.push_back(static_cast<char>(0x80 | (Code & 0x3F)));
    } else if (Code < 0x10000) {
      S.push_back(static_cast<char>(0xE0 | (Code >> 12)));
      S.push_back(static_cast<char>(0x80 | ((Code >> 6) & 0x3F)));
      S.push_back(static_cast<char>(0x80 | (Code & 0x3F)));
    } else {
      S.push_back(static_cast<char>(0xF0 | (Code >> 18)));
      S.push_back(static_cast<char>(0x80 | ((Code >> 12) & 0x3F)));
      S.push_back(static_cast<char>(0x80 | ((Code >> 6) & 0x3F)));
      S.push_back(static_cast<char>(0x80 | (Code & 0x3F)));
    }
  }

  bool parseHex4(uint32_t &Out) {
    if (Pos + 4 > T.size()) {
      Error = "truncated \\u escape";
      return false;
    }
    Out = 0;
    for (int I = 0; I != 4; ++I) {
      char C = T[Pos + static_cast<size_t>(I)];
      uint32_t D;
      if (C >= '0' && C <= '9')
        D = static_cast<uint32_t>(C - '0');
      else if (C >= 'a' && C <= 'f')
        D = static_cast<uint32_t>(C - 'a' + 10);
      else if (C >= 'A' && C <= 'F')
        D = static_cast<uint32_t>(C - 'A' + 10);
      else {
        Error = "bad \\u escape";
        return false;
      }
      Out = Out * 16 + D;
    }
    Pos += 4;
    return true;
  }

  bool parseString(std::string &Out) {
    ++Pos; // '"'
    Out.clear();
    for (;;) {
      if (Pos >= T.size()) {
        Error = "unterminated string";
        return false;
      }
      unsigned char C = static_cast<unsigned char>(T[Pos]);
      if (C == '"') {
        ++Pos;
        return true;
      }
      if (C < 0x20) {
        Error = "raw control character in string";
        return false;
      }
      if (C != '\\') {
        Out.push_back(static_cast<char>(C));
        ++Pos;
        continue;
      }
      ++Pos; // '\'
      if (Pos >= T.size()) {
        Error = "truncated escape";
        return false;
      }
      char E = T[Pos++];
      switch (E) {
      case '"':
        Out.push_back('"');
        break;
      case '\\':
        Out.push_back('\\');
        break;
      case '/':
        Out.push_back('/');
        break;
      case 'b':
        Out.push_back('\b');
        break;
      case 'f':
        Out.push_back('\f');
        break;
      case 'n':
        Out.push_back('\n');
        break;
      case 'r':
        Out.push_back('\r');
        break;
      case 't':
        Out.push_back('\t');
        break;
      case 'u': {
        uint32_t Code;
        if (!parseHex4(Code))
          return false;
        // Combine a surrogate pair; a lone surrogate becomes U+FFFD
        // without swallowing whatever follows it.
        if (Code >= 0xD800 && Code <= 0xDBFF) {
          size_t Mark = Pos;
          uint32_t Low = 0;
          bool HaveLow = false;
          if (Pos + 1 < T.size() && T[Pos] == '\\' && T[Pos + 1] == 'u') {
            Pos += 2;
            if (!parseHex4(Low))
              return false;
            HaveLow = true;
          }
          if (HaveLow && Low >= 0xDC00 && Low <= 0xDFFF) {
            Code = 0x10000 + ((Code - 0xD800) << 10) + (Low - 0xDC00);
          } else {
            // Unpaired high surrogate: emit the replacement char and
            // reprocess the lookahead escape (if any) on its own.
            Code = 0xFFFD;
            Pos = Mark;
          }
        } else if (Code >= 0xDC00 && Code <= 0xDFFF) {
          Code = 0xFFFD;
        }
        appendUtf8(Out, Code);
        break;
      }
      default:
        Error = "unknown escape";
        return false;
      }
    }
  }

  bool parseNumber(Value &Out) {
    size_t Start = Pos;
    if (Pos < T.size() && T[Pos] == '-')
      ++Pos;
    auto Digits = [&] {
      size_t N = 0;
      while (Pos < T.size() && T[Pos] >= '0' && T[Pos] <= '9') {
        ++Pos;
        ++N;
      }
      return N;
    };
    size_t IntDigits = Digits();
    if (IntDigits == 0) {
      Error = "malformed number";
      return false;
    }
    // JSON forbids leading zeros ("01"), which strtod would accept.
    if (IntDigits > 1 && T[Start + (T[Start] == '-' ? 1 : 0)] == '0') {
      Error = "leading zero in number";
      return false;
    }
    if (Pos < T.size() && T[Pos] == '.') {
      ++Pos;
      if (Digits() == 0) {
        Error = "malformed number";
        return false;
      }
    }
    if (Pos < T.size() && (T[Pos] == 'e' || T[Pos] == 'E')) {
      ++Pos;
      if (Pos < T.size() && (T[Pos] == '+' || T[Pos] == '-'))
        ++Pos;
      if (Digits() == 0) {
        Error = "malformed number";
        return false;
      }
    }
    // The token is exactly [Start, Pos); strtod needs a terminated copy.
    std::string Tok(T.substr(Start, Pos - Start));
    Out = Value::makeNumber(std::strtod(Tok.c_str(), nullptr));
    return true;
  }

  std::string_view T;
  size_t Pos = 0;
  int Limit;
  std::string Error;
};

} // namespace

bool json::parse(std::string_view Text, Value &Out, std::string *Err,
                 int MaxDepth) {
  return Parser(Text, MaxDepth).run(Out, Err);
}

//===----------------------------------------------------------------------===//
// Writing
//===----------------------------------------------------------------------===//

void json::appendQuoted(std::string &Out, std::string_view S) {
  Out.push_back('"');
  for (unsigned char C : S) {
    switch (C) {
    case '"':
      Out += "\\\"";
      break;
    case '\\':
      Out += "\\\\";
      break;
    case '\b':
      Out += "\\b";
      break;
    case '\f':
      Out += "\\f";
      break;
    case '\n':
      Out += "\\n";
      break;
    case '\r':
      Out += "\\r";
      break;
    case '\t':
      Out += "\\t";
      break;
    default:
      if (C < 0x20) {
        char Buf[8];
        std::snprintf(Buf, sizeof(Buf), "\\u%04x", C);
        Out += Buf;
      } else {
        Out.push_back(static_cast<char>(C));
      }
    }
  }
  Out.push_back('"');
}

std::string json::quoted(std::string_view S) {
  std::string Out;
  Out.reserve(S.size() + 2);
  appendQuoted(Out, S);
  return Out;
}

void json::appendNumber(std::string &Out, double V) {
  if (!std::isfinite(V)) {
    Out += "null";
    return;
  }
  char Buf[32];
  std::snprintf(Buf, sizeof(Buf), "%.17g", V);
  Out += Buf;
}
