//===- serve/Dispatch.h - Method-registry dispatch ----------------*- C++ -*-===//
//
// Part of the Typilus C++ reproduction.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Method dispatch for the serving tiers: the unknown-method message both
/// answer with, and the small name -> handler table the LSP front-end
/// registers its JSON-RPC methods in. (The NDJSON daemon parses its
/// method to serve::Method and switches on that.) Lookups are a linear
/// scan — method tables have a handful of entries and the scan beats a
/// hash map's constant factor at this size.
///
//===----------------------------------------------------------------------===//

#ifndef TYPILUS_SERVE_DISPATCH_H
#define TYPILUS_SERVE_DISPATCH_H

#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace typilus {
namespace serve {

/// The uniform unknown-method message every dispatch surface answers
/// with (the NDJSON error response and the LSP's MethodNotFound share
/// this text; tests and clients match on it).
inline std::string unknownMethodError(std::string_view Name) {
  return "unknown method '" + std::string(Name) + "'";
}

/// A method table: name -> handler.
template <typename Handler> class MethodRegistry {
public:
  /// Registers \p H under \p Name; a re-registration replaces the
  /// handler.
  void add(std::string Name, Handler H) {
    for (auto &E : Table)
      if (E.first == Name) {
        E.second = std::move(H);
        return;
      }
    Table.emplace_back(std::move(Name), std::move(H));
  }

  /// \returns the handler registered under \p Name, or null.
  const Handler *find(std::string_view Name) const {
    for (const auto &E : Table)
      if (E.first == Name)
        return &E.second;
    return nullptr;
  }

private:
  std::vector<std::pair<std::string, Handler>> Table;
};

} // namespace serve
} // namespace typilus

#endif // TYPILUS_SERVE_DISPATCH_H
