//===- pyfront/Parser.h - Python-subset parser --------------------*- C++ -*-===//
//
// Part of the Typilus C++ reproduction.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Recursive-descent parser producing the pyfront AST. Type annotations are
/// consumed into canonical strings (and their tokens flagged `InAnnotation`
/// so the graph builder skips them); the parser recovers from errors at
/// statement granularity.
///
/// Nesting is capped at MaxNestingDepth: past it the parser reports one
/// diagnostic and stops, so no input can exhaust the stack of the parser
/// or of the recursive passes over its AST.
///
//===----------------------------------------------------------------------===//

#ifndef TYPILUS_PYFRONT_PARSER_H
#define TYPILUS_PYFRONT_PARSER_H

#include "pyfront/Ast.h"
#include "pyfront/Lexer.h"
#include "pyfront/Token.h"

#include <memory>
#include <string>
#include <vector>

namespace typilus {

/// The deepest nesting a file may have. Two measures are held to it: the
/// parser's own recursion (brackets, binary operands, unary and `not`
/// operators, `**`, call arguments and subscripts, `elif`s, blocks,
/// annotation brackets) and the height of every AST node, which also
/// grows with the length of left-nested binary, comparison, bool, call,
/// subscript and attribute chains. Both bound stack depth: at most seven
/// parser frames per recursion level, and one level of every recursive
/// walk per unit of height.
constexpr int MaxNestingDepth = 2500;

/// A parsed source file: source text, token stream, AST and diagnostics.
struct ParsedFile {
  std::string Path;
  std::string Source;
  std::vector<Token> Tokens;
  std::unique_ptr<Module> Mod;
  std::vector<Diagnostic> Diags;
  /// The file nests deeper than MaxNestingDepth: parsing stopped there
  /// (the last diagnostic says where) and `Mod` holds only the statements
  /// completed before that point.
  bool TooDeep = false;

  bool hasErrors() const { return !Diags.empty(); }
};

/// Lexes and parses \p Source. Always returns a (possibly partial) module;
/// check `Diags` for errors.
ParsedFile parseFile(std::string Path, std::string Source);

} // namespace typilus

#endif // TYPILUS_PYFRONT_PARSER_H
