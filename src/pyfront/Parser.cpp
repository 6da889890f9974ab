//===- pyfront/Parser.cpp - Python-subset parser ---------------------------===//

#include "pyfront/Parser.h"

#include "support/Str.h"

#include <algorithm>
#include <cassert>
#include <cstdlib>

using namespace typilus;

namespace {

/// The recursive-descent parser. One instance per file.
class ParserImpl {
public:
  ParserImpl(ParsedFile &PF) : PF(PF), Toks(PF.Tokens) {}

  void run();

private:
  const Token &cur() const { return Toks[Pos]; }
  const Token &peek(size_t Ahead = 1) const {
    size_t I = Pos + Ahead;
    return I < Toks.size() ? Toks[I] : Toks.back();
  }
  bool check(TokKind K) const { return cur().Kind == K; }
  bool accept(TokKind K) {
    if (!check(K))
      return false;
    ++Pos;
    return true;
  }
  bool expect(TokKind K, const char *Context) {
    if (accept(K))
      return true;
    error(strformat("expected '%s' %s, found '%s'", tokKindName(K), Context,
                    tokKindName(cur().Kind)));
    return false;
  }
  void error(const std::string &Msg) {
    PF.Diags.push_back(Diagnostic{cur().Line, Msg});
  }

  /// Skips to just past the next Newline (error recovery).
  void syncToNewline() {
    while (!check(TokKind::Eof) && !accept(TokKind::Newline))
      ++Pos;
  }

  template <typename T, typename... ArgTs> T *make(ArgTs &&...Args) {
    return PF.Mod->create<T>(std::forward<ArgTs>(Args)...);
  }
  template <typename T> T *finish(T *N, int FirstTok) {
    N->FirstTok = FirstTok;
    N->LastTok = static_cast<int>(Pos) - 1;
    noteHeight(N);
    return N;
  }

  /// Thrown past MaxNestingDepth; run() turns it into the diagnostic.
  struct TooDeep {};
  /// One level of parser recursion, held for the scope of the construct.
  class Nest {
  public:
    explicit Nest(ParserImpl &P) : P(P) {
      if (++P.Depth > MaxNestingDepth)
        throw TooDeep{};
    }
    ~Nest() { --P.Depth; }
    Nest(const Nest &) = delete;
    Nest &operator=(const Nest &) = delete;

  private:
    ParserImpl &P;
  };
  /// Records \p N's height (1 + its tallest child's; every node is
  /// finished after its children) and enforces the cap on it.
  void noteHeight(const AstNode *N) {
    int H = 0;
    Module::forEachChild(
        N, [&](const AstNode *C) { H = std::max(H, heightOf(C)); });
    if (++H > MaxNestingDepth)
      throw TooDeep{};
    size_t Id = static_cast<size_t>(N->id());
    if (Heights.size() <= Id)
      Heights.resize(Id + 1, 1);
    Heights[Id] = H;
  }
  int heightOf(const AstNode *N) const {
    size_t Id = static_cast<size_t>(N->id());
    return Id < Heights.size() ? Heights[Id] : 1;
  }

  // Statements.
  void parseStmtInto(std::vector<Stmt *> &Out);
  void parseSuite(std::vector<Stmt *> &Out);
  Stmt *parseFunctionDef();
  Stmt *parseClassDef();
  Stmt *parseIf();
  Stmt *parseWhile();
  Stmt *parseFor();
  Stmt *parseImport();
  Stmt *parseSimpleExprOrAssign();

  // Annotations.
  std::string parseAnnotationText();
  std::string parseAnnotationTerm();

  // Expressions. The binary operators and `not` are parsed by precedence
  // climbing rather than one function per level, which keeps the parser's
  // stack per nesting level (e.g. per bracket) to seven frames.
  enum : int {
    OrPrec = 1,
    AndPrec,
    NotPrec, ///< The prefix `not`, between `and` and the comparisons.
    ComparePrec,
    BitOrPrec,
    BitAndPrec,
    ArithPrec,
    TermPrec,
  };
  Expr *parseTestlist();
  Expr *parseExpr() { return parseBinary(OrPrec); }
  /// An operand followed by every binary operator binding at least as
  /// tightly as \p MinPrec.
  Expr *parseBinary(int MinPrec);
  /// The binary operator at the cursor: its kind, precedence and token
  /// count (`not in` and `is not` take two). Consumes nothing.
  bool binaryOpAt(BinOpKind &Op, int &Prec, int &Width) const;
  Expr *parseUnary();
  Expr *parsePower();
  Expr *parsePostfix();
  Expr *parseAtom();

  void markStore(Expr *Target);

  ParsedFile &PF;
  std::vector<Token> &Toks;
  size_t Pos = 0;
  int Depth = 0;            ///< Active Nest levels.
  std::vector<int> Heights; ///< Node height by node id.
};

} // namespace

void ParserImpl::run() {
  PF.Mod = std::make_unique<Module>();
  PF.Mod->FirstTok = 0;
  try {
    while (!check(TokKind::Eof)) {
      if (accept(TokKind::Newline) || accept(TokKind::Indent) ||
          accept(TokKind::Dedent) || accept(TokKind::Error))
        continue;
      size_t Before = Pos;
      parseStmtInto(PF.Mod->Body);
      if (Pos == Before)
        ++Pos; // Ensure forward progress on malformed input.
    }
  } catch (const TooDeep &) {
    // A statement is attached to its parent only once complete, so the
    // module keeps exactly the statements finished before this point;
    // the abandoned nodes stay unreachable in the arena.
    error(strformat("nesting deeper than %d levels; the rest of the file "
                    "is not parsed",
                    MaxNestingDepth));
    PF.TooDeep = true;
  }
  PF.Mod->LastTok = static_cast<int>(Pos);
}

void ParserImpl::parseStmtInto(std::vector<Stmt *> &Out) {
  int First = static_cast<int>(Pos);
  switch (cur().Kind) {
  case TokKind::KwDef:
    Out.push_back(cast<Stmt>(finish(parseFunctionDef(), First)));
    return;
  case TokKind::KwClass:
    Out.push_back(cast<Stmt>(finish(parseClassDef(), First)));
    return;
  case TokKind::KwIf:
    Out.push_back(cast<Stmt>(finish(parseIf(), First)));
    return;
  case TokKind::KwWhile:
    Out.push_back(cast<Stmt>(finish(parseWhile(), First)));
    return;
  case TokKind::KwFor:
    Out.push_back(cast<Stmt>(finish(parseFor(), First)));
    return;
  case TokKind::KwReturn: {
    ++Pos;
    Expr *Value = nullptr;
    if (!check(TokKind::Newline) && !check(TokKind::Eof))
      Value = parseTestlist();
    Stmt *S = finish(make<ReturnStmt>(Value), First);
    expect(TokKind::Newline, "after return statement");
    Out.push_back(S);
    return;
  }
  case TokKind::KwPass:
    ++Pos;
    Out.push_back(finish(make<PassStmt>(), First));
    expect(TokKind::Newline, "after pass");
    return;
  case TokKind::KwBreak:
    ++Pos;
    Out.push_back(finish(make<BreakStmt>(), First));
    expect(TokKind::Newline, "after break");
    return;
  case TokKind::KwContinue:
    ++Pos;
    Out.push_back(finish(make<ContinueStmt>(), First));
    expect(TokKind::Newline, "after continue");
    return;
  case TokKind::KwImport:
  case TokKind::KwFrom:
    Out.push_back(cast<Stmt>(finish(parseImport(), First)));
    return;
  case TokKind::KwGlobal: {
    ++Pos;
    auto *G = make<GlobalStmt>();
    do {
      if (check(TokKind::Identifier)) {
        G->Names.push_back(cur().Text);
        ++Pos;
      } else {
        error("expected name in global statement");
        break;
      }
    } while (accept(TokKind::Comma));
    expect(TokKind::Newline, "after global statement");
    Out.push_back(finish(G, First));
    return;
  }
  case TokKind::KwRaise: {
    ++Pos;
    Expr *E = nullptr;
    if (!check(TokKind::Newline) && !check(TokKind::Eof))
      E = parseExpr();
    Stmt *S = finish(make<RaiseStmt>(E), First);
    expect(TokKind::Newline, "after raise");
    Out.push_back(S);
    return;
  }
  case TokKind::KwAssert: {
    ++Pos;
    Expr *Cond = parseExpr();
    Expr *Msg = nullptr;
    if (accept(TokKind::Comma))
      Msg = parseExpr();
    Stmt *S = finish(make<AssertStmt>(Cond, Msg), First);
    expect(TokKind::Newline, "after assert");
    Out.push_back(S);
    return;
  }
  case TokKind::KwDel: {
    ++Pos;
    Expr *E = parseExpr();
    Stmt *S = finish(make<DelStmt>(E), First);
    expect(TokKind::Newline, "after del");
    Out.push_back(S);
    return;
  }
  default:
    Out.push_back(cast<Stmt>(finish(parseSimpleExprOrAssign(), First)));
    return;
  }
}

void ParserImpl::parseSuite(std::vector<Stmt *> &Out) {
  Nest N(*this);
  if (!expect(TokKind::Colon, "before suite")) {
    syncToNewline();
    return;
  }
  if (!accept(TokKind::Newline)) {
    // Inline suite: a single simple statement on the same line.
    parseStmtInto(Out);
    return;
  }
  if (!expect(TokKind::Indent, "to open block")) {
    return;
  }
  while (!check(TokKind::Dedent) && !check(TokKind::Eof)) {
    if (accept(TokKind::Newline) || accept(TokKind::Error))
      continue;
    size_t Before = Pos;
    parseStmtInto(Out);
    if (Pos == Before)
      ++Pos;
  }
  accept(TokKind::Dedent);
}

Stmt *ParserImpl::parseFunctionDef() {
  expect(TokKind::KwDef, "at function definition");
  int NameTok = static_cast<int>(Pos);
  std::string Name = check(TokKind::Identifier) ? cur().Text : "<error>";
  if (!expect(TokKind::Identifier, "as function name"))
    syncToNewline();
  auto *F = make<FunctionDef>(Name, NameTok);
  expect(TokKind::LParen, "after function name");
  while (!check(TokKind::RParen) && !check(TokKind::Eof)) {
    if (check(TokKind::Star) || check(TokKind::DoubleStar)) {
      ++Pos; // *args / **kwargs marker; parameter name follows.
    }
    int PTok = static_cast<int>(Pos);
    if (!check(TokKind::Identifier)) {
      error("expected parameter name");
      break;
    }
    auto *P = make<ParamDecl>(cur().Text, PTok);
    ++Pos;
    if (check(TokKind::Colon)) {
      Toks[Pos].InAnnotation = true;
      ++Pos;
      P->AnnotationText = parseAnnotationText();
    }
    if (accept(TokKind::Assign))
      P->Default = parseExpr();
    finish(P, PTok);
    F->Params.push_back(P);
    if (!accept(TokKind::Comma))
      break;
  }
  expect(TokKind::RParen, "to close parameter list");
  if (check(TokKind::Arrow)) {
    Toks[Pos].InAnnotation = true;
    ++Pos;
    F->ReturnsText = parseAnnotationText();
  }
  parseSuite(F->Body);
  return F;
}

Stmt *ParserImpl::parseClassDef() {
  expect(TokKind::KwClass, "at class definition");
  int NameTok = static_cast<int>(Pos);
  std::string Name = check(TokKind::Identifier) ? cur().Text : "<error>";
  if (!expect(TokKind::Identifier, "as class name"))
    syncToNewline();
  auto *C = make<ClassDef>(Name, NameTok);
  if (accept(TokKind::LParen)) {
    while (check(TokKind::Identifier)) {
      std::string Base = cur().Text;
      ++Pos;
      while (accept(TokKind::Dot)) {
        if (check(TokKind::Identifier)) {
          Base += "." + cur().Text;
          ++Pos;
        }
      }
      C->Bases.push_back(Base);
      if (!accept(TokKind::Comma))
        break;
    }
    expect(TokKind::RParen, "to close base-class list");
  }
  parseSuite(C->Body);
  return C;
}

Stmt *ParserImpl::parseIf() {
  ++Pos; // if / elif
  auto *I = make<IfStmt>(parseExpr());
  parseSuite(I->Then);
  if (check(TokKind::KwElif)) {
    Nest N(*this);
    int First = static_cast<int>(Pos);
    I->Else.push_back(cast<Stmt>(finish(parseIf(), First)));
  } else if (accept(TokKind::KwElse)) {
    parseSuite(I->Else);
  }
  return I;
}

Stmt *ParserImpl::parseWhile() {
  ++Pos;
  auto *W = make<WhileStmt>(parseExpr());
  parseSuite(W->Body);
  return W;
}

Stmt *ParserImpl::parseFor() {
  ++Pos;
  // The target is parsed below the comparison level so the `in` keyword is
  // left for the loop header.
  int First = static_cast<int>(Pos);
  Expr *Target = parsePostfix();
  if (check(TokKind::Comma)) {
    auto *T = make<TupleExpr>();
    T->Elts.push_back(Target);
    while (accept(TokKind::Comma)) {
      if (check(TokKind::KwIn))
        break;
      T->Elts.push_back(parsePostfix());
    }
    Target = finish(T, First);
  }
  markStore(Target);
  expect(TokKind::KwIn, "in for statement");
  Expr *Iter = parseTestlist();
  auto *F = make<ForStmt>(Target, Iter);
  parseSuite(F->Body);
  return F;
}

Stmt *ParserImpl::parseImport() {
  auto *I = make<ImportStmt>();
  auto ParseDotted = [&]() {
    std::string Name;
    if (check(TokKind::Identifier)) {
      Name = cur().Text;
      ++Pos;
      while (accept(TokKind::Dot)) {
        if (check(TokKind::Identifier)) {
          Name += "." + cur().Text;
          ++Pos;
        }
      }
    }
    return Name;
  };
  if (accept(TokKind::KwImport)) {
    I->ModuleName = ParseDotted();
    if (accept(TokKind::KwAs) && check(TokKind::Identifier)) {
      I->ModuleAlias = cur().Text;
      ++Pos;
    }
  } else {
    expect(TokKind::KwFrom, "at import");
    I->ModuleName = ParseDotted();
    expect(TokKind::KwImport, "after module name");
    do {
      std::string Name = ParseDotted();
      std::string Alias;
      if (accept(TokKind::KwAs) && check(TokKind::Identifier)) {
        Alias = cur().Text;
        ++Pos;
      }
      if (!Name.empty())
        I->Names.emplace_back(Name, Alias);
    } while (accept(TokKind::Comma));
  }
  expect(TokKind::Newline, "after import");
  return I;
}

Stmt *ParserImpl::parseSimpleExprOrAssign() {
  Expr *First = parseTestlist();
  if (check(TokKind::Colon)) {
    // Annotated assignment: `target: T [= value]`.
    Toks[Pos].InAnnotation = true;
    ++Pos;
    std::string Ann = parseAnnotationText();
    Expr *Value = nullptr;
    if (accept(TokKind::Assign))
      Value = parseTestlist();
    auto *A = make<AssignStmt>(First, Value);
    A->AnnotationText = Ann;
    markStore(First);
    expect(TokKind::Newline, "after annotated assignment");
    return A;
  }
  if (accept(TokKind::Assign)) {
    Expr *Value = parseTestlist();
    // Chained assignment `a = b = e`: fold left-to-right.
    while (accept(TokKind::Assign)) {
      markStore(Value);
      Value = parseTestlist();
    }
    auto *A = make<AssignStmt>(First, Value);
    markStore(First);
    expect(TokKind::Newline, "after assignment");
    return A;
  }
  auto AugOp = [&]() -> const BinOpKind * {
    static const BinOpKind Add = BinOpKind::Add, Sub = BinOpKind::Sub,
                           Mul = BinOpKind::Mult, Div = BinOpKind::Div;
    switch (cur().Kind) {
    case TokKind::PlusAssign: return &Add;
    case TokKind::MinusAssign: return &Sub;
    case TokKind::StarAssign: return &Mul;
    case TokKind::SlashAssign: return &Div;
    default: return nullptr;
    }
  };
  if (const BinOpKind *Op = AugOp()) {
    ++Pos;
    Expr *Value = parseTestlist();
    auto *A = make<AssignStmt>(First, Value);
    A->IsAug = true;
    A->AugOp = *Op;
    markStore(First);
    expect(TokKind::Newline, "after augmented assignment");
    return A;
  }
  auto *E = make<ExprStmt>(First);
  expect(TokKind::Newline, "after expression statement");
  return E;
}

//===----------------------------------------------------------------------===//
// Annotations
//===----------------------------------------------------------------------===//

/// One annotation term: dotted name, None, Ellipsis, a quoted forward
/// reference, or a bracketed list (for Callable's parameter list), each
/// optionally subscripted.
std::string ParserImpl::parseAnnotationTerm() {
  auto MarkAndAdvance = [&]() -> std::string {
    Toks[Pos].InAnnotation = true;
    return Toks[Pos++].Text;
  };
  std::string Text;
  if (check(TokKind::Identifier)) {
    Text = MarkAndAdvance();
    while (check(TokKind::Dot)) {
      Text += MarkAndAdvance();
      if (check(TokKind::Identifier))
        Text += MarkAndAdvance();
    }
  } else if (check(TokKind::KwNone)) {
    MarkAndAdvance();
    Text = "None";
  } else if (check(TokKind::EllipsisTok)) {
    MarkAndAdvance();
    Text = "...";
  } else if (check(TokKind::StringLit)) {
    // Forward reference: 'Foo' — strip the quotes.
    std::string Raw = MarkAndAdvance();
    if (Raw.size() >= 2)
      Text = Raw.substr(1, Raw.size() - 2);
  } else if (check(TokKind::LBracket)) {
    // Bracketed parameter list, e.g. Callable[[int, str], bool].
    Nest N(*this);
    MarkAndAdvance();
    Text = "[";
    bool First = true;
    while (!check(TokKind::RBracket) && !check(TokKind::Eof)) {
      if (!First)
        Text += ", ";
      First = false;
      Text += parseAnnotationTerm();
      if (!check(TokKind::Comma))
        break;
      MarkAndAdvance();
    }
    if (check(TokKind::RBracket))
      MarkAndAdvance();
    Text += "]";
    return Text;
  } else {
    error("malformed type annotation");
    return "Any";
  }
  if (check(TokKind::LBracket)) {
    Nest N(*this);
    MarkAndAdvance();
    Text += "[";
    bool First = true;
    while (!check(TokKind::RBracket) && !check(TokKind::Eof)) {
      if (!First)
        Text += ", ";
      First = false;
      Text += parseAnnotationTerm();
      if (!check(TokKind::Comma))
        break;
      MarkAndAdvance();
    }
    if (expect(TokKind::RBracket, "to close type arguments"))
      Toks[Pos - 1].InAnnotation = true;
    Text += "]";
  }
  return Text;
}

std::string ParserImpl::parseAnnotationText() { return parseAnnotationTerm(); }

//===----------------------------------------------------------------------===//
// Expressions
//===----------------------------------------------------------------------===//

Expr *ParserImpl::parseTestlist() {
  int First = static_cast<int>(Pos);
  Expr *E = parseExpr();
  if (!check(TokKind::Comma))
    return E;
  auto *T = make<TupleExpr>();
  T->Elts.push_back(E);
  while (accept(TokKind::Comma)) {
    if (check(TokKind::Newline) || check(TokKind::RParen) ||
        check(TokKind::RBracket) || check(TokKind::Eof) ||
        check(TokKind::Assign) || check(TokKind::Colon))
      break; // trailing comma
    T->Elts.push_back(parseExpr());
  }
  return finish(T, First);
}

bool ParserImpl::binaryOpAt(BinOpKind &Op, int &Prec, int &Width) const {
  auto Is = [&](BinOpKind O, int P, int W = 1) {
    Op = O;
    Prec = P;
    Width = W;
    return true;
  };
  switch (cur().Kind) {
  case TokKind::KwOr: return Is(BinOpKind::Or, OrPrec);
  case TokKind::KwAnd: return Is(BinOpKind::And, AndPrec);
  case TokKind::EqEq: return Is(BinOpKind::Eq, ComparePrec);
  case TokKind::NotEq: return Is(BinOpKind::NotEq, ComparePrec);
  case TokKind::Lt: return Is(BinOpKind::Lt, ComparePrec);
  case TokKind::Le: return Is(BinOpKind::LtE, ComparePrec);
  case TokKind::Gt: return Is(BinOpKind::Gt, ComparePrec);
  case TokKind::Ge: return Is(BinOpKind::GtE, ComparePrec);
  case TokKind::KwIn: return Is(BinOpKind::In, ComparePrec);
  case TokKind::KwNot:
    return peek().Kind == TokKind::KwIn && Is(BinOpKind::NotIn, ComparePrec, 2);
  case TokKind::KwIs:
    if (peek().Kind == TokKind::KwNot)
      return Is(BinOpKind::IsNot, ComparePrec, 2);
    return Is(BinOpKind::Is, ComparePrec);
  case TokKind::Pipe: return Is(BinOpKind::BitOr, BitOrPrec);
  case TokKind::Amp: return Is(BinOpKind::BitAnd, BitAndPrec);
  case TokKind::Plus: return Is(BinOpKind::Add, ArithPrec);
  case TokKind::Minus: return Is(BinOpKind::Sub, ArithPrec);
  case TokKind::Star: return Is(BinOpKind::Mult, TermPrec);
  case TokKind::Slash: return Is(BinOpKind::Div, TermPrec);
  case TokKind::DoubleSlash: return Is(BinOpKind::FloorDiv, TermPrec);
  case TokKind::Percent: return Is(BinOpKind::Mod, TermPrec);
  default: return false;
  }
}

Expr *ParserImpl::parseBinary(int MinPrec) {
  int First = static_cast<int>(Pos);
  Expr *L;
  if (MinPrec <= NotPrec && accept(TokKind::KwNot)) {
    Nest N(*this);
    L = finish(make<UnaryExpr>(UnaryOpKind::Not, parseBinary(NotPrec)),
               First);
  } else {
    L = parseUnary();
  }
  // Operators of one level fold left; a tighter operator on the right is
  // taken by the recursive call, a looser one ends this level.
  BinOpKind Op;
  int Prec, Width;
  while (binaryOpAt(Op, Prec, Width) && Prec >= MinPrec) {
    Pos += static_cast<size_t>(Width);
    Nest N(*this);
    Expr *R = parseBinary(Prec + 1);
    L = finish(make<BinaryExpr>(Op, L, R), First);
  }
  return L;
}

Expr *ParserImpl::parseUnary() {
  int First = static_cast<int>(Pos);
  UnaryOpKind Op;
  if (accept(TokKind::Minus))
    Op = UnaryOpKind::Neg;
  else if (accept(TokKind::Plus))
    Op = UnaryOpKind::Pos;
  else
    return parsePower();
  Nest N(*this);
  return finish(make<UnaryExpr>(Op, parseUnary()), First);
}

Expr *ParserImpl::parsePower() {
  int First = static_cast<int>(Pos);
  Expr *L = parsePostfix();
  if (accept(TokKind::DoubleStar)) {
    Nest N(*this);
    return finish(make<BinaryExpr>(BinOpKind::Pow, L, parseUnary()), First);
  }
  return L;
}

Expr *ParserImpl::parsePostfix() {
  int First = static_cast<int>(Pos);
  Expr *E = parseAtom();
  while (true) {
    if (accept(TokKind::LParen)) {
      Nest N(*this);
      auto *C = make<CallExpr>(E);
      while (!check(TokKind::RParen) && !check(TokKind::Eof)) {
        if (check(TokKind::Identifier) && peek().Kind == TokKind::Assign) {
          C->KwNames.push_back(cur().Text);
          C->KwNameToks.push_back(static_cast<int>(Pos));
          Pos += 2; // name '='
          C->KwValues.push_back(parseExpr());
        } else {
          if (check(TokKind::Star) || check(TokKind::DoubleStar))
            ++Pos; // *args / **kwargs forwarding
          C->Args.push_back(parseExpr());
        }
        if (!accept(TokKind::Comma))
          break;
      }
      expect(TokKind::RParen, "to close call");
      E = finish(C, First);
      continue;
    }
    if (accept(TokKind::Dot)) {
      int AttrTok = static_cast<int>(Pos);
      std::string Attr = check(TokKind::Identifier) ? cur().Text : "<error>";
      expect(TokKind::Identifier, "after '.'");
      E = finish(make<AttributeExpr>(E, Attr, AttrTok), First);
      continue;
    }
    if (accept(TokKind::LBracket)) {
      Nest N(*this);
      Expr *Index = parseTestlist();
      expect(TokKind::RBracket, "to close subscript");
      E = finish(make<SubscriptExpr>(E, Index), First);
      continue;
    }
    return E;
  }
}

Expr *ParserImpl::parseAtom() {
  int First = static_cast<int>(Pos);
  switch (cur().Kind) {
  case TokKind::Identifier: {
    auto *N = make<NameExpr>(cur().Text, First);
    ++Pos;
    return finish(N, First);
  }
  case TokKind::IntLit: {
    long long V = std::strtoll(cur().Text.c_str(), nullptr, 10);
    ++Pos;
    return finish(make<IntLit>(V), First);
  }
  case TokKind::FloatLit: {
    double V = std::strtod(cur().Text.c_str(), nullptr);
    ++Pos;
    return finish(make<FloatLit>(V), First);
  }
  case TokKind::StringLit: {
    auto *S = make<StringLit>(cur().Text, false);
    ++Pos;
    return finish(S, First);
  }
  case TokKind::BytesLit: {
    auto *S = make<StringLit>(cur().Text, true);
    ++Pos;
    return finish(S, First);
  }
  case TokKind::KwTrue:
    ++Pos;
    return finish(make<BoolLit>(true), First);
  case TokKind::KwFalse:
    ++Pos;
    return finish(make<BoolLit>(false), First);
  case TokKind::KwNone:
    ++Pos;
    return finish(make<NoneLit>(), First);
  case TokKind::EllipsisTok:
    ++Pos;
    return finish(make<EllipsisLit>(), First);
  case TokKind::KwYield: {
    Nest N(*this);
    ++Pos;
    Expr *V = nullptr;
    if (!check(TokKind::Newline) && !check(TokKind::RParen) &&
        !check(TokKind::Eof))
      V = parseExpr();
    return finish(make<YieldExpr>(V), First);
  }
  case TokKind::LParen: {
    Nest N(*this);
    ++Pos;
    if (accept(TokKind::RParen))
      return finish(make<TupleExpr>(), First);
    Expr *Inner = parseTestlist();
    expect(TokKind::RParen, "to close parenthesis");
    Inner->LastTok = static_cast<int>(Pos) - 1;
    return Inner;
  }
  case TokKind::LBracket: {
    Nest N(*this);
    ++Pos;
    auto *L = make<ListExpr>();
    while (!check(TokKind::RBracket) && !check(TokKind::Eof)) {
      L->Elts.push_back(parseExpr());
      if (!accept(TokKind::Comma))
        break;
    }
    expect(TokKind::RBracket, "to close list display");
    return finish(L, First);
  }
  case TokKind::LBrace: {
    Nest N(*this);
    ++Pos;
    if (accept(TokKind::RBrace))
      return finish(make<DictExpr>(), First);
    Expr *FirstItem = parseExpr();
    if (accept(TokKind::Colon)) {
      auto *D = make<DictExpr>();
      D->Keys.push_back(FirstItem);
      D->Values.push_back(parseExpr());
      while (accept(TokKind::Comma)) {
        if (check(TokKind::RBrace))
          break;
        D->Keys.push_back(parseExpr());
        expect(TokKind::Colon, "in dict display");
        D->Values.push_back(parseExpr());
      }
      expect(TokKind::RBrace, "to close dict display");
      return finish(D, First);
    }
    auto *S = make<SetExpr>();
    S->Elts.push_back(FirstItem);
    while (accept(TokKind::Comma)) {
      if (check(TokKind::RBrace))
        break;
      S->Elts.push_back(parseExpr());
    }
    expect(TokKind::RBrace, "to close set display");
    return finish(S, First);
  }
  default:
    error(strformat("unexpected token '%s' in expression",
                    tokKindName(cur().Kind)));
    ++Pos;
    return finish(make<NoneLit>(), First);
  }
}

void ParserImpl::markStore(Expr *Target) {
  if (auto *N = dyn_cast<NameExpr>(Target)) {
    N->IsStore = true;
    return;
  }
  if (auto *A = dyn_cast<AttributeExpr>(Target)) {
    A->IsStore = true;
    return;
  }
  if (auto *T = dyn_cast<TupleExpr>(Target)) {
    for (Expr *E : T->Elts)
      markStore(E);
    return;
  }
  if (auto *L = dyn_cast<ListExpr>(Target)) {
    for (Expr *E : L->Elts)
      markStore(E);
    return;
  }
  // Subscript stores (d[k] = v) carry no symbol binding; nothing to mark.
}

ParsedFile typilus::parseFile(std::string Path, std::string Source) {
  ParsedFile PF;
  PF.Path = std::move(Path);
  PF.Source = std::move(Source);
  PF.Tokens = lexSource(PF.Source, PF.Diags);
  ParserImpl(PF).run();
  return PF;
}
