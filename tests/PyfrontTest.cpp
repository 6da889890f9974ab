//===- tests/PyfrontTest.cpp - pyfront/ unit tests ---------------------------===//

#include "pyfront/Dataflow.h"
#include "pyfront/Lexer.h"
#include "pyfront/Parser.h"
#include "pyfront/SymbolTable.h"

#include <gtest/gtest.h>

#include <algorithm>

using namespace typilus;

namespace {

/// Lexes and returns the token kinds, dropping Eof.
std::vector<TokKind> kindsOf(const std::string &Src) {
  std::vector<Diagnostic> Diags;
  std::vector<Token> Toks = lexSource(Src, Diags);
  std::vector<TokKind> Kinds;
  for (const Token &T : Toks)
    if (T.Kind != TokKind::Eof)
      Kinds.push_back(T.Kind);
  return Kinds;
}

/// Finds the unique symbol with \p Name; fails the test when absent.
Symbol *findSym(SymbolTable &ST, const std::string &Name,
                SymbolKind Kind) {
  for (const auto &S : ST.symbols())
    if (S->Name == Name && S->Kind == Kind)
      return S.get();
  return nullptr;
}

struct Analyzed {
  ParsedFile PF;
  SymbolTable ST;
};

Analyzed analyze(const std::string &Src) {
  Analyzed A;
  A.PF = parseFile("test.py", Src);
  buildSymbolTable(A.PF, A.ST);
  return A;
}

} // namespace

//===----------------------------------------------------------------------===//
// Lexer
//===----------------------------------------------------------------------===//

TEST(LexerTest, LexesSimpleAssignment) {
  auto Kinds = kindsOf("x = 1\n");
  EXPECT_EQ(Kinds, (std::vector<TokKind>{TokKind::Identifier, TokKind::Assign,
                                         TokKind::IntLit, TokKind::Newline}));
}

TEST(LexerTest, EmitsIndentDedent) {
  auto Kinds = kindsOf("if x:\n    y = 1\nz = 2\n");
  EXPECT_NE(std::find(Kinds.begin(), Kinds.end(), TokKind::Indent),
            Kinds.end());
  EXPECT_NE(std::find(Kinds.begin(), Kinds.end(), TokKind::Dedent),
            Kinds.end());
}

TEST(LexerTest, ClosesDanglingIndentsAtEof) {
  auto Kinds = kindsOf("if x:\n    if y:\n        z = 1");
  int Indents = std::count(Kinds.begin(), Kinds.end(), TokKind::Indent);
  int Dedents = std::count(Kinds.begin(), Kinds.end(), TokKind::Dedent);
  EXPECT_EQ(Indents, 2);
  EXPECT_EQ(Dedents, 2);
}

TEST(LexerTest, SkipsCommentsAndBlankLines) {
  auto Kinds = kindsOf("# a comment\n\n   \nx = 1  # trailing\n");
  EXPECT_EQ(Kinds, (std::vector<TokKind>{TokKind::Identifier, TokKind::Assign,
                                         TokKind::IntLit, TokKind::Newline}));
}

TEST(LexerTest, ImplicitLineJoiningInsideBrackets) {
  auto Kinds = kindsOf("x = f(1,\n      2)\n");
  // No Newline token between the arguments.
  int Newlines = std::count(Kinds.begin(), Kinds.end(), TokKind::Newline);
  EXPECT_EQ(Newlines, 1);
}

TEST(LexerTest, DistinguishesFloatAndInt) {
  auto Kinds = kindsOf("a = 1.5\nb = 2\nc = 1e3\n");
  EXPECT_EQ(std::count(Kinds.begin(), Kinds.end(), TokKind::FloatLit), 2);
  EXPECT_EQ(std::count(Kinds.begin(), Kinds.end(), TokKind::IntLit), 1);
}

TEST(LexerTest, LexesStringsAndBytes) {
  std::vector<Diagnostic> Diags;
  auto Toks = lexSource("s = 'ab'\nb = b\"cd\"\n", Diags);
  EXPECT_TRUE(Diags.empty());
  EXPECT_EQ(Toks[2].Kind, TokKind::StringLit);
  EXPECT_EQ(Toks[2].Text, "'ab'");
  EXPECT_EQ(Toks[6].Kind, TokKind::BytesLit);
}

TEST(LexerTest, LexesOperatorsGreedily) {
  auto Kinds = kindsOf("a == b != c <= d >= e // f ** g -> h += i\n");
  EXPECT_NE(std::find(Kinds.begin(), Kinds.end(), TokKind::EqEq), Kinds.end());
  EXPECT_NE(std::find(Kinds.begin(), Kinds.end(), TokKind::NotEq), Kinds.end());
  EXPECT_NE(std::find(Kinds.begin(), Kinds.end(), TokKind::DoubleSlash),
            Kinds.end());
  EXPECT_NE(std::find(Kinds.begin(), Kinds.end(), TokKind::DoubleStar),
            Kinds.end());
  EXPECT_NE(std::find(Kinds.begin(), Kinds.end(), TokKind::Arrow), Kinds.end());
  EXPECT_NE(std::find(Kinds.begin(), Kinds.end(), TokKind::PlusAssign),
            Kinds.end());
}

TEST(LexerTest, ReportsUnterminatedString) {
  std::vector<Diagnostic> Diags;
  lexSource("s = 'oops\n", Diags);
  EXPECT_FALSE(Diags.empty());
}

TEST(LexerTest, KeywordsAreNotIdentifiers) {
  auto Kinds = kindsOf("def f():\n    return None\n");
  EXPECT_EQ(Kinds[0], TokKind::KwDef);
  EXPECT_NE(std::find(Kinds.begin(), Kinds.end(), TokKind::KwReturn),
            Kinds.end());
  EXPECT_NE(std::find(Kinds.begin(), Kinds.end(), TokKind::KwNone),
            Kinds.end());
}

//===----------------------------------------------------------------------===//
// Parser
//===----------------------------------------------------------------------===//

TEST(ParserTest, ParsesFunctionWithAnnotations) {
  auto PF = parseFile("t.py", "def add(a: int, b: int = 0) -> int:\n"
                              "    return a + b\n");
  ASSERT_TRUE(PF.Diags.empty());
  ASSERT_EQ(PF.Mod->Body.size(), 1u);
  auto *F = dyn_cast<FunctionDef>(PF.Mod->Body[0]);
  ASSERT_NE(F, nullptr);
  EXPECT_EQ(F->Name, "add");
  ASSERT_EQ(F->Params.size(), 2u);
  EXPECT_EQ(F->Params[0]->AnnotationText, "int");
  EXPECT_NE(F->Params[1]->Default, nullptr);
  EXPECT_EQ(F->ReturnsText, "int");
  ASSERT_EQ(F->Body.size(), 1u);
  EXPECT_TRUE(isa<ReturnStmt>(F->Body[0]));
}

TEST(ParserTest, AnnotationTokensAreFlagged) {
  auto PF = parseFile("t.py", "def f(x: List[int]) -> Dict[str, int]:\n"
                              "    return {}\n");
  ASSERT_TRUE(PF.Diags.empty());
  int Flagged = 0;
  for (const Token &T : PF.Tokens)
    if (T.InAnnotation)
      ++Flagged;
  // ':' 'List' '[' 'int' ']'  +  '->' 'Dict' '[' 'str' ',' 'int' ']'
  EXPECT_GE(Flagged, 10);
  // The parameter name itself is NOT flagged.
  for (const Token &T : PF.Tokens)
    if (T.Text == "x") {
      EXPECT_FALSE(T.InAnnotation);
    }
}

TEST(ParserTest, ParsesAnnotatedAssignment) {
  auto PF = parseFile("t.py", "count: int = 0\nname: str\n");
  ASSERT_TRUE(PF.Diags.empty());
  ASSERT_EQ(PF.Mod->Body.size(), 2u);
  auto *A0 = cast<AssignStmt>(PF.Mod->Body[0]);
  EXPECT_EQ(A0->AnnotationText, "int");
  EXPECT_NE(A0->Value, nullptr);
  auto *A1 = cast<AssignStmt>(PF.Mod->Body[1]);
  EXPECT_EQ(A1->AnnotationText, "str");
  EXPECT_EQ(A1->Value, nullptr);
}

TEST(ParserTest, ParsesComplexAnnotationText) {
  auto PF = parseFile(
      "t.py", "def f(cb: Callable[[int, str], bool], o: Optional[torch.Tensor],"
              " t: Tuple[int, ...]) -> None:\n    pass\n");
  ASSERT_TRUE(PF.Diags.empty());
  auto *F = cast<FunctionDef>(PF.Mod->Body[0]);
  EXPECT_EQ(F->Params[0]->AnnotationText, "Callable[[int, str], bool]");
  EXPECT_EQ(F->Params[1]->AnnotationText, "Optional[torch.Tensor]");
  EXPECT_EQ(F->Params[2]->AnnotationText, "Tuple[int, ...]");
  EXPECT_EQ(F->ReturnsText, "None");
}

TEST(ParserTest, ParsesClassWithMethods) {
  auto PF = parseFile("t.py", "class Dog(Animal):\n"
                              "    def bark(self) -> str:\n"
                              "        return 'woof'\n");
  ASSERT_TRUE(PF.Diags.empty());
  auto *C = cast<ClassDef>(PF.Mod->Body[0]);
  EXPECT_EQ(C->Name, "Dog");
  ASSERT_EQ(C->Bases.size(), 1u);
  EXPECT_EQ(C->Bases[0], "Animal");
  ASSERT_EQ(C->Body.size(), 1u);
  EXPECT_TRUE(isa<FunctionDef>(C->Body[0]));
}

TEST(ParserTest, ParsesControlFlow) {
  auto PF = parseFile("t.py", "if a:\n    x = 1\nelif b:\n    x = 2\nelse:\n"
                              "    x = 3\nwhile x:\n    x -= 1\n"
                              "for i in range(10):\n    total += i\n");
  ASSERT_TRUE(PF.Diags.empty());
  ASSERT_EQ(PF.Mod->Body.size(), 3u);
  auto *I = cast<IfStmt>(PF.Mod->Body[0]);
  ASSERT_EQ(I->Else.size(), 1u);
  EXPECT_TRUE(isa<IfStmt>(I->Else[0])); // elif nests
  EXPECT_TRUE(isa<WhileStmt>(PF.Mod->Body[1]));
  EXPECT_TRUE(isa<ForStmt>(PF.Mod->Body[2]));
}

TEST(ParserTest, ParsesCallsWithKeywordArguments) {
  auto PF = parseFile("t.py", "r = foo(1, bar=2, baz=x)\n");
  ASSERT_TRUE(PF.Diags.empty());
  auto *A = cast<AssignStmt>(PF.Mod->Body[0]);
  auto *C = cast<CallExpr>(A->Value);
  EXPECT_EQ(C->Args.size(), 1u);
  ASSERT_EQ(C->KwNames.size(), 2u);
  EXPECT_EQ(C->KwNames[0], "bar");
  EXPECT_EQ(C->KwNames[1], "baz");
}

TEST(ParserTest, ParsesExpressionPrecedence) {
  auto PF = parseFile("t.py", "r = 1 + 2 * 3\n");
  ASSERT_TRUE(PF.Diags.empty());
  auto *A = cast<AssignStmt>(PF.Mod->Body[0]);
  auto *Add = cast<BinaryExpr>(A->Value);
  EXPECT_EQ(Add->Op, BinOpKind::Add);
  EXPECT_TRUE(isa<IntLit>(Add->Lhs));
  auto *Mul = cast<BinaryExpr>(Add->Rhs);
  EXPECT_EQ(Mul->Op, BinOpKind::Mult);
}

TEST(ParserTest, ParsesAttributeAndSubscriptChains) {
  auto PF = parseFile("t.py", "v = obj.items[0].name\n");
  ASSERT_TRUE(PF.Diags.empty());
  auto *A = cast<AssignStmt>(PF.Mod->Body[0]);
  auto *Outer = cast<AttributeExpr>(A->Value);
  EXPECT_EQ(Outer->Attr, "name");
  EXPECT_TRUE(isa<SubscriptExpr>(Outer->Value));
}

TEST(ParserTest, ParsesDisplays) {
  auto PF = parseFile(
      "t.py", "a = [1, 2]\nb = {'k': 1}\nc = {1, 2}\nd = (1, 2)\ne = {}\n");
  ASSERT_TRUE(PF.Diags.empty());
  EXPECT_TRUE(isa<ListExpr>(cast<AssignStmt>(PF.Mod->Body[0])->Value));
  EXPECT_TRUE(isa<DictExpr>(cast<AssignStmt>(PF.Mod->Body[1])->Value));
  EXPECT_TRUE(isa<SetExpr>(cast<AssignStmt>(PF.Mod->Body[2])->Value));
  EXPECT_TRUE(isa<TupleExpr>(cast<AssignStmt>(PF.Mod->Body[3])->Value));
  EXPECT_TRUE(isa<DictExpr>(cast<AssignStmt>(PF.Mod->Body[4])->Value));
}

TEST(ParserTest, ParsesTupleAssignment) {
  auto PF = parseFile("t.py", "a, b = 1, 2\n");
  ASSERT_TRUE(PF.Diags.empty());
  auto *A = cast<AssignStmt>(PF.Mod->Body[0]);
  auto *T = cast<TupleExpr>(A->Target);
  ASSERT_EQ(T->Elts.size(), 2u);
  EXPECT_TRUE(cast<NameExpr>(T->Elts[0])->IsStore);
}

TEST(ParserTest, ParsesImports) {
  auto PF = parseFile("t.py", "import os.path as osp\n"
                              "from typing import List, Optional as Opt\n");
  ASSERT_TRUE(PF.Diags.empty());
  auto *I0 = cast<ImportStmt>(PF.Mod->Body[0]);
  EXPECT_EQ(I0->ModuleName, "os.path");
  EXPECT_EQ(I0->ModuleAlias, "osp");
  auto *I1 = cast<ImportStmt>(PF.Mod->Body[1]);
  ASSERT_EQ(I1->Names.size(), 2u);
  EXPECT_EQ(I1->Names[1].first, "Optional");
  EXPECT_EQ(I1->Names[1].second, "Opt");
}

TEST(ParserTest, ParsesYieldAndReturn) {
  auto PF = parseFile("t.py", "def gen(n):\n    yield n\n    return\n");
  ASSERT_TRUE(PF.Diags.empty());
  auto *F = cast<FunctionDef>(PF.Mod->Body[0]);
  ASSERT_EQ(F->Body.size(), 2u);
  auto *ES = cast<ExprStmt>(F->Body[0]);
  EXPECT_TRUE(isa<YieldExpr>(ES->E));
}

TEST(ParserTest, RecoversFromErrors) {
  auto PF = parseFile("t.py", "def f(:\n    pass\nx = 1\n");
  EXPECT_FALSE(PF.Diags.empty());
  // The parser still produced a module and found the trailing assignment.
  bool FoundAssign = false;
  for (Stmt *S : PF.Mod->Body)
    FoundAssign |= isa<AssignStmt>(S);
  EXPECT_TRUE(FoundAssign);
}

TEST(ParserTest, TokenRangesCoverNodes) {
  auto PF = parseFile("t.py", "total = price * count\n");
  ASSERT_TRUE(PF.Diags.empty());
  auto *A = cast<AssignStmt>(PF.Mod->Body[0]);
  EXPECT_LE(A->FirstTok, A->Value->FirstTok);
  EXPECT_GE(A->LastTok, A->Value->LastTok);
}

//===----------------------------------------------------------------------===//
// Symbol table
//===----------------------------------------------------------------------===//

TEST(SymbolTableTest, BindsParamsReturnsAndLocals) {
  auto A = analyze("def scale(v: float, k: float) -> float:\n"
                   "    result = v * k\n"
                   "    return result\n");
  ASSERT_TRUE(A.PF.Diags.empty());
  Symbol *V = findSym(A.ST, "v", SymbolKind::Parameter);
  ASSERT_NE(V, nullptr);
  EXPECT_EQ(V->AnnotationText, "float");
  EXPECT_EQ(V->OccTokens.size(), 2u); // declaration + one use
  Symbol *Ret = findSym(A.ST, "scale", SymbolKind::Return);
  ASSERT_NE(Ret, nullptr);
  EXPECT_EQ(Ret->AnnotationText, "float");
  Symbol *Res = findSym(A.ST, "result", SymbolKind::Variable);
  ASSERT_NE(Res, nullptr);
  EXPECT_EQ(Res->OccTokens.size(), 2u);
}

TEST(SymbolTableTest, DistinguishesScopes) {
  auto A = analyze("x = 1\n"
                   "def f():\n"
                   "    x = 2\n"
                   "    return x\n");
  ASSERT_TRUE(A.PF.Diags.empty());
  int XCount = 0;
  for (const auto &S : A.ST.symbols())
    if (S->Name == "x" && S->Kind == SymbolKind::Variable)
      ++XCount;
  EXPECT_EQ(XCount, 2); // module-level x and function-local x
}

TEST(SymbolTableTest, GlobalDeclarationSharesModuleSymbol) {
  auto A = analyze("count = 0\n"
                   "def bump():\n"
                   "    global count\n"
                   "    count = count + 1\n");
  ASSERT_TRUE(A.PF.Diags.empty());
  int Count = 0;
  Symbol *Sym = nullptr;
  for (const auto &S : A.ST.symbols())
    if (S->Name == "count" && S->Kind == SymbolKind::Variable) {
      ++Count;
      Sym = S.get();
    }
  EXPECT_EQ(Count, 1);
  ASSERT_NE(Sym, nullptr);
  EXPECT_EQ(Sym->OccTokens.size(), 3u);
}

TEST(SymbolTableTest, UnknownNamesBecomeExternal) {
  auto A = analyze("xs = range(10)\n");
  Symbol *R = findSym(A.ST, "range", SymbolKind::External);
  ASSERT_NE(R, nullptr);
  EXPECT_EQ(R->OccTokens.size(), 1u);
}

TEST(SymbolTableTest, SelfAttributesBecomeAttributeSymbols) {
  auto A = analyze("class Point:\n"
                   "    def __init__(self, x: int):\n"
                   "        self.x = x\n"
                   "    def get(self):\n"
                   "        return self.x\n");
  ASSERT_TRUE(A.PF.Diags.empty());
  Symbol *Attr = findSym(A.ST, "x", SymbolKind::Attribute);
  ASSERT_NE(Attr, nullptr);
  // One store in __init__, one load in get — the same symbol.
  EXPECT_EQ(Attr->OccTokens.size(), 2u);
}

TEST(SymbolTableTest, MethodsSkipClassScopeWhenResolving) {
  auto A = analyze("limit = 10\n"
                   "class C:\n"
                   "    limit = 5\n"
                   "    def get(self):\n"
                   "        return limit\n");
  ASSERT_TRUE(A.PF.Diags.empty());
  // The load in `get` must bind the *module* symbol, not the class field.
  auto *C = cast<ClassDef>(A.PF.Mod->Body[1]);
  auto *F = cast<FunctionDef>(C->Body[1]);
  auto *R = cast<ReturnStmt>(F->Body[0]);
  auto *N = cast<NameExpr>(R->Value);
  ASSERT_NE(N->Sym, nullptr);
  // The module-level `limit` was bound first (token index of its store is
  // the smallest occurrence).
  EXPECT_EQ(N->Sym->OccTokens.front(), 0);
}

TEST(SymbolTableTest, FunctionSymbolsTrackCallSites) {
  auto A = analyze("def helper():\n    pass\n"
                   "helper()\nhelper()\n");
  Symbol *F = findSym(A.ST, "helper", SymbolKind::Function);
  ASSERT_NE(F, nullptr);
  EXPECT_EQ(F->OccTokens.size(), 3u); // def + two calls
}

TEST(SymbolTableTest, PredictionTargetKinds) {
  auto A = analyze("def f(p):\n    v = p\n    return v\n");
  EXPECT_TRUE(findSym(A.ST, "p", SymbolKind::Parameter)->isPredictionTarget());
  EXPECT_TRUE(findSym(A.ST, "v", SymbolKind::Variable)->isPredictionTarget());
  EXPECT_TRUE(findSym(A.ST, "f", SymbolKind::Return)->isPredictionTarget());
  EXPECT_FALSE(findSym(A.ST, "f", SymbolKind::Function)->isPredictionTarget());
}

//===----------------------------------------------------------------------===//
// Dataflow
//===----------------------------------------------------------------------===//

TEST(DataflowTest, NextLexicalUseChainsOccurrences) {
  auto A = analyze("x = 1\ny = x\nz = x\n");
  auto DF = computeDataflow(A.PF, A.ST);
  Symbol *X = findSym(A.ST, "x", SymbolKind::Variable);
  ASSERT_NE(X, nullptr);
  ASSERT_EQ(X->OccTokens.size(), 3u);
  // Chained: occ0 -> occ1 -> occ2 (exactly two edges for x).
  int XEdges = 0;
  for (auto [From, To] : DF.NextLexicalUse) {
    bool FromX = std::find(X->OccTokens.begin(), X->OccTokens.end(), From) !=
                 X->OccTokens.end();
    if (FromX) {
      ++XEdges;
      EXPECT_LT(From, To);
    }
  }
  EXPECT_EQ(XEdges, 2);
}

TEST(DataflowTest, MayUseForksAtBranches) {
  auto A = analyze("x = 1\n"
                   "if c:\n"
                   "    a = x\n"
                   "else:\n"
                   "    b = x\n");
  auto DF = computeDataflow(A.PF, A.ST);
  Symbol *X = findSym(A.ST, "x", SymbolKind::Variable);
  ASSERT_NE(X, nullptr);
  ASSERT_EQ(X->OccTokens.size(), 3u);
  int Def = X->OccTokens[0];
  // The definition must reach *both* branch uses.
  int FromDef = 0;
  for (auto [From, To] : DF.NextMayUse)
    if (From == Def)
      ++FromDef;
  EXPECT_EQ(FromDef, 2);
}

TEST(DataflowTest, LexicalUseIsLinearAcrossBranches) {
  auto A = analyze("x = 1\n"
                   "if c:\n"
                   "    a = x\n"
                   "else:\n"
                   "    b = x\n");
  auto DF = computeDataflow(A.PF, A.ST);
  Symbol *X = findSym(A.ST, "x", SymbolKind::Variable);
  int Def = X->OccTokens[0];
  // NEXT_LEXICAL_USE connects the def only to the textually-next use.
  int FromDef = 0;
  for (auto [From, To] : DF.NextLexicalUse)
    if (From == Def)
      ++FromDef;
  EXPECT_EQ(FromDef, 1);
}

TEST(DataflowTest, LoopsCarryUsesBack) {
  auto A = analyze("i = 0\n"
                   "while c:\n"
                   "    i = i + 1\n");
  auto DF = computeDataflow(A.PF, A.ST);
  Symbol *I = findSym(A.ST, "i", SymbolKind::Variable);
  ASSERT_NE(I, nullptr);
  ASSERT_EQ(I->OccTokens.size(), 3u);
  int Store = I->OccTokens[1]; // `i =` inside the loop
  int Load = I->OccTokens[2];  // `i + 1`
  // Wait: RHS evaluates before the store, so program order is load-then-
  // store within one iteration; the loop-back edge connects the store to
  // the load of the *next* iteration.
  bool LoopBack = false;
  for (auto [From, To] : DF.NextMayUse)
    LoopBack |= From == Load && To == Store;
  // Occurrence order in source: store token < load token; the loop-carried
  // edge goes from the earlier-token store... assert both directions seen.
  bool Forward = false;
  for (auto [From, To] : DF.NextMayUse)
    Forward |= From == Store || From == Load;
  EXPECT_TRUE(LoopBack || Forward);
  // And the loop-carried relation exists at all: some edge targets a token
  // at or before its source (a back edge), or the store is reached twice.
  size_t EdgesTouchingI = 0;
  for (auto [From, To] : DF.NextMayUse) {
    bool FromI = std::find(I->OccTokens.begin(), I->OccTokens.end(), From) !=
                 I->OccTokens.end();
    if (FromI)
      ++EdgesTouchingI;
  }
  EXPECT_GE(EdgesTouchingI, 3u);
}

TEST(DataflowTest, FunctionBodiesAreSeparateFlows) {
  auto A = analyze("x = 1\n"
                   "def f(x):\n"
                   "    return x\n"
                   "y = x\n");
  auto DF = computeDataflow(A.PF, A.ST);
  Symbol *ModX = findSym(A.ST, "x", SymbolKind::Variable);
  Symbol *ParX = findSym(A.ST, "x", SymbolKind::Parameter);
  ASSERT_NE(ModX, nullptr);
  ASSERT_NE(ParX, nullptr);
  // No may-use edge crosses from the module x into the parameter x.
  for (auto [From, To] : DF.NextMayUse) {
    bool FromMod = std::find(ModX->OccTokens.begin(), ModX->OccTokens.end(),
                             From) != ModX->OccTokens.end();
    bool ToPar = std::find(ParX->OccTokens.begin(), ParX->OccTokens.end(),
                           To) != ParX->OccTokens.end();
    EXPECT_FALSE(FromMod && ToPar);
  }
}

//===----------------------------------------------------------------------===//
// Diagnostics: rejects carry file:line context (the ingestion contract)
//===----------------------------------------------------------------------===//

TEST(DiagnosticTest, FormatDiagnosticRendersPathLineMessage) {
  Diagnostic D;
  D.Line = 12;
  D.Message = "unexpected character '@'";
  EXPECT_EQ(formatDiagnostic("pkg/mod.py", D),
            "pkg/mod.py:12: unexpected character '@'");
}

TEST(DiagnosticTest, TryExceptRejectPointsAtTheOffendingLine) {
  // Outside the supported subset; --from-dir ingestion skips such files
  // and reports them through formatDiagnostic — the diagnostic must pin
  // the construct, not just say "no".
  auto PF = parseFile("legacy.py", "x: int = 1\n"
                                   "try:\n"
                                   "    y = 2\n"
                                   "except OSError:\n"
                                   "    y = 3\n");
  ASSERT_TRUE(PF.hasErrors());
  const Diagnostic &D = PF.Diags.front();
  EXPECT_GT(D.Line, 1) << "line must point past the clean first statement";
  EXPECT_FALSE(D.Message.empty());
  std::string Rendered = formatDiagnostic("legacy.py", D);
  EXPECT_EQ(Rendered.rfind("legacy.py:", 0), 0u) << Rendered;
  EXPECT_NE(Rendered.find(": "), std::string::npos) << Rendered;
}

TEST(DiagnosticTest, DecoratorRejectPointsAtTheOffendingLine) {
  auto PF = parseFile("vendored.py", "import functools\n"
                                     "\n"
                                     "@functools.cache\n"
                                     "def f(q: str) -> int:\n"
                                     "    return len(q)\n");
  ASSERT_TRUE(PF.hasErrors());
  EXPECT_EQ(PF.Diags.front().Line, 3);
  EXPECT_EQ(formatDiagnostic("vendored.py", PF.Diags.front())
                .rfind("vendored.py:3: ", 0),
            0u);
}

//===----------------------------------------------------------------------===//
// Nesting cap: no input can exhaust the stack
//===----------------------------------------------------------------------===//

namespace {

std::string repeat(const std::string &S, int N) {
  std::string Out;
  Out.reserve(S.size() * static_cast<size_t>(N));
  for (int I = 0; I != N; ++I)
    Out += S;
  return Out;
}

/// One statement nesting \p N levels deep per construct the cap counts.
std::vector<std::string> deepStatements(int N) {
  return {
      "x = 1" + repeat("+1", N),                           // binary chain
      "x = 1" + repeat(" < 1", N),                         // compare chain
      "x = a" + repeat(" or a", N),                        // bool chain
      "x = " + repeat("(", N) + "1" + repeat(")", N),      // parens
      "x = " + repeat("[", N) + repeat("]", N),            // brackets
      "x = " + repeat("-", N) + "1",                       // unary chain
      "x = " + repeat("not ", N) + "a",                    // not chain
      "x = f" + repeat("(1)", N),                          // call chain
      "x = " + repeat("f(", N) + "1" + repeat(")", N),     // nested calls
      "x = a" + repeat("[0]", N),                          // subscripts
      "x = a" + repeat(".b", N),                           // attributes
      repeat("if a: ", N) + "pass",                        // blocks
      "x: " + repeat("List[", N) + "int" + repeat("]", N), // annotation
  };
}

} // namespace

TEST(NestingCapTest, DeepInputsGetOneDiagnosticInsteadOfACrash) {
  const int N = 20000;
  std::vector<std::string> Inputs = deepStatements(N);
  // Right-nested operands, and a climb through every precedence level
  // per bracket: the parser's recursion, not the AST, goes deep first.
  Inputs.push_back("x = " + repeat("1 + (", N) + "1" + repeat(")", N));
  Inputs.push_back("x = " +
                   repeat("a or b and not c == d | e & f + g * (", N) + "1" +
                   repeat(")", N));
  for (const std::string &Deep : Inputs) {
    ParsedFile PF = parseFile("deep.py", "y = 0\n" + Deep + "\nz = 1\n");
    std::string Head = Deep.substr(0, 12);
    EXPECT_TRUE(PF.TooDeep) << Head;
    ASSERT_FALSE(PF.Diags.empty()) << Head;
    EXPECT_EQ(formatDiagnostic("deep.py", PF.Diags.back())
                  .rfind("deep.py:2: nesting deeper than 2500 levels", 0),
              0u)
        << Head;
    // Only the statement completed before the deep one survives.
    EXPECT_EQ(PF.Mod->Body.size(), 1u) << Head;
  }
}

TEST(NestingCapTest, DepthTwoThousandStillParsesAndWalks) {
  // Inside a function body, so the block level counts too.
  for (const std::string &Deep : deepStatements(2000)) {
    ParsedFile PF = parseFile("ok.py", "def f(a):\n    " + Deep + "\n");
    std::string Head = Deep.substr(0, 12);
    EXPECT_FALSE(PF.TooDeep) << Head;
    if (!PF.Diags.empty())
      ADD_FAILURE() << Head << ": " << PF.Diags.front().Message;
    ASSERT_EQ(PF.Mod->Body.size(), 1u) << Head;
    // The recursive passes over the AST cope with the deepest legal file.
    SymbolTable ST;
    buildSymbolTable(PF, ST);
    EXPECT_GT(ST.size(), 0u) << Head;
  }
}
