//===- perfbench/src/Helpers.cpp - Statistics, digests, inputs ------------===//

#include "Helpers.h"

#include "pyfront/Parser.h"
#include "support/Rng.h"

#include <algorithm>
#include <cmath>
#include <set>
#include <utility>

using namespace perfbench;
using typilus::CorpusFile;

double perfbench::median(std::vector<double> V) {
  if (V.empty())
    return 0;
  size_t Mid = V.size() / 2;
  std::nth_element(V.begin(), V.begin() + static_cast<long>(Mid), V.end());
  double Hi = V[Mid];
  if (V.size() % 2)
    return Hi;
  double Lo = *std::max_element(V.begin(), V.begin() + static_cast<long>(Mid));
  return (Lo + Hi) / 2;
}

double perfbench::supportedPercentile(size_t N, double Want, size_t Beyond) {
  if (N <= Beyond)
    return 0;
  double Max = 100.0 * (1.0 - static_cast<double>(Beyond) /
                                  static_cast<double>(N));
  return std::min(Want, Max);
}

double perfbench::percentile(std::vector<double> V, double P) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  // Nearest rank; the epsilon keeps 99% of 1000 at rank 990 despite the
  // rounding in supportedPercentile's arithmetic.
  double Rank = std::ceil(P / 100.0 * static_cast<double>(V.size()) - 1e-6);
  size_t Idx = Rank < 1 ? 0 : static_cast<size_t>(Rank) - 1;
  return V[std::min(Idx, V.size() - 1)];
}

namespace {
/// [Begin, End) sample range of block \p B of \p Blocks over \p N.
std::pair<size_t, size_t> blockRange(size_t N, size_t Blocks, size_t B) {
  size_t Per = N / Blocks;
  return {B * Per, B + 1 == Blocks ? N : (B + 1) * Per};
}
} // namespace

double perfbench::medianOfBlockMedians(const std::vector<double> &V,
                                       size_t Blocks) {
  Blocks = std::min(Blocks, V.size());
  std::vector<double> Meds;
  for (size_t B = 0; B < Blocks; ++B) {
    auto [Lo, Hi] = blockRange(V.size(), Blocks, B);
    Meds.push_back(median(std::vector<double>(
        V.begin() + static_cast<long>(Lo), V.begin() + static_cast<long>(Hi))));
  }
  return median(Meds);
}

double perfbench::medianBlockRate(const std::vector<int64_t> &EndNs,
                                  const std::vector<double> &Work,
                                  int64_t StartNs, size_t Blocks) {
  Blocks = std::min(Blocks, EndNs.size());
  std::vector<double> Rates;
  int64_t Prev = StartNs;
  for (size_t B = 0; B < Blocks; ++B) {
    auto [Lo, Hi] = blockRange(EndNs.size(), Blocks, B);
    double Sum = 0;
    for (size_t I = Lo; I != Hi; ++I)
      Sum += Work[I];
    int64_t End = EndNs[Hi - 1];
    if (End > Prev)
      Rates.push_back(Sum / (static_cast<double>(End - Prev) / 1e9));
    Prev = End;
  }
  return median(Rates);
}

std::vector<int64_t> perfbench::selfTimesNs(const std::vector<Span> &Spans) {
  std::vector<int64_t> Self(Spans.size());
  for (size_t I = 0; I != Spans.size(); ++I)
    Self[I] = Spans[I].durNs();
  for (const Span &S : Spans)
    if (S.Parent >= 0 && static_cast<size_t>(S.Parent) < Spans.size())
      Self[static_cast<size_t>(S.Parent)] -= S.durNs();
  for (int64_t &V : Self)
    V = std::max<int64_t>(0, V);
  return Self;
}

namespace {
/// Index of the root of span \p I's tree.
size_t rootOf(const std::vector<Span> &Spans, size_t I) {
  while (Spans[I].Parent >= 0)
    I = static_cast<size_t>(Spans[I].Parent);
  return I;
}
} // namespace

std::map<std::string, double>
perfbench::medianSelfUsPerTree(const std::vector<Span> &Spans,
                               const std::string &Root) {
  std::vector<int64_t> Self = selfTimesNs(Spans);
  std::map<size_t, size_t> TreeSlot; // root span index -> tree number
  for (size_t I = 0; I != Spans.size(); ++I)
    if (Spans[I].Parent < 0 && Spans[I].Name == Root)
      TreeSlot.emplace(I, TreeSlot.size());
  std::map<std::string, std::vector<double>> PerTree;
  for (size_t I = 0; I != Spans.size(); ++I) {
    auto It = TreeSlot.find(rootOf(Spans, I));
    if (It == TreeSlot.end())
      continue;
    std::vector<double> &V = PerTree[Spans[I].Name];
    V.resize(TreeSlot.size(), 0.0);
    V[It->second] += static_cast<double>(Self[I]) / 1e3;
  }
  std::map<std::string, double> Out;
  for (auto &[Name, V] : PerTree)
    Out[Name] = median(std::move(V));
  return Out;
}

double perfbench::coveragePct(const std::vector<Span> &Spans,
                              const std::string &Root) {
  std::vector<int64_t> Self = selfTimesNs(Spans);
  double Wall = 0, Covered = 0;
  for (size_t I = 0; I != Spans.size(); ++I)
    if (Spans[I].Parent < 0 && Spans[I].Name == Root) {
      Wall += static_cast<double>(Spans[I].durNs());
      Covered += static_cast<double>(Spans[I].durNs() - Self[I]);
    }
  return Wall > 0 ? 100.0 * Covered / Wall : 0;
}

bool perfbench::parseHexDigest(std::string_view Hex, uint64_t *Out) {
  if (Hex.size() != 16)
    return false;
  uint64_t V = 0;
  for (char C : Hex) {
    int D = C >= '0' && C <= '9'   ? C - '0'
            : C >= 'a' && C <= 'f' ? C - 'a' + 10
            : C >= 'A' && C <= 'F' ? C - 'A' + 10
                                   : -1;
    if (D < 0)
      return false;
    V = V << 4 | static_cast<uint64_t>(D);
  }
  *Out = V;
  return true;
}

DigestReport perfbench::compareDigests(const std::vector<uint64_t> &Want,
                                       const std::vector<std::string> &Got) {
  DigestReport R;
  R.Compared = std::max(Want.size(), Got.size());
  for (size_t I = 0; I != R.Compared; ++I) {
    uint64_t G = 0;
    bool Ok = I < Want.size() && I < Got.size() &&
              parseHexDigest(Got[I], &G) && G == Want[I];
    if (!Ok) {
      ++R.Mismatched;
      if (R.FirstMismatch < 0)
        R.FirstMismatch = static_cast<long>(I);
    }
  }
  return R;
}

uint64_t perfbench::deriveSeed(uint64_t Seed, uint64_t Salt) {
  uint64_t Z = Seed + 0x9E3779B97F4A7C15ull * (Salt + 1);
  Z = (Z ^ (Z >> 30)) * 0xBF58476D1CE4E5B9ull;
  Z = (Z ^ (Z >> 27)) * 0x94D049BB133111EBull;
  return Z ^ (Z >> 31);
}

std::vector<CorpusFile> perfbench::makeSourceFiles(uint64_t Seed, size_t N,
                                                   const std::string &Dir) {
  // One fixed pool, so every seed draws from the same type distribution
  // (the generator's user-defined classes depend on its seed) and only
  // the choice and order of files vary with the workload seed. The pool's
  // generator seed differs from the artifacts' corpus seed, so no request
  // is a training file.
  typilus::CorpusConfig C;
  C.NumFiles = static_cast<int>(std::max(kPoolFiles, 2 * N));
  C.NumUdts = 40;
  C.DuplicateFraction = 0;
  C.Seed = kPoolSeed;
  typilus::CorpusGenerator Gen(C);
  std::vector<CorpusFile> Pool = Gen.generate();
  // Partial Fisher-Yates: N distinct pool files in seeded order.
  typilus::Rng R(Seed);
  std::vector<size_t> Idx(Pool.size());
  for (size_t I = 0; I != Idx.size(); ++I)
    Idx[I] = I;
  std::vector<CorpusFile> Files;
  char Buf[32];
  for (size_t I = 0; I != N; ++I) {
    std::swap(Idx[I], Idx[I + R.uniformInt(Idx.size() - I)]);
    std::snprintf(Buf, sizeof(Buf), "/module_%05zu.py", Idx[I]);
    Files.push_back(CorpusFile{Dir + Buf, std::move(Pool[Idx[I]].Source)});
  }
  return Files;
}

double perfbench::repeatedShare(const std::vector<CorpusFile> &Files) {
  if (Files.empty())
    return 0;
  std::set<std::pair<std::string, std::string>> Seen;
  size_t Repeats = 0;
  for (const CorpusFile &F : Files)
    if (!Seen.emplace(F.Path, F.Source).second)
      ++Repeats;
  return static_cast<double>(Repeats) / static_cast<double>(Files.size());
}

namespace {

bool isIdentChar(char C) {
  return (C >= 'a' && C <= 'z') || (C >= 'A' && C <= 'Z') ||
         (C >= '0' && C <= '9') || C == '_';
}

/// Replaces every whole-word occurrence of \p From in \p S with \p To.
std::string replaceWord(const std::string &S, const std::string &From,
                        const std::string &To) {
  std::string Out;
  size_t Pos = 0;
  while (true) {
    size_t Hit = S.find(From, Pos);
    if (Hit == std::string::npos)
      break;
    bool Left = Hit == 0 || !isIdentChar(S[Hit - 1]);
    size_t End = Hit + From.size();
    bool Right = End == S.size() || !isIdentChar(S[End]);
    Out.append(S, Pos, Hit - Pos);
    Out += Left && Right ? To : From;
    Pos = End;
  }
  Out.append(S, Pos, std::string::npos);
  return Out;
}

std::vector<std::string> splitLines(const std::string &S) {
  std::vector<std::string> Lines;
  size_t Pos = 0;
  while (Pos < S.size()) {
    size_t NL = S.find('\n', Pos);
    if (NL == std::string::npos)
      NL = S.size();
    Lines.push_back(S.substr(Pos, NL - Pos));
    Pos = NL + 1;
  }
  return Lines;
}

size_t indentOf(const std::string &Line) {
  return Line.find_first_not_of(' ') == std::string::npos
             ? 0
             : Line.find_first_not_of(' ');
}

/// Lines "def NAME(...):" of \p Lines: (line index, NAME).
std::vector<std::pair<size_t, std::string>>
functionDefs(const std::vector<std::string> &Lines) {
  std::vector<std::pair<size_t, std::string>> Defs;
  for (size_t I = 0; I != Lines.size(); ++I) {
    size_t Ind = indentOf(Lines[I]);
    if (Lines[I].compare(Ind, 4, "def ") != 0)
      continue;
    size_t NameEnd = Lines[I].find('(', Ind + 4);
    if (NameEnd == std::string::npos)
      continue;
    std::string Name = Lines[I].substr(Ind + 4, NameEnd - Ind - 4);
    if (!Name.empty() && Name.front() != '_')
      Defs.emplace_back(I, Name);
  }
  return Defs;
}

bool parsesCleanly(const CorpusFile &F, const std::string &Text) {
  return !typilus::parseFile(F.Path, Text).hasErrors();
}

} // namespace

EditorScript perfbench::makeEditorScript(uint64_t Seed, size_t NumFiles,
                                         size_t NumEdits) {
  EditorScript S;
  // The workspace is the same for every seed (one project, many editing
  // sessions), so the edit script alone carries the seed's variation.
  S.Workspace = makeSourceFiles(kWorkspaceSeed, NumFiles, "/ws");
  std::vector<std::vector<std::string>> History(NumFiles);
  for (size_t F = 0; F != NumFiles; ++F)
    History[F].push_back(S.Workspace[F].Source);
  typilus::Rng R(deriveSeed(Seed, 2));
  for (size_t K = 0; K != NumEdits; ++K) {
    EditorScript::Edit E;
    E.File = static_cast<size_t>(R.uniformInt(NumFiles));
    std::vector<std::string> &Hist = History[E.File];
    const std::string &Cur = Hist.back();
    std::vector<std::string> Lines = splitLines(Cur);
    auto Defs = functionDefs(Lines);
    uint64_t Roll = R.uniformInt(10);
    if (Roll < 4 && !Defs.empty()) {
      // Insert a statement at the top of a function body.
      size_t L = Defs[R.uniformInt(Defs.size())].first;
      size_t Ind = L + 1 < Lines.size() ? indentOf(Lines[L + 1]) : 4;
      Lines.insert(Lines.begin() + static_cast<long>(L + 1),
                   std::string(Ind, ' ') + "edit_" + std::to_string(K) +
                       " = " + std::to_string(K % 97));
      E.Op = 'i';
      for (const std::string &Line : Lines)
        E.Text += Line + "\n";
    } else if (Roll < 8 && !Defs.empty()) {
      // Rename a function at its definition and every use in the file.
      const std::string &Name = Defs[R.uniformInt(Defs.size())].second;
      E.Op = 'r';
      E.Text = replaceWord(Cur, Name, Name + "_v" + std::to_string(K));
    } else {
      E.Op = 'v';
      E.Text = Hist.size() > 1 ? Hist[R.uniformInt(Hist.size() - 1)] : Cur;
    }
    if (!parsesCleanly(S.Workspace[E.File], E.Text)) {
      E.Op = 'v';
      E.Text = Hist.front();
    }
    Hist.push_back(E.Text);
    S.Edits.push_back(std::move(E));
  }
  return S;
}
