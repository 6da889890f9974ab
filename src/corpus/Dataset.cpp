//===- corpus/Dataset.cpp - Parsed & split dataset -----------------------------===//

#include "corpus/Dataset.h"

#include "corpus/Dedup.h"
#include "pyfront/Parser.h"
#include "pyfront/SymbolTable.h"

#include <algorithm>
#include <cassert>
#include <stdexcept>

using namespace typilus;

void typilus::resolveTargets(FileExample &Ex, TypeUniverse &U) {
  Ex.Targets.clear();
  for (const Supernode &S : Ex.Graph.Supernodes) {
    if (S.AnnotationText.empty())
      continue;
    TypeRef T = U.parse(S.AnnotationText);
    if (!T || U.isExcludedAnnotation(T))
      continue; // footnote 2: Any/None ground truths are excluded
    Target Tg;
    Tg.NodeIdx = S.NodeIdx;
    Tg.Type = T;
    Tg.ErasedType = U.erase(T);
    Tg.Kind = S.Kind;
    Tg.Name = S.Name;
    Ex.Targets.push_back(std::move(Tg));
  }
}

FileExample typilus::parseExample(const CorpusFile &File,
                                  const GraphBuildOptions &Opts) {
  FileExample Ex;
  Ex.Path = File.Path;
  ParsedFile PF = parseFile(File.Path, File.Source);
  if (PF.TooDeep)
    throw std::runtime_error(formatDiagnostic(File.Path, PF.Diags.back()));
  SymbolTable ST;
  buildSymbolTable(PF, ST);
  Ex.Graph = buildGraph(PF, ST, Opts);
  return Ex;
}

FileExample typilus::buildExample(const CorpusFile &File, TypeUniverse &U,
                                  const GraphBuildOptions &Opts) {
  FileExample Ex = parseExample(File, Opts);
  resolveTargets(Ex, U);
  return Ex;
}

void typilus::registerUdts(const std::vector<UdtSpec> &Udts,
                           TypeHierarchy &Hierarchy) {
  for (const UdtSpec &Udt : Udts)
    Hierarchy.addClass(Udt.Name, Udt.Base.empty()
                                     ? std::vector<std::string>{}
                                     : std::vector<std::string>{Udt.Base});
}

CorpusSplitPlan typilus::planCorpusSplit(const std::vector<CorpusFile> &Files,
                                         const DatasetConfig &Config) {
  // Dedup before splitting, as the paper stresses.
  std::vector<const CorpusFile *> Kept;
  if (Config.RunDedup) {
    std::vector<size_t> Drop =
        findNearDuplicates(Files, Config.DedupThreshold);
    size_t DropPos = 0;
    for (size_t I = 0; I != Files.size(); ++I) {
      if (DropPos < Drop.size() && Drop[DropPos] == I) {
        ++DropPos;
        continue;
      }
      Kept.push_back(&Files[I]);
    }
  } else {
    for (const CorpusFile &F : Files)
      Kept.push_back(&F);
  }

  // Deterministic shuffled 70/10/20 split.
  CorpusSplitPlan Plan;
  Plan.DedupDropped = Files.size() - Kept.size();
  Rng R(Config.SplitSeed);
  Plan.Shuffled = std::move(Kept);
  R.shuffle(Plan.Shuffled);
  Plan.NumTrain = static_cast<size_t>(
      Config.TrainFrac * static_cast<double>(Plan.Shuffled.size()));
  Plan.NumValid = static_cast<size_t>(
      Config.ValidFrac * static_cast<double>(Plan.Shuffled.size()));
  return Plan;
}

Dataset typilus::buildDataset(const std::vector<CorpusFile> &Files,
                              const std::vector<UdtSpec> &Udts,
                              TypeUniverse &U, TypeHierarchy *Hierarchy,
                              const DatasetConfig &Config) {
  if (Hierarchy)
    registerUdts(Udts, *Hierarchy);

  CorpusSplitPlan Plan = planCorpusSplit(Files, Config);
  Dataset DS;
  DS.CommonThreshold = Config.CommonThreshold;
  for (size_t I = 0; I != Plan.Shuffled.size(); ++I) {
    FileExample Ex = buildExample(*Plan.Shuffled[I], U, Config.GraphOpts);
    switch (Plan.splitOf(I)) {
    case 0:
      DS.Train.push_back(std::move(Ex));
      break;
    case 1:
      DS.Valid.push_back(std::move(Ex));
      break;
    default:
      DS.Test.push_back(std::move(Ex));
    }
  }
  for (const FileExample &F : DS.Train)
    for (const Target &T : F.Targets)
      ++DS.TrainTypeCounts[T.Type];
  return DS;
}
