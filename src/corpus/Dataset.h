//===- corpus/Dataset.h - Parsed & split dataset -------------------*- C++ -*-===//
//
// Part of the Typilus C++ reproduction.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Turns raw corpus files into model-ready FileExamples: dedup, parse,
/// build graphs, resolve annotation ground truths to interned types, and
/// split 70/10/20 (Sec. 6). Registers the corpus UDTs in the type
/// hierarchy so neutrality checks see the user-defined classes.
///
//===----------------------------------------------------------------------===//

#ifndef TYPILUS_CORPUS_DATASET_H
#define TYPILUS_CORPUS_DATASET_H

#include "corpus/Generator.h"
#include "models/Example.h"
#include "typesys/Hierarchy.h"

#include <map>
#include <vector>

namespace typilus {

/// Split fractions and preprocessing options.
struct DatasetConfig {
  double TrainFrac = 0.7;
  double ValidFrac = 0.1; ///< Remainder is the test split.
  GraphBuildOptions GraphOpts;
  bool RunDedup = true;
  double DedupThreshold = 0.8;
  uint64_t SplitSeed = 99;
  /// Types seen at least this often in training annotations are "common"
  /// (the paper uses 100 on its 252k-annotation corpus; scaled here).
  int CommonThreshold = 10;
};

/// The preprocessed dataset.
struct Dataset {
  std::vector<FileExample> Train, Valid, Test;
  /// Training-annotation frequency per type (common/rare split, Fig. 5).
  std::map<TypeRef, int> TrainTypeCounts;
  int CommonThreshold = 10;

  bool isRare(TypeRef T) const {
    auto It = TrainTypeCounts.find(T);
    int N = It == TrainTypeCounts.end() ? 0 : It->second;
    return N < CommonThreshold;
  }
  size_t numTargets() const {
    size_t N = 0;
    for (const auto *Split : {&Train, &Valid, &Test})
      for (const FileExample &F : *Split)
        N += F.Targets.size();
    return N;
  }
};

/// The corpus-order side of dataset construction: which files survive
/// dedup, the seeded shuffle, and where the 70/10/20 split boundaries
/// fall. Shared by buildDataset and the sharded builder
/// (corpus/ShardWriter) so the file-to-split assignment cannot drift
/// between the two — their bit-identity contract depends on it.
struct CorpusSplitPlan {
  std::vector<const CorpusFile *> Shuffled; ///< Kept files, visit order.
  size_t NumTrain = 0;
  size_t NumValid = 0; ///< Remainder after train+valid is the test split.
  size_t DedupDropped = 0; ///< Near-duplicate files removed before the split.

  /// Split of the file at shuffled position \p I: 0 train, 1 valid,
  /// 2 test (matches corpus/ShardWriter's SplitKind values).
  int splitOf(size_t I) const {
    return I < NumTrain ? 0 : I < NumTrain + NumValid ? 1 : 2;
  }
};

CorpusSplitPlan planCorpusSplit(const std::vector<CorpusFile> &Files,
                                const DatasetConfig &Config);

/// Builds the dataset. \p Hierarchy (if non-null) learns the UDT classes.
Dataset buildDataset(const std::vector<CorpusFile> &Files,
                     const std::vector<UdtSpec> &Udts, TypeUniverse &U,
                     TypeHierarchy *Hierarchy, const DatasetConfig &Config);

/// Registers the corpus UDT classes in \p Hierarchy (shared by the
/// in-memory and sharded builders).
void registerUdts(const std::vector<UdtSpec> &Udts, TypeHierarchy &Hierarchy);

/// Parses and graph-izes a single file into a FileExample (shared with the
/// examples and the qualitative tooling). Targets get ground truths from
/// the in-source annotations; Any/None/malformed annotations are skipped.
/// Other parse errors are recovered from, but a file nesting deeper than
/// MaxNestingDepth throws std::runtime_error carrying the parser's
/// "path:line: message" diagnostic.
FileExample buildExample(const CorpusFile &File, TypeUniverse &U,
                         const GraphBuildOptions &Opts);

/// The universe-free half of buildExample: parse and graph build, with
/// Targets left empty for resolveTargets to fill. Touches no shared
/// state, so concurrent callers need no lock (Predictor::predictSources
/// serializes only the interning). Throws like buildExample.
FileExample parseExample(const CorpusFile &File,
                         const GraphBuildOptions &Opts);

/// Rebuilds \p Ex.Targets from its graph's supernode annotations,
/// interning ground truths into \p U. This is the target-resolution step
/// of buildExample, shared with shard decoding (corpus/ShardedDataset) so
/// a decoded example resolves types through the exact same path — and
/// therefore bit-identically — as a freshly built one.
void resolveTargets(FileExample &Ex, TypeUniverse &U);

} // namespace typilus

#endif // TYPILUS_CORPUS_DATASET_H
