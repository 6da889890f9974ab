//===- perfbench/src/Helpers.h - Statistics, digests, inputs -------*- C++ -*-===//
///
/// \file
/// The benchmark's own pure helpers, unit-tested in
/// perfbench/tests/HelpersTest.cpp:
///
///  - order statistics with the sample-count rule: a percentile is only
///    reported when at least ten samples lie beyond it, otherwise the
///    highest percentile the samples support is reported instead;
///  - span self time (duration minus the part covered by child spans),
///    per-request medians of it, and how much of each request's wall
///    time the child spans account for;
///  - the digest comparator every correctness check goes through;
///  - seed-to-input generators: the program only ever sees what these
///    produce from the workload seed.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_HELPERS_H
#define PERFBENCH_HELPERS_H

#include "Trace.h"

#include "corpus/Generator.h"

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

//===----------------------------------------------------------------------===//
// Order statistics
//===----------------------------------------------------------------------===//

/// Median of \p V (mean of the middle two for even sizes); 0 when empty.
double median(std::vector<double> V);

/// The highest percentile <= \p Want that leaves at least \p Beyond
/// samples above it among \p N samples: min(Want, 100 * (1 - Beyond / N)).
/// Returns 50 or less for small N, and 0 for N <= Beyond.
double supportedPercentile(size_t N, double Want, size_t Beyond = 10);

/// Nearest-rank percentile of \p V (sorted copy): the smallest sample with
/// at least P% of the samples at or below it. 0 when empty.
double percentile(std::vector<double> V, double P);

/// Robust central estimates under host-speed drift: the samples, in
/// completion order, are cut into \p Blocks contiguous blocks of equal
/// count (the last takes the remainder) and the median over the blocks
/// is reported, so a minority of slow stretches does not move the result.
///
/// medianOfBlockMedians: the median of each block's median.
double medianOfBlockMedians(const std::vector<double> &V, size_t Blocks);
/// medianBlockRate: each block's summed \p Work over the time from the
/// previous block's last completion (\p StartNs for the first block) to
/// its own last completion. \p EndNs must be ascending.
double medianBlockRate(const std::vector<int64_t> &EndNs,
                       const std::vector<double> &Work, int64_t StartNs,
                       size_t Blocks);

//===----------------------------------------------------------------------===//
// Span arithmetic
//===----------------------------------------------------------------------===//

/// Self time of every span: its duration minus the summed durations of
/// its direct children, clamped at zero (clock granularity can make a
/// child outlast its parent by a tick).
std::vector<int64_t> selfTimesNs(const std::vector<Span> &Spans);

/// Per-layer self time, in microseconds, of the trees rooted at spans
/// named \p Root: for every layer name the median over those trees of the
/// summed self time of that layer's spans in the tree (a tree without the
/// layer counts as 0).
std::map<std::string, double>
medianSelfUsPerTree(const std::vector<Span> &Spans, const std::string &Root);

/// Share, in percent, of the summed wall time of the trees rooted at
/// \p Root that their descendant spans account for (root duration minus
/// root self time, over root duration).
double coveragePct(const std::vector<Span> &Spans, const std::string &Root);

//===----------------------------------------------------------------------===//
// Digests
//===----------------------------------------------------------------------===//

/// Parses the 16-hex-digit digest spelling the program prints.
bool parseHexDigest(std::string_view Hex, uint64_t *Out);

struct DigestReport {
  size_t Compared = 0;
  size_t Mismatched = 0;  ///< Wrong or missing (unparsable) digests.
  long FirstMismatch = -1;
};

/// Compares the digests a surface reported (\p Got, hex strings, empty =
/// no reply) against the reference digests \p Want, index by index. A
/// length difference counts every unmatched index as a mismatch.
DigestReport compareDigests(const std::vector<uint64_t> &Want,
                            const std::vector<std::string> &Got);

//===----------------------------------------------------------------------===//
// Seeded inputs
//===----------------------------------------------------------------------===//

/// Mixes \p Salt into \p Seed (splitmix64), so every input stream of a
/// workload has its own seed derived from the one workload seed.
uint64_t deriveSeed(uint64_t Seed, uint64_t Salt);

/// The request pool: kPoolFiles synthetic files generated (without
/// near-duplicates) from a fixed seed that differs from the artifacts'
/// corpus seed.
inline constexpr size_t kPoolFiles = 8000;
inline constexpr uint64_t kPoolSeed = 0x7E57F11E5ull;

/// \p N distinct pool files chosen and ordered by \p Seed, under paths
/// "<Dir>/module_<pool index>.py" (the pool grows to 2N files when N
/// exceeds half of it). No two files share (path, source).
std::vector<typilus::CorpusFile> makeSourceFiles(uint64_t Seed, size_t N,
                                                 const std::string &Dir);

/// Fraction of (path, source) pairs in \p Files that repeat an earlier one.
double repeatedShare(const std::vector<typilus::CorpusFile> &Files);

/// An editor session: a workspace opened once, then full-sync edits.
struct EditorScript {
  std::vector<typilus::CorpusFile> Workspace;
  struct Edit {
    size_t File = 0; ///< Index into Workspace.
    char Op = 'i';   ///< 'i' insert a line, 'r' rename, 'v' revert.
    std::string Text; ///< The document's full text after the edit.
  };
  std::vector<Edit> Edits;
};

/// Pool draw of the editor workspace, fixed across workload seeds.
inline constexpr uint64_t kWorkspaceSeed = 0x5E55101Aull;

/// The seeded edit script over a fixed workspace of \p NumFiles pool
/// files: each edit inserts a statement into a function
/// body, renames a function everywhere in its file, or reverts the file
/// to one of its earlier texts (so unchanged τmap rows resurrect). Every
/// text parses cleanly.
EditorScript makeEditorScript(uint64_t Seed, size_t NumFiles,
                              size_t NumEdits);

} // namespace perfbench

#endif // PERFBENCH_HELPERS_H
