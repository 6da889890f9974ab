//===- perfbench/src/Workloads.h - The three workloads -------------*- C++ -*-===//
///
/// \file
/// Each workload is generated from the workload seed, does a fixed amount
/// of work in a fixed order (sized from --seconds by the per-second
/// constants below, never by elapsed time), checks every output, and
/// reports end-to-end metrics (untraced run) or per-layer metrics (traced
/// run).
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_WORKLOADS_H
#define PERFBENCH_WORKLOADS_H

#include "Trace.h"

#include "core/Predictor.h"

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace perfbench {

struct RunOptions {
  uint64_t Seed = 1;
  int Seconds = 10;
  bool Trace = false;
  std::string Artifact;  ///< serve / editor: the trained model artifact.
  std::string Cli;       ///< train: the typilus_cli binary (shard command).
  std::string WorkDir;   ///< Working directory inside the checkout.
};

struct RunResult {
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  /// name -> value; units live in Main.cpp's metric tables.
  std::map<std::string, double> EndToEnd;
  std::map<std::string, double> PerLayer;
  std::vector<Span> Spans;
};

RunResult runServe(const RunOptions &O);
RunResult runEditor(const RunOptions &O);
RunResult runTrain(const RunOptions &O);

//===----------------------------------------------------------------------===//
// Shared by the workloads (Common.cpp)
//===----------------------------------------------------------------------===//

double secondsBetween(int64_t StartNs, int64_t EndNs);

/// Blocks the timed phase is cut into for the median-of-blocks estimates
/// (Helpers.h): latency_p50_ms and throughput_per_s.
inline constexpr size_t kTimingBlocks = 10;

/// Peak resident set of this process, in MiB.
double peakRssMb();

/// Loads \p Path \p Reps times after one untimed warm-up load and
/// \returns the median load time in seconds; \p Out keeps the last load.
/// Aborts the run (exception) when the artifact does not load.
double medianLoadSeconds(const std::string &Path, int Reps,
                         std::unique_ptr<typilus::Predictor> &Out);

/// Exact-match tally over predictions with a ground truth: the top
/// candidate's spelling equals the annotation's.
struct ExactMatch {
  size_t Known = 0, Hit = 0;
  void add(const std::vector<typilus::PredictionResult> &Preds);
  double pct() const {
    return Known ? 100.0 * static_cast<double>(Hit) / static_cast<double>(Known)
                 : 0;
  }
};

/// Runs P.predictBatch / P.annotateIncremental style calls under a span
/// and records the encoder and index time the predictor reports through
/// its public counters as child spans (embed first, then probe, laid out
/// back to back from the call's start).
class CounterSpan {
public:
  CounterSpan(Recorder &R, const typilus::Predictor &P, const char *Name,
              int64_t Rid);
  ~CounterSpan();
  CounterSpan(const CounterSpan &) = delete;
  CounterSpan &operator=(const CounterSpan &) = delete;
  /// Embed / probe microseconds of the call (valid after finish()).
  uint64_t embedUs() const { return DEmbed; }
  uint64_t probeUs() const { return DKnn; }
  int64_t durNs() const { return EndNs - StartNs; }
  /// Closes the span early; the destructor is then a no-op.
  void finish();

private:
  Recorder &R;
  const typilus::Predictor &P;
  int Idx;
  int64_t Rid;
  uint64_t Embed0, Knn0;
  uint64_t DEmbed = 0, DKnn = 0;
  int64_t StartNs, EndNs = 0;
  bool Done = false;
};

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_H
