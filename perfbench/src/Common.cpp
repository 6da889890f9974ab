//===- perfbench/src/Common.cpp - Shared workload plumbing ----------------===//

#include "Helpers.h"
#include "Workloads.h"

#include <stdexcept>

#include <sys/resource.h>

using namespace perfbench;
using namespace typilus;

double perfbench::secondsBetween(int64_t StartNs, int64_t EndNs) {
  return static_cast<double>(EndNs - StartNs) / 1e9;
}

double perfbench::peakRssMb() {
  struct rusage U {};
  getrusage(RUSAGE_SELF, &U);
  return static_cast<double>(U.ru_maxrss) / 1024.0; // ru_maxrss is KiB
}

double perfbench::medianLoadSeconds(const std::string &Path, int Reps,
                                    std::unique_ptr<Predictor> &Out) {
  std::vector<double> Times;
  for (int I = 0; I <= Reps; ++I) {
    std::string Err;
    int64_t T0 = nowNs();
    std::unique_ptr<Predictor> P = Predictor::load(Path, &Err);
    int64_t T1 = nowNs();
    if (!P)
      throw std::runtime_error("cannot load artifact " + Path + ": " + Err);
    if (I > 0) // the first load warms the page cache and the allocator
      Times.push_back(secondsBetween(T0, T1));
    Out = std::move(P);
  }
  return median(Times);
}

void ExactMatch::add(const std::vector<PredictionResult> &Preds) {
  for (const PredictionResult &P : Preds)
    if (P.Truth) {
      ++Known;
      Hit += P.top() && P.top()->str() == P.Truth->str();
    }
}

CounterSpan::CounterSpan(Recorder &R, const Predictor &P, const char *Name,
                         int64_t Rid)
    : R(R), P(P), Idx(R.open(Name, Rid)), Rid(Rid), Embed0(P.embedMicros()),
      Knn0(P.knnMicros()), StartNs(nowNs()) {}

void CounterSpan::finish() {
  if (Done)
    return;
  Done = true;
  EndNs = nowNs();
  DEmbed = P.embedMicros() - Embed0;
  DKnn = P.knnMicros() - Knn0;
  if (Idx < 0)
    return;
  // The counters give durations, not positions: lay the two phases out
  // back to back from the call's start (their real order in the program).
  int64_t E = static_cast<int64_t>(DEmbed) * 1000;
  int64_t K = static_cast<int64_t>(DKnn) * 1000;
  R.addClosed("models.embed", StartNs, StartNs + E, Rid);
  R.addClosed("knn.probe", StartNs + E, StartNs + E + K, Rid);
  R.close(Idx);
}

CounterSpan::~CounterSpan() { finish(); }
