//===- bench/artifact_io.cpp - Model artifact save/load throughput -------------===//
//
// Measures the train-once / serve-many mechanics: how big a serving
// artifact is, how fast it saves and loads, and how much faster loading a
// snapshot is than rebuilding the τmap and its index from the model —
// the number that decides how quickly a fleet of serving processes can
// come up (ROADMAP north star). Records via tools/record_bench.sh as
// BENCH_artifact_io.json.
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"
#include "support/Table.h"

#include <chrono>
#include <cstdio>

using namespace typilus;
using namespace typilus::bench;

namespace {

double secondsSince(std::chrono::steady_clock::time_point T0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - T0)
      .count();
}

} // namespace

int main() {
  banner("Artifact I/O: save/load throughput and cold-start speedup",
         "the Fig. 1 offline/online split");
  BenchScale S = BenchScale::fromEnv();
  Workbench WB = makeBench(S);
  ModelConfig MC; // Graph + Typilus, the headline variant
  TrainOptions TO = makeTrainOptions(S);
  std::printf("training on %zu files, %d epochs...\n", WB.DS.Train.size(),
              TO.Epochs);
  std::unique_ptr<TypeModel> Model = makeModel(MC, WB.DS, *WB.U);
  trainModel(*Model, WB.DS.Train, TO);

  std::vector<const FileExample *> MapFiles;
  for (const FileExample &F : WB.DS.Train)
    MapFiles.push_back(&F);
  for (const FileExample &F : WB.DS.Valid)
    MapFiles.push_back(&F);

  // Cold start the training-process way: embed every map file and build
  // the forest from scratch.
  auto T0 = std::chrono::steady_clock::now();
  Predictor P = Predictor::knn(*Model, MapFiles);
  double BuildSec = secondsSince(T0);

  const std::string Path = "bench_artifact_io.typilus";
  const int Reps = 10;
  std::string Err;

  T0 = std::chrono::steady_clock::now();
  for (int I = 0; I != Reps; ++I) {
    if (!P.save(Path, *WB.U, &Err)) {
      std::fprintf(stderr, "error: %s\n", Err.c_str());
      return 1;
    }
  }
  double SaveSec = secondsSince(T0) / Reps;

  ArchiveWriter Probe(P.artifactVersion());
  P.writeArtifact(Probe, *WB.U);
  double Bytes = static_cast<double>(Probe.bytes().size());

  // Cold start the serving-process way: load the snapshot (no corpus, no
  // embedding, no forest rebuild).
  T0 = std::chrono::steady_clock::now();
  std::unique_ptr<Predictor> L;
  for (int I = 0; I != Reps; ++I) {
    L = Predictor::load(Path, &Err);
    if (!L) {
      std::fprintf(stderr, "error: %s\n", Err.c_str());
      return 1;
    }
  }
  double LoadSec = secondsSince(T0) / Reps;

  // Quantized τmap stores: artifact size, save/load, and end-to-end
  // prediction time per marker encoding. f16 halves and int8 quarters the
  // dominant chunk; the scan decodes inside the distance kernel, so the
  // quantized rows also show the smaller-memory-traffic effect.
  TextTable QT;
  QT.setHeader({"τmap store", "size (KiB)", "vs f32", "save (ms)", "load (ms)",
                "predict test split (ms)"});
  double F32Bytes = 0;
  for (MarkerStore S :
       {MarkerStore::F32, MarkerStore::F16, MarkerStore::Int8}) {
    std::unique_ptr<Predictor> Q = Predictor::load(Path, &Err);
    if (!Q) {
      std::fprintf(stderr, "error: %s\n", Err.c_str());
      return 1;
    }
    if (S != MarkerStore::F32 && !Q->setMarkerStore(S, &Err)) {
      std::fprintf(stderr, "error: %s\n", Err.c_str());
      return 1;
    }
    const std::string QPath = "bench_artifact_io_q.typilus";
    // A loaded predictor's types are interned in its own universe, not the
    // workbench's.
    const TypeUniverse &QU = *Q->universe();
    T0 = std::chrono::steady_clock::now();
    for (int I = 0; I != Reps; ++I)
      if (!Q->save(QPath, QU, &Err)) {
        std::fprintf(stderr, "error: %s\n", Err.c_str());
        return 1;
      }
    double QSaveSec = secondsSince(T0) / Reps;
    ArchiveWriter QProbe(Q->artifactVersion());
    Q->writeArtifact(QProbe, QU);
    double QBytes = static_cast<double>(QProbe.bytes().size());
    if (S == MarkerStore::F32)
      F32Bytes = QBytes;
    T0 = std::chrono::steady_clock::now();
    std::unique_ptr<Predictor> QL;
    for (int I = 0; I != Reps; ++I) {
      QL = Predictor::load(QPath, &Err);
      if (!QL) {
        std::fprintf(stderr, "error: %s\n", Err.c_str());
        return 1;
      }
    }
    double QLoadSec = secondsSince(T0) / Reps;
    T0 = std::chrono::steady_clock::now();
    auto Preds = QL->predictAll(WB.DS.Test);
    double QPredictSec = secondsSince(T0);
    std::remove(QPath.c_str());
    QT.addRow({markerStoreName(S), strformat("%.1f", QBytes / 1024.0),
               strformat("%.2fx", F32Bytes / QBytes),
               strformat("%.2f", QSaveSec * 1e3),
               strformat("%.2f", QLoadSec * 1e3),
               strformat("%.2f (%zu preds)", QPredictSec * 1e3, Preds.size())});
  }
  std::remove(Path.c_str());

  TextTable T;
  T.setHeader({"metric", "value"});
  T.addRow({"artifact size (KiB)", strformat("%.1f", Bytes / 1024.0)});
  T.addRow({"τmap markers", strformat("%zu", P.typeMap().size())});
  T.addRow({"save (ms)", strformat("%.2f", SaveSec * 1e3)});
  T.addRow({"save throughput (MiB/s)",
            strformat("%.1f", Bytes / (1 << 20) / SaveSec)});
  T.addRow({"load (ms)", strformat("%.2f", LoadSec * 1e3)});
  T.addRow({"load throughput (MiB/s)",
            strformat("%.1f", Bytes / (1 << 20) / LoadSec)});
  T.addRow({"cold build: embed+index (ms)", strformat("%.2f", BuildSec * 1e3)});
  T.addRow({"serve cold-start speedup",
            strformat("%.1fx", BuildSec / LoadSec)});
  std::printf("%s", T.renderAscii().c_str());
  std::printf("\n(load skips both the map-file embedding and the index "
              "build; predictions are bit-identical either way)\n");
  std::printf("\nQuantized τmap stores (format v2; f32 stays the v1 byte "
              "stream):\n%s",
              QT.renderAscii().c_str());
  return 0;
}
