//===- perfbench/src/Train.cpp - The `train` workload ---------------------===//
///
/// Trainer::run over a ShardedDataset train split with prefetch on. The
/// shard set is built in set-up by the program's own `typilus_cli shard`
/// from a fixed corpus (the seed sets the model initialisation and the
/// epoch shuffles); the run trains a fixed number of whole epochs, one
/// optimizer step per run() call, then fills the τmap and predicts the
/// test split. Backward and the
/// optimizer dominate; the kNN query path, serve, lsp and checker are
/// bypassed.
///
/// Correctness: the τmap predictor's test-split digest must survive an
/// artifact save/load round trip. The traced run adds a mirror of the
/// training loop through the public functions (get -> embed -> loss ->
/// backward -> Adam::step) on an identically initialised model, which
/// must reach Trainer::run's final loss bit for bit.
///
//===----------------------------------------------------------------------===//

#include "Helpers.h"
#include "Workloads.h"

#include "core/Trainer.h"
#include "corpus/ShardedDataset.h"
#include "nn/Autograd.h"
#include "nn/Optim.h"
#include "support/ThreadPool.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <numeric>
#include <stdexcept>

using namespace perfbench;
using namespace typilus;

namespace {

constexpr int kCorpusFiles = 160;
constexpr int kShardFiles = 16;
/// Optimizer steps per --seconds second, rounded up to whole epochs.
constexpr int kStepsPerSecond = 12;
constexpr int kWarmupSteps = 4;
constexpr int kSetupReps = 3;
/// The corpus is the same for every workload seed; the seed sets the
/// model initialisation and the epoch shuffles.
constexpr uint64_t kCorpusSeed = 0xC0485EEDull;

std::string shellQuote(const std::string &S) {
  std::string Q = "'";
  for (char C : S)
    Q += C == '\'' ? std::string("'\\''") : std::string(1, C);
  return Q + "'";
}

TrainOptions trainOptions(uint64_t Seed, int Epochs) {
  TrainOptions TO;
  TO.Epochs = Epochs;
  TO.Seed = deriveSeed(Seed, 4);
  TO.NumThreads = 1;
  return TO;
}

/// Trainer::run, step by step through the public functions, with a span
/// around each call. \returns the final-epoch mean loss.
double mirrorTraining(TypeModel &Model, ExampleSource &Train,
                      const TrainOptions &TO, Recorder &Rec) {
  setGlobalNumThreads(TO.NumThreads);
  nn::Adam Opt(Model.params(), TO.LearningRate, TO.ClipNorm);
  Rng R(TO.Seed);
  std::vector<int> Order(Train.size());
  std::iota(Order.begin(), Order.end(), 0);
  double Last = 0;
  int64_t Step = 0;
  const size_t B = static_cast<size_t>(TO.BatchFiles);
  for (int Epoch = 0; Epoch != TO.Epochs; ++Epoch) {
    Train.shuffleEpochOrder(Order, R, TO.ShardAwareShuffle);
    Train.planPrefetch(Order, 0);
    double Sum = 0;
    int Steps = 0;
    for (size_t Start = 0; Start < Order.size(); Start += B, ++Step) {
      ScopedSpan Root(Rec, "train.step", Step);
      std::vector<ExamplePin> Pins;
      std::vector<const FileExample *> Batch;
      {
        ScopedSpan S(Rec, "corpus.get", Step);
        for (size_t I = Start; I < Order.size() && I < Start + B; ++I) {
          Pins.emplace_back();
          Batch.push_back(
              &Train.get(static_cast<size_t>(Order[I]), Pins.back()));
        }
      }
      std::vector<const Target *> Targets;
      nn::Value Emb;
      {
        ScopedSpan S(Rec, "models.embed", Step);
        Emb = Model.embed(Batch, &Targets);
      }
      if (!Emb.defined() || Targets.empty())
        continue;
      nn::Value Loss;
      {
        ScopedSpan S(Rec, "models.loss", Step);
        Loss = Model.loss(Emb, Targets);
      }
      {
        ScopedSpan S(Rec, "nn.backward", Step);
        Model.params().zeroGrads();
        nn::backward(Loss);
      }
      {
        ScopedSpan S(Rec, "nn.adam", Step);
        Opt.step();
      }
      Sum += Loss.val()[0];
      ++Steps;
    }
    Last = Steps > 0 ? Sum / Steps : 0;
  }
  return Last;
}

} // namespace

RunResult perfbench::runTrain(const RunOptions &O) {
  RunResult Res;
  setGlobalNumThreads(1);
  std::string Dir = O.WorkDir + "/shards-" + std::to_string(O.Seed);

  // Set-up: build the shard set with the program's shard command, open
  // it, and build the model's vocabularies over the train split —
  // repeated, the median reported; the last set-up is used.
  std::string Cmd = shellQuote(O.Cli) + " shard --out-dir " +
                    shellQuote(Dir) + " --files " +
                    std::to_string(kCorpusFiles) + " --udts 40 --seed " +
                    std::to_string(kCorpusSeed) + " --shard-files " +
                    std::to_string(kShardFiles) + " --threads 1 >/dev/null";
  ModelConfig MC;
  MC.Seed = deriveSeed(O.Seed, 5);
  std::vector<double> SetupS;
  std::unique_ptr<TypeUniverse> UPtr;
  std::unique_ptr<ShardedDataset> SD;
  std::unique_ptr<TypeModel> Model;
  for (int Rep = 0; Rep != kSetupReps; ++Rep) {
    Model.reset();
    SD.reset();
    std::filesystem::remove_all(Dir);
    int64_t T0 = nowNs();
    if (std::system(Cmd.c_str()) != 0)
      throw std::runtime_error("shard command failed: " + Cmd);
    UPtr = std::make_unique<TypeUniverse>();
    ShardedDatasetOptions SO;
    SO.Prefetch = true;
    std::string Err;
    SD = ShardedDataset::open(Dir, *UPtr, SO, &Err);
    if (!SD)
      throw std::runtime_error("cannot open shards: " + Err);
    Model = makeModel(MC, SD->split(SplitKind::Train), *UPtr);
    SetupS.push_back(secondsBetween(T0, nowNs()));
  }
  Res.EndToEnd["setup_s"] = median(SetupS);
  TypeUniverse &U = *UPtr;
  ExampleSource &Train = SD->split(SplitKind::Train);

  const size_t Batch = static_cast<size_t>(TrainOptions().BatchFiles);
  int StepsPerEpoch = static_cast<int>((Train.size() + Batch - 1) / Batch);
  int Epochs = std::max(1, (kStepsPerSecond * O.Seconds + StepsPerEpoch - 1) /
                               StepsPerEpoch);
  TrainOptions TO = trainOptions(O.Seed, Epochs);

  // Warm-up on a throwaway model: caches, allocator, shard decode.
  {
    std::unique_ptr<TypeModel> Warm = makeModel(MC, Train, U);
    TrainOptions WO = TO;
    WO.StopAfterSteps = kWarmupSteps;
    Trainer(*Warm, WO).run(Train);
  }

  // One optimizer step per run() call (the budgeted-training knob), so
  // each step is a latency sample; the continued run is bit-identical to
  // an uninterrupted one.
  TrainOptions StepTO = TO;
  StepTO.StopAfterSteps = 1;
  Trainer T(*Model, StepTO);
  std::vector<double> StepMs;
  std::vector<int64_t> EpochEndNs;
  double Loss = 0;
  int64_t T0 = nowNs();
  while (T.epochsDone() < Epochs) {
    int64_t S0 = nowNs();
    int Before = T.epochsDone();
    Loss = T.run(Train);
    int64_t S1 = nowNs();
    StepMs.push_back(static_cast<double>(S1 - S0) / 1e6);
    if (T.epochsDone() != Before)
      EpochEndNs.push_back(S1);
  }
  double TrainS = secondsBetween(T0, nowNs());
  double P99 = supportedPercentile(StepMs.size(), 99);
  std::fprintf(stderr, "train: %zu step samples, p%.2f reported as "
                       "latency_p99_ms\n",
               StepMs.size(), P99);
  Res.EndToEnd["latency_p50_ms"] = medianOfBlockMedians(StepMs, kTimingBlocks);
  Res.EndToEnd["latency_p99_ms"] = percentile(StepMs, P99);
  double Targets = static_cast<double>(Epochs) *
                   static_cast<double>(SD->numTargets(SplitKind::Train));
  std::fprintf(stderr, "train: %d epochs x %d steps, %.0f targets, final "
                       "loss %.6f\n",
               Epochs, StepsPerEpoch, Targets, Loss);
  Res.Attempted = StepMs.size();

  KnnOptions KO;
  KO.NumThreads = 1;
  Predictor P = Predictor::knn(*Model, SD->trainValid(), KO);
  std::vector<PredictionResult> Preds =
      P.predictAll(SD->split(SplitKind::Test));
  uint64_t Digest = predictionDigest(Preds);

  // Blocks are whole epochs: each one trains every target once.
  Res.EndToEnd["throughput_per_s"] = medianBlockRate(
      EpochEndNs,
      std::vector<double>(EpochEndNs.size(),
                          static_cast<double>(SD->numTargets(SplitKind::Train))),
      T0, EpochEndNs.size());
  ExactMatch Acc;
  Acc.add(Preds);
  Res.EndToEnd["accuracy_pct"] = Acc.pct();
  Res.EndToEnd["peak_rss_mb"] = peakRssMb(); // before the round trip below
  if (!std::isfinite(Loss)) {
    std::fprintf(stderr, "train: non-finite loss\n");
    ++Res.Failed;
  }

  // The artifact round trip: a loaded predictor must answer the test
  // split bit-identically.
  std::string Err;
  std::string Artifact = O.WorkDir + "/train-" + std::to_string(O.Seed) +
                         ".typilus";
  if (!P.save(Artifact, U, &Err))
    throw std::runtime_error("cannot save artifact: " + Err);
  std::unique_ptr<Predictor> Loaded = Predictor::load(Artifact, &Err);
  if (!Loaded)
    throw std::runtime_error("cannot load artifact: " + Err);
  uint64_t LoadedDigest =
      predictionDigest(Loaded->predictAll(SD->split(SplitKind::Test)));
  if (LoadedDigest != Digest) {
    std::fprintf(stderr, "train: artifact round trip changed the test-split "
                         "digest (%016llx vs %016llx)\n",
                 static_cast<unsigned long long>(LoadedDigest),
                 static_cast<unsigned long long>(Digest));
    ++Res.Failed;
  }
  ++Res.Attempted;
  std::filesystem::remove(Artifact);

  auto &L = Res.PerLayer;
  L["knn.markers"] = static_cast<double>(P.typeMap().size());
  if (O.Trace) {
    std::unique_ptr<TypeModel> Twin = makeModel(MC, Train, U);
    Recorder On(true);
    int64_t M0 = nowNs();
    double MirrorLoss = mirrorTraining(*Twin, Train, TO, On);
    double MirrorS = secondsBetween(M0, nowNs());
    ++Res.Attempted;
    if (std::memcmp(&MirrorLoss, &Loss, sizeof(double)) != 0) {
      std::fprintf(stderr, "train: mirror loss %.17g != Trainer::run %.17g\n",
                   MirrorLoss, Loss);
      ++Res.Failed;
    }
    const std::vector<Span> &Spans = On.spans();
    std::map<std::string, double> Self =
        medianSelfUsPerTree(Spans, "train.step");
    L["corpus.get_us"] = Self["corpus.get"];
    L["models.embed_us"] = Self["models.embed"];
    L["models.loss_us"] = Self["models.loss"];
    L["nn.backward_us"] = Self["nn.backward"];
    L["nn.adam_us"] = Self["nn.adam"];
    L["trace.root_self_us"] = Self["train.step"];
    L["trace.coverage_pct"] = coveragePct(Spans, "train.step");
    L["trace.overhead_pct"] = 100.0 * (MirrorS - TrainS) / TrainS;
    Res.Spans = Spans;
  }
  SD.reset();
  std::filesystem::remove_all(Dir);
  return Res;
}
