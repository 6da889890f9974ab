//===- tests/CoreTest.cpp - core/ integration tests ----------------------------===//
//
// Integration tests over the whole pipeline: corpus -> dataset -> training
// -> τmap -> kNN prediction -> evaluation, plus the open-vocabulary
// property that is Typilus's central claim.
//
//===----------------------------------------------------------------------===//

#include "core/Experiments.h"
#include "core/Trainer.h"
#include "knn/TypeMap.h"
#include "support/ThreadPool.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <stdexcept>
#include <string>

using namespace typilus;

namespace {

/// One small trained workbench shared by the suite (kept deliberately
/// tiny: ~30 files, 6 epochs — these are integration tests, not benches).
class CoreTest : public ::testing::Test {
protected:
  static void SetUpTestSuite() {
    CorpusConfig CC;
    CC.NumFiles = 30;
    DatasetConfig DC;
    WB = new Workbench(Workbench::make(CC, DC));
    ModelConfig MC;
    MC.HiddenDim = 16;
    MC.TimeSteps = 2;
    TrainOptions TO;
    TO.Epochs = 6;
    Run = new ModelRun(trainAndEvaluate(*WB, MC, TO));
  }
  static void TearDownTestSuite() {
    delete Run;
    delete WB;
    Run = nullptr;
    WB = nullptr;
  }

  static Workbench *WB;
  static ModelRun *Run;
};

Workbench *CoreTest::WB = nullptr;
ModelRun *CoreTest::Run = nullptr;

} // namespace

TEST_F(CoreTest, TrainingBeatsChance) {
  // Even a tiny model must clearly beat the majority-class baseline on
  // this corpus (int is ~22% of annotations).
  EXPECT_GT(Run->Summary.ExactAll, 25.0);
}

TEST_F(CoreTest, PredictionsCoverEveryTestTarget) {
  size_t Expected = 0;
  for (const FileExample &F : WB->DS.Test)
    Expected += F.Targets.size();
  EXPECT_EQ(Run->Preds.size(), Expected);
  EXPECT_EQ(Run->Js.size(), Expected);
}

TEST_F(CoreTest, ConfidencesAreProbabilities) {
  for (const PredictionResult &P : Run->Preds) {
    EXPECT_GE(P.confidence(), 0.0);
    EXPECT_LE(P.confidence(), 1.0 + 1e-9);
    double Sum = 0;
    for (const ScoredType &S : P.Candidates)
      Sum += S.Prob;
    EXPECT_LE(Sum, 1.0 + 1e-6);
  }
}

TEST_F(CoreTest, JudgingIsConsistent) {
  for (const Judged &J : Run->Js) {
    if (J.Exact) {
      EXPECT_TRUE(J.UpToParametric) << "exact implies up-to-parametric";
      EXPECT_TRUE(J.Neutral) << "exact implies neutral";
    }
  }
}

TEST_F(CoreTest, PrCurveIsMonotoneInRecall) {
  auto Curve = prCurve(Run->Js, Criterion::Exact, 10);
  ASSERT_FALSE(Curve.empty());
  // Recall decreases (weakly) as the threshold rises.
  for (size_t I = 1; I != Curve.size(); ++I)
    EXPECT_LE(Curve[I].Recall, Curve[I - 1].Recall + 1e-9);
  // The zero-threshold point predicts everything.
  EXPECT_NEAR(Curve.front().Recall, 1.0, 1e-9);
}

TEST_F(CoreTest, HighConfidencePredictionsAreMorePrecise) {
  auto Curve = prCurve(Run->Js, Criterion::Exact, 10);
  EXPECT_GE(Curve.back().Precision + 0.05, Curve.front().Precision)
      << "precision should not collapse at high confidence";
}

TEST_F(CoreTest, BucketsPartitionTheTestSet) {
  auto Buckets = bucketByAnnotationCount(Run->Js, {2, 10, 1000000});
  size_t Total = 0;
  for (const Bucket &B : Buckets)
    Total += B.Num;
  EXPECT_EQ(Total, Run->Js.size());
}

TEST_F(CoreTest, SummarizeKindPartitions) {
  size_t Total = 0;
  for (SymbolKind K : {SymbolKind::Variable, SymbolKind::Parameter,
                       SymbolKind::Return, SymbolKind::Attribute})
    Total += summarizeKind(Run->Js, K).Count;
  EXPECT_EQ(Total, Run->Js.size());
}

//===----------------------------------------------------------------------===//
// The open-vocabulary property (Sec. 4.2)
//===----------------------------------------------------------------------===//

TEST_F(CoreTest, UnseenTypeBecomesPredictableViaMarkers) {
  // A type absent from training and from the τmap cannot be predicted;
  // adding a single marker (no retraining) makes it predictable for a
  // structurally similar symbol.
  const char *Code =
      "def open_channel(quic_stream: QuicStream) -> bool:\n"
      "    status = quic_stream.get_enabled()\n"
      "    return status\n"
      "def close_channel(quic_stream: QuicStream) -> bool:\n"
      "    return quic_stream.get_enabled()\n";
  CorpusFile File{"unseen.py", Code};
  FileExample Ex = buildExample(File, *WB->U, GraphBuildOptions{});
  TypeRef Unseen = WB->U->parse("QuicStream");
  ASSERT_EQ(WB->DS.TrainTypeCounts.count(Unseen), 0u);

  std::vector<const FileExample *> MapFiles;
  for (const FileExample &F : WB->DS.Train)
    MapFiles.push_back(&F);
  KnnOptions KO;
  KO.P = 4.0;
  Predictor P = Predictor::knn(*Run->Model, MapFiles, KO);

  // Before: the unseen type cannot be the top prediction anywhere.
  for (const PredictionResult &Pred : P.predictFile(Ex))
    EXPECT_NE(Pred.top(), Unseen);

  // Adapt: one marker from the first parameter occurrence.
  std::vector<const Target *> Targets;
  nn::Value Emb = Run->Model->embed({&Ex}, &Targets);
  int MarkerRow = -1;
  for (size_t I = 0; I != Targets.size(); ++I)
    if (Targets[I]->Kind == SymbolKind::Parameter && MarkerRow < 0)
      MarkerRow = static_cast<int>(I);
  ASSERT_GE(MarkerRow, 0);
  P.addMarker(Emb.val().data() + MarkerRow * Emb.val().cols(), Unseen);

  // After: the *other* QuicStream parameter resolves to the new type.
  bool Predicted = false;
  for (const PredictionResult &Pred : P.predictFile(Ex))
    if (Pred.Kind == SymbolKind::Parameter &&
        Pred.NodeIdx != Targets[static_cast<size_t>(MarkerRow)]->NodeIdx)
      Predicted |= Pred.top() == Unseen;
  EXPECT_TRUE(Predicted) << "open-vocabulary adaptation failed";
}

//===----------------------------------------------------------------------===//
// Checker experiment protocol
//===----------------------------------------------------------------------===//

TEST_F(CoreTest, CheckerExperimentRunsAndCategorises) {
  auto Outcomes =
      runCheckerExperiment(*WB, Run->Preds, /*InferLocals=*/false,
                           /*StripProb=*/0.5, /*Seed=*/3);
  ASSERT_FALSE(Outcomes.empty());
  size_t Eps = 0, Prime = 0, Same = 0;
  for (const CheckOutcome &O : Outcomes) {
    switch (O.Kind) {
    case CheckOutcome::Case::EpsToTau: ++Eps; break;
    case CheckOutcome::Case::TauToTauPrime: ++Prime; break;
    case CheckOutcome::Case::TauToTau: ++Same; break;
    }
  }
  EXPECT_GT(Eps, 0u);
  EXPECT_GT(Prime + Same, 0u);
}

TEST_F(CoreTest, IdenticalResubstitutionNeverFails) {
  // τ→τ substitutions re-insert the original annotation: by construction
  // they must pass (the paper's sanity row at 100%).
  auto Outcomes = runCheckerExperiment(*WB, Run->Preds, false, 0.0, 3);
  for (const CheckOutcome &O : Outcomes)
    if (O.Kind == CheckOutcome::Case::TauToTau) {
      EXPECT_FALSE(O.CausesError);
    }
}

TEST_F(CoreTest, InferringCheckerFlagsAtLeastAsMuch) {
  auto Strict = runCheckerExperiment(*WB, Run->Preds, false, 0.9, 3);
  auto Infer = runCheckerExperiment(*WB, Run->Preds, true, 0.9, 3);
  ASSERT_EQ(Strict.size(), Infer.size());
  size_t StrictErr = 0, InferErr = 0;
  for (size_t I = 0; I != Strict.size(); ++I) {
    StrictErr += Strict[I].CausesError;
    InferErr += Infer[I].CausesError;
  }
  EXPECT_GE(InferErr, StrictErr);
}

//===----------------------------------------------------------------------===//
// Classifier path
//===----------------------------------------------------------------------===//

TEST_F(CoreTest, ClassifierPredictorProducesRankedCandidates) {
  ModelConfig MC;
  MC.Loss = LossKind::Class;
  MC.HiddenDim = 16;
  MC.TimeSteps = 2;
  TrainOptions TO;
  TO.Epochs = 2;
  ModelRun CRun = trainAndEvaluate(*WB, MC, TO);
  ASSERT_FALSE(CRun.Preds.empty());
  for (const PredictionResult &P : CRun.Preds) {
    ASSERT_FALSE(P.Candidates.empty());
    for (size_t I = 1; I < P.Candidates.size(); ++I)
      EXPECT_GE(P.Candidates[I - 1].Prob, P.Candidates[I].Prob);
  }
}

//===----------------------------------------------------------------------===//
// Parallel-training determinism (the execution layer)
//===----------------------------------------------------------------------===//

TEST_F(CoreTest, ParallelTrainingLossIsBitIdenticalToSerial) {
  // The execution layer's contract: every kernel is bit-reproducible
  // across thread counts, so NumThreads=4 must reproduce the serial
  // training trajectory exactly — same final loss, same weights.
  ModelConfig MC;
  MC.HiddenDim = 16;
  MC.TimeSteps = 2;
  auto TrainOnce = [&](int NumThreads) {
    TrainOptions TO;
    TO.Epochs = 2;
    TO.NumThreads = NumThreads;
    std::unique_ptr<TypeModel> M = makeModel(MC, WB->DS, *WB->U);
    double Loss = trainModel(*M, WB->DS.Train, TO);
    std::vector<float> Weights;
    for (const nn::Value &P : M->params().params())
      for (int64_t I = 0; I != P.val().numel(); ++I)
        Weights.push_back(P.val()[I]);
    return std::make_pair(Loss, Weights);
  };
  auto Serial = TrainOnce(1);
  auto Parallel = TrainOnce(4);
  EXPECT_EQ(Serial.first, Parallel.first) << "final losses diverged";
  ASSERT_EQ(Serial.second.size(), Parallel.second.size());
  for (size_t I = 0; I != Serial.second.size(); ++I)
    ASSERT_EQ(Serial.second[I], Parallel.second[I]) << "weight " << I;
}

//===----------------------------------------------------------------------===//
// The incremental editor loop (annotateIncremental / predictSource)
//===----------------------------------------------------------------------===//

namespace {

/// Source text of the workbench file at \p Path (the corpus keeps every
/// generated file's text alongside the built examples).
const CorpusFile *sourceOf(const Workbench &WB, const std::string &Path) {
  for (const CorpusFile &F : WB.Files)
    if (F.Path == Path)
      return &F;
  return nullptr;
}

/// A kNN predictor over the train split, wired for the editor loop:
/// universe attached so predictSource/annotateIncremental can parse.
Predictor makeEditorPredictor(Workbench &WB, ModelRun &Run,
                              const KnnOptions &KO = {}) {
  std::vector<const FileExample *> MapFiles;
  for (const FileExample &F : WB.DS.Train)
    MapFiles.push_back(&F);
  Predictor P = Predictor::knn(*Run.Model, MapFiles, KO);
  P.setUniverse(*WB.U);
  return P;
}

} // namespace

TEST_F(CoreTest, PredictSourceMatchesPredictFile) {
  // The single in-memory-source entry point (CLI --source, serve daemon,
  // LSP) must agree bit-for-bit with predictFile over the prebuilt
  // example of the same content.
  Predictor P = makeEditorPredictor(*WB, *Run);
  const FileExample &F = WB->DS.Test.front();
  const CorpusFile *CF = sourceOf(*WB, F.Path);
  ASSERT_NE(CF, nullptr);
  auto ViaFile = P.predictFile(F);
  auto ViaSource = P.predictSource(CF->Path, CF->Source);
  ASSERT_FALSE(ViaFile.empty());
  EXPECT_EQ(predictionDigest(ViaFile), predictionDigest(ViaSource));
}

TEST_F(CoreTest, PredictSourceRejectsDeepNestingWithADiagnostic) {
  // Hostile request bodies: a 20k-term sum, 20k nested parens and a 20k
  // attribute chain. Each must come back as the parser's diagnostic, not
  // a stack overflow, and leave the predictor serving.
  Predictor P = makeEditorPredictor(*WB, *Run);
  auto Repeat = [](const std::string &S, int N) {
    std::string Out;
    for (int I = 0; I != N; ++I)
      Out += S;
    return Out;
  };
  const int N = 20000;
  const std::string Hostile[] = {
      "x = 1" + Repeat("+1", N) + "\n",
      "x = " + Repeat("(", N) + "1" + Repeat(")", N) + "\n",
      "x = a" + Repeat(".b", N) + "\n",
  };
  const CorpusFile *CF = sourceOf(*WB, WB->DS.Test.front().Path);
  ASSERT_NE(CF, nullptr);
  uint64_t Before = predictionDigest(P.predictSource(CF->Path, CF->Source));
  P.annotateIncremental(CF->Path, CF->Source);
  size_t Live = P.typeMap().liveSize();
  for (const std::string &Src : Hostile) {
    try {
      P.predictSource("deep.py", Src);
      ADD_FAILURE() << "no diagnostic for " << Src.substr(0, 12);
    } catch (const std::runtime_error &E) {
      EXPECT_EQ(std::string(E.what()).rfind("deep.py:1: nesting deeper than",
                                            0),
                0u)
          << E.what();
    }
    // A rejected edit leaves the file's τmap markers in place.
    EXPECT_THROW(P.annotateIncremental(CF->Path, Src), std::runtime_error);
    EXPECT_EQ(P.typeMap().liveSize(), Live);
  }
  P.removeMarkersForFile(CF->Path);
  EXPECT_EQ(predictionDigest(P.predictSource(CF->Path, CF->Source)), Before);
  // The deepest nesting the cap admits runs through every pass.
  std::string Legal = "def f(a):\n    x = 1" + Repeat("+1", 2000) +
                      "\n    return x\n";
  EXPECT_NO_THROW(P.predictSource("legal.py", Legal));
}

TEST_F(CoreTest, AnnotateIncrementalReEmbedsExactlyOneFile) {
  // The didChange contract: one edit = one encoder pass, regardless of
  // how many files seeded the τmap.
  Predictor P = makeEditorPredictor(*WB, *Run);
  const CorpusFile *CF = sourceOf(*WB, WB->DS.Test.front().Path);
  ASSERT_NE(CF, nullptr);
  uint64_t Before = P.embedCalls();
  auto Preds = P.annotateIncremental(CF->Path, CF->Source);
  EXPECT_EQ(P.embedCalls(), Before + 1);
  EXPECT_FALSE(Preds.empty());
  // A second edit of the same file is again exactly one pass.
  P.annotateIncremental(CF->Path, CF->Source);
  EXPECT_EQ(P.embedCalls(), Before + 2);
}

TEST_F(CoreTest, FirstAnnotateMatchesPredictSourceDigest) {
  // A file the τmap has never seen: annotateIncremental's answers come
  // from the same query kernel over the same markers as predictSource,
  // so the digests agree — the LSP smoke test's acceptance criterion.
  Predictor P = makeEditorPredictor(*WB, *Run);
  const CorpusFile *CF = sourceOf(*WB, WB->DS.Test.front().Path);
  ASSERT_NE(CF, nullptr);
  uint64_t Expect = predictionDigest(P.predictSource(CF->Path, CF->Source));
  uint64_t Got = predictionDigest(P.annotateIncremental(CF->Path, CF->Source));
  EXPECT_EQ(Got, Expect);
}

TEST_F(CoreTest, RemoveReAddRestoresPredictionsBitIdentically) {
  // The tentpole contract: retiring a train file's markers and re-adding
  // identical content resurrects the tombstoned rows in place, so a
  // probe file's predictions are bit-identical to the pre-edit state.
  Predictor P = makeEditorPredictor(*WB, *Run);
  const std::string &TrainPath = WB->DS.Train.front().Path;
  const CorpusFile *TrainSrc = sourceOf(*WB, TrainPath);
  const CorpusFile *Probe = sourceOf(*WB, WB->DS.Test.front().Path);
  ASSERT_NE(TrainSrc, nullptr);
  ASSERT_NE(Probe, nullptr);

  uint64_t D0 = predictionDigest(P.predictSource(Probe->Path, Probe->Source));
  size_t Size0 = P.typeMap().size();
  ASSERT_EQ(P.typeMap().deadMarkers(), 0u);

  ASSERT_GT(P.removeMarkersForFile(TrainPath), 0u);
  EXPECT_LT(P.typeMap().liveSize(), Size0);
  uint64_t DMid = predictionDigest(P.predictSource(Probe->Path, Probe->Source));
  EXPECT_NE(DMid, D0) << "removing a train file's markers should be visible";

  P.annotateIncremental(TrainPath, TrainSrc->Source);
  EXPECT_EQ(P.typeMap().size(), Size0) << "re-add must resurrect, not append";
  EXPECT_EQ(P.typeMap().deadMarkers(), 0u);
  uint64_t D1 = predictionDigest(P.predictSource(Probe->Path, Probe->Source));
  EXPECT_EQ(D1, D0);
}

TEST_F(CoreTest, ExplicitCompactionEqualsFreshBuild) {
  // The session-close scenario: an artifact's τmap (the survivor files),
  // plus two editor-opened files appended on top. Closing those files
  // and compacting must return the whole serving surface bit-identically
  // to a predictor freshly built over the survivors alone. (The opened
  // files go last so dedup ownership of shared rows stays with the
  // artifact — exactly the order the editor loop produces.)
  ASSERT_GE(WB->DS.Train.size(), 3u);
  std::vector<const FileExample *> Survivors, MapFiles;
  for (size_t I = 2; I != WB->DS.Train.size(); ++I)
    Survivors.push_back(&WB->DS.Train[I]);
  MapFiles = Survivors;
  MapFiles.push_back(&WB->DS.Train[0]);
  MapFiles.push_back(&WB->DS.Train[1]);
  KnnOptions KO;
  KO.CompactRatio = 0; // compact by hand, not by policy
  Predictor P = Predictor::knn(*Run->Model, MapFiles, KO);
  P.setUniverse(*WB->U);
  ASSERT_GT(P.removeMarkersForFile(WB->DS.Train[0].Path), 0u);
  ASSERT_GT(P.removeMarkersForFile(WB->DS.Train[1].Path), 0u);
  ASSERT_TRUE(P.compactMarkers());
  ASSERT_FALSE(P.compactMarkers()) << "second compact must be a no-op";

  Predictor Fresh = Predictor::knn(*Run->Model, Survivors, KO);
  ASSERT_EQ(P.typeMap().size(), Fresh.typeMap().size());
  uint64_t DP = predictionDigest(P.predictAll(WB->DS.Test));
  uint64_t DF = predictionDigest(Fresh.predictAll(WB->DS.Test));
  EXPECT_EQ(DP, DF);
}

TEST_F(CoreTest, CompactRatioPolicyTriggersRebuild) {
  // With an aggressive policy, a single removal pushes the tombstone
  // ratio over the threshold and maybeCompact folds the map eagerly.
  KnnOptions KO;
  KO.CompactRatio = 0.01;
  Predictor P = makeEditorPredictor(*WB, *Run, KO);
  ASSERT_GT(P.removeMarkersForFile(WB->DS.Train.front().Path), 0u);
  EXPECT_EQ(P.typeMap().deadMarkers(), 0u)
      << "policy compaction should have dropped every tombstone";
}

TEST_F(CoreTest, ParallelKnnPredictorMatchesSerial) {
  std::vector<const FileExample *> MapFiles;
  for (const FileExample &F : WB->DS.Train)
    MapFiles.push_back(&F);
  KnnOptions Serial;
  Serial.NumThreads = 1;
  KnnOptions Parallel;
  Parallel.NumThreads = 4;
  Predictor PS = Predictor::knn(*Run->Model, MapFiles, Serial);
  Predictor PP = Predictor::knn(*Run->Model, MapFiles, Parallel);
  ASSERT_EQ(PS.typeMap().size(), PP.typeMap().size());
  auto RS = PS.predictAll(WB->DS.Test);
  auto RP = PP.predictAll(WB->DS.Test);
  ASSERT_EQ(RS.size(), RP.size());
  for (size_t I = 0; I != RS.size(); ++I) {
    EXPECT_EQ(RS[I].top(), RP[I].top());
    EXPECT_EQ(RS[I].confidence(), RP[I].confidence());
  }
}

TEST(NoRecordPredictorTest, KnnMarkersMatchRecordedEmbedForEveryEncoder) {
  // Predictor::embedFiles embeds under nn::NoRecordScope, on pool
  // workers; the τmap it fills must hold exactly the rows a recorded
  // Model->embed produces, deduplicated the same way.
  CorpusConfig CC;
  CC.NumFiles = 14;
  Workbench WB = Workbench::make(CC, DatasetConfig());
  std::vector<const FileExample *> MapFiles;
  for (const FileExample &F : WB.DS.Train)
    MapFiles.push_back(&F);
  for (EncoderKind E : {EncoderKind::Graph, EncoderKind::Seq,
                        EncoderKind::Path}) {
    SCOPED_TRACE(encoderKindName(E));
    ModelConfig MC;
    MC.Encoder = E;
    MC.HiddenDim = 8;
    MC.TimeSteps = 2;
    // One model for both sides: embedding reads no mutable state, so the
    // predictor's pass leaves nothing behind for the reference to see.
    std::unique_ptr<TypeModel> M = makeModel(MC, WB.DS, *WB.U);
    KnnOptions KO;
    KO.NumThreads = 4;
    Predictor P = Predictor::knn(*M, MapFiles, KO);

    TypeMap Want(MC.HiddenDim);
    for (const FileExample *F : MapFiles) {
      std::vector<const Target *> Targets;
      nn::Value Emb = M->embed({F}, &Targets);
      if (!Emb.defined())
        continue;
      ASSERT_FALSE(Emb.node()->Prev.empty()) << "reference must record";
      for (size_t I = 0; I != Targets.size(); ++I)
        Want.add(Emb.val().data() + static_cast<int64_t>(I) * MC.HiddenDim,
                 Targets[I]->Type);
    }
    const TypeMap &Got = P.typeMap();
    ASSERT_GT(Want.size(), 0u);
    ASSERT_EQ(Got.size(), Want.size());
    for (size_t I = 0; I != Got.size(); ++I) {
      EXPECT_EQ(Got.type(I), Want.type(I)) << "marker " << I;
      EXPECT_EQ(std::memcmp(Got.embedding(I), Want.embedding(I),
                            sizeof(float) * static_cast<size_t>(MC.HiddenDim)),
                0)
          << "marker " << I;
    }
  }
}

TEST(OneAnswerTest, EveryEncoderAnswersAFileAloneAsInAnyCompany) {
  // A file's predictions are a function of the model and that file
  // alone: no encoder may carry state from one embed to the next, so
  // neither what ran before, nor the batch around it, nor the thread
  // count may change its digest.
  CorpusConfig CC;
  CC.NumFiles = 14;
  CC.NumUdts = 8;
  DatasetConfig DC;
  DC.CommonThreshold = 2;
  Workbench WB = Workbench::make(CC, DC);
  std::vector<const FileExample *> MapFiles;
  for (const FileExample &F : WB.DS.Train)
    MapFiles.push_back(&F);
  const CorpusFile *A = sourceOf(WB, WB.DS.Test.front().Path);
  const CorpusFile *B = sourceOf(WB, WB.DS.Train.front().Path);
  ASSERT_NE(A, nullptr);
  ASSERT_NE(B, nullptr);
  for (EncoderKind E : {EncoderKind::Graph, EncoderKind::Seq,
                        EncoderKind::Path, EncoderKind::NamesOnly}) {
    SCOPED_TRACE(encoderKindName(E));
    ModelConfig MC;
    MC.Encoder = E;
    MC.HiddenDim = 8;
    MC.TimeSteps = 2;
    TrainOptions TO;
    TO.Epochs = 1;
    TO.BatchFiles = 4;
    std::unique_ptr<TypeModel> M = makeModel(MC, WB.DS, *WB.U);
    trainModel(*M, WB.DS.Train, TO);
    Predictor P = Predictor::knn(*M, MapFiles);
    P.setUniverse(*WB.U);

    auto Digest = [&](const CorpusFile &F) {
      std::vector<PredictionResult> Preds = P.predictSource(F.Path, F.Source);
      EXPECT_FALSE(Preds.empty()) << F.Path;
      return predictionDigest(Preds);
    };
    auto BatchDigests = [&](const CorpusFile &First,
                            const CorpusFile &Second) {
      std::vector<SourcePrediction> Out = P.predictSources({First, Second});
      EXPECT_EQ(Out.size(), 2u);
      std::vector<uint64_t> D;
      for (const SourcePrediction &SP : Out) {
        EXPECT_EQ(SP.Err, "");
        D.push_back(predictionDigest(SP.Preds));
      }
      return D;
    };

    // Each file's first answer, alone on a fresh predictor, is the one
    // every later call must repeat.
    setGlobalNumThreads(1);
    const uint64_t WantA = Digest(*A);
    const uint64_t WantB = Digest(*B);
    for (int Threads : {1, 4}) {
      SCOPED_TRACE("threads " + std::to_string(Threads));
      setGlobalNumThreads(Threads);
      EXPECT_EQ(Digest(*A), WantA) << "after another file";
      EXPECT_EQ(Digest(*A), WantA) << "twice in a row";
      EXPECT_EQ(Digest(*B), WantB) << "after another file";
      EXPECT_EQ(BatchDigests(*A, *B), (std::vector<uint64_t>{WantA, WantB}))
          << "batch A, B";
      EXPECT_EQ(BatchDigests(*B, *A), (std::vector<uint64_t>{WantB, WantA}))
          << "batch B, A";
    }
    setGlobalNumThreads(0);
  }
}
