//===- tests/ArtifactTest.cpp - Model artifact round-trip tests ----------------===//
//
// The train-once / serve-many contract: an artifact saved by one process
// and loaded by another must predict bit-identically to the in-process
// predictor — for every Table 2 variant, for the exact and the HNSW kNN
// path, at any thread count. Also covers rejection of damaged artifacts
// and checkpoint/resume equivalence with uninterrupted training.
//
//===----------------------------------------------------------------------===//

#include "core/Experiments.h"
#include "nn/Serialize.h"
#include "support/ThreadPool.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <functional>
#include <sstream>

using namespace typilus;

namespace {

Workbench makeTinyWorkbench() {
  CorpusConfig CC;
  CC.NumFiles = 14;
  CC.NumUdts = 8;
  DatasetConfig DC;
  DC.CommonThreshold = 2;
  return Workbench::make(CC, DC);
}

ModelConfig tinyConfig(EncoderKind E, LossKind L) {
  ModelConfig MC;
  MC.Encoder = E;
  MC.Loss = L;
  MC.HiddenDim = 8;
  MC.TimeSteps = 2;
  return MC;
}

std::unique_ptr<TypeModel> trainTiny(Workbench &WB, const ModelConfig &MC,
                                     int Epochs = 1) {
  TrainOptions TO;
  TO.Epochs = Epochs;
  TO.BatchFiles = 4;
  std::unique_ptr<TypeModel> M = makeModel(MC, WB.DS, *WB.U);
  trainModel(*M, WB.DS.Train, TO);
  return M;
}

Predictor makePredictor(Workbench &WB, TypeModel &Model,
                        const KnnOptions &KO = {}) {
  if (Model.config().Loss == LossKind::Class)
    return Predictor::classifier(Model);
  std::vector<const FileExample *> MapFiles;
  for (const FileExample &F : WB.DS.Train)
    MapFiles.push_back(&F);
  for (const FileExample &F : WB.DS.Valid)
    MapFiles.push_back(&F);
  return Predictor::knn(Model, MapFiles, KO);
}

std::string tempArtifactPath(const std::string &Name) {
  return testing::TempDir() + "typilus_" + Name + ".typilus";
}

/// Bit-identity across processes means: same result identities, same
/// candidate lists, probabilities equal to the last bit. Types live in
/// different universes on the two sides, so they compare by spelling.
void expectBitIdentical(const std::vector<PredictionResult> &InProc,
                        const std::vector<PredictionResult> &Loaded) {
  ASSERT_EQ(InProc.size(), Loaded.size());
  for (size_t I = 0; I != InProc.size(); ++I) {
    const PredictionResult &A = InProc[I];
    const PredictionResult &B = Loaded[I];
    EXPECT_EQ(A.FilePath, B.FilePath);
    EXPECT_EQ(A.TargetIdx, B.TargetIdx);
    EXPECT_EQ(A.NodeIdx, B.NodeIdx);
    EXPECT_EQ(A.SymbolName, B.SymbolName);
    EXPECT_EQ(A.Kind, B.Kind);
    ASSERT_EQ(A.Candidates.size(), B.Candidates.size()) << "row " << I;
    for (size_t C = 0; C != A.Candidates.size(); ++C) {
      EXPECT_EQ(A.Candidates[C].Type->str(), B.Candidates[C].Type->str())
          << "row " << I << " candidate " << C;
      EXPECT_EQ(A.Candidates[C].Prob, B.Candidates[C].Prob)
          << "row " << I << " candidate " << C;
    }
  }
}

std::string readFileBytes(const std::string &Path) {
  std::ifstream In(Path, std::ios::binary);
  std::ostringstream SS;
  SS << In.rdbuf();
  return SS.str();
}

} // namespace

//===----------------------------------------------------------------------===//
// Save -> load -> predict round-trips, all nine Table 2 variants
//===----------------------------------------------------------------------===//

class NineVariantsTest
    : public ::testing::TestWithParam<std::pair<EncoderKind, LossKind>> {};

TEST_P(NineVariantsTest, LoadedPredictorIsBitIdentical) {
  auto [Encoder, Loss] = GetParam();
  Workbench WB = makeTinyWorkbench();
  ModelConfig MC = tinyConfig(Encoder, Loss);
  std::unique_ptr<TypeModel> M = trainTiny(WB, MC);
  Predictor P = makePredictor(WB, *M);

  // Predict both before and after the save: prediction leaves no state
  // behind, so neither the save point nor earlier predictions may change
  // what the loaded model answers.
  auto BeforeSave = P.predictAll(WB.DS.Test);
  ASSERT_FALSE(BeforeSave.empty());
  std::string Path = tempArtifactPath(std::string(encoderKindName(Encoder)) +
                                      lossKindName(Loss));
  std::string Err;
  ASSERT_TRUE(P.save(Path, *WB.U, &Err)) << Err;

  auto InProc = P.predictAll(WB.DS.Test);
  ASSERT_FALSE(InProc.empty());

  std::unique_ptr<Predictor> L = Predictor::load(Path, &Err);
  ASSERT_NE(L, nullptr) << Err;
  EXPECT_EQ(L->isKnn(), Loss != LossKind::Class);
  auto Served = L->predictAll(WB.DS.Test);
  expectBitIdentical(InProc, Served);
  expectBitIdentical(BeforeSave, Served);
  std::remove(Path.c_str());
}

INSTANTIATE_TEST_SUITE_P(
    AllNine, NineVariantsTest,
    ::testing::Values(
        std::make_pair(EncoderKind::Graph, LossKind::Class),
        std::make_pair(EncoderKind::Graph, LossKind::Space),
        std::make_pair(EncoderKind::Graph, LossKind::Typilus),
        std::make_pair(EncoderKind::Seq, LossKind::Class),
        std::make_pair(EncoderKind::Seq, LossKind::Space),
        std::make_pair(EncoderKind::Seq, LossKind::Typilus),
        std::make_pair(EncoderKind::Path, LossKind::Class),
        std::make_pair(EncoderKind::Path, LossKind::Space),
        std::make_pair(EncoderKind::Path, LossKind::Typilus)),
    [](const auto &Info) {
      return std::string(encoderKindName(Info.param.first)) +
             lossKindName(Info.param.second);
    });

//===----------------------------------------------------------------------===//
// The acceptance matrix: {exact, HNSW} x {1 thread, 4 threads}
//===----------------------------------------------------------------------===//

TEST(ArtifactTest, ServedPredictionsMatchForAllIndexesAndThreadCounts) {
  Workbench WB = makeTinyWorkbench();
  ModelConfig MC = tinyConfig(EncoderKind::Graph, LossKind::Typilus);
  std::unique_ptr<TypeModel> M = trainTiny(WB, MC, /*Epochs=*/2);

  for (KnnIndexKind Kind : {KnnIndexKind::Exact, KnnIndexKind::Hnsw}) {
    KnnOptions KO;
    KO.Index = Kind;
    Predictor P = makePredictor(WB, *M, KO);
    std::string Path = tempArtifactPath(knnIndexName(Kind));
    std::string Err;
    ASSERT_TRUE(P.save(Path, *WB.U, &Err)) << Err;
    auto InProc = P.predictAll(WB.DS.Test);

    for (int Threads : {1, 4}) {
      setGlobalNumThreads(Threads);
      std::unique_ptr<Predictor> L = Predictor::load(Path, &Err);
      ASSERT_NE(L, nullptr) << Err;
      KnnOptions LKO = L->knnOptions();
      EXPECT_EQ(LKO.Index, Kind);
      LKO.NumThreads = Threads;
      L->setKnnOptions(LKO);
      auto Served = L->predictAll(WB.DS.Test);
      expectBitIdentical(InProc, Served);
    }
    setGlobalNumThreads(0);
    std::remove(Path.c_str());
  }
}

//===----------------------------------------------------------------------===//
// Results must outlive the dataset (no dangling Target/FileExample)
//===----------------------------------------------------------------------===//

TEST(ArtifactTest, PredictionResultsOutliveTheDataset) {
  std::vector<PredictionResult> Preds;
  auto WB = std::make_unique<Workbench>(makeTinyWorkbench());
  ModelConfig MC = tinyConfig(EncoderKind::Graph, LossKind::Typilus);
  std::unique_ptr<TypeModel> M = trainTiny(*WB, MC);
  std::string Path = tempArtifactPath("outlive");
  std::string Err;
  {
    Predictor P = makePredictor(*WB, *M);
    ASSERT_TRUE(P.save(Path, *WB->U, &Err)) << Err;
  }
  std::unique_ptr<Predictor> L = Predictor::load(Path, &Err);
  ASSERT_NE(L, nullptr) << Err;
  // Build the test files into the loaded predictor's universe, as the
  // serving path does: a result's Truth lives in the universe its example
  // was built in, and that one must outlive the training world.
  std::vector<FileExample> Test;
  for (const FileExample &F : WB->DS.Test)
    for (const CorpusFile &CF : WB->Files)
      if (CF.Path == F.Path)
        Test.push_back(buildExample(CF, *L->universe(), GraphBuildOptions()));
  ASSERT_EQ(Test.size(), WB->DS.Test.size());
  Preds = L->predictAll(Test);
  ASSERT_FALSE(Preds.empty());

  // Tear down the whole training world: corpus, dataset, model, universe,
  // and the test examples themselves.
  Test.clear();
  M.reset();
  WB.reset();

  // Every field of every result must still be fully usable — the loaded
  // predictor owns the universe its TypeRefs live in.
  for (const PredictionResult &P : Preds) {
    EXPECT_FALSE(P.FilePath.empty());
    EXPECT_FALSE(P.SymbolName.empty());
    ASSERT_NE(P.Truth, nullptr);
    EXPECT_FALSE(P.Truth->str().empty());
    for (const ScoredType &S : P.Candidates)
      EXPECT_FALSE(S.Type->str().empty());
  }
  std::remove(Path.c_str());
}

//===----------------------------------------------------------------------===//
// Damaged artifacts are rejected with clear errors
//===----------------------------------------------------------------------===//

class DamagedArtifactTest : public ::testing::Test {
protected:
  void SetUp() override {
    WB = std::make_unique<Workbench>(makeTinyWorkbench());
    ModelConfig MC = tinyConfig(EncoderKind::Graph, LossKind::Typilus);
    Model = trainTiny(*WB, MC);
    Predictor P = makePredictor(*WB, *Model);
    ArchiveWriter W(kModelArtifactVersion);
    P.writeArtifact(W, *WB->U);
    Clean = W.bytes();
  }

  std::unique_ptr<Workbench> WB;
  std::unique_ptr<TypeModel> Model;
  std::string Clean;
};

TEST_F(DamagedArtifactTest, CleanBytesLoad) {
  ArchiveReader R;
  std::string Err;
  ASSERT_TRUE(R.openBytes(Clean, &Err)) << Err;
  EXPECT_NE(Predictor::load(R, &Err), nullptr) << Err;
}

TEST_F(DamagedArtifactTest, TruncationsNeverLoad) {
  // Cut at several depths: inside the header, inside early chunks, just
  // short of the end. Every cut must fail cleanly.
  for (size_t Keep : {size_t(5), Clean.size() / 4, Clean.size() / 2,
                      Clean.size() - 1}) {
    ArchiveReader R;
    std::string Err;
    EXPECT_FALSE(R.openBytes(Clean.substr(0, Keep), &Err))
        << "survived truncation to " << Keep << " bytes";
    EXPECT_FALSE(Err.empty());
  }
}

TEST_F(DamagedArtifactTest, CorruptChunkPayloadNeverLoads) {
  for (size_t Pos : {Clean.size() / 3, Clean.size() / 2, Clean.size() - 8}) {
    std::string Bad = Clean;
    Bad[Pos] = static_cast<char>(Bad[Pos] ^ 0x11);
    ArchiveReader R;
    std::string Err;
    // Either the framing itself breaks or a checksum catches it; a
    // corrupt artifact must never load as a predictor.
    if (R.openBytes(Bad, &Err)) {
      EXPECT_EQ(Predictor::load(R, &Err), nullptr)
          << "survived corruption at byte " << Pos;
    }
    EXPECT_FALSE(Err.empty());
  }
}

TEST_F(DamagedArtifactTest, FutureFormatVersionIsRejected) {
  ArchiveWriter W(kModelArtifactVersion + 7);
  Predictor P = makePredictor(*WB, *Model);
  P.writeArtifact(W, *WB->U);
  ArchiveReader R;
  std::string Err;
  ASSERT_TRUE(R.openBytes(W.bytes(), &Err)) << Err;
  EXPECT_EQ(Predictor::load(R, &Err), nullptr);
  EXPECT_NE(Err.find("version"), std::string::npos) << Err;
}

TEST_F(DamagedArtifactTest, MissingChunkIsRejected) {
  // An archive with only the type table is not a model.
  ArchiveWriter W(kModelArtifactVersion);
  W.beginChunk("tuni");
  WB->U->save(W);
  W.endChunk();
  ArchiveReader R;
  std::string Err;
  ASSERT_TRUE(R.openBytes(W.bytes(), &Err)) << Err;
  EXPECT_EQ(Predictor::load(R, &Err), nullptr);
  EXPECT_NE(Err.find("missing chunk"), std::string::npos) << Err;
}

//===----------------------------------------------------------------------===//
// Checkpoint / resume
//===----------------------------------------------------------------------===//

TEST(CheckpointTest, ResumeMatchesUninterruptedTraining) {
  Workbench WB = makeTinyWorkbench();
  ModelConfig MC = tinyConfig(EncoderKind::Graph, LossKind::Typilus);
  TrainOptions TO;
  TO.Epochs = 4;
  TO.BatchFiles = 4;

  // Reference: 4 epochs straight through.
  std::unique_ptr<TypeModel> Ref = makeModel(MC, WB.DS, *WB.U);
  double RefLoss = trainModel(*Ref, WB.DS.Train, TO);

  // Interrupted: 2 epochs, checkpoint, then a brand-new trainer + model
  // resumes the remaining 2.
  std::string Path = tempArtifactPath("ckpt");
  std::unique_ptr<TypeModel> Half = makeModel(MC, WB.DS, *WB.U);
  TrainOptions HalfTO = TO;
  HalfTO.Epochs = 2;
  Trainer HalfT(*Half, HalfTO);
  HalfT.run(WB.DS.Train);
  std::string Err;
  ASSERT_TRUE(HalfT.saveCheckpoint(Path, &Err)) << Err;
  EXPECT_EQ(HalfT.epochsDone(), 2);

  std::unique_ptr<TypeModel> Resumed = makeModel(MC, WB.DS, *WB.U);
  Trainer ResumedT(*Resumed, TO);
  ASSERT_TRUE(ResumedT.resumeFrom(Path, &Err)) << Err;
  EXPECT_EQ(ResumedT.epochsDone(), 2);
  double ResLoss = ResumedT.run(WB.DS.Train);

  EXPECT_EQ(RefLoss, ResLoss) << "resumed loss diverged";
  const auto &RP = Ref->params().params();
  const auto &SP = Resumed->params().params();
  ASSERT_EQ(RP.size(), SP.size());
  for (size_t I = 0; I != RP.size(); ++I) {
    ASSERT_EQ(RP[I].val().numel(), SP[I].val().numel());
    for (int64_t J = 0; J != RP[I].val().numel(); ++J)
      ASSERT_EQ(RP[I].val()[J], SP[I].val()[J])
          << "param " << I << " element " << J;
  }
  std::remove(Path.c_str());
}

TEST(CheckpointTest, MidEpochResumeMatchesUninterruptedTraining) {
  // Checkpoint-every-N-steps: interrupt INSIDE an epoch (StopAfterSteps
  // is the deterministic interrupt), resume from the mid-epoch cursor,
  // and require the finished run to be bit-identical to one that never
  // stopped — weights, Adam state, shuffle order and epoch loss.
  Workbench WB = makeTinyWorkbench();
  ModelConfig MC = tinyConfig(EncoderKind::Graph, LossKind::Typilus);
  TrainOptions TO;
  TO.Epochs = 2;
  TO.BatchFiles = 2; // several steps per epoch, so step 3 is mid-epoch
  ASSERT_GT(WB.DS.Train.size(), 6u);

  std::unique_ptr<TypeModel> Ref = makeModel(MC, WB.DS, *WB.U);
  double RefLoss = trainModel(*Ref, WB.DS.Train, TO);

  std::string Path = tempArtifactPath("midckpt");
  std::unique_ptr<TypeModel> Cut = makeModel(MC, WB.DS, *WB.U);
  TrainOptions CutTO = TO;
  CutTO.CheckpointPath = Path;
  CutTO.CheckpointEverySteps = 2;
  CutTO.StopAfterSteps = 3; // stops (and checkpoints) inside epoch 1
  Trainer CutT(*Cut, CutTO);
  CutT.run(WB.DS.Train);
  EXPECT_EQ(CutT.epochsDone(), 0) << "the stop must land mid-epoch";

  std::unique_ptr<TypeModel> Resumed = makeModel(MC, WB.DS, *WB.U);
  Trainer ResumedT(*Resumed, TO);
  std::string Err;
  ASSERT_TRUE(ResumedT.resumeFrom(Path, &Err)) << Err;
  double ResLoss = ResumedT.run(WB.DS.Train);
  EXPECT_EQ(ResumedT.epochsDone(), 2);

  EXPECT_EQ(RefLoss, ResLoss) << "mid-epoch resumed loss diverged";
  const auto &RP = Ref->params().params();
  const auto &SP = Resumed->params().params();
  ASSERT_EQ(RP.size(), SP.size());
  for (size_t I = 0; I != RP.size(); ++I)
    for (int64_t J = 0; J != RP[I].val().numel(); ++J)
      ASSERT_EQ(RP[I].val()[J], SP[I].val()[J])
          << "param " << I << " element " << J;
  std::remove(Path.c_str());
}

TEST(CheckpointTest, TrainLoopWritesCheckpointWhenAsked) {
  Workbench WB = makeTinyWorkbench();
  ModelConfig MC = tinyConfig(EncoderKind::Graph, LossKind::Space);
  std::string Path = tempArtifactPath("autockpt");
  TrainOptions TO;
  TO.Epochs = 1;
  TO.CheckpointPath = Path;
  std::unique_ptr<TypeModel> M = makeModel(MC, WB.DS, *WB.U);
  trainModel(*M, WB.DS.Train, TO);
  EXPECT_FALSE(readFileBytes(Path).empty()) << "no checkpoint written";

  // And the written checkpoint is resumable.
  std::unique_ptr<TypeModel> M2 = makeModel(MC, WB.DS, *WB.U);
  Trainer T2(*M2, TO);
  std::string Err;
  ASSERT_TRUE(T2.resumeFrom(Path, &Err)) << Err;
  EXPECT_EQ(T2.epochsDone(), 1);
  std::remove(Path.c_str());
}

TEST(CheckpointTest, MismatchedModelIsRejected) {
  Workbench WB = makeTinyWorkbench();
  ModelConfig MC = tinyConfig(EncoderKind::Graph, LossKind::Typilus);
  TrainOptions TO;
  TO.Epochs = 1;
  std::unique_ptr<TypeModel> M = makeModel(MC, WB.DS, *WB.U);
  Trainer T(*M, TO);
  T.run(WB.DS.Train);
  std::string Path = tempArtifactPath("mismatch");
  std::string Err;
  ASSERT_TRUE(T.saveCheckpoint(Path, &Err)) << Err;

  // A model with a different hidden size cannot absorb the checkpoint.
  ModelConfig Wider = MC;
  Wider.HiddenDim = 16;
  std::unique_ptr<TypeModel> Other = makeModel(Wider, WB.DS, *WB.U);
  Trainer OtherT(*Other, TO);
  EXPECT_FALSE(OtherT.resumeFrom(Path, &Err));
  EXPECT_FALSE(Err.empty());
  std::remove(Path.c_str());
}

//===----------------------------------------------------------------------===//
// Layer-level round-trips
//===----------------------------------------------------------------------===//

TEST(ArtifactTest, TensorRoundTripIsExact) {
  Rng R(99);
  Tensor T = Tensor::randn(7, 5, R, 1.f);
  ArchiveWriter W(1);
  W.beginChunk("tens");
  nn::writeTensor(W, T);
  W.endChunk();
  ArchiveReader Rd;
  std::string Err;
  ASSERT_TRUE(Rd.openBytes(W.bytes(), &Err)) << Err;
  ArchiveCursor C = Rd.chunk("tens", &Err);
  Tensor Out;
  ASSERT_TRUE(nn::readTensor(C, Out));
  ASSERT_TRUE(Out.sameShape(T));
  for (int64_t I = 0; I != T.numel(); ++I)
    ASSERT_EQ(T[I], Out[I]);
  EXPECT_TRUE(C.atEnd());
}

// An artifact from before the Annoy forest was deleted: the current
// artifact's chunks copied, the kind byte (the last byte of pred) set to
// 1, and an anny chunk, written by \p WriteForest the way
// AnnoyIndex::save laid one out, after the τmap.
namespace {

std::string
legacyAnnoyArtifact(const std::string &Current,
                    const std::function<void(ArchiveWriter &)> &WriteForest) {
  ArchiveReader Cur;
  std::string Err;
  EXPECT_TRUE(Cur.openBytes(Current, &Err)) << Err;
  ArchiveWriter Legacy(1);
  for (const ArchiveReader::ChunkInfo &Info : Cur.chunks()) {
    std::string Payload(Info.Size, '\0');
    Cur.chunk(Info.Tag, &Err).readBytes(Payload.data(), Payload.size());
    if (Info.Tag == "pred")
      Payload.back() = 1;
    Legacy.beginChunk(Info.Tag.c_str());
    Legacy.writeBytes(Payload.data(), Payload.size());
    Legacy.endChunk();
    if (Info.Tag != "tmap")
      continue;
    Legacy.beginChunk("anny");
    WriteForest(Legacy);
    Legacy.endChunk();
  }
  return Legacy.bytes();
}

// A legacy artifact loads by skipping the forest unparsed and building
// the index the size rule picks. It must answer like the same τmap
// under that index, and re-saving it writes that index's artifact.
void expectLegacyArtifactAnswersWithThePolicyIndex(
    const std::function<void(ArchiveWriter &)> &WriteForest) {
  Workbench WB = makeTinyWorkbench();
  ModelConfig MC = tinyConfig(EncoderKind::Graph, LossKind::Typilus);
  std::unique_ptr<TypeModel> M = trainTiny(WB, MC);
  Predictor P = makePredictor(WB, *M);
  const KnnIndexKind Policy = defaultKnnIndexKind(P.typeMap().size());
  ASSERT_EQ(P.knnOptions().Index, Policy);
  ArchiveWriter Current(P.artifactVersion());
  std::string Err;
  ASSERT_TRUE(P.writeArtifact(Current, *WB.U, &Err)) << Err;

  ArchiveReader R;
  ASSERT_TRUE(
      R.openBytes(legacyAnnoyArtifact(Current.bytes(), WriteForest), &Err))
      << Err;
  ASSERT_TRUE(R.hasChunk("anny"));
  std::unique_ptr<Predictor> L = Predictor::load(R, &Err);
  ASSERT_NE(L, nullptr) << Err;
  EXPECT_EQ(L->knnOptions().Index, Policy);
  ASSERT_NE(L->knnIndex(), nullptr);
  EXPECT_EQ(L->knnIndex()->indexedMarkers(), P.typeMap().size());
  expectBitIdentical(P.predictAll(WB.DS.Test), L->predictAll(WB.DS.Test));

  ArchiveWriter Resaved(L->artifactVersion());
  ASSERT_TRUE(L->writeArtifact(Resaved, *L->universe(), &Err)) << Err;
  EXPECT_EQ(Resaved.bytes(), Current.bytes());
}

} // namespace

TEST(ArtifactTest, AnnoyForestSnapshotAnswersIdentically) {
  // A well-formed forest: one root, a leaf holding every marker.
  expectLegacyArtifactAnswersWithThePolicyIndex([](ArchiveWriter &W) {
    W.writeI32(16);   // leaf size
    W.writeU64(1);    // one node...
    W.writeI32(-1);   // ...that is a leaf
    W.writeF32(0.f);
    W.writeI32(-1);
    W.writeI32(-1);
    W.writeU64(3);    // three items
    for (int32_t Item : {0, 1, 2})
      W.writeI32(Item);
    W.writeU64(1);    // one root: node 0
    W.writeI32(0);
  });
}

TEST(ArtifactTest, CyclicForestSnapshotIsRejected) {
  // A CRC-valid snapshot whose split node links to itself: a walk of it
  // would never end. The loader rejects the snapshot without reading it
  // and answers from the index the size rule builds.
  expectLegacyArtifactAnswersWithThePolicyIndex([](ArchiveWriter &W) {
    W.writeI32(16);   // leaf size
    W.writeU64(1);    // one node...
    W.writeI32(0);    // ...that splits on dim 0
    W.writeF32(0.5f);
    W.writeI32(0);    // Left = itself
    W.writeI32(0);    // Right = itself
    W.writeU64(0);    // no items
    W.writeU64(1);    // one root: node 0
    W.writeI32(0);
  });
}

TEST(CheckpointTest, ResumeOntoDifferentSplitRefusesToTrain) {
  Workbench WB = makeTinyWorkbench();
  ModelConfig MC = tinyConfig(EncoderKind::Graph, LossKind::Typilus);
  TrainOptions TO;
  TO.Epochs = 2;
  std::unique_ptr<TypeModel> M = makeModel(MC, WB.DS, *WB.U);
  Trainer T(*M, TO);
  T.run(WB.DS.Train);
  std::string Path = tempArtifactPath("wrongsplit");
  std::string Err;
  ASSERT_TRUE(T.saveCheckpoint(Path, &Err)) << Err;

  // Resume, then run against a split of a different size: the trainer
  // must refuse (NaN) instead of silently re-shuffling the wrong order.
  std::vector<FileExample> Smaller(WB.DS.Train.begin(),
                                   WB.DS.Train.end() - 1);
  ASSERT_NE(Smaller.size(), WB.DS.Train.size());
  std::unique_ptr<TypeModel> M2 = makeModel(MC, WB.DS, *WB.U);
  TrainOptions More = TO;
  More.Epochs = 3;
  Trainer T2(*M2, More);
  ASSERT_TRUE(T2.resumeFrom(Path, &Err)) << Err;
  EXPECT_TRUE(std::isnan(T2.run(Smaller)));
  std::remove(Path.c_str());
}

//===----------------------------------------------------------------------===//
// Quantized τmap stores (format version 2)
//===----------------------------------------------------------------------===//

class QuantizedArtifactTest : public ::testing::TestWithParam<MarkerStore> {};

// The quantized-store contract mirrors the f32 one: save -> load across
// process boundaries must predict bit-identically, because both sides
// run the SAME decoded coordinates through the SAME distance kernel.
TEST_P(QuantizedArtifactTest, LoadedQuantizedPredictorIsBitIdentical) {
  MarkerStore S = GetParam();
  Workbench WB = makeTinyWorkbench();
  ModelConfig MC = tinyConfig(EncoderKind::Graph, LossKind::Typilus);
  std::unique_ptr<TypeModel> M = trainTiny(WB, MC);
  KnnOptions KO;
  KO.Store = S;
  Predictor P = makePredictor(WB, *M, KO);
  ASSERT_EQ(P.typeMap().store(), S);
  EXPECT_EQ(P.artifactVersion(), 2u);

  std::string Path =
      tempArtifactPath(std::string("quant_") + markerStoreName(S));
  std::string Err;
  ASSERT_TRUE(P.save(Path, *WB.U, &Err)) << Err;

  auto InProc = P.predictAll(WB.DS.Test);
  ASSERT_FALSE(InProc.empty());

  std::unique_ptr<Predictor> L = Predictor::load(Path, &Err);
  ASSERT_NE(L, nullptr) << Err;
  ASSERT_TRUE(L->isKnn());
  EXPECT_EQ(L->typeMap().store(), S);
  EXPECT_EQ(L->knnOptions().Store, S);
  expectBitIdentical(InProc, L->predictAll(WB.DS.Test));
  std::remove(Path.c_str());
}

INSTANTIATE_TEST_SUITE_P(Stores, QuantizedArtifactTest,
                         ::testing::Values(MarkerStore::F16, MarkerStore::Int8),
                         [](const auto &Info) {
                           return std::string(markerStoreName(Info.param));
                         });

// Forward compatibility: a predictor that never quantized writes the
// version-1 byte stream — old readers keep working, and the artifact is
// byte-identical to what a pre-quantization writer produced.
TEST(ArtifactTest, F32ArtifactStaysVersionOne) {
  Workbench WB = makeTinyWorkbench();
  ModelConfig MC = tinyConfig(EncoderKind::Graph, LossKind::Typilus);
  std::unique_ptr<TypeModel> M = trainTiny(WB, MC);
  Predictor P = makePredictor(WB, *M);
  EXPECT_EQ(P.artifactVersion(), 1u);

  std::string Path = tempArtifactPath("f32v1");
  std::string Err;
  ASSERT_TRUE(P.save(Path, *WB.U, &Err)) << Err;
  ArchiveReader R;
  ASSERT_TRUE(R.openBytes(readFileBytes(Path), &Err)) << Err;
  EXPECT_EQ(R.formatVersion(), 1u);
  EXPECT_TRUE(R.hasChunk("tmap"));
  EXPECT_FALSE(R.hasChunk("tm16"));
  EXPECT_FALSE(R.hasChunk("tmq8"));
  std::remove(Path.c_str());
}

// The version stamp follows the store: quantized artifacts carry version
// 2 and the store-specific chunk tag instead of "tmap".
TEST(ArtifactTest, QuantizedArtifactStampsVersionTwoAndStoreChunk) {
  Workbench WB = makeTinyWorkbench();
  ModelConfig MC = tinyConfig(EncoderKind::Graph, LossKind::Typilus);
  std::unique_ptr<TypeModel> M = trainTiny(WB, MC);
  KnnOptions KO;
  KO.Store = MarkerStore::Int8;
  Predictor P = makePredictor(WB, *M, KO);

  std::string Path = tempArtifactPath("int8v2");
  std::string Err;
  ASSERT_TRUE(P.save(Path, *WB.U, &Err)) << Err;
  ArchiveReader R;
  ASSERT_TRUE(R.openBytes(readFileBytes(Path), &Err)) << Err;
  EXPECT_EQ(R.formatVersion(), 2u);
  EXPECT_TRUE(R.hasChunk("tmq8"));
  EXPECT_FALSE(R.hasChunk("tmap"));
  std::remove(Path.c_str());
}

// The HNSW graph snapshot: version 3, the "hnsw" chunk, and a loaded
// predictor that answers from the snapshotted graph bit-identically to
// the in-process builder (the graph is deterministic in (Map, Seed), so
// snapshot-vs-rebuild is also identity — but load must not rebuild).
TEST(ArtifactTest, HnswArtifactStampsVersionThreeAndRoundTrips) {
  Workbench WB = makeTinyWorkbench();
  ModelConfig MC = tinyConfig(EncoderKind::Graph, LossKind::Typilus);
  std::unique_ptr<TypeModel> M = trainTiny(WB, MC);
  KnnOptions KO;
  KO.Index = KnnIndexKind::Hnsw;
  Predictor P = makePredictor(WB, *M, KO);
  EXPECT_EQ(P.artifactVersion(), 3u);

  std::string Path = tempArtifactPath("hnswv3");
  std::string Err;
  ASSERT_TRUE(P.save(Path, *WB.U, &Err)) << Err;
  ArchiveReader R;
  ASSERT_TRUE(R.openBytes(readFileBytes(Path), &Err)) << Err;
  EXPECT_EQ(R.formatVersion(), 3u);
  EXPECT_TRUE(R.hasChunk("hnsw"));
  EXPECT_TRUE(R.hasChunk("tmap")); // the store tag is orthogonal

  auto InProc = P.predictAll(WB.DS.Test);
  std::unique_ptr<Predictor> L = Predictor::load(Path, &Err);
  ASSERT_NE(L, nullptr) << Err;
  EXPECT_EQ(L->knnOptions().Index, KnnIndexKind::Hnsw);
  ASSERT_NE(L->knnIndex(), nullptr);
  EXPECT_STREQ(L->knnIndex()->snapshotTag(), "hnsw");
  expectBitIdentical(InProc, L->predictAll(WB.DS.Test));
  std::remove(Path.c_str());
}

// HNSW is the ONLY way to version 3: exact artifacts — forced, or the
// default below kHnswMinMarkers — keep their historical stamp and carry
// no graph chunk, so older readers and byte-level artifact diffs are
// unaffected.
TEST(ArtifactTest, NonHnswArtifactsCarryNoGraphChunk) {
  Workbench WB = makeTinyWorkbench();
  ModelConfig MC = tinyConfig(EncoderKind::Graph, LossKind::Typilus);
  std::unique_ptr<TypeModel> M = trainTiny(WB, MC);
  for (bool Forced : {true, false}) {
    KnnOptions KO;
    if (Forced)
      KO.Index = KnnIndexKind::Exact;
    Predictor P = makePredictor(WB, *M, KO);
    ASSERT_EQ(P.knnOptions().Index, KnnIndexKind::Exact);
    const char *Kind = Forced ? "forced" : "default";
    EXPECT_EQ(P.artifactVersion(), 1u) << Kind;
    std::string Path = tempArtifactPath(std::string("nograph_") + Kind);
    std::string Err;
    ASSERT_TRUE(P.save(Path, *WB.U, &Err)) << Err;
    ArchiveReader R;
    ASSERT_TRUE(R.openBytes(readFileBytes(Path), &Err)) << Err;
    EXPECT_EQ(R.formatVersion(), 1u) << Kind;
    EXPECT_FALSE(R.hasChunk("hnsw")) << Kind;
    std::remove(Path.c_str());
  }
}

// The save contract: an artifact snapshots exactly the rows its index
// covers. Rows appended since the build and tombstones are editor-session
// state, so save refuses them until compactMarkers() folds them in; the
// loaded predictor then answers exactly like the in-memory one.
TEST(ArtifactTest, SaveRequiresCompactMarkersAfterEdits) {
  Workbench WB = makeTinyWorkbench();
  ModelConfig MC = tinyConfig(EncoderKind::Graph, LossKind::Typilus);
  std::unique_ptr<TypeModel> M = trainTiny(WB, MC);
  const CorpusFile *Unseen = nullptr;
  for (const CorpusFile &F : WB.Files)
    if (F.Path == WB.DS.Test.front().Path)
      Unseen = &F;
  ASSERT_NE(Unseen, nullptr);

  for (KnnIndexKind Kind : {KnnIndexKind::Exact, KnnIndexKind::Hnsw}) {
    SCOPED_TRACE(knnIndexName(Kind));
    KnnOptions KO;
    KO.Index = Kind;
    KO.CompactRatio = 0; // compact by hand, not by policy
    Predictor P = makePredictor(WB, *M, KO);
    P.setUniverse(*WB.U);
    std::string Path =
        tempArtifactPath(std::string("edited_") + knnIndexName(Kind));
    auto ExpectRejectThenRoundTrip = [&] {
      std::string Err;
      EXPECT_FALSE(P.save(Path, *WB.U, &Err));
      EXPECT_NE(Err.find("compactMarkers()"), std::string::npos) << Err;
      ASSERT_TRUE(P.compactMarkers());
      ASSERT_TRUE(P.save(Path, *WB.U, &Err)) << Err;
      std::unique_ptr<Predictor> L = Predictor::load(Path, &Err);
      ASSERT_NE(L, nullptr) << Err;
      EXPECT_EQ(L->typeMap().size(), P.typeMap().size());
      EXPECT_EQ(predictionDigest(L->predictAll(WB.DS.Test)),
                predictionDigest(P.predictAll(WB.DS.Test)));
    };

    size_t Before = P.typeMap().size();
    P.annotateIncremental(Unseen->Path, Unseen->Source); // appends rows
    ASSERT_GT(P.typeMap().size(), Before);
    ExpectRejectThenRoundTrip();

    ASSERT_GT(P.removeMarkersForFile(WB.DS.Train.front().Path), 0u);
    ExpectRejectThenRoundTrip();
    std::remove(Path.c_str());
  }
}

// Saving and loading accept the same kNN settings: a predictor whose k or
// p the loader would reject refuses to save, instead of writing an
// artifact that cannot load. Valid settings write the same bytes as ever.
TEST(ArtifactTest, UnloadableKnnSettingsDoNotSave) {
  Workbench WB = makeTinyWorkbench();
  ModelConfig MC = tinyConfig(EncoderKind::Graph, LossKind::Typilus);
  std::unique_ptr<TypeModel> M = trainTiny(WB, MC);
  Predictor P = makePredictor(WB, *M);
  std::string Err;
  ArchiveWriter Clean(P.artifactVersion());
  ASSERT_TRUE(P.writeArtifact(Clean, *WB.U, &Err)) << Err;

  const KnnOptions Good = P.knnOptions();
  const std::pair<int, double> Bad[] = {
      {0, 1.0}, {-5, 1.0}, {10, std::nan("")}, {10, HUGE_VAL}};
  for (auto [K, Temp] : Bad) {
    SCOPED_TRACE(std::to_string(K) + " " + std::to_string(Temp));
    KnnOptions KO = Good;
    KO.K = K;
    KO.P = Temp;
    EXPECT_FALSE(validKnnSettings(KO));
    P.setKnnOptions(KO);
    ArchiveWriter W(P.artifactVersion());
    Err.clear();
    EXPECT_FALSE(P.writeArtifact(W, *WB.U, &Err));
    EXPECT_NE(Err.find("k >= 1 and a finite p"), std::string::npos) << Err;
  }

  P.setKnnOptions(Good);
  ArchiveWriter Again(P.artifactVersion());
  ASSERT_TRUE(P.writeArtifact(Again, *WB.U, &Err)) << Err;
  EXPECT_EQ(Again.bytes(), Clean.bytes());
  ArchiveReader R;
  ASSERT_TRUE(R.openBytes(Again.bytes(), &Err)) << Err;
  EXPECT_NE(Predictor::load(R, &Err), nullptr) << Err;
}

// Quantization is one-way: re-encoding an already-lossy store compounds
// the error, so setMarkerStore refuses anything but f32 -> X.
TEST(ArtifactTest, RequantizationIsRejected) {
  Workbench WB = makeTinyWorkbench();
  ModelConfig MC = tinyConfig(EncoderKind::Graph, LossKind::Typilus);
  std::unique_ptr<TypeModel> M = trainTiny(WB, MC);
  Predictor P = makePredictor(WB, *M);

  std::string Err;
  ASSERT_TRUE(P.setMarkerStore(MarkerStore::F16, &Err)) << Err;
  EXPECT_TRUE(P.setMarkerStore(MarkerStore::F16, &Err)); // same store: no-op
  EXPECT_FALSE(P.setMarkerStore(MarkerStore::Int8, &Err));
  EXPECT_NE(Err.find("one-way"), std::string::npos) << Err;
}

// Coreset subsampling survives the round trip: the loaded map has the
// subsampled marker count and predicts identically to the in-process
// subsampled predictor.
TEST(ArtifactTest, SubsampledMapRoundTrips) {
  Workbench WB = makeTinyWorkbench();
  ModelConfig MC = tinyConfig(EncoderKind::Graph, LossKind::Typilus);
  std::unique_ptr<TypeModel> M = trainTiny(WB, MC);
  KnnOptions Unbounded;
  Predictor Full = makePredictor(WB, *M, Unbounded);
  size_t FullSize = Full.typeMap().size();
  ASSERT_GT(FullSize, 20u);

  KnnOptions KO;
  KO.MaxMarkers = FullSize / 2;
  Predictor P = makePredictor(WB, *M, KO);
  EXPECT_EQ(P.typeMap().size(), KO.MaxMarkers);

  std::string Path = tempArtifactPath("coreset");
  std::string Err;
  ASSERT_TRUE(P.save(Path, *WB.U, &Err)) << Err;
  auto InProc = P.predictAll(WB.DS.Test);
  std::unique_ptr<Predictor> L = Predictor::load(Path, &Err);
  ASSERT_NE(L, nullptr) << Err;
  EXPECT_EQ(L->typeMap().size(), KO.MaxMarkers);
  expectBitIdentical(InProc, L->predictAll(WB.DS.Test));
  std::remove(Path.c_str());
}
