//===- tests/ShardTest.cpp - Sharded corpus pipeline tests ---------------------===//
//
// The sharded-streaming contract: the same corpus pushed through the
// in-memory `Dataset` and through a `ShardedDataset` on disk must
// produce byte-equal examples, training digests, τmaps and predictions —
// for any shard size, LRU residency bound and thread count. Also covers
// rejection of damaged/mismatched/future-version shard sets, pin
// validity across eviction, the shard-aware shuffle's determinism, and
// mid-epoch checkpoint resume.
//
//===----------------------------------------------------------------------===//

#include "core/Experiments.h"
#include "corpus/Ingest.h"
#include "corpus/ShardedDataset.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <unistd.h>

using namespace typilus;

namespace {

CorpusConfig tinyCorpus() {
  CorpusConfig CC;
  CC.NumFiles = 18;
  CC.NumUdts = 8;
  return CC;
}

DatasetConfig tinyDataset() {
  DatasetConfig DC;
  DC.CommonThreshold = 2;
  return DC;
}

ModelConfig tinyConfig() {
  ModelConfig MC;
  MC.Encoder = EncoderKind::Graph;
  MC.Loss = LossKind::Typilus;
  MC.HiddenDim = 8;
  MC.TimeSteps = 2;
  return MC;
}

/// Writes the tiny corpus as a shard set under TempDir and returns the
/// directory. \p FilesPerShard makes multi-shard layouts cheap to vary;
/// \p NumThreads exercises the parallel chunk builder (0 = pool default).
std::string writeTinyShards(const std::string &Name, int FilesPerShard,
                            int NumThreads = 0,
                            ShardBuildStats *Stats = nullptr) {
  // Suffixed with the pid: ctest -j runs each test of this suite as its
  // own process sharing TempDir, and same-named fixture directories would
  // clobber each other mid-test (same fix as ServeFaultTest's artifacts).
  std::string Dir = testing::TempDir() + "typilus_shards_" + Name + "_" +
                    std::to_string(static_cast<long>(getpid()));
  CorpusConfig CC = tinyCorpus();
  CorpusGenerator Gen(CC);
  std::vector<CorpusFile> Files = Gen.generate();
  TypeUniverse U;
  ShardBuildOptions SO;
  SO.Dir = Dir;
  SO.FilesPerShard = FilesPerShard;
  SO.NumThreads = NumThreads;
  std::string Err;
  EXPECT_TRUE(buildShards(Files, Gen.udts(), U, nullptr, tinyDataset(), SO,
                          &Err, Stats))
      << Err;
  return Dir;
}

std::string readFileBytes(const std::string &Path) {
  std::ifstream In(Path, std::ios::binary);
  std::ostringstream SS;
  SS << In.rdbuf();
  return SS.str();
}

void writeFileBytes(const std::string &Path, const std::string &Bytes) {
  std::ofstream Out(Path, std::ios::binary | std::ios::trunc);
  Out.write(Bytes.data(), static_cast<std::streamsize>(Bytes.size()));
}

/// Streams every example of \p Src into owned copies (pins dropped).
std::vector<FileExample> drain(ExampleSource &Src) {
  std::vector<FileExample> Out;
  ExamplePin Pin;
  for (size_t I = 0; I != Src.size(); ++I)
    Out.push_back(Src.get(I, Pin));
  return Out;
}

void expectExamplesEqual(const std::vector<FileExample> &A,
                         const std::vector<FileExample> &B) {
  ASSERT_EQ(A.size(), B.size());
  for (size_t I = 0; I != A.size(); ++I) {
    const FileExample &X = A[I], &Y = B[I];
    EXPECT_EQ(X.Path, Y.Path);
    ASSERT_EQ(X.Graph.Nodes.size(), Y.Graph.Nodes.size()) << X.Path;
    for (size_t N = 0; N != X.Graph.Nodes.size(); ++N) {
      EXPECT_EQ(X.Graph.Nodes[N].Category, Y.Graph.Nodes[N].Category);
      EXPECT_EQ(X.Graph.Nodes[N].Label, Y.Graph.Nodes[N].Label);
      EXPECT_EQ(X.Graph.Nodes[N].SymbolId, Y.Graph.Nodes[N].SymbolId);
      EXPECT_EQ(X.Graph.Nodes[N].TokenIdx, Y.Graph.Nodes[N].TokenIdx);
    }
    ASSERT_EQ(X.Graph.Edges.size(), Y.Graph.Edges.size()) << X.Path;
    for (size_t E = 0; E != X.Graph.Edges.size(); ++E) {
      EXPECT_EQ(X.Graph.Edges[E].Src, Y.Graph.Edges[E].Src);
      EXPECT_EQ(X.Graph.Edges[E].Dst, Y.Graph.Edges[E].Dst);
      EXPECT_EQ(X.Graph.Edges[E].Label, Y.Graph.Edges[E].Label);
    }
    ASSERT_EQ(X.Graph.Supernodes.size(), Y.Graph.Supernodes.size()) << X.Path;
    for (size_t S = 0; S != X.Graph.Supernodes.size(); ++S) {
      EXPECT_EQ(X.Graph.Supernodes[S].NodeIdx, Y.Graph.Supernodes[S].NodeIdx);
      EXPECT_EQ(X.Graph.Supernodes[S].Name, Y.Graph.Supernodes[S].Name);
      EXPECT_EQ(X.Graph.Supernodes[S].AnnotationText,
                Y.Graph.Supernodes[S].AnnotationText);
    }
    ASSERT_EQ(X.Targets.size(), Y.Targets.size()) << X.Path;
    for (size_t T = 0; T != X.Targets.size(); ++T) {
      EXPECT_EQ(X.Targets[T].NodeIdx, Y.Targets[T].NodeIdx);
      // Different universes: types compare by canonical spelling.
      EXPECT_EQ(X.Targets[T].Type->str(), Y.Targets[T].Type->str());
      EXPECT_EQ(X.Targets[T].ErasedType->str(), Y.Targets[T].ErasedType->str());
      EXPECT_EQ(X.Targets[T].Kind, Y.Targets[T].Kind);
      EXPECT_EQ(X.Targets[T].Name, Y.Targets[T].Name);
    }
  }
}

void expectPredictionsBitIdentical(const std::vector<PredictionResult> &A,
                                   const std::vector<PredictionResult> &B) {
  ASSERT_EQ(A.size(), B.size());
  EXPECT_EQ(predictionDigest(A), predictionDigest(B));
  for (size_t I = 0; I != A.size(); ++I) {
    EXPECT_EQ(A[I].FilePath, B[I].FilePath);
    EXPECT_EQ(A[I].TargetIdx, B[I].TargetIdx);
    ASSERT_EQ(A[I].Candidates.size(), B[I].Candidates.size()) << "row " << I;
    for (size_t C = 0; C != A[I].Candidates.size(); ++C) {
      EXPECT_EQ(A[I].Candidates[C].Type->str(), B[I].Candidates[C].Type->str());
      EXPECT_EQ(A[I].Candidates[C].Prob, B[I].Candidates[C].Prob);
    }
  }
}

void removeShardDir(const std::string &Dir) {
  for (int I = 0; I != 64; ++I) {
    char Name[32];
    std::snprintf(Name, sizeof(Name), "shard-%05d.typs", I);
    std::remove((Dir + "/" + Name).c_str());
  }
  std::remove((Dir + "/" + kShardManifestName).c_str());
  std::remove(Dir.c_str());
}

} // namespace

//===----------------------------------------------------------------------===//
// Round trip: decoded shards equal freshly built examples
//===----------------------------------------------------------------------===//

TEST(ShardRoundTripTest, DecodedExamplesEqualBuiltOnes) {
  std::string Dir = writeTinyShards("roundtrip", 3);

  // The in-memory reference.
  Workbench WB = Workbench::make(tinyCorpus(), tinyDataset());

  // A fresh process would open with its own universe; so do we.
  TypeUniverse U2;
  std::string Err;
  ShardedDatasetOptions SO;
  SO.MaxResidentShards = 2; // force eviction mid-stream
  std::unique_ptr<ShardedDataset> SD = ShardedDataset::open(Dir, U2, SO, &Err);
  ASSERT_NE(SD, nullptr) << Err;

  EXPECT_EQ(SD->numFiles(SplitKind::Train), WB.DS.Train.size());
  EXPECT_EQ(SD->numFiles(SplitKind::Valid), WB.DS.Valid.size());
  EXPECT_EQ(SD->numFiles(SplitKind::Test), WB.DS.Test.size());

  expectExamplesEqual(drain(SD->split(SplitKind::Train)), WB.DS.Train);
  expectExamplesEqual(drain(SD->split(SplitKind::Valid)), WB.DS.Valid);
  expectExamplesEqual(drain(SD->split(SplitKind::Test)), WB.DS.Test);

  // The manifest's merged type-count sidecars equal the in-memory
  // histogram (keyed by spelling: separate universes).
  std::map<std::string, int> InMem, Sharded;
  for (const auto &[T, N] : WB.DS.TrainTypeCounts)
    InMem[T->str()] = N;
  for (const auto &[T, N] : SD->trainTypeCounts())
    Sharded[T->str()] = N;
  EXPECT_EQ(InMem, Sharded);
  EXPECT_EQ(SD->commonThreshold(), WB.DS.CommonThreshold);

  removeShardDir(Dir);
}

TEST(ShardRoundTripTest, PinsSurviveEviction) {
  std::string Dir = writeTinyShards("pins", 2);
  TypeUniverse U;
  std::string Err;
  ShardedDatasetOptions SO;
  SO.MaxResidentShards = 1;
  std::unique_ptr<ShardedDataset> SD = ShardedDataset::open(Dir, U, SO, &Err);
  ASSERT_NE(SD, nullptr) << Err;

  ExampleSource &Train = SD->split(SplitKind::Train);
  ASSERT_GT(Train.size(), 4u);

  // Pin the first example, then stream the whole split so its shard is
  // long evicted; the pinned reference must stay intact (ASan would
  // catch a dangling read).
  ExamplePin Pin;
  const FileExample &First = Train.get(0, Pin);
  std::string Path = First.Path;
  size_t Nodes = First.Graph.numNodes();
  ExamplePin Walk;
  for (size_t I = 0; I != Train.size(); ++I)
    (void)Train.get(I, Walk);
  EXPECT_GT(SD->decodeCount(), SD->residentShards());
  EXPECT_LE(SD->residentShards(), 1u);
  EXPECT_EQ(First.Path, Path);
  EXPECT_EQ(First.Graph.numNodes(), Nodes);

  removeShardDir(Dir);
}

//===----------------------------------------------------------------------===//
// Bit-identity: training, τmap, predictions — in-memory vs sharded
//===----------------------------------------------------------------------===//

class ShardBitIdentityTest : public ::testing::TestWithParam<int> {};

TEST_P(ShardBitIdentityTest, TrainingTauMapAndPredictionsMatchInMemory) {
  int Threads = GetParam();
  std::string Dir = writeTinyShards("bitid_t" + std::to_string(Threads), 3);
  ModelConfig MC = tinyConfig();
  TrainOptions TO;
  TO.Epochs = 2;
  TO.BatchFiles = 4;
  TO.NumThreads = Threads;
  KnnOptions KO;
  KO.NumThreads = Threads;

  // In-memory reference run.
  Workbench WB = Workbench::make(tinyCorpus(), tinyDataset());
  std::unique_ptr<TypeModel> RefModel = makeModel(MC, WB.DS, *WB.U);
  double RefLoss = trainModel(*RefModel, WB.DS.Train, TO);
  std::vector<const FileExample *> MapFiles;
  for (const FileExample &F : WB.DS.Train)
    MapFiles.push_back(&F);
  for (const FileExample &F : WB.DS.Valid)
    MapFiles.push_back(&F);
  Predictor RefP = Predictor::knn(*RefModel, MapFiles, KO);
  std::vector<PredictionResult> RefPreds = RefP.predictAll(WB.DS.Test);

  // Sharded run: fresh universe, tight residency, multi-shard layout.
  TypeUniverse U2;
  std::string Err;
  ShardedDatasetOptions SO;
  SO.MaxResidentShards = 2;
  std::unique_ptr<ShardedDataset> SD = ShardedDataset::open(Dir, U2, SO, &Err);
  ASSERT_NE(SD, nullptr) << Err;
  ExampleSource &Train = SD->split(SplitKind::Train);
  std::unique_ptr<TypeModel> ShModel = makeModel(MC, Train, U2);
  double ShLoss = trainModel(*ShModel, Train, TO);
  Predictor ShP = Predictor::knn(*ShModel, SD->trainValid(), KO);
  std::vector<PredictionResult> ShPreds =
      ShP.predictAll(SD->split(SplitKind::Test));

  EXPECT_EQ(RefLoss, ShLoss) << "training digests diverged";

  // τmap byte equality: same marker count, same embedding bit patterns
  // in the same order, same type spellings.
  const TypeMap &RefMap = RefP.typeMap();
  const TypeMap &ShMap = ShP.typeMap();
  ASSERT_EQ(RefMap.size(), ShMap.size());
  ASSERT_EQ(RefMap.dim(), ShMap.dim());
  EXPECT_EQ(RefMap.droppedDuplicates(), ShMap.droppedDuplicates());
  for (size_t I = 0; I != RefMap.size(); ++I) {
    EXPECT_EQ(std::memcmp(RefMap.row(I), ShMap.row(I), RefMap.rowBytes()), 0)
        << "marker " << I;
    EXPECT_EQ(RefMap.type(I)->str(), ShMap.type(I)->str());
  }

  expectPredictionsBitIdentical(RefPreds, ShPreds);
  removeShardDir(Dir);
}

INSTANTIATE_TEST_SUITE_P(Threads, ShardBitIdentityTest, ::testing::Values(1, 4),
                         [](const auto &Info) {
                           return "NumThreads" + std::to_string(Info.param);
                         });

//===----------------------------------------------------------------------===//
// Shard-aware shuffle
//===----------------------------------------------------------------------===//

TEST(ShardShuffleTest, ShardAwareOrderIsDeterministicAndShardContiguous) {
  std::string Dir = writeTinyShards("shuffle", 3);
  TypeUniverse U;
  std::string Err;
  std::unique_ptr<ShardedDataset> SD = ShardedDataset::open(Dir, U, &Err);
  ASSERT_NE(SD, nullptr) << Err;
  ExampleSource &Train = SD->split(SplitKind::Train);

  std::vector<int> A(Train.size()), B(Train.size());
  for (size_t I = 0; I != A.size(); ++I)
    A[I] = B[I] = static_cast<int>(I);
  Rng R1(77), R2(77), R3(78);
  Train.shuffleEpochOrder(A, R1, /*ShardAware=*/true);
  Train.shuffleEpochOrder(B, R2, /*ShardAware=*/true);
  EXPECT_EQ(A, B) << "same seed must give the same shard-aware order";

  // It is a permutation...
  std::vector<int> Sorted = A;
  std::sort(Sorted.begin(), Sorted.end());
  for (size_t I = 0; I != Sorted.size(); ++I)
    EXPECT_EQ(Sorted[I], static_cast<int>(I));

  // ...whose shard runs are contiguous: canonical index / 3 is the shard
  // id (3 files per shard; the final shard may be short), so the order
  // must hold exactly one run per shard — a shard split across two runs
  // would add a transition.
  size_t Runs = 1;
  for (size_t I = 1; I < A.size(); ++I)
    if (A[I] / 3 != A[I - 1] / 3)
      ++Runs;
  EXPECT_EQ(Runs, (A.size() + 2) / 3) << "each shard must stream contiguously";

  std::vector<int> C(Train.size());
  for (size_t I = 0; I != C.size(); ++I)
    C[I] = static_cast<int>(I);
  Train.shuffleEpochOrder(C, R3, /*ShardAware=*/true);
  EXPECT_NE(A, C) << "different seeds should reorder differently";

  // Shard-aware training is itself bit-reproducible run to run.
  ModelConfig MC = tinyConfig();
  TrainOptions TO;
  TO.Epochs = 1;
  TO.BatchFiles = 4;
  TO.ShardAwareShuffle = true;
  std::unique_ptr<TypeModel> M1 = makeModel(MC, Train, U);
  double L1 = trainModel(*M1, Train, TO);
  std::unique_ptr<TypeModel> M2 = makeModel(MC, Train, U);
  double L2 = trainModel(*M2, Train, TO);
  EXPECT_EQ(L1, L2);

  removeShardDir(Dir);
}

//===----------------------------------------------------------------------===//
// Damaged shard sets are rejected (mirrors DamagedArtifactTest)
//===----------------------------------------------------------------------===//

class DamagedShardTest : public ::testing::Test {
protected:
  void SetUp() override {
    Dir = writeTinyShards("damaged", 4);
    ManifestPath = Dir + "/" + kShardManifestName;
    ShardPath = Dir + "/shard-00000.typs";
    CleanManifest = readFileBytes(ManifestPath);
    CleanShard = readFileBytes(ShardPath);
    ASSERT_FALSE(CleanManifest.empty());
    ASSERT_FALSE(CleanShard.empty());
  }
  void TearDown() override {
    writeFileBytes(ManifestPath, CleanManifest);
    writeFileBytes(ShardPath, CleanShard);
    removeShardDir(Dir);
  }

  std::string Dir, ManifestPath, ShardPath, CleanManifest, CleanShard;
  TypeUniverse U;
};

TEST_F(DamagedShardTest, CleanSetOpensAndReads) {
  std::string Err;
  EXPECT_NE(ShardedDataset::open(Dir, U, &Err), nullptr) << Err;
  std::vector<FileExample> Out;
  SplitKind S;
  EXPECT_TRUE(readShardFile(ShardPath, U, Out, &S, &Err)) << Err;
  EXPECT_FALSE(Out.empty());
}

TEST_F(DamagedShardTest, TruncationsNeverLoad) {
  for (size_t Keep : {size_t(5), CleanManifest.size() / 2,
                      CleanManifest.size() - 1}) {
    writeFileBytes(ManifestPath, CleanManifest.substr(0, Keep));
    std::string Err;
    EXPECT_EQ(ShardedDataset::open(Dir, U, &Err), nullptr)
        << "manifest survived truncation to " << Keep;
    EXPECT_FALSE(Err.empty());
  }
  writeFileBytes(ManifestPath, CleanManifest);
  for (size_t Keep :
       {size_t(5), CleanShard.size() / 2, CleanShard.size() - 1}) {
    writeFileBytes(ShardPath, CleanShard.substr(0, Keep));
    std::vector<FileExample> Out;
    std::string Err;
    EXPECT_FALSE(readShardFile(ShardPath, U, Out, nullptr, &Err))
        << "shard survived truncation to " << Keep;
    EXPECT_FALSE(Err.empty());
  }
}

TEST_F(DamagedShardTest, CorruptPayloadNeverReads) {
  for (size_t Pos : {CleanShard.size() / 3, CleanShard.size() / 2,
                     CleanShard.size() - 8}) {
    std::string Bad = CleanShard;
    Bad[Pos] = static_cast<char>(Bad[Pos] ^ 0x11);
    writeFileBytes(ShardPath, Bad);
    std::vector<FileExample> Out;
    std::string Err;
    EXPECT_FALSE(readShardFile(ShardPath, U, Out, nullptr, &Err))
        << "shard survived corruption at byte " << Pos;
    EXPECT_FALSE(Err.empty());
  }
}

TEST_F(DamagedShardTest, FutureFormatVersionIsRejected) {
  {
    ArchiveWriter W(kShardFormatVersion + 7, kShardMagic);
    W.beginChunk("mset");
    W.writeI32(10);
    W.endChunk();
    std::string Err;
    ASSERT_TRUE(W.writeFile(ManifestPath, &Err)) << Err;
    EXPECT_EQ(ShardedDataset::open(Dir, U, &Err), nullptr);
    EXPECT_NE(Err.find("version"), std::string::npos) << Err;
  }
  {
    ArchiveWriter W(kShardFormatVersion + 7, kShardMagic);
    W.beginChunk("smet");
    W.writeU8(0);
    W.endChunk();
    std::string Err;
    ASSERT_TRUE(W.writeFile(ShardPath, &Err)) << Err;
    std::vector<FileExample> Out;
    EXPECT_FALSE(readShardFile(ShardPath, U, Out, nullptr, &Err));
    EXPECT_NE(Err.find("version"), std::string::npos) << Err;
  }
}

TEST_F(DamagedShardTest, WrongMagicIsRejected) {
  // A model artifact ("TYPA") is not a shard set, even with valid
  // framing and checksums.
  ArchiveWriter W(kShardFormatVersion);
  W.beginChunk("mset");
  W.writeI32(10);
  W.endChunk();
  std::string Err;
  ASSERT_TRUE(W.writeFile(ManifestPath, &Err)) << Err;
  EXPECT_EQ(ShardedDataset::open(Dir, U, &Err), nullptr);
  EXPECT_NE(Err.find("magic"), std::string::npos) << Err;
}

TEST_F(DamagedShardTest, ShardTableInconsistencyIsRejected) {
  // Rewrite the manifest with per-split totals that disagree with the
  // shard table; open() must refuse rather than mis-stream.
  ArchiveReader R;
  std::string Err;
  ASSERT_TRUE(R.openBytes(CleanManifest, &Err, kShardMagic)) << Err;
  ArchiveCursor MC = R.chunk("mset", &Err);
  int32_t Threshold = MC.readI32();
  uint64_t NumShards = MC.readU64();
  ArchiveWriter W(kShardFormatVersion, kShardMagic);
  W.beginChunk("mset");
  W.writeI32(Threshold);
  W.writeU64(NumShards);
  for (int I = 0; I != kNumSplits; ++I)
    W.writeU64(99999); // bogus file totals
  for (int I = 0; I != kNumSplits; ++I)
    W.writeU64(99999);
  W.endChunk();
  // Copy the genuine shrd/tcnt chunks over.
  for (const char *Tag : {"shrd", "tcnt"}) {
    ArchiveCursor C = R.chunk(Tag, &Err);
    W.beginChunk(Tag);
    for (size_t I = 0, N = C.remaining(); I != N; ++I)
      W.writeU8(C.readU8());
    W.endChunk();
  }
  ASSERT_TRUE(W.writeFile(ManifestPath, &Err)) << Err;
  EXPECT_EQ(ShardedDataset::open(Dir, U, &Err), nullptr);
  EXPECT_NE(Err.find("totals"), std::string::npos) << Err;
}

//===----------------------------------------------------------------------===//
// Parallel shard building is byte-identical to serial
//===----------------------------------------------------------------------===//

class ParallelBuildTest : public ::testing::TestWithParam<int> {};

TEST_P(ParallelBuildTest, ParallelBuildIsByteIdenticalToSerial) {
  // The determinism contract at its strictest: same corpus, same shard
  // size, 1 vs 4 builder threads — every byte on disk must match, from
  // one-file shards (every chunk a shard) to one giant shard (the wave
  // machinery degenerating to serial).
  int FilesPerShard = GetParam();
  std::string Tag = std::to_string(FilesPerShard);
  ShardBuildStats SerStats, ParStats;
  std::string SerDir = writeTinyShards("pbser" + Tag, FilesPerShard,
                                       /*NumThreads=*/1, &SerStats);
  std::string ParDir = writeTinyShards("pbpar" + Tag, FilesPerShard,
                                       /*NumThreads=*/4, &ParStats);

  EXPECT_EQ(SerStats.FilesIn, ParStats.FilesIn);
  EXPECT_EQ(SerStats.DedupDropped, ParStats.DedupDropped);
  EXPECT_EQ(SerStats.FilesSharded, ParStats.FilesSharded);
  ASSERT_EQ(SerStats.ShardsWritten, ParStats.ShardsWritten);
  ASSERT_GT(SerStats.ShardsWritten, 0u);

  EXPECT_EQ(readFileBytes(SerDir + "/" + kShardManifestName),
            readFileBytes(ParDir + "/" + kShardManifestName))
      << "manifest diverged at " << FilesPerShard << " files/shard";
  for (size_t I = 0; I != SerStats.ShardsWritten; ++I) {
    char Name[32];
    std::snprintf(Name, sizeof(Name), "shard-%05zu.typs", I);
    std::string Ser = readFileBytes(SerDir + "/" + Name);
    ASSERT_FALSE(Ser.empty()) << Name;
    EXPECT_EQ(Ser, readFileBytes(ParDir + "/" + Name)) << Name << " diverged";
  }

  // And the parallel-built set round-trips like any other.
  TypeUniverse U;
  std::string Err;
  std::unique_ptr<ShardedDataset> SD = ShardedDataset::open(ParDir, U, &Err);
  ASSERT_NE(SD, nullptr) << Err;
  EXPECT_EQ(SD->numFiles(SplitKind::Train) + SD->numFiles(SplitKind::Valid) +
                SD->numFiles(SplitKind::Test),
            ParStats.FilesSharded);

  removeShardDir(SerDir);
  removeShardDir(ParDir);
}

INSTANTIATE_TEST_SUITE_P(ShardSizes, ParallelBuildTest,
                         ::testing::Values(1, 3, 64),
                         [](const auto &Info) {
                           return "FilesPerShard" + std::to_string(Info.param);
                         });

//===----------------------------------------------------------------------===//
// Prefetch: the background decoder must be invisible in the bits
//===----------------------------------------------------------------------===//

TEST(ShardPrefetchTest, TrainingTauMapAndPredictionsMatchPrefetchOff) {
  std::string Dir = writeTinyShards("pfbits", 3);
  ModelConfig MC = tinyConfig();
  TrainOptions TO;
  TO.Epochs = 2;
  TO.BatchFiles = 4;
  KnnOptions KO;

  // Reference: prefetch disabled, every shard decoded on demand.
  TypeUniverse UOff;
  std::string Err;
  ShardedDatasetOptions Off;
  Off.MaxResidentShards = 2;
  Off.Prefetch = false;
  std::unique_ptr<ShardedDataset> SDOff =
      ShardedDataset::open(Dir, UOff, Off, &Err);
  ASSERT_NE(SDOff, nullptr) << Err;
  EXPECT_FALSE(SDOff->prefetchEnabled());
  ExampleSource &TrOff = SDOff->split(SplitKind::Train);
  std::unique_ptr<TypeModel> MOff = makeModel(MC, TrOff, UOff);
  double LossOff = trainModel(*MOff, TrOff, TO);
  Predictor POff = Predictor::knn(*MOff, SDOff->trainValid(), KO);
  std::vector<PredictionResult> PredsOff =
      POff.predictAll(SDOff->split(SplitKind::Test));

  // Prefetch on: same everything, shards decoded a step ahead.
  TypeUniverse UOn;
  ShardedDatasetOptions On;
  On.MaxResidentShards = 2;
  On.Prefetch = true;
  std::unique_ptr<ShardedDataset> SDOn =
      ShardedDataset::open(Dir, UOn, On, &Err);
  ASSERT_NE(SDOn, nullptr) << Err;
  EXPECT_TRUE(SDOn->prefetchEnabled());
  ExampleSource &TrOn = SDOn->split(SplitKind::Train);
  std::unique_ptr<TypeModel> MOn = makeModel(MC, TrOn, UOn);
  double LossOn = trainModel(*MOn, TrOn, TO);
  Predictor POn = Predictor::knn(*MOn, SDOn->trainValid(), KO);
  std::vector<PredictionResult> PredsOn =
      POn.predictAll(SDOn->split(SplitKind::Test));

  EXPECT_EQ(LossOff, LossOn) << "prefetch changed the training digest";
  EXPECT_EQ(SDOff->decodeCount(), SDOn->decodeCount())
      << "prefetch must neither add nor skip decodes";
  EXPECT_GT(SDOn->prefetchHits(), 0u) << "prefetcher never served a shard";
  EXPECT_EQ(SDOff->prefetchHits(), 0u);

  // τmap byte equality, then prediction bit-identity.
  const TypeMap &MapOff = POff.typeMap();
  const TypeMap &MapOn = POn.typeMap();
  ASSERT_EQ(MapOff.size(), MapOn.size());
  ASSERT_EQ(MapOff.dim(), MapOn.dim());
  EXPECT_EQ(MapOff.droppedDuplicates(), MapOn.droppedDuplicates());
  for (size_t I = 0; I != MapOff.size(); ++I) {
    EXPECT_EQ(std::memcmp(MapOff.row(I), MapOn.row(I), MapOff.rowBytes()), 0)
        << "marker " << I;
    EXPECT_EQ(MapOff.type(I)->str(), MapOn.type(I)->str());
  }
  expectPredictionsBitIdentical(PredsOff, PredsOn);

  removeShardDir(Dir);
}

TEST(ShardPrefetchTest, ShardAwareShuffleTrainingMatchesPrefetchOff) {
  // The shard-aware order is the prefetcher's best case (each shard
  // streams exactly once per epoch); the digest must still not move.
  std::string Dir = writeTinyShards("pfaware", 3);
  ModelConfig MC = tinyConfig();
  TrainOptions TO;
  TO.Epochs = 2;
  TO.BatchFiles = 4;
  TO.ShardAwareShuffle = true;

  TypeUniverse UOff;
  std::string Err;
  ShardedDatasetOptions Off;
  Off.MaxResidentShards = 2;
  Off.Prefetch = false;
  std::unique_ptr<ShardedDataset> SDOff =
      ShardedDataset::open(Dir, UOff, Off, &Err);
  ASSERT_NE(SDOff, nullptr) << Err;
  ExampleSource &TrOff = SDOff->split(SplitKind::Train);
  std::unique_ptr<TypeModel> MOff = makeModel(MC, TrOff, UOff);
  double LossOff = trainModel(*MOff, TrOff, TO);

  TypeUniverse UOn;
  ShardedDatasetOptions On;
  On.MaxResidentShards = 2;
  On.Prefetch = true;
  std::unique_ptr<ShardedDataset> SDOn =
      ShardedDataset::open(Dir, UOn, On, &Err);
  ASSERT_NE(SDOn, nullptr) << Err;
  ExampleSource &TrOn = SDOn->split(SplitKind::Train);
  std::unique_ptr<TypeModel> MOn = makeModel(MC, TrOn, UOn);
  double LossOn = trainModel(*MOn, TrOn, TO);

  EXPECT_EQ(LossOff, LossOn) << "shard-aware prefetch changed the digest";
  EXPECT_EQ(SDOff->decodeCount(), SDOn->decodeCount());
  EXPECT_GT(SDOn->prefetchHits(), 0u);

  removeShardDir(Dir);
}

TEST(ShardPrefetchTest, MidEpochResumeWithPrefetchMatchesUninterrupted) {
  // Interrupt inside an epoch with prefetch on, resume in a "new
  // process" (fresh open, fresh universe, prefetch on), and require the
  // finished run to be bit-identical to an uninterrupted prefetch-off
  // run — the resume cursor feeds planPrefetch, so the prefetcher starts
  // mid-plan.
  std::string Dir = writeTinyShards("pfresume", 2);
  ModelConfig MC = tinyConfig();
  TrainOptions TO;
  TO.Epochs = 2;
  TO.BatchFiles = 2; // several steps per epoch, so step 3 is mid-epoch

  TypeUniverse URef;
  std::string Err;
  ShardedDatasetOptions Off;
  Off.MaxResidentShards = 2;
  Off.Prefetch = false;
  std::unique_ptr<ShardedDataset> SDRef =
      ShardedDataset::open(Dir, URef, Off, &Err);
  ASSERT_NE(SDRef, nullptr) << Err;
  ExampleSource &TrRef = SDRef->split(SplitKind::Train);
  std::unique_ptr<TypeModel> Ref = makeModel(MC, TrRef, URef);
  double RefLoss = trainModel(*Ref, TrRef, TO);

  std::string Path = testing::TempDir() + "typilus_pf_ckpt_" +
                     std::to_string(static_cast<long>(getpid()));
  ShardedDatasetOptions On;
  On.MaxResidentShards = 2;
  On.Prefetch = true;

  TypeUniverse UCut;
  std::unique_ptr<ShardedDataset> SDCut =
      ShardedDataset::open(Dir, UCut, On, &Err);
  ASSERT_NE(SDCut, nullptr) << Err;
  ExampleSource &TrCut = SDCut->split(SplitKind::Train);
  std::unique_ptr<TypeModel> Cut = makeModel(MC, TrCut, UCut);
  TrainOptions CutTO = TO;
  CutTO.CheckpointPath = Path;
  CutTO.CheckpointEverySteps = 2;
  CutTO.StopAfterSteps = 3; // stops (and checkpoints) inside epoch 1
  Trainer CutT(*Cut, CutTO);
  CutT.run(TrCut);
  EXPECT_EQ(CutT.epochsDone(), 0) << "the stop must land mid-epoch";

  TypeUniverse URes;
  std::unique_ptr<ShardedDataset> SDRes =
      ShardedDataset::open(Dir, URes, On, &Err);
  ASSERT_NE(SDRes, nullptr) << Err;
  ExampleSource &TrRes = SDRes->split(SplitKind::Train);
  std::unique_ptr<TypeModel> Resumed = makeModel(MC, TrRes, URes);
  Trainer ResumedT(*Resumed, TO);
  ASSERT_TRUE(ResumedT.resumeFrom(Path, &Err)) << Err;
  double ResLoss = ResumedT.run(TrRes);
  EXPECT_EQ(ResumedT.epochsDone(), 2);

  EXPECT_EQ(RefLoss, ResLoss) << "prefetched mid-epoch resume diverged";
  const auto &RP = Ref->params().params();
  const auto &SP = Resumed->params().params();
  ASSERT_EQ(RP.size(), SP.size());
  for (size_t I = 0; I != RP.size(); ++I)
    for (int64_t J = 0; J != RP[I].val().numel(); ++J)
      ASSERT_EQ(RP[I].val()[J], SP[I].val()[J])
          << "param " << I << " element " << J;

  std::remove(Path.c_str());
  removeShardDir(Dir);
}

TEST(ShardPrefetchTest, PinsSurviveEvictionWhilePrefetcherRaces) {
  // The PinsSurviveEviction guarantee under the harshest prefetch
  // conditions: one-shard residency, and a zig-zag access pattern whose
  // direction reversals keep invalidating the prefetcher's aim, so
  // claims race against stale ready slots. ASan/TSan make this a
  // lifetime + data-race probe.
  std::string Dir = writeTinyShards("pfpins", 2);
  TypeUniverse U;
  std::string Err;
  ShardedDatasetOptions SO;
  SO.MaxResidentShards = 1;
  SO.Prefetch = true;
  std::unique_ptr<ShardedDataset> SD = ShardedDataset::open(Dir, U, SO, &Err);
  ASSERT_NE(SD, nullptr) << Err;

  ExampleSource &Train = SD->split(SplitKind::Train);
  ASSERT_GT(Train.size(), 4u);

  ExamplePin Pin;
  const FileExample &First = Train.get(0, Pin);
  std::string Path = First.Path;
  size_t Nodes = First.Graph.numNodes();
  ExamplePin Walk;
  for (int Pass = 0; Pass != 3; ++Pass) {
    for (size_t I = 0; I != Train.size(); ++I)
      (void)Train.get(I, Walk);
    for (size_t I = Train.size(); I != 0; --I)
      (void)Train.get(I - 1, Walk);
  }
  EXPECT_LE(SD->residentShards(), 1u);
  EXPECT_GT(SD->decodeCount(), SD->residentShards());
  EXPECT_EQ(First.Path, Path);
  EXPECT_EQ(First.Graph.numNodes(), Nodes);

  removeShardDir(Dir);
}

//===----------------------------------------------------------------------===//
// Real-tree ingestion (`typilus shard --from-dir`)
//===----------------------------------------------------------------------===//

TEST(IngestTest, WalkSkipsAndReportsRejectsNeverFatally) {
  std::string Root = std::string(TYPILUS_TEST_DATA_DIR) + "/pytree";
  std::vector<CorpusFile> Files;
  IngestReport Report;
  std::string Err;
  ASSERT_TRUE(collectPyTree(Root, Files, Report, &Err)) << Err;

  // The fixture tree: 8 .py files, 6 inside the supported subset, a
  // try/except file and a decorator file that must skip-and-report.
  EXPECT_EQ(Report.FilesSeen, 8u);
  EXPECT_EQ(Report.FilesAccepted, 6u);
  EXPECT_EQ(Report.FilesUnreadable, 0u);
  ASSERT_EQ(Report.Rejects.size(), 2u);
  ASSERT_EQ(Files.size(), 6u);

  // Name-order walk => fixed reject order, each reason carrying
  // "path:line: message" context pointing at the offending construct.
  EXPECT_EQ(Report.Rejects[0].Path, "scripts/legacy.py");
  EXPECT_EQ(Report.Rejects[0].Reason.rfind("scripts/legacy.py:", 0), 0u)
      << Report.Rejects[0].Reason;
  EXPECT_EQ(Report.Rejects[1].Path, "vendored.py");
  EXPECT_EQ(Report.Rejects[1].Reason.rfind("vendored.py:", 0), 0u)
      << Report.Rejects[1].Reason;
  for (const IngestReject &R : Report.Rejects)
    EXPECT_NE(R.Reason.find(": "), std::string::npos) << R.Reason;

  // Determinism: a second walk yields the identical corpus.
  std::vector<CorpusFile> Again;
  IngestReport Report2;
  ASSERT_TRUE(collectPyTree(Root, Again, Report2, &Err)) << Err;
  ASSERT_EQ(Again.size(), Files.size());
  for (size_t I = 0; I != Files.size(); ++I) {
    EXPECT_EQ(Files[I].Path, Again[I].Path);
    EXPECT_EQ(Files[I].Source, Again[I].Source);
  }
}

TEST(IngestTest, MissingRootFailsWithDiagnostic) {
  std::vector<CorpusFile> Files;
  IngestReport Report;
  std::string Err;
  EXPECT_FALSE(
      collectPyTree("/nonexistent/typilus-pytree", Files, Report, &Err));
  EXPECT_NE(Err.find("not a directory"), std::string::npos) << Err;
}

TEST(IngestTest, FromDirRoundTripsThroughShardsAndStreaming) {
  std::string Root = std::string(TYPILUS_TEST_DATA_DIR) + "/pytree";
  std::vector<CorpusFile> Files;
  IngestReport Report;
  std::string Err;
  ASSERT_TRUE(collectPyTree(Root, Files, Report, &Err)) << Err;

  std::string Dir = testing::TempDir() + "typilus_shards_fromdir_" +
                    std::to_string(static_cast<long>(getpid()));
  TypeUniverse U;
  ShardBuildOptions SO;
  SO.Dir = Dir;
  SO.FilesPerShard = 3;
  DatasetConfig DC;
  DC.CommonThreshold = 2;
  ShardBuildStats Stats;
  std::vector<UdtSpec> NoUdts; // real trees declare classes in source
  ASSERT_TRUE(buildShards(Files, NoUdts, U, nullptr, DC, SO, &Err, &Stats))
      << Err;
  EXPECT_EQ(Stats.FilesIn, 6u);
  EXPECT_EQ(Stats.DedupDropped, 1u) << "util_mirror.py must dedup away";
  EXPECT_EQ(Stats.FilesSharded, 5u);
  ASSERT_GT(Stats.ShardsWritten, 0u);

  // The written set streams back: all files reachable, real annotation
  // targets decoded.
  TypeUniverse U2;
  std::unique_ptr<ShardedDataset> SD = ShardedDataset::open(Dir, U2, &Err);
  ASSERT_NE(SD, nullptr) << Err;
  EXPECT_EQ(SD->numFiles(SplitKind::Train) + SD->numFiles(SplitKind::Valid) +
                SD->numFiles(SplitKind::Test),
            Stats.FilesSharded);
  size_t Targets = 0;
  for (SplitKind S : {SplitKind::Train, SplitKind::Valid, SplitKind::Test})
    for (const FileExample &Ex : drain(SD->split(S)))
      Targets += Ex.Targets.size();
  EXPECT_GT(Targets, 0u) << "real files must contribute annotation targets";

  removeShardDir(Dir);
}
