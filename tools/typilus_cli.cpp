//===- tools/typilus_cli.cpp - Train-once / serve-many command line ------------===//
//
// The deployment workflow of Fig. 1 as a command line: `train` fits a
// model and writes a versioned artifact; `predict` loads that artifact in
// a fresh process — no training corpus, no retraining — and serves type
// predictions; `inspect` prints what an artifact contains; `save`
// rewrites an artifact (e.g. switching the kNN index between HNSW and
// exact). Both train and predict print a digest of the test-split
// predictions, so train-once/serve-many bit-identity is checkable from
// the shell:
//
//   typilus_cli train --files 40 --epochs 4 --out model.typilus
//   typilus_cli predict --model model.typilus
//
//===----------------------------------------------------------------------===//

#include "Frontend.h"
#include "core/Experiments.h"
#include "corpus/Ingest.h"
#include "corpus/ShardedDataset.h"
#include "nn/Simd.h"
#include "serve/Protocol.h"
#include "support/Archive.h"
#include "support/Json.h"
#include "support/Socket.h"

#include <cerrno>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <sys/stat.h>
#include <fstream>
#include <map>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

using namespace typilus;

namespace {

//===----------------------------------------------------------------------===//
// Options
//===----------------------------------------------------------------------===//

/// Every command's options; flagTable says which flag fills which field.
struct Options {
  std::string Out, ModelPath, Checkpoint, ShardDir, OutDir, FromDir;
  std::string Split = "test", Encoder = "graph", Loss = "typilus";
  std::string Socket, Tcp, TmapStore;
  std::string IndexName; ///< Also set by the --exact alias.
  std::vector<std::string> Sources;
  int Files = 60, Udts = 40, Epochs = 8, Hidden = 32, Limit = 10;
  int Threads = 0, EfSearch = 0, CheckpointEvery = 0, ShardFiles = 32;
  int Repeat = 1;
  int K = 0;      ///< 0 = not given (the flag accepts only K >= 1).
  double P = NAN; ///< NaN = not given (the flag accepts only finite P).
  int64_t TmapMaxMarkers = 0;
  uint64_t Seed = 20200613;
  bool Resume = false, NoPrefetch = false, NoSimd = false, Verbose = false;
  bool Ping = false, Shutdown = false, Reload = false;
};

/// Each help text starts with the commands that read the flag.
std::vector<Flag> flagTable(Options &O) {
  return {
      {"--out", &O.Out, "PATH", "train, save: artifact to write"},
      {"--model", &O.ModelPath, "PATH", "predict, inspect, save: artifact"},
      {"--files", &O.Files, "N", "train, shard: corpus files (default 60)", 0},
      {"--udts", &O.Udts, "N", "train, shard: user types (default 40)", 0},
      {"--seed", &O.Seed, "S", "train, shard: corpus seed"},
      {"--epochs", &O.Epochs, "N", "train: epochs (default 8)"},
      {"--hidden", &O.Hidden, "D", "train: embedding width (default 32)", 1},
      {"--encoder", &O.Encoder, "E", "train: graph, seq, path or names"},
      {"--loss", &O.Loss, "L", "train: typilus, space or class"},
      {"--index", &O.IndexName, "KIND",
       "train, save: exact or hnsw (train's default picks by τmap size)"},
      {"--exact", FlagAlias{&O.IndexName, "exact"}, "", "--index exact"},
      {"--ef-search", &O.EfSearch, "N",
       "train, predict, save: HNSW query budget (0 = the index default)"},
      {"--k", &O.K, "N", "train, save: neighbours per prediction", 1},
      {"--p", &O.P, "F", "train, save: distance-weighting temperature"},
      {"--tmap-store", &O.TmapStore, "S",
       "train, save: τmap markers as f32, f16 or int8 (save quantizes f32)"},
      {"--tmap-max-markers", &O.TmapMaxMarkers, "N",
       "train: cap the τmap by coreset subsampling (0 = off)", 0},
      {"--threads", &O.Threads, "N",
       "pool size (0 = hardware); results are identical for any value"},
      {"--checkpoint", &O.Checkpoint, "PATH", "train: checkpoint file"},
      {"--checkpoint-every", &O.CheckpointEvery, "STEPS",
       "train: steps between mid-run checkpoints"},
      {"--resume", &O.Resume, "", "train: continue from --checkpoint"},
      {"--shards", &O.ShardDir, "DIR",
       "train, predict: stream a shard set instead of the corpus"},
      {"--no-prefetch", &O.NoPrefetch, "",
       "train, predict: decode shards on demand, not ahead"},
      {"--out-dir", &O.OutDir, "DIR", "shard: where to write the shard set"},
      {"--shard-files", &O.ShardFiles, "N", "shard: files per shard"},
      {"--from-dir", &O.FromDir, "TREE",
       "shard: ingest a .py tree; parser rejects are reported, not fatal"},
      {"--split", &O.Split, "NAME", "predict: train, valid or test"},
      {"--source", &O.Sources, "FILE.py", "predict, client: file to predict"},
      {"--limit", &O.Limit, "N", "predict, client: predictions per file"},
      {"--socket", &O.Socket, "PATH", "client: the daemon's Unix socket"},
      {"--tcp", &O.Tcp, "HOST:PORT", "client: the daemon's TCP address"},
      {"--repeat", &O.Repeat, "N", "client: concurrent sends per source"},
      {"--ping", &O.Ping, "", "client: liveness probe"},
      {"--reload", &O.Reload, "", "client: hot-reload the daemon's artifact"},
      {"--shutdown", &O.Shutdown, "", "client: drain and stop the daemon"},
      {"--verbose", &O.Verbose, "", "train, client: more output"},
      {"--no-simd", &O.NoSimd, "",
       "pin the scalar reference kernels (bit-reproducible across hosts)"},
  };
}

int usage(const char *Argv0) {
  Options Defaults;
  std::fprintf(
      stderr,
      "usage: %s <command> [options]\n"
      "\n"
      "commands:\n"
      "  train    train on the synthetic corpus and write an artifact\n"
      "  shard    preprocess a corpus into a shard set\n"
      "  predict  load an artifact and predict, no training data needed\n"
      "  inspect  print an artifact's chunks, config and vocabularies\n"
      "  save     rewrite an artifact, optionally changing kNN options\n"
      "  client   talk to a running typilus_serve daemon\n"
      "\n"
      "options:\n"
      "%s",
      Argv0, flagHelp(flagTable(Defaults)).c_str());
  return 2;
}

/// A flag value the table cannot vet: one error line and the usage exit.
int badFlagValue(const std::string &Err) {
  fail(Err);
  return 2;
}

/// Applies the kNN flags given on the command line over \p KO (train's
/// defaults or a loaded artifact's settings).
bool applyKnnFlags(const Options &O, KnnOptions &KO, std::string *Err) {
  if (O.K)
    KO.K = O.K;
  if (!std::isnan(O.P))
    KO.P = O.P;
  if (O.EfSearch > 0)
    KO.EfSearch = O.EfSearch;
  KnnIndexKind Kind;
  if (!O.IndexName.empty()) {
    if (!parseKnnIndexKind(O.IndexName, &Kind)) {
      *Err = "--index expects exact or hnsw; got '" + O.IndexName + "'";
      return false;
    }
    KO.Index = Kind;
  }
  if (!O.TmapStore.empty() && !parseMarkerStore(O.TmapStore, &KO.Store)) {
    *Err = "--tmap-store expects f32, f16 or int8; got '" + O.TmapStore + "'";
    return false;
  }
  KO.NumThreads = O.Threads;
  KO.MaxMarkers = static_cast<size_t>(O.TmapMaxMarkers);
  return true;
}

//===----------------------------------------------------------------------===//
// The corpus recipe chunk ("corp"): enough of the generation and split
// configuration for `predict` to rebuild the exact dataset the model was
// trained on, so accuracy is reportable without shipping the corpus.
//===----------------------------------------------------------------------===//

void writeCorpusRecipe(ArchiveWriter &W, const CorpusConfig &CC,
                       const DatasetConfig &DC) {
  W.beginChunk("corp");
  W.writeI32(CC.NumFiles);
  W.writeI32(CC.NumUdts);
  W.writeF64(CC.ZipfSkew);
  W.writeF64(CC.NameNoise);
  W.writeI32(CC.MinFuncsPerFile);
  W.writeI32(CC.MaxFuncsPerFile);
  W.writeF64(CC.DuplicateFraction);
  W.writeU64(CC.Seed);
  W.writeF64(DC.TrainFrac);
  W.writeF64(DC.ValidFrac);
  W.writeU8(DC.RunDedup ? 1 : 0);
  W.writeF64(DC.DedupThreshold);
  W.writeU64(DC.SplitSeed);
  W.writeI32(DC.CommonThreshold);
  W.endChunk();
}

bool readCorpusRecipe(const ArchiveReader &R, CorpusConfig &CC,
                      DatasetConfig &DC, std::string *Err) {
  ArchiveCursor C = R.chunk("corp", Err);
  CC.NumFiles = C.readI32();
  CC.NumUdts = C.readI32();
  CC.ZipfSkew = C.readF64();
  CC.NameNoise = C.readF64();
  CC.MinFuncsPerFile = C.readI32();
  CC.MaxFuncsPerFile = C.readI32();
  CC.DuplicateFraction = C.readF64();
  CC.Seed = C.readU64();
  DC.TrainFrac = C.readF64();
  DC.ValidFrac = C.readF64();
  DC.RunDedup = C.readU8() != 0;
  DC.DedupThreshold = C.readF64();
  DC.SplitSeed = C.readU64();
  DC.CommonThreshold = C.readI32();
  if (!C.atEnd()) {
    if (Err && Err->empty())
      *Err = "malformed corpus recipe chunk";
    return false;
  }
  return true;
}

//===----------------------------------------------------------------------===//
// Prediction digest + printing
//===----------------------------------------------------------------------===//

void printPredictions(const std::vector<PredictionResult> &Preds, int Limit) {
  int Shown = 0;
  for (const PredictionResult &P : Preds) {
    if (Limit >= 0 && Shown++ == Limit) {
      std::printf("  ... (%zu more)\n", Preds.size() - static_cast<size_t>(Limit));
      break;
    }
    std::printf("  %-18s %-20s %-10s -> %-20s (p=%.3f)%s%s\n",
                P.FilePath.c_str(), P.SymbolName.c_str(),
                symbolKindName(P.Kind),
                P.top() ? P.top()->str().c_str() : "?", P.confidence(),
                P.Truth ? "  truth " : "",
                P.Truth ? P.Truth->str().c_str() : "");
  }
}

void printSummary(const std::vector<PredictionResult> &Preds,
                  TypeUniverse &U) {
  size_t Exact = 0, Up = 0, Total = 0;
  for (const PredictionResult &P : Preds) {
    if (!P.Truth)
      continue;
    ++Total;
    TypeRef Top = P.top();
    Exact += Top == P.Truth;
    Up += Top && U.erase(Top) == U.erase(P.Truth);
  }
  if (Total > 0)
    std::printf("%zu predictions: %.1f%% exact, %.1f%% up-to-parametric\n",
                Total, 100.0 * static_cast<double>(Exact) / Total,
                100.0 * static_cast<double>(Up) / Total);
}

//===----------------------------------------------------------------------===//
// train
//===----------------------------------------------------------------------===//

int cmdTrain(const Options &O) {
  if (O.Out.empty() && O.Checkpoint.empty())
    return fail("train needs --out PATH (or at least --checkpoint PATH)");

  static const std::map<std::string, EncoderKind> Encoders = {
      {"graph", EncoderKind::Graph},
      {"seq", EncoderKind::Seq},
      {"path", EncoderKind::Path},
      {"names", EncoderKind::NamesOnly},
  };
  static const std::map<std::string, LossKind> Losses = {
      {"typilus", LossKind::Typilus},
      {"space", LossKind::Space},
      {"class", LossKind::Class},
  };
  if (!Encoders.count(O.Encoder))
    return fail("unknown encoder '" + O.Encoder + "'");
  if (!Losses.count(O.Loss))
    return fail("unknown loss '" + O.Loss + "'");
  ModelConfig MC;
  MC.Encoder = Encoders.at(O.Encoder);
  MC.Loss = Losses.at(O.Loss);
  MC.HiddenDim = O.Hidden;
  // The serving predictor's kNN settings, checked before any training.
  KnnOptions KO;
  std::string Err;
  if (!applyKnnFlags(O, KO, &Err))
    return badFlagValue(Err);

  // The data substrate: the in-memory workbench, or — with --shards — a
  // streamed shard set whose decoded residency is bounded by the LRU,
  // not the corpus. Both run through the same ExampleSource consumers,
  // so the printed digests are bit-identical between the two (CI holds
  // them equal).
  CorpusConfig CC;
  CC.NumFiles = O.Files;
  CC.NumUdts = O.Udts;
  CC.Seed = O.Seed;
  DatasetConfig DC;
  bool HaveRecipe = false;

  Workbench WB;
  TypeUniverse ShardU;
  std::unique_ptr<ShardedDataset> SD;
  std::unique_ptr<VectorExampleSource> VTrain, VValid, VTest;
  std::unique_ptr<ConcatExampleSource> VMap;
  ExampleSource *TrainSrc, *MapSrc, *TestSrc;
  TypeUniverse *U;
  if (O.ShardDir.empty()) {
    std::printf("generating %d synthetic files...\n", CC.NumFiles);
    WB = Workbench::make(CC, DC);
    std::printf(
        "dataset: %zu train / %zu valid / %zu test files, %zu targets\n",
        WB.DS.Train.size(), WB.DS.Valid.size(), WB.DS.Test.size(),
        WB.DS.numTargets());
    VTrain = std::make_unique<VectorExampleSource>(WB.DS.Train);
    VValid = std::make_unique<VectorExampleSource>(WB.DS.Valid);
    VTest = std::make_unique<VectorExampleSource>(WB.DS.Test);
    VMap = std::make_unique<ConcatExampleSource>(
        std::vector<ExampleSource *>{VTrain.get(), VValid.get()});
    TrainSrc = VTrain.get();
    MapSrc = VMap.get();
    TestSrc = VTest.get();
    U = WB.U.get();
    HaveRecipe = true;
  } else {
    ShardedDatasetOptions SDO;
    SDO.Prefetch = !O.NoPrefetch;
    SD = ShardedDataset::open(O.ShardDir, ShardU, SDO, &Err);
    if (!SD)
      return fail(Err);
    std::printf("shard set %s: %zu train / %zu valid / %zu test files, "
                "%zu targets\n",
                O.ShardDir.c_str(), SD->numFiles(SplitKind::Train),
                SD->numFiles(SplitKind::Valid), SD->numFiles(SplitKind::Test),
                SD->numTargets(SplitKind::Train) +
                    SD->numTargets(SplitKind::Valid) +
                    SD->numTargets(SplitKind::Test));
    TrainSrc = &SD->split(SplitKind::Train);
    MapSrc = &SD->trainValid();
    TestSrc = &SD->split(SplitKind::Test);
    U = &ShardU;
    // `typilus shard` stores the corpus recipe in the manifest, so the
    // trained artifact keeps it and `predict` works recipe-driven.
    ArchiveReader MR;
    if (MR.openFile(O.ShardDir + "/" + kShardManifestName, &Err,
                    kShardMagic) &&
        MR.hasChunk("corp"))
      HaveRecipe = readCorpusRecipe(MR, CC, DC, &Err);
    if (!HaveRecipe)
      std::fprintf(stderr, "warning: shard manifest has no corpus recipe; "
                           "the artifact will need --source or --shards "
                           "to predict\n");
  }

  TrainOptions TO;
  TO.Epochs = O.Epochs;
  TO.NumThreads = O.Threads;
  TO.Verbose = O.Verbose;
  TO.CheckpointPath = O.Checkpoint;
  TO.CheckpointEverySteps = O.CheckpointEvery;

  std::unique_ptr<TypeModel> Model = makeModel(MC, *TrainSrc, *U);
  Trainer T(*Model, TO);
  if (O.Resume) {
    if (O.Checkpoint.empty())
      return fail("--resume needs --checkpoint PATH");
    if (!T.resumeFrom(O.Checkpoint, &Err))
      return fail(Err);
    std::printf("resumed from %s at epoch %d/%d\n", O.Checkpoint.c_str(),
                T.epochsDone(), TO.Epochs);
  }
  std::printf("training %s/%s for %d epochs...\n", encoderKindName(MC.Encoder),
              lossKindName(MC.Loss), TO.Epochs - T.epochsDone());
  double Loss = T.run(*TrainSrc);
  if (std::isnan(Loss))
    return fail("checkpoint does not match this corpus/split "
                "(regenerate with the original --files/--seed)");
  std::printf("final mean loss: %.4f\n", Loss);

  // Build the serving predictor: τmap over train+valid for Space/Typilus
  // models, plain classifier otherwise.
  Predictor P = MC.Loss == LossKind::Class
                    ? Predictor::classifier(*Model)
                    : Predictor::knn(*Model, *MapSrc, KO);
  if (P.isKnn())
    std::printf("τmap: %zu markers (%s store, %s index, %zu duplicates "
                "dropped)\n",
                P.typeMap().size(), markerStoreName(P.typeMap().store()),
                knnIndexName(*P.knnOptions().Index),
                P.typeMap().droppedDuplicates());

  if (!O.Out.empty()) {
    ArchiveWriter W(P.artifactVersion());
    if (!P.writeArtifact(W, *U, &Err))
      return fail(Err);
    if (HaveRecipe)
      writeCorpusRecipe(W, CC, DC);
    if (!W.writeFile(O.Out, &Err))
      return fail(Err);
    std::printf("artifact written: %s (%zu bytes)\n", O.Out.c_str(),
                W.bytes().size());
  }

  // The same-process predictions `predict` must reproduce bit-for-bit.
  auto Preds = P.predictAll(*TestSrc);
  printSummary(Preds, *U);
  if (SD)
    std::printf("prefetch: %s, %zu hits / %zu misses, wait %" PRIu64
                " us, decode stall %" PRIu64 " us (%zu shard decodes)\n",
                SD->prefetchEnabled() ? "on" : "off", SD->prefetchHits(),
                SD->prefetchMisses(), SD->prefetchWaitMicros(),
                SD->decodeStallMicros(), SD->decodeCount());
  std::printf("test-split digest: %016" PRIx64 "\n", predictionDigest(Preds));
  return 0;
}

//===----------------------------------------------------------------------===//
// shard
//===----------------------------------------------------------------------===//

/// Upfront `shard` argument validation: fail with a specific message
/// before any corpus work instead of mid-build. Creates \p Dir if
/// missing and proves it is writable with a probe file.
bool validateShardArgs(const Options &O, std::string *Err) {
  if (O.ShardFiles < 1) {
    *Err = "--shard-files expects a positive file count; got " +
           std::to_string(O.ShardFiles);
    return false;
  }
  if (::mkdir(O.OutDir.c_str(), 0777) != 0 && errno != EEXIST) {
    *Err = "cannot create --out-dir '" + O.OutDir + "'";
    return false;
  }
  std::string Probe = O.OutDir + "/.typilus-writable";
  std::FILE *F = std::fopen(Probe.c_str(), "wb");
  if (!F) {
    *Err = "--out-dir '" + O.OutDir + "' is not writable";
    return false;
  }
  std::fclose(F);
  ::remove(Probe.c_str());
  return true;
}

int cmdShard(const Options &O) {
  if (O.OutDir.empty())
    return fail("shard needs --out-dir DIR");
  std::string Err;
  if (!validateShardArgs(O, &Err))
    return fail(Err);

  CorpusConfig CC;
  CC.NumFiles = O.Files;
  CC.NumUdts = O.Udts;
  CC.Seed = O.Seed;
  DatasetConfig DC;

  std::vector<CorpusFile> Files;
  std::vector<UdtSpec> Udts;
  bool HaveRecipe = O.FromDir.empty();
  if (HaveRecipe) {
    std::printf("generating %d synthetic files...\n", CC.NumFiles);
    CorpusGenerator Gen(CC);
    Files = Gen.generate();
    Udts = Gen.udts();
  } else {
    // Real-tree ingestion: walk --from-dir for .py files, keeping what
    // the parser accepts. Rejects are reported, never fatal — a crawl
    // always contains Python beyond the supported subset.
    IngestReport Rep;
    if (!collectPyTree(O.FromDir, Files, Rep, &Err))
      return fail(Err);
    for (const IngestReject &Rej : Rep.Rejects)
      std::fprintf(stderr, "skipped: %s\n", Rej.Reason.c_str());
    std::printf("ingested %s: %zu .py files seen, %zu accepted, %zu "
                "parser-rejected, %zu unreadable\n",
                O.FromDir.c_str(), Rep.FilesSeen, Rep.FilesAccepted,
                Rep.Rejects.size(), Rep.FilesUnreadable);
    if (Files.empty())
      return fail("no ingestible .py files under '" + O.FromDir + "'");
  }

  TypeUniverse U;
  ShardBuildOptions SO;
  SO.Dir = O.OutDir;
  SO.FilesPerShard = O.ShardFiles;
  SO.NumThreads = O.Threads;
  // An ingested tree has no generation recipe; `train` then warns that
  // the artifact will need --source or --shards to predict.
  if (HaveRecipe)
    SO.ManifestExtra = [&](ArchiveWriter &W) { writeCorpusRecipe(W, CC, DC); };
  ShardBuildStats Stats;
  if (!buildShards(Files, Udts, U, /*Hierarchy=*/nullptr, DC, SO, &Err,
                   &Stats))
    return fail(Err);
  std::printf("dedup: %zu near-duplicate files dropped (%zu of %zu kept)\n",
              Stats.DedupDropped, Stats.FilesSharded, Stats.FilesIn);

  // Reopen through the reader: validates what was just written and gives
  // the user the manifest view of it.
  TypeUniverse CheckU;
  std::unique_ptr<ShardedDataset> SD =
      ShardedDataset::open(O.OutDir, CheckU, &Err);
  if (!SD)
    return fail("shard set written but does not read back: " + Err);
  std::printf("shard set written: %s (%zu shards, %d files/shard; %zu train "
              "/ %zu valid / %zu test files, %zu targets)\n",
              O.OutDir.c_str(), Stats.ShardsWritten, SO.FilesPerShard,
              SD->numFiles(SplitKind::Train), SD->numFiles(SplitKind::Valid),
              SD->numFiles(SplitKind::Test),
              SD->numTargets(SplitKind::Train) +
                  SD->numTargets(SplitKind::Valid) +
                  SD->numTargets(SplitKind::Test));
  return 0;
}

//===----------------------------------------------------------------------===//
// predict
//===----------------------------------------------------------------------===//

int cmdPredict(const Options &O) {
  if (O.ModelPath.empty())
    return fail("predict needs --model PATH");
  ArchiveReader R;
  std::string Err;
  std::unique_ptr<Predictor> P =
      openArtifact(O.ModelPath, O.Threads, O.EfSearch, &Err, &R);
  if (!P)
    return fail(Err);
  TypeUniverse &U = *P->universe();
  std::printf("%s\n", loadedBanner(O.ModelPath, *P).c_str());

  // Real source files given: serve them directly.
  if (!O.Sources.empty()) {
    for (const std::string &Src : O.Sources) {
      std::ifstream In(Src);
      if (!In)
        return fail("cannot read '" + Src + "'");
      std::ostringstream SS;
      SS << In.rdbuf();
      std::vector<PredictionResult> Preds;
      try {
        Preds = P->predictSource(Src, SS.str());
      } catch (const std::exception &E) {
        return fail(E.what());
      }
      std::printf("%s: %zu annotatable symbols\n", Src.c_str(), Preds.size());
      printPredictions(Preds, O.Limit);
      // The per-file digest a typilus_serve response for this source must
      // match bit for bit (CI's daemon smoke compares the two).
      std::printf("%s digest: %016" PRIx64 "\n", Src.c_str(),
                  predictionDigest(Preds));
    }
    return 0;
  }

  // Otherwise predict one split: streamed from a shard set (no corpus
  // regeneration, residency bounded by the shard LRU) or rebuilt from the
  // artifact's corpus recipe. Either way its types intern into the
  // artifact's universe, so truth and prediction TypeRefs match and the
  // digest equals the training run's.
  static const std::map<std::string, SplitKind> Splits = {
      {"train", SplitKind::Train},
      {"valid", SplitKind::Valid},
      {"test", SplitKind::Test},
  };
  if (!Splits.count(O.Split))
    return fail("unknown split '" + O.Split + "'");
  SplitKind SK = Splits.at(O.Split);
  std::vector<PredictionResult> Preds;
  if (!O.ShardDir.empty()) {
    ShardedDatasetOptions SDO;
    SDO.Prefetch = !O.NoPrefetch;
    std::unique_ptr<ShardedDataset> SD =
        ShardedDataset::open(O.ShardDir, U, SDO, &Err);
    if (!SD)
      return fail(Err);
    Preds = P->predictAll(SD->split(SK));
    std::printf("%s split: %zu files (streamed from %s)\n", O.Split.c_str(),
                SD->numFiles(SK), O.ShardDir.c_str());
  } else {
    CorpusConfig CC;
    DatasetConfig DC;
    if (!readCorpusRecipe(R, CC, DC, &Err)) {
      if (!R.hasChunk("corp"))
        Err += " (artifact has no corpus recipe; use --source)";
      return fail(Err);
    }
    CorpusGenerator Gen(CC);
    std::vector<CorpusFile> Files = Gen.generate();
    Dataset DS = buildDataset(Files, Gen.udts(), U, /*Hierarchy=*/nullptr, DC);
    const std::vector<FileExample> *BySplit[] = {&DS.Train, &DS.Valid,
                                                 &DS.Test};
    const std::vector<FileExample> &Split = *BySplit[static_cast<int>(SK)];
    Preds = P->predictAll(Split);
    std::printf("%s split: %zu files\n", O.Split.c_str(), Split.size());
  }
  printPredictions(Preds, O.Limit);
  printSummary(Preds, U);
  if (SK == SplitKind::Test)
    std::printf("test-split digest: %016" PRIx64 "\n", predictionDigest(Preds));
  return 0;
}

//===----------------------------------------------------------------------===//
// inspect
//===----------------------------------------------------------------------===//

int cmdInspect(const Options &O) {
  if (O.ModelPath.empty())
    return fail("inspect needs --model PATH");
  ArchiveReader R;
  std::string Err;
  if (!R.openFile(O.ModelPath, &Err))
    return fail(Err);
  std::printf("%s: format version %u, %zu chunks\n", O.ModelPath.c_str(),
              R.formatVersion(), R.chunks().size());
  for (const ArchiveReader::ChunkInfo &C : R.chunks())
    std::printf("  %-6s %10zu bytes  (crc ok)\n", C.Tag.c_str(), C.Size);

  std::unique_ptr<Predictor> P = Predictor::load(R, &Err);
  if (!P)
    return fail(Err);
  const ModelConfig &MC = P->model().config();
  std::printf("model: encoder=%s loss=%s hidden=%d timesteps=%d seed=%" PRIu64
              "\n",
              encoderKindName(MC.Encoder), lossKindName(MC.Loss), MC.HiddenDim,
              MC.TimeSteps, MC.Seed);
  std::printf("vocabularies: %zu labels, %zu full types, %zu erased types, "
              "%zu interned types, %zu parameters\n",
              P->model().labelVocab().size(), P->model().typeVocabs().Full.size(),
              P->model().typeVocabs().Erased.size(), P->universe()->size(),
              P->model().params().numParams());
  if (P->isKnn()) {
    std::printf("τmap: %zu markers (%s store, %zu bytes), k=%d, p=%.2f, "
                "%s index\n",
                P->typeMap().size(), markerStoreName(P->typeMap().store()),
                P->typeMap().storageBytes(), P->knnOptions().K,
                P->knnOptions().P, knnIndexName(*P->knnOptions().Index));
    std::string Desc = P->knnIndex()->describe(P->knnOptions().EfSearch);
    if (!Desc.empty())
      std::printf("%s\n", Desc.c_str());
  } else {
    std::printf("classifier over the closed type vocabulary\n");
  }
  if (R.hasChunk("corp")) {
    CorpusConfig CC;
    DatasetConfig DC;
    if (readCorpusRecipe(R, CC, DC, &Err))
      std::printf("corpus recipe: %d files, %d UDTs, seed %" PRIu64 "\n",
                  CC.NumFiles, CC.NumUdts, CC.Seed);
  }
  return 0;
}

//===----------------------------------------------------------------------===//
// save (rewrite / re-index)
//===----------------------------------------------------------------------===//

int cmdSave(const Options &O) {
  if (O.ModelPath.empty() || O.Out.empty())
    return fail("save needs --model PATH and --out PATH");
  ArchiveReader R;
  std::string Err;
  std::unique_ptr<Predictor> P =
      openArtifact(O.ModelPath, O.Threads, O.EfSearch, &Err, &R);
  if (!P)
    return fail(Err);

  KnnOptions KO = P->knnOptions();
  if (!applyKnnFlags(O, KO, &Err))
    return badFlagValue(Err);
  P->setKnnOptions(KO); // rebuilds the index when --index flips the kind
  if (!O.TmapStore.empty() && !P->setMarkerStore(KO.Store, &Err))
    return fail(Err);

  ArchiveWriter W(P->artifactVersion());
  if (!P->writeArtifact(W, *P->universe(), &Err))
    return fail(Err);
  if (R.hasChunk("corp")) {
    CorpusConfig CC;
    DatasetConfig DC;
    if (!readCorpusRecipe(R, CC, DC, &Err))
      return fail(Err);
    writeCorpusRecipe(W, CC, DC);
  }
  if (!W.writeFile(O.Out, &Err))
    return fail(Err);
  std::string IndexNote =
      P->isKnn() ? std::string(", ") + knnIndexName(*P->knnOptions().Index) +
                       " index"
                 : "";
  std::printf("rewritten: %s -> %s (%zu bytes%s)\n", O.ModelPath.c_str(),
              O.Out.c_str(), W.bytes().size(), IndexNote.c_str());
  return 0;
}

//===----------------------------------------------------------------------===//
// client (talk to a typilus_serve daemon)
//===----------------------------------------------------------------------===//

/// Splits "--tcp HOST:PORT" at the last ':' (plain IPv4 / hostnames).
bool parseHostPort(const std::string &Spec, std::string &Host, uint16_t &Port,
                   std::string *Err) {
  size_t Colon = Spec.rfind(':');
  int P = 0;
  if (Colon == std::string::npos || Colon == 0 ||
      !parseNumber(std::string_view(Spec).substr(Colon + 1), P) || P < 1 ||
      P > 65535) {
    if (Err)
      *Err = "--tcp expects HOST:PORT, got '" + Spec + "'";
    return false;
  }
  Host = Spec.substr(0, Colon);
  Port = static_cast<uint16_t>(P);
  return true;
}

/// Sends one request line over its own connection (Unix socket or TCP,
/// whichever the options name) and reads one response.
bool roundTrip(const Options &O, const std::string &RequestLine,
               std::string &ResponseLine, std::string *Err) {
  FileDesc Fd;
  if (!O.Tcp.empty()) {
    std::string Host;
    uint16_t Port = 0;
    if (!parseHostPort(O.Tcp, Host, Port, Err) ||
        !connectTcp(Host, Port, Fd, Err))
      return false;
  } else if (!connectUnix(O.Socket, Fd, Err)) {
    return false;
  }
  if (!writeAll(Fd.fd(), RequestLine)) {
    if (Err)
      *Err = "write failed (daemon gone?)";
    return false;
  }
  // Responses dwarf requests (up to 10 candidates per symbol), so the
  // client-side line cap is far above the daemon's request cap.
  LineReader R(Fd.fd(), /*MaxLineBytes=*/256u << 20);
  LineReader::Status St;
  do
    St = R.next(ResponseLine);
  while (St == LineReader::Status::Interrupted);
  if (St != LineReader::Status::Line) {
    if (Err)
      *Err = "no response (daemon gone?)";
    return false;
  }
  return true;
}

int cmdClient(const Options &O) {
  if (O.Socket.empty() == O.Tcp.empty())
    return fail("client needs exactly one of --socket PATH / --tcp HOST:PORT");

  if (O.Ping || O.Shutdown || O.Reload) {
    const char *Method = O.Ping ? "ping" : O.Reload ? "reload" : "shutdown";
    std::string Resp, Err;
    if (!roundTrip(O, std::string("{\"id\":0,\"method\":\"") + Method + "\"}\n",
                   Resp, &Err))
      return fail(Err);
    json::Value V;
    if (!json::parse(Resp, V, &Err))
      return fail("malformed response: " + Err);
    if (!V.getBool("ok", false))
      return fail("daemon error: " + V.getString("error", "unknown"));
    std::printf("%s ok%s\n", Method,
                O.Ping ? (" (protocol " +
                          std::to_string(V.getInt("protocol", 0)) + ")")
                             .c_str()
                       : "");
    return 0;
  }

  if (O.Sources.empty())
    return fail(
        "client needs --source FILE.py (or --ping / --reload / --shutdown)");
  int Repeat = O.Repeat < 1 ? 1 : O.Repeat;

  // One job per (source × repeat), each over its own connection, all in
  // flight at once — the concurrent load the daemon's request queue
  // coalesces into batches.
  struct Job {
    std::string Path;
    std::string Request;
    std::string Response;
    std::string Error;
    bool Ok = false;
  };
  std::vector<Job> Jobs;
  for (const std::string &Src : O.Sources) {
    std::ifstream In(Src);
    if (!In)
      return fail("cannot read '" + Src + "'");
    std::ostringstream SS;
    SS << In.rdbuf();
    std::string Req = "{\"id\":" + std::to_string(Jobs.size()) +
                      ",\"method\":\"predict\",\"path\":" + json::quoted(Src) +
                      ",\"limit\":" + std::to_string(O.Limit) +
                      ",\"source\":" + json::quoted(SS.str()) + "}\n";
    for (int R = 0; R != Repeat; ++R)
      Jobs.push_back(Job{Src, Req, "", "", false});
  }

  std::vector<std::thread> Threads;
  Threads.reserve(Jobs.size());
  for (Job &J : Jobs)
    Threads.emplace_back([&J, &O] {
      J.Ok = roundTrip(O, J.Request, J.Response, &J.Error);
    });
  for (std::thread &T : Threads)
    T.join();

  int Failures = 0;
  for (Job &J : Jobs) {
    json::Value V;
    std::string Err;
    if (!J.Ok || !json::parse(J.Response, V, &Err)) {
      std::fprintf(stderr, "error: %s: %s\n", J.Path.c_str(),
                   J.Ok ? ("malformed response: " + Err).c_str()
                        : J.Error.c_str());
      ++Failures;
      continue;
    }
    if (!V.getBool("ok", false)) {
      std::fprintf(stderr, "error: %s: %s\n", J.Path.c_str(),
                   V.getString("error", "unknown").c_str());
      ++Failures;
      continue;
    }
    const json::Value *Preds = V.find("predictions");
    size_t N = Preds && Preds->isArray() ? Preds->array().size() : 0;
    // Same "<path> digest: <hex>" shape `predict --source` prints, so the
    // two serving paths diff cleanly.
    std::printf("%s digest: %s (%zu symbols)\n", J.Path.c_str(),
                V.getString("digest", "?").c_str(), N);
    if (O.Verbose && Preds)
      for (const json::Value &P : Preds->array()) {
        const json::Value *Cands = P.find("candidates");
        const json::Value *Top = Cands && Cands->isArray() &&
                                         !Cands->array().empty()
                                     ? &Cands->array().front()
                                     : nullptr;
        const json::Value *Prob = Top ? Top->find("prob") : nullptr;
        std::printf("  %-20s %-10s -> %-20s (p=%.3f)\n",
                    P.getString("symbol", "?").c_str(),
                    P.getString("kind", "?").c_str(),
                    Top ? Top->getString("type", "?").c_str() : "?",
                    Prob && Prob->isNumber() ? Prob->asNumber() : 0.0);
      }
  }
  return Failures ? 1 : 0;
}

} // namespace

int main(int Argc, char **Argv) {
  if (Argc < 2)
    return usage(Argv[0]);
  std::string Cmd = Argv[1];
  Options O;
  if (!parseCommandLine(flagTable(O), Argc, Argv, 2))
    return 2;
  if (O.NoSimd)
    nn::simd::setSimdEnabled(false);

  if (Cmd == "train")
    return cmdTrain(O);
  if (Cmd == "shard")
    return cmdShard(O);
  if (Cmd == "predict")
    return cmdPredict(O);
  if (Cmd == "inspect")
    return cmdInspect(O);
  if (Cmd == "save")
    return cmdSave(O);
  if (Cmd == "client")
    return cmdClient(O);
  return usage(Argv[0]);
}
