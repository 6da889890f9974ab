//===- core/Predictor.cpp - Type prediction ------------------------------------===//

#include "core/Predictor.h"

#include "corpus/Dataset.h"
#include "support/ThreadPool.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <cmath>
#include <stdexcept>

using namespace typilus;

/// Microseconds elapsed since \p T0 (stats counters; never affects
/// results).
static uint64_t microsSince(std::chrono::steady_clock::time_point T0) {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - T0)
          .count());
}

Predictor Predictor::knn(TypeModel &Model, ExampleSource &MapFiles,
                         const KnnOptions &Opts) {
  Predictor P(Model);
  P.IsKnn = true;
  P.Knn = Opts;
  P.Map = std::make_unique<TypeMap>(Model.config().HiddenDim);

  // Pre-size from the stream's metadata (a shard set knows its target
  // totals without decoding anything), then fill window by window: pin a
  // window of files, embed it data-parallel (each file's forward pass
  // only reads the trained parameters), and append markers in file
  // order. Windowing changes no bits — every file goes through the same
  // single-file embed, and the marker layout is file order either way —
  // while residency stays one window of decoded shards instead of the
  // whole corpus.
  P.Map->reserve(MapFiles.numTargets());
  constexpr size_t WindowFiles = 32;
  size_t N = MapFiles.size();
  for (size_t Lo = 0; Lo < N; Lo += WindowFiles) {
    size_t W = std::min(N, Lo + WindowFiles) - Lo;
    std::vector<ExamplePin> Pins(W);
    std::vector<const FileExample *> Window(W);
    for (size_t I = 0; I != W; ++I)
      Window[I] = &MapFiles.get(Lo + I, Pins[I]);
    Embedded E = P.embedFiles(Window);
    for (size_t F = 0; F != W; ++F) {
      const Tensor &Emb = E.Embs[F];
      // Tag each marker with its source file so the editor loop can
      // retire a file's rows later. Tags are sidecar state: the marker
      // bytes and layout are unchanged.
      for (size_t I = 0; I != E.Targets[F].size(); ++I)
        P.Map->add(Emb.data() + static_cast<int64_t>(I) * Emb.cols(),
                   E.Targets[F][I]->Type, Window[F]->Path);
    }
  }
  // τmap compaction, in order: bound the marker count over the exact f32
  // coordinates first, then (optionally) quantize the survivors, then
  // build the index over whatever representation will actually serve.
  if (Opts.MaxMarkers > 0)
    P.Map->subsampleCoreset(Opts.MaxMarkers);
  if (Opts.Store != MarkerStore::F32)
    P.Map->quantize(Opts.Store);
  P.rebuildIndex();
  return P;
}

Predictor Predictor::knn(TypeModel &Model,
                         const std::vector<const FileExample *> &MapFiles,
                         const KnnOptions &Opts) {
  PtrExampleSource Src(MapFiles);
  return knn(Model, Src, Opts);
}

Predictor Predictor::classifier(TypeModel &Model) {
  Predictor P(Model);
  P.IsKnn = false;
  return P;
}

//===----------------------------------------------------------------------===//
// Artifact save / load (train-once, serve-many)
//===----------------------------------------------------------------------===//

/// The pred-chunk kind byte of the deleted Annoy forest (KnnIndexKind
/// keeps the value reserved).
static constexpr uint8_t kLegacyAnnoyIndexByte = 1;

bool typilus::validKnnSettings(const KnnOptions &O) {
  return O.K >= 1 && std::isfinite(O.P);
}

bool Predictor::writeArtifact(ArchiveWriter &W, const TypeUniverse &U,
                              std::string *Err) const {
  if (!validKnnSettings(Knn)) {
    if (Err)
      *Err = "kNN settings need k >= 1 and a finite p; got k=" +
             std::to_string(Knn.K) + ", p=" + std::to_string(Knn.P);
    return false;
  }
  if (IsKnn && !Index->isCompact(Err))
    return false;
  W.beginChunk("tuni");
  std::map<TypeRef, int> TypeIds = U.save(W);
  W.endChunk();

  Model->save(W, TypeIds);

  W.beginChunk("pred");
  W.writeU8(IsKnn ? 1 : 0);
  W.writeI32(Knn.K);
  W.writeF64(Knn.P);
  // Historically the UseAnnoy bool; the index-kind encoding keeps 0 =
  // exact, so exact artifacts are byte-identical. A kNN predictor always
  // has its kind by now. A classifier has none and writes the byte its
  // artifacts always carried (the old default, Annoy), which the loader
  // ignores for classifiers.
  W.writeU8(Knn.Index ? static_cast<uint8_t>(*Knn.Index)
                      : kLegacyAnnoyIndexByte);
  W.endChunk();

  if (IsKnn) {
    // The chunk tag encodes the marker store, so a reader knows the
    // payload layout before parsing it: "tmap" is the unchanged f32
    // stream, "tm16"/"tmq8" the version-2 quantized forms.
    W.beginChunk(Map->store() == MarkerStore::F32   ? "tmap"
                 : Map->store() == MarkerStore::F16 ? "tm16"
                                                    : "tmq8");
    Map->save(W, TypeIds);
    W.endChunk();
    // The built index ships with the markers, so serving processes skip
    // the rebuild entirely.
    if (const char *Tag = Index->snapshotTag()) {
      W.beginChunk(Tag);
      Index->save(W);
      W.endChunk();
    }
  }
  return true;
}

uint32_t Predictor::artifactVersion() const {
  if (!IsKnn)
    return 1;
  return std::max(Map->store() != MarkerStore::F32 ? 2u : 1u,
                  Index->snapshotVersion());
}

bool Predictor::save(const std::string &Path, const TypeUniverse &U,
                     std::string *Err) const {
  ArchiveWriter W(artifactVersion());
  return writeArtifact(W, U, Err) && W.writeFile(Path, Err);
}

std::unique_ptr<Predictor> Predictor::load(const ArchiveReader &R,
                                           std::string *Err) {
  // Inner loaders never overwrite an already-set error, so the first —
  // most specific — failure is the one reported. Start from a clean slate.
  if (Err)
    Err->clear();
  if (R.formatVersion() < kModelArtifactVersionMin ||
      R.formatVersion() > kModelArtifactVersion) {
    if (Err)
      *Err = "artifact format version " + std::to_string(R.formatVersion()) +
             "; this build reads versions " +
             std::to_string(kModelArtifactVersionMin) + ".." +
             std::to_string(kModelArtifactVersion);
    return nullptr;
  }

  std::unique_ptr<Predictor> P(new Predictor());
  P->OwnedU = std::make_unique<TypeUniverse>();
  std::vector<TypeRef> ById;
  ArchiveCursor UC = R.chunk("tuni", Err);
  if (!P->OwnedU->load(UC, ById, Err))
    return nullptr;

  P->OwnedModel = TypeModel::load(R, ById, Err);
  if (!P->OwnedModel)
    return nullptr;
  P->Model = P->OwnedModel.get();

  ArchiveCursor MC = R.chunk("pred", Err);
  uint8_t Kind = MC.readU8();
  P->Knn.K = MC.readI32();
  P->Knn.P = MC.readF64();
  uint8_t IndexKind = MC.readU8();
  if (!MC.ok() || Kind > 1 || !validKnnSettings(P->Knn) ||
      IndexKind > static_cast<uint8_t>(KnnIndexKind::Hnsw)) {
    if (Err && Err->empty())
      *Err = "malformed predictor chunk";
    return nullptr;
  }
  // Kind byte 1 is a legacy Annoy artifact: its anny chunk is skipped and
  // the index is left for the size rule to pick once the τmap is in.
  if (IndexKind != kLegacyAnnoyIndexByte)
    P->Knn.Index = static_cast<KnnIndexKind>(IndexKind);
  P->IsKnn = Kind == 1;
  if (!P->IsKnn)
    return P;

  P->Map = std::make_unique<TypeMap>(P->Model->config().HiddenDim);
  // Exactly one τmap chunk is present; its tag names the store. Probing
  // for the quantized tags first keeps the common f32 miss cheap and
  // makes the "missing chunk" error name the canonical tag.
  MarkerStore Store = MarkerStore::F32;
  const char *Tag = "tmap";
  if (R.hasChunk("tm16")) {
    Store = MarkerStore::F16;
    Tag = "tm16";
  } else if (R.hasChunk("tmq8")) {
    Store = MarkerStore::Int8;
    Tag = "tmq8";
  }
  ArchiveCursor TC = R.chunk(Tag, Err);
  if (!P->Map->load(TC, ById, Err, Store))
    return nullptr;
  P->Knn.Store = P->Map->store();
  if (P->Map->dim() != P->Model->config().HiddenDim) {
    if (Err)
      *Err = "type-map dimensionality does not match the model";
    return nullptr;
  }
  if (!P->Knn.Index) {
    P->rebuildIndex();
    return P;
  }
  P->Index = loadKnnIndex(*P->Knn.Index, R, *P->Map, Err);
  if (!P->Index)
    return nullptr;
  return P;
}

std::unique_ptr<Predictor> Predictor::load(const std::string &Path,
                                           std::string *Err) {
  ArchiveReader R;
  if (!R.openFile(Path, Err))
    return nullptr;
  return load(R, Err);
}

//===----------------------------------------------------------------------===//
// Prediction
//===----------------------------------------------------------------------===//

void Predictor::rebuildIndex() {
  // The size rule runs once, at the first build; every later rebuild
  // keeps the kind it chose.
  if (!Knn.Index)
    Knn.Index = defaultKnnIndexKind(Map->size());
  Index = buildKnnIndex(*Knn.Index, *Map, Knn.NumThreads);
}

void Predictor::setKnnOptions(const KnnOptions &O) {
  // EfSearch is a query-time knob; only a forced *kind* change rebuilds.
  // Leaving the kind unset keeps the one the predictor already has.
  std::optional<KnnIndexKind> Kind = O.Index ? O.Index : Knn.Index;
  bool NeedRebuild = Kind != Knn.Index;
  Knn = O;
  Knn.Index = Kind;
  if (NeedRebuild && IsKnn)
    rebuildIndex();
}

bool Predictor::setMarkerStore(MarkerStore S, std::string *Err) {
  if (!IsKnn || !Map) {
    if (Err)
      *Err = "marker storage formats apply to kNN predictors only";
    return false;
  }
  if (Map->store() == S)
    return true;
  if (Map->store() != MarkerStore::F32) {
    if (Err)
      *Err = std::string("cannot requantize a ") +
             markerStoreName(Map->store()) + " type map to " +
             markerStoreName(S) +
             "; quantization is one-way (start from the f32 artifact)";
    return false;
  }
  Map->quantize(S);
  Knn.Store = S;
  rebuildIndex();
  return true;
}

void Predictor::addMarker(const float *Embedding, TypeRef T) {
  assert(IsKnn && "markers only apply to kNN predictors");
  // No index rebuild: rows appended after the index was built are
  // answered by its exact delta scan until the next compaction (or
  // explicit rebuild) folds them in.
  Map->add(Embedding, T);
}

/// Copies the stable identity of target \p T (index \p I of \p File's
/// Targets) into \p R — everything downstream consumers need once the
/// dataset is gone.
static void fillIdentity(PredictionResult &R, const FileExample &File,
                         const Target &T, size_t I) {
  R.FilePath = File.Path;
  R.TargetIdx = static_cast<int>(I);
  R.NodeIdx = T.NodeIdx;
  R.SymbolId = T.NodeIdx >= 0 &&
                       static_cast<size_t>(T.NodeIdx) < File.Graph.Nodes.size()
                   ? File.Graph.Nodes[static_cast<size_t>(T.NodeIdx)].SymbolId
                   : -1;
  R.SymbolName = T.Name;
  R.Kind = T.Kind;
  R.Truth = T.Type;
}

std::vector<PredictionResult> Predictor::predictFile(const FileExample &File) {
  return std::move(predictBatch({&File}).front());
}

std::vector<SourcePrediction>
Predictor::predictSources(const std::vector<CorpusFile> &Files,
                          PredictTiming *Timing) {
  TypeUniverse *U = universe();
  if (!U)
    throw std::runtime_error(
        "predictSource needs a type universe: load an artifact or call "
        "setUniverse first");
  // buildExample in two halves: parse and graph build touch no shared
  // state, so only the interning of annotation types holds the lock.
  std::vector<SourcePrediction> Out(Files.size());
  std::vector<FileExample> Examples;
  std::vector<size_t> Parsed; // Files index of each example
  Examples.reserve(Files.size());
  for (size_t I = 0; I != Files.size(); ++I) {
    try {
      Examples.push_back(parseExample(Files[I], {}));
      Parsed.push_back(I);
    } catch (const std::runtime_error &E) {
      Out[I].Err = E.what();
    }
  }
  {
    std::lock_guard<std::mutex> L(InternMu.M);
    for (FileExample &E : Examples)
      resolveTargets(E, *U);
  }
  std::vector<const FileExample *> Ptrs;
  Ptrs.reserve(Examples.size());
  for (const FileExample &E : Examples)
    Ptrs.push_back(&E);
  std::vector<std::vector<PredictionResult>> Preds = predictBatch(Ptrs, Timing);
  for (size_t K = 0; K != Parsed.size(); ++K)
    Out[Parsed[K]].Preds = std::move(Preds[K]);
  return Out;
}

std::vector<PredictionResult>
Predictor::predictSource(const std::string &Path, const std::string &Source) {
  SourcePrediction R =
      std::move(predictSources({CorpusFile{Path, Source}}).front());
  if (!R.Err.empty())
    throw std::runtime_error(R.Err);
  return std::move(R.Preds);
}

std::vector<PredictionResult>
Predictor::annotateIncremental(const std::string &Path,
                               const std::string &Source) {
  assert(IsKnn && "the incremental loop is a kNN-predictor feature");
  TypeUniverse *U = universe();
  if (!U)
    throw std::runtime_error(
        "annotateIncremental needs a type universe: load an artifact or "
        "call setUniverse first");
  // 1. Parse first: a file buildExample rejects (nested too deep) throws
  //    here and leaves the τmap as it was.
  FileExample Ex = buildExample(CorpusFile{Path, Source}, *U, {});
  // 2. Retire the file's previous markers: its own stale rows must never
  //    answer its queries (and a single-file session's digest therefore
  //    matches predictSource over the untouched artifact — CI pins this).
  //    Then embed only this file — exactly one encoder pass, which
  //    embedCalls() lets tests pin — and answer its targets through
  //    predictBatch's kNN path, against the updated index.
  Map->removeMarkersForFile(Path);
  std::vector<const FileExample *> Files{&Ex};
  Embedded E = embedFiles(Files);
  std::vector<PredictionResult> Out = std::move(predictKnn(Files, E).front());
  // 3. Swap in the file's current markers so other files' queries see
  //    its content. Unchanged rows resurrect their tombstones in place
  //    — the τmap is bit-identical to the pre-edit state.
  const Tensor &Emb = E.Embs.front();
  for (size_t I = 0; I != E.Targets.front().size(); ++I)
    Map->add(Emb.data() + static_cast<int64_t>(I) * Emb.cols(),
             E.Targets.front()[I]->Type, Path);
  // 4. Amortized compaction: only past the policy ratio do tombstones get
  //    dropped and the index rebuilt (over the live rows only).
  maybeCompact();
  return Out;
}

size_t Predictor::removeMarkersForFile(const std::string &Path) {
  if (!IsKnn || !Map)
    return 0;
  size_t Removed = Map->removeMarkersForFile(Path);
  if (Removed)
    maybeCompact();
  return Removed;
}

bool Predictor::compactMarkers() {
  if (!IsKnn || Index->isCompact())
    return false;
  Map->compact();
  rebuildIndex();
  return true;
}

void Predictor::maybeCompact() {
  if (Knn.CompactRatio > 0 && Map->tombstoneRatio() > Knn.CompactRatio)
    compactMarkers();
}

Predictor::Embedded
Predictor::embedFiles(const std::vector<const FileExample *> &Files) {
  // File-level data parallelism: each file goes through the exact
  // single-file embed call predictFile would make — bit-identity with
  // single-shot prediction holds by construction — and files embed
  // concurrently through the pool. (A merged multi-file batch graph was
  // measured slower here: the batched node matrix blows the cache while
  // the small per-request GEMMs were never parallel to begin with. File
  // granularity scales with cores instead.)
  size_t N = Files.size();
  Embedded E;
  E.Embs.resize(N);
  E.Targets.resize(N);
  // Inference records no autograd graph. The scope is entered here, per
  // file, because it is thread-local and this lambda runs on pool workers.
  auto EmbedOne = [&](size_t I) {
    nn::NoRecordScope NoRecord;
    nn::Value Emb = Model->embed({Files[I]}, &E.Targets[I]);
    if (Emb.defined())
      E.Embs[I] = Emb.val();
  };
  auto EmbedT0 = std::chrono::steady_clock::now();
  parallelFor(
      0, static_cast<int64_t>(N), 1,
      [&](int64_t Lo, int64_t Hi) {
        for (int64_t I = Lo; I != Hi; ++I)
          EmbedOne(static_cast<size_t>(I));
      },
      Knn.NumThreads);
  E.Micros = microsSince(EmbedT0);
  EmbedCalls.add(N);
  EmbedMicros.add(E.Micros);
  return E;
}

std::vector<std::vector<PredictionResult>>
Predictor::predictKnn(const std::vector<const FileExample *> &Files,
                      const Embedded &E, uint64_t *KnnUs) {
  // One bulk index probe for every target of every file, answered
  // through the pool against the already-loaded τmap.
  std::vector<float> Queries;
  int64_t NumQ = 0;
  for (const std::vector<const Target *> &T : E.Targets)
    NumQ += static_cast<int64_t>(T.size());
  Queries.reserve(static_cast<size_t>(NumQ * Map->dim()));
  for (const Tensor &Emb : E.Embs)
    if (Emb.numel() > 0)
      Queries.insert(Queries.end(), Emb.data(), Emb.data() + Emb.numel());
  auto KnnT0 = std::chrono::steady_clock::now();
  std::vector<NeighborList> Neigh = Index->queryBatch(
      Queries.data(), NumQ, Knn.K, Knn.EfSearch, Knn.NumThreads);
  uint64_t ProbeUs = microsSince(KnnT0);
  KnnMicros.add(ProbeUs);
  if (KnnUs)
    *KnnUs = ProbeUs;
  std::vector<std::vector<PredictionResult>> Out(Files.size());
  size_t Row = 0;
  for (size_t F = 0; F != Files.size(); ++F)
    for (size_t I = 0; I != E.Targets[F].size(); ++I) {
      PredictionResult R;
      fillIdentity(R, *Files[F], *E.Targets[F][I], I);
      R.Candidates = scoreNeighbors(*Map, Neigh[Row++], Knn.P);
      Out[F].push_back(std::move(R));
    }
  return Out;
}

std::vector<std::vector<PredictionResult>>
Predictor::predictBatch(const std::vector<const FileExample *> &Files,
                        PredictTiming *Timing) {
  Embedded E = embedFiles(Files);
  if (Timing)
    *Timing = PredictTiming{E.Micros, 0};
  if (IsKnn)
    return predictKnn(Files, E, Timing ? &Timing->KnnMicros : nullptr);

  // Classification path: per-file softmax over the closed vocabulary
  // (row results are independent, so per-file equals one stacked pass).
  std::vector<std::vector<PredictionResult>> Out(Files.size());
  const TypeIdMap &Full = Model->typeVocabs().Full;
  for (size_t F = 0; F != Files.size(); ++F) {
    if (E.Embs[F].numel() == 0)
      continue;
    Tensor Probs = Model->classProbs(nn::Value::constant(E.Embs[F]));
    for (size_t I = 0; I != E.Targets[F].size(); ++I) {
      PredictionResult R;
      fillIdentity(R, *Files[F], *E.Targets[F][I], I);
      // Keep the top few candidates for PR sweeps.
      std::vector<std::pair<float, int>> Ranked;
      for (int64_t C = 0; C != Probs.cols(); ++C)
        Ranked.emplace_back(Probs.at(static_cast<int64_t>(I), C),
                            static_cast<int>(C));
      size_t Keep = std::min<size_t>(10, Ranked.size());
      std::partial_sort(Ranked.begin(),
                        Ranked.begin() + static_cast<long>(Keep), Ranked.end(),
                        [](const auto &A, const auto &B) {
                          if (A.first != B.first)
                            return A.first > B.first;
                          return A.second < B.second;
                        });
      for (size_t C = 0; C != Keep; ++C)
        R.Candidates.push_back(
            ScoredType{Full.type(Ranked[C].second), Ranked[C].first});
      Out[F].push_back(std::move(R));
    }
  }
  return Out;
}

std::vector<PredictionResult> Predictor::predictAll(ExampleSource &Files) {
  // Chunked so a whole-corpus call does not materialize one giant batch
  // graph (and a streamed split never decodes more than a chunk's worth
  // of shards); results are identical for any chunk size.
  constexpr size_t ChunkFiles = 32;
  std::vector<PredictionResult> All;
  size_t N = Files.size();
  for (size_t Lo = 0; Lo < N; Lo += ChunkFiles) {
    size_t Hi = std::min(N, Lo + ChunkFiles);
    std::vector<ExamplePin> Pins(Hi - Lo);
    std::vector<const FileExample *> Chunk;
    Chunk.reserve(Hi - Lo);
    for (size_t I = Lo; I != Hi; ++I)
      Chunk.push_back(&Files.get(I, Pins[I - Lo]));
    for (std::vector<PredictionResult> &Part : predictBatch(Chunk))
      All.insert(All.end(), std::make_move_iterator(Part.begin()),
                 std::make_move_iterator(Part.end()));
  }
  return All;
}

std::vector<PredictionResult>
Predictor::predictAll(const std::vector<FileExample> &Files) {
  VectorExampleSource Src(Files);
  return predictAll(Src);
}

uint64_t typilus::predictionDigest(const std::vector<PredictionResult> &Preds) {
  uint64_t H = 0xCBF29CE484222325ull;
  auto Mix = [&H](const void *Data, size_t N) {
    const unsigned char *P = static_cast<const unsigned char *>(Data);
    for (size_t I = 0; I != N; ++I) {
      H ^= P[I];
      H *= 0x100000001B3ull;
    }
  };
  for (const PredictionResult &P : Preds) {
    Mix(P.FilePath.data(), P.FilePath.size());
    Mix(&P.TargetIdx, sizeof(P.TargetIdx));
    for (const ScoredType &S : P.Candidates) {
      const std::string &T = S.Type->str();
      Mix(T.data(), T.size());
      Mix(&S.Prob, sizeof(S.Prob));
    }
  }
  return H;
}
