//===- core/Predictor.h - Type prediction --------------------------*- C++ -*-===//
//
// Part of the Typilus C++ reproduction.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Inference (Fig. 1, right): embed query symbols with the trained
/// encoder, then either (a) look up the k nearest type markers in the
/// τmap and score candidates with Eq. 5 (Space / Typilus models), or
/// (b) softmax over the closed type vocabulary (the *2Class baselines).
///
/// A predictor can be built from a live model (training process) or
/// loaded from a saved artifact (serving process): `save()` snapshots the
/// type universe, model, τmap and kNN index into one versioned archive
/// and `load()` reconstitutes a self-contained predictor from it — no
/// training `Dataset` in memory, predictions bit-identical to the
/// original's.
///
/// Thread safety: predictSource, predictSources and predictBatch may be
/// called from several threads at once on one predictor (the serve
/// daemon runs up to --threads batches in flight). The encoder pass, the
/// index probe and Eq. 5 scoring only read shared state, and the one
/// shared write, interning annotation types into the universe, is
/// serialized by a lock the predictor owns. τmap mutation
/// (annotateIncremental, removeMarkersForFile, addMarker, compaction,
/// setKnnOptions, setMarkerStore) must not overlap any other call.
///
//===----------------------------------------------------------------------===//

#ifndef TYPILUS_CORE_PREDICTOR_H
#define TYPILUS_CORE_PREDICTOR_H

#include "corpus/ExampleStream.h"
#include "corpus/Generator.h"
#include "knn/TypeMap.h"
#include "models/Model.h"
#include "support/Archive.h"

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

namespace typilus {

/// Payload format version of model artifacts (the `typilus` CLI's
/// .typilus files). Bump when the meaning of any chunk changes; loaders
/// accept [kModelArtifactVersionMin, kModelArtifactVersion] and reject
/// anything else with a clear error (see docs/ARCHITECTURE.md
/// "Artifacts & versioning").
///
/// Version history:
///   1 — initial chunked format (tuni/parm-family/pred/tmap/anny).
///   2 — adds the quantized (f16, int8) τmap chunks. Writers stamp 2
///       only when such a chunk is present, so f32 artifacts remain
///       byte-identical to version-1 writers (TypeMap::snapshotVersion).
///   3 — adds the HNSW graph chunk hnsw (and index kind 2 in pred).
///       Stamped only when the chunk is present, so exact artifacts keep
///       their version-1/2 bytes.
/// Index kind 1 (the Annoy forest and its anny chunk) is no longer
/// written. Such artifacts still load: the forest is skipped and the
/// index defaultKnnIndexKind picks is built over the loaded τmap.
inline constexpr uint32_t kModelArtifactVersion = 3;
inline constexpr uint32_t kModelArtifactVersionMin = 1;

/// Candidate predictions for one target symbol. Self-contained: results
/// carry stable copies/ids (file path, target index, symbol facts)
/// rather than pointers into the dataset, so they remain valid after the
/// `FileExample`s they were predicted from are gone. The candidate
/// `TypeRef`s are owned by the universe the model predicts into; Truth by
/// the universe the example was built in.
struct PredictionResult {
  std::string FilePath;  ///< Path of the predicted file.
  int TargetIdx = -1;    ///< Index into the file's `Targets` vector.
  int NodeIdx = -1;      ///< Graph node index of the symbol supernode.
  int SymbolId = -1;     ///< Symbol-table id of that supernode (-1 none);
                         ///< lets consumers (checker gating, the LSP) map
                         ///< a prediction to a re-parsed file's symbol
                         ///< without keeping the graph around. Not part
                         ///< of predictionDigest().
  std::string SymbolName;
  SymbolKind Kind = SymbolKind::Variable;
  /// Ground-truth type (null when unknown), owned by the universe the
  /// predicted example was built in — not necessarily the predictor's.
  TypeRef Truth = nullptr;
  std::vector<ScoredType> Candidates; ///< Sorted by descending probability.

  TypeRef top() const {
    return Candidates.empty() ? nullptr : Candidates.front().Type;
  }
  double confidence() const {
    return Candidates.empty() ? 0 : Candidates.front().Prob;
  }
};

/// Where one prediction call's time went: its own encoder and index-probe
/// wall time, unaffected by other calls running at the same time (unlike
/// the predictor-wide embedMicros()/knnMicros() totals). Observability
/// only.
struct PredictTiming {
  uint64_t EmbedMicros = 0;
  uint64_t KnnMicros = 0;
};

/// One file's outcome from Predictor::predictSources: its predictions, or
/// the diagnostic of the parser that rejected it.
struct SourcePrediction {
  std::vector<PredictionResult> Preds;
  std::string Err; ///< Empty unless the file was rejected.
};

/// kNN settings for the type-map predictor (Eq. 5).
struct KnnOptions {
  int K = 10;
  double P = 1.0;      ///< Distance-weighting temperature.
  /// Index structure answering the kNN probes: the blocked exact scan or
  /// the deterministic HNSW graph (see the index matrix in
  /// docs/ARCHITECTURE.md "Index layer"). Unset, the predictor's first
  /// index build picks by τmap size (defaultKnnIndexKind) and records the
  /// choice here; later rebuilds (compaction, requantization) keep it, so
  /// a session never switches kind.
  std::optional<KnnIndexKind> Index;
  /// HNSW per-request query-time budget: layer-0 beam width, i.e. how
  /// many candidates one request may inspect (<= 0 = the index default,
  /// max(4·K, 64)). Larger = better recall, more latency. Ignored by the
  /// other index kinds.
  int EfSearch = 0;
  /// Caps the ways of parallelism used for τmap construction and query
  /// batches (0 = no cap, i.e. the full process-wide pool; 1 = fully
  /// serial). The pool itself is sized by setGlobalNumThreads /
  /// TrainOptions::NumThreads. Results are identical for any value.
  int NumThreads = 0;
  /// Marker storage format. Applied once by Predictor::knn after the map
  /// is filled (subsample, then quantize, then build the index); after
  /// that a kNN predictor's knnOptions() always reports its τmap's store.
  /// setKnnOptions leaves the store alone — setMarkerStore converts it.
  MarkerStore Store = MarkerStore::F32;
  /// Caps the τmap at this many markers via coreset subsampling before
  /// quantization (0 = keep every marker).
  size_t MaxMarkers = 0;
  /// Editor-loop compaction policy: once more than this fraction of the
  /// τmap's rows are tombstones (markers retired by annotateIncremental /
  /// removeMarkersForFile), the map is compacted and the index rebuilt
  /// over the live rows. Below the threshold mutation never touches the
  /// index — removals are tombstones the queries skip, additions are
  /// covered by an exact delta scan. <= 0 disables automatic compaction.
  double CompactRatio = 0.25;
};

/// The kNN settings an artifact may carry: K >= 1 and a finite P.
/// writeArtifact refuses anything else and load rejects it, so every
/// artifact that saves also loads.
bool validKnnSettings(const KnnOptions &O);

/// Inference engine for one trained model.
class Predictor {
public:
  /// kNN predictor: seeds the τmap with the markers of \p MapFiles
  /// (the paper uses train+valid annotations). The stream form fills the
  /// τmap one residency-bounded window at a time — embedding each window
  /// data-parallel, appending markers in file order — so construction
  /// RAM is bounded by shard residency, not the corpus; the map is
  /// pre-sized from the stream's target metadata. Marker layout (and
  /// every downstream prediction) is bit-identical to the historical
  /// all-at-once fill for any window size and thread count.
  static Predictor knn(TypeModel &Model, ExampleSource &MapFiles,
                       const KnnOptions &Opts = {});
  static Predictor knn(TypeModel &Model,
                       const std::vector<const FileExample *> &MapFiles,
                       const KnnOptions &Opts = {});

  /// Closed-vocabulary classification predictor.
  static Predictor classifier(TypeModel &Model);

  /// Loads an artifact written by save() into a self-contained predictor
  /// that owns its own `TypeUniverse` and `TypeModel` — the serve-many
  /// path: any number of processes can load the same file and predict
  /// without the training corpus. \returns null and sets \p Err on
  /// corrupt, truncated or version-mismatched artifacts.
  static std::unique_ptr<Predictor> load(const std::string &Path,
                                         std::string *Err);
  /// Same, over an already-opened archive (lets callers read extra
  /// chunks of their own, as the CLI does with its corpus recipe).
  static std::unique_ptr<Predictor> load(const ArchiveReader &R,
                                         std::string *Err);

  /// The payload format version save() stamps for *this* predictor: the
  /// lowest that carries every chunk it writes (the τmap's and the
  /// index's snapshotVersion; 1 for a classifier), so f32 exact artifacts
  /// stay byte-identical to what version-1 writers produced (the CI
  /// digest-equality checks pin exactly this).
  uint32_t artifactVersion() const;

  /// Writes the complete serving artifact to \p Path. \p U must be the
  /// universe the model's (and τmap's) types were interned in. A kNN
  /// predictor must be compact — no tombstones, no rows appended since
  /// the index was built — or save fails and \p Err says to call
  /// compactMarkers() first.
  bool save(const std::string &Path, const TypeUniverse &U,
            std::string *Err) const;
  /// Chunk-level variant of save() for callers composing an archive with
  /// extra chunks of their own; same contract.
  bool writeArtifact(ArchiveWriter &W, const TypeUniverse &U,
                     std::string *Err = nullptr) const;

  /// Predicts candidates for every target of \p File.
  std::vector<PredictionResult> predictFile(const FileExample &File);

  /// The one in-memory-source entry point: parses \p Source through
  /// pyfront/, builds the graph against universe(), and predicts — the
  /// CLI's `predict --source`, the serve daemon and the LSP all route
  /// through this, so their digests agree by construction. Requires a
  /// universe (loaded predictors own one; live-model predictors get one
  /// via setUniverse). A file buildExample rejects (nesting deeper than
  /// MaxNestingDepth) throws std::runtime_error with its diagnostic.
  std::vector<PredictionResult> predictSource(const std::string &Path,
                                              const std::string &Source);
  /// Batched predictSource: builds every example, then answers all of
  /// them through one predictBatch call (the daemon's coalesced path).
  /// Parse and graph build run unlocked; only the universe interning
  /// holds the predictor's lock. A file buildExample rejects does not
  /// throw: its diagnostic is its own outcome and the rest still
  /// predict. \returns per-file outcomes, index-aligned with \p Files;
  /// \p Timing (optional) receives this call's embed/probe split.
  std::vector<SourcePrediction>
  predictSources(const std::vector<CorpusFile> &Files,
                 PredictTiming *Timing = nullptr);

  /// The editor loop (one didChange): tombstones \p Path's τmap markers,
  /// re-parses and re-embeds *only this file* (exactly one encoder pass —
  /// embedCalls() observability), answers its targets through the same
  /// query kernel predictBatch uses against the updated index, then
  /// re-adds the file's markers tagged with \p Path. Re-adding unchanged
  /// content resurrects the tombstoned rows in place, so the τmap — and
  /// every subsequent prediction — is bit-identical to the pre-edit
  /// state. Applies the CompactRatio policy afterwards.
  std::vector<PredictionResult>
  annotateIncremental(const std::string &Path, const std::string &Source);

  /// Tombstones \p Path's markers (the LSP's didClose) and applies the
  /// compaction policy. \returns the number of markers retired.
  size_t removeMarkersForFile(const std::string &Path);
  /// Drops tombstoned rows and rebuilds the index over every live marker,
  /// folding in rows appended since the last build; no-op when there are
  /// neither. \returns true when work was done.
  bool compactMarkers();

  /// The batched serving entry point: every file goes through the exact
  /// single-file encoder pass predictFile would make — data-parallel
  /// across files on the thread pool when the encoder allows it — and
  /// all targets of all files are answered through one bulk kNN probe
  /// against the already-loaded τmap, with no per-request setup.
  /// \returns per-file results, index-aligned with \p Files,
  /// bit-identical to calling predictFile on each file by construction
  /// (tests/ServeTest.cpp pins this, incl. the classifier path).
  /// \p Timing (optional) receives this call's embed/probe split.
  std::vector<std::vector<PredictionResult>>
  predictBatch(const std::vector<const FileExample *> &Files,
               PredictTiming *Timing = nullptr);

  /// Convenience: predicts over a whole split (through predictBatch, in
  /// bounded chunks — a streamed split decodes at most a window of
  /// shards at a time).
  std::vector<PredictionResult> predictAll(ExampleSource &Files);
  std::vector<PredictionResult>
  predictAll(const std::vector<FileExample> &Files);

  /// Adds a marker to the τmap without retraining — the open-vocabulary
  /// adaptation of Sec. 4.2. The row is appended without rebuilding the
  /// index; queries cover it through the exact delta scan until the next
  /// compaction or rebuild.
  void addMarker(const float *Embedding, TypeRef T);

  bool isKnn() const { return IsKnn; }
  TypeModel &model() { return *Model; }
  /// The universe predictions are interned in: the one a loaded predictor
  /// owns, else whatever setUniverse provided (null for a live-model
  /// predictor that was never given one).
  TypeUniverse *universe() { return OwnedU ? OwnedU.get() : ExternU; }
  /// Points a live-model predictor at the caller-owned universe its types
  /// were interned in, enabling predictSource/annotateIncremental.
  void setUniverse(TypeUniverse &U) { ExternU = &U; }
  /// Encoder passes made so far (one per embedded file) — lets tests pin
  /// that the incremental path re-embeds exactly one file per edit.
  uint64_t embedCalls() const { return EmbedCalls.load(); }
  /// Cumulative wall time spent in encoder passes (the τmap fill
  /// included) / in kNN index probes, summed over every call (for one
  /// call's own split see PredictTiming).
  /// Observability only: timing never influences results. Safe to read
  /// while another thread predicts.
  uint64_t embedMicros() const { return EmbedMicros.load(); }
  uint64_t knnMicros() const { return KnnMicros.load(); }
  const TypeMap &typeMap() const { return *Map; }
  /// The index answering τmap queries (null for classifier predictors).
  const KnnIndex *knnIndex() const { return Index.get(); }
  const KnnOptions &knnOptions() const { return Knn; }
  void setKnnOptions(const KnnOptions &O);

  /// Quantizes the τmap to \p S and rebuilds the index — the CLI's
  /// `save --tmap-store` path: requantize an f32 artifact without
  /// retraining. No-op when already stored as \p S. \returns false and
  /// sets \p Err for non-kNN predictors or a map already quantized to a
  /// different store (quantization is one-way; start from the f32
  /// artifact).
  bool setMarkerStore(MarkerStore S, std::string *Err);

private:
  explicit Predictor(TypeModel &Model) : Model(&Model) {}
  Predictor() = default;
  void rebuildIndex();
  /// Per-file encoder outputs: target embeddings (one row per target) and
  /// the targets themselves, index-aligned with the embedded files.
  struct Embedded {
    std::vector<Tensor> Embs;
    std::vector<std::vector<const Target *>> Targets;
    uint64_t Micros = 0; ///< This pass's wall time.
  };
  /// One encoder pass per file — data-parallel when the encoder allows
  /// it — counted in embedCalls()/embedMicros().
  Embedded embedFiles(const std::vector<const FileExample *> &Files);
  /// The kNN prediction path predictBatch and annotateIncremental share:
  /// one bulk index probe for every target (timed into knnMicros() and
  /// \p KnnUs), then Eq. 5 scoring. \returns per-file results,
  /// index-aligned with \p Files.
  std::vector<std::vector<PredictionResult>>
  predictKnn(const std::vector<const FileExample *> &Files,
             const Embedded &E, uint64_t *KnnUs = nullptr);
  /// Applies KnnOptions::CompactRatio (compact + rebuild when exceeded).
  void maybeCompact();

  // Declared first so loaded models/maps (whose TypeRefs point into it)
  // are destroyed before the universe goes away.
  std::unique_ptr<TypeUniverse> OwnedU;
  std::unique_ptr<TypeModel> OwnedModel;
  TypeUniverse *ExternU = nullptr;
  TypeModel *Model = nullptr;
  bool IsKnn = false;
  KnnOptions Knn;
  std::unique_ptr<TypeMap> Map;
  std::unique_ptr<KnnIndex> Index;

  /// An observability counter: relaxed atomic adds and loads, so a
  /// reader on another thread (the serve dispatcher's stats) never races
  /// a prediction. Moves with its predictor.
  class Counter {
  public:
    Counter() = default;
    Counter(Counter &&O) noexcept : V(O.load()) {}
    Counter &operator=(Counter &&O) noexcept {
      V.store(O.load(), std::memory_order_relaxed);
      return *this;
    }
    void add(uint64_t N) { V.fetch_add(N, std::memory_order_relaxed); }
    uint64_t load() const { return V.load(std::memory_order_relaxed); }

  private:
    std::atomic<uint64_t> V{0};
  };
  Counter EmbedCalls;
  Counter EmbedMicros;
  Counter KnnMicros;

  /// Serializes predictSources' universe interning across threads. A
  /// moved-to predictor gets a fresh mutex: predictors move only before
  /// they serve.
  struct InternMutex {
    InternMutex() = default;
    InternMutex(InternMutex &&) noexcept {}
    InternMutex &operator=(InternMutex &&) noexcept { return *this; }
    std::mutex M;
  };
  InternMutex InternMu;
};

/// FNV-1a over the full prediction set: file paths, target indexes, and
/// every candidate's type spelling + probability *bit pattern*.
/// Predictions are bit-identical across processes and thread counts, so
/// so is the digest — the CLI, the serving daemon and CI all compare
/// serving paths through this one function.
uint64_t predictionDigest(const std::vector<PredictionResult> &Preds);

} // namespace typilus

#endif // TYPILUS_CORE_PREDICTOR_H
