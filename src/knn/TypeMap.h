//===- knn/TypeMap.h - The τmap: type markers in the TypeSpace ----*- C++ -*-===//
//
// Part of the Typilus C++ reproduction.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The adaptive type map of Sec. 4.2: a store of (type embedding, type)
/// markers. Predictions are kNN lookups scored by Eq. 5. Because the map is
/// data, not model weights, previously unseen types can be added without
/// retraining — the key open-vocabulary property of Typilus.
///
/// Markers live in one of three storage formats (τmap compaction): exact
/// f32, IEEE binary16 (half the bytes, ~1e-3 relative rounding), or int8
/// with one f32 scale per marker (quarter the bytes). Distances dispatch
/// through the runtime SIMD kernel table (nn/Simd.h), which scans f16 and
/// int8 rows without materialising a decoded copy. `quantize` converts a
/// freshly built f32 map; `subsampleCoreset` bounds the marker count first
/// while keeping every type represented.
///
/// The two indexes (exact scan, HNSW graph) share one KnnIndex interface:
/// a `queryBatch` that also answers rows appended since the build, and one
/// snapshot/save contract. Unless a caller forces a kind, the τmap's size
/// picks it (defaultKnnIndexKind). Graph construction and bulk queries
/// dispatch through the process-wide ThreadPool; `queryBatch` answers many
/// queries concurrently.
///
/// The map is also *mutable* for the editor loop: markers may carry a file
/// tag, `removeMarkersForFile` tombstones a file's rows in place (queries
/// skip them), and re-adding an identical row resurrects the tombstone
/// rather than appending — so remove→re-add of unchanged content restores
/// the exact marker layout and every downstream prediction bit. `compact`
/// drops the dead rows (preserving live order) once the tombstone ratio
/// warrants paying for an index rebuild. Tags and tombstones are in-memory
/// session state only: they are never serialized, and `save` requires a
/// compacted map, so artifact bytes are unchanged by this machinery.
///
//===----------------------------------------------------------------------===//

#ifndef TYPILUS_KNN_TYPEMAP_H
#define TYPILUS_KNN_TYPEMAP_H

#include "support/Archive.h"
#include "support/Rng.h"
#include "typesys/Type.h"

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

namespace typilus {

/// How marker embeddings are stored. F32 is the exact representation the
/// trainer produces; F16 and Int8 (one f32 scale per marker) trade
/// per-coordinate precision for 2x/4x smaller artifacts and faster scans.
/// The numeric values are the serialized artifact encoding — append only.
enum class MarkerStore : uint8_t { F32 = 0, F16 = 1, Int8 = 2 };

/// "f32" | "f16" | "int8" (CLI flags, `inspect` output, bench labels).
const char *markerStoreName(MarkerStore S);
/// Parses markerStoreName()'s strings; \returns false on anything else.
bool parseMarkerStore(std::string_view Name, MarkerStore *Out);

/// Which index answers τmap queries. The numeric values are the
/// serialized pred-chunk encoding (the byte that historically held the
/// UseAnnoy bool, so exact artifacts keep identical bytes) — append only.
/// Value 1 was the Annoy forest and stays reserved: Predictor::load reads
/// it as "no kind recorded" and lets defaultKnnIndexKind pick one.
enum class KnnIndexKind : uint8_t { Exact = 0, Hnsw = 2 };

/// "exact" | "hnsw" (CLI flags, `inspect` output, bench labels).
const char *knnIndexName(KnnIndexKind K);
/// Parses knnIndexName()'s strings; \returns false on anything else.
bool parseKnnIndexKind(std::string_view Name, KnnIndexKind *Out);

/// The τmap size from which the default index is the HNSW graph; smaller
/// maps get the exact scan. Set by the batched exact-vs-HNSW sweep of
/// bench/knn_query (docs/ARCHITECTURE.md "Index layer").
inline constexpr size_t kHnswMinMarkers = 10000;

/// The index kind for a τmap of \p Markers rows when the caller forces
/// none: exact below kHnswMinMarkers, HNSW from there on.
inline KnnIndexKind defaultKnnIndexKind(size_t Markers) {
  return Markers < kHnswMinMarkers ? KnnIndexKind::Exact : KnnIndexKind::Hnsw;
}

/// A store of D-dimensional type markers.
class TypeMap {
public:
  explicit TypeMap(int Dim) : D(Dim) {}

  /// Pre-allocates room for \p TotalMarkers markers *in total* (bulk
  /// fills). Total, not incremental: calling it twice with the same bound
  /// is idempotent instead of doubling the reservation.
  void reserve(size_t TotalMarkers) {
    size_t Coords = TotalMarkers * static_cast<size_t>(D);
    switch (Store) {
    case MarkerStore::F32:
      Flat.reserve(Coords);
      break;
    case MarkerStore::F16:
      FlatF16.reserve(Coords);
      break;
    case MarkerStore::Int8:
      FlatI8.reserve(Coords);
      Scales.reserve(TotalMarkers);
      break;
    }
    Types.reserve(TotalMarkers);
    FileOf.reserve(TotalMarkers);
    Dead.reserve(TotalMarkers);
  }

  /// Markers the current reservation can hold (reserve() observability).
  size_t reservedMarkers() const { return Types.capacity(); }

  /// Adds a marker for \p T at \p Embedding (length D, f32; quantized
  /// stores encode it on the way in) — unless an identical stored
  /// (embedding, type) marker already exists, in which case the duplicate
  /// is dropped: it could never change a kNN answer's type mix, only
  /// crowd real neighbours out of the candidate list (the first step of
  /// τmap compaction; duplicates are common because generated and copied
  /// code embeds identically). On quantized stores the comparison is over
  /// the *encoded* row, so markers that collide after rounding also
  /// collapse. \returns true when the marker was actually added.
  bool add(const float *Embedding, TypeRef T);

  /// Like add(), but tags the marker as owned by \p FileTag so it can be
  /// tombstoned later via removeMarkersForFile(). Ownership is
  /// first-writer: a row deduplicated against an existing live marker
  /// keeps its original tag (or stays untagged). When the identical row
  /// exists but is *tombstoned*, the tombstone is cleared in place and the
  /// row re-tagged to \p FileTag — the marker layout, order and bytes are
  /// exactly what they were before the removal, which is what makes
  /// remove→re-add of unchanged content bit-identical end to end.
  bool add(const float *Embedding, TypeRef T, std::string_view FileTag);

  /// Duplicates dropped by add() so far (compaction observability).
  size_t droppedDuplicates() const { return Dropped; }

  /// Tombstones every live marker tagged \p FileTag. Tombstoned rows keep
  /// their storage (indices stay stable; queries skip them) until
  /// compact(). \returns the number of rows tombstoned.
  size_t removeMarkersForFile(std::string_view FileTag);

  /// Live marker rows tagged \p FileTag, ascending.
  std::vector<int> markersForFile(std::string_view FileTag) const;

  /// File tag of marker \p I; empty when untagged.
  std::string_view fileTag(size_t I) const;

  /// False iff marker \p I is tombstoned.
  bool isLive(size_t I) const { return !Dead[I]; }
  /// Markers that are not tombstoned (size() counts tombstones too).
  size_t liveSize() const { return Types.size() - NumDead; }
  /// Tombstoned rows currently held (compaction-policy observability).
  size_t deadMarkers() const { return NumDead; }
  /// Fraction of rows that are tombstones (0 for an empty map).
  double tombstoneRatio() const {
    return Types.empty()
               ? 0.0
               : static_cast<double>(NumDead) /
                     static_cast<double>(Types.size());
  }

  /// Drops tombstoned rows, preserving live-marker order. Indices shift,
  /// so any index built over the map must be rebuilt afterwards. \returns
  /// true when rows were actually dropped. A tombstone-free compacted map
  /// is byte-identical to one built fresh from the same live rows.
  bool compact();

  size_t size() const { return Types.size(); }
  int dim() const { return D; }
  MarkerStore store() const { return Store; }
  /// Bytes held by the marker coordinate arrays (artifact sizing).
  size_t storageBytes() const {
    return Flat.size() * 4 + FlatF16.size() * 2 + FlatI8.size() +
           Scales.size() * 4;
  }

  /// Direct row access — F32 store only (the trainer-side fast path).
  const float *embedding(size_t I) const {
    return Flat.data() + I * static_cast<size_t>(D);
  }
  /// Raw store arrays for index inner loops: the blocked scan hoists the
  /// per-row store dispatch out of its tile bodies and feeds these
  /// directly to the SIMD kernel table. Only the array matching store()
  /// is populated; the others are empty.
  const float *rawF32() const { return Flat.data(); }
  const uint16_t *rawF16() const { return FlatF16.data(); }
  const int8_t *rawI8() const { return FlatI8.data(); }
  const float *rawI8Scales() const { return Scales.data(); }
  /// Coordinate \p Dim of marker \p I, decoded from whatever store holds
  /// it.
  float coord(size_t I, int Dim) const;
  /// Decodes marker \p I into \p Out (length D).
  void decodeEmbedding(size_t I, float *Out) const;
  /// L1 distance from f32 query \p Q to marker \p I, computed over the
  /// stored representation by the active SIMD kernel table — quantized
  /// rows are never materialised as f32.
  float l1DistanceTo(const float *Q, size_t I) const;
  TypeRef type(size_t I) const { return Types[I]; }

  /// Converts an F32 map to \p NewStore in place (no-op when already
  /// there). Quantization is a one-way, whole-map step taken after the
  /// map is filled and subsampled, before the index is built; the f16
  /// encoder is the software round-to-nearest-even path, so the encoded
  /// bytes are host-independent.
  void quantize(MarkerStore NewStore);

  /// Caps the map at \p MaxMarkers markers (F32 store only; a no-op when
  /// already within the bound or \p MaxMarkers is 0 = unlimited). Budget
  /// is split over the types present — every type keeps at least one
  /// marker while the budget allows, extra slots go proportionally to
  /// marker-rich types — and within a type markers are chosen by greedy
  /// k-center (farthest-point) under L1, so the survivors spread over the
  /// type's region of the TypeSpace instead of clumping. Deterministic:
  /// types are processed in first-occurrence order and survivors keep
  /// their relative order. \returns the new size.
  size_t subsampleCoreset(size_t MaxMarkers);

  /// Appends dim + every marker (stored-format coordinates, dense
  /// type-table index) to the open chunk. The payload layout follows
  /// store(): f32 maps write exactly the historical byte stream. File
  /// tags and tombstones are session state and are never written —
  /// compact() first; saving a map with tombstones is a programming error.
  void save(ArchiveWriter &W, const std::map<TypeRef, int> &TypeIds) const;
  /// Replaces *this with a snapshot written by save(); \p ById is the
  /// loaded type table and \p S the store the snapshot was written with
  /// (the caller knows it from the chunk tag).
  bool load(ArchiveCursor &C, const std::vector<TypeRef> &ById,
            std::string *Err, MarkerStore S = MarkerStore::F32);

private:
  /// Marker indices by stored-row-bytes+type hash; collisions resolved by
  /// full comparison in add(). Built lazily: a loaded snapshot leaves it
  /// stale (serving processes never insert, so they never pay for it)
  /// and the first add() after load re-keys it over the loaded markers.
  std::unordered_map<uint64_t, std::vector<int>> DedupIndex;
  bool DedupIndexStale = false;

  /// FNV-1a over a stored row's bytes (plus the int8 scale) mixed with
  /// the interned type pointer (stable within a process, which is all
  /// the index needs).
  uint64_t rowHash(const void *Row, size_t NumBytes, float Scale,
                   TypeRef T) const;
  uint64_t storedHash(size_t I) const;
  void rebuildDedupIndex();

  /// Encodes one f32 row for the Int8 store; \returns the row's scale.
  float encodeI8Row(const float *Src, int8_t *Dst) const;

  /// Interns \p FileTag into FileTags/FileIdOf; -1 for an empty tag.
  int fileIdFor(std::string_view FileTag);
  /// Registers live row \p I under file id \p FileId (sorted insert).
  void tagRow(size_t I, int FileId);

  int D;
  MarkerStore Store = MarkerStore::F32;
  std::vector<float> Flat;        ///< F32 store: D coords per marker.
  std::vector<uint16_t> FlatF16;  ///< F16 store: binary16 bit patterns.
  std::vector<int8_t> FlatI8;     ///< Int8 store: D codes per marker.
  std::vector<float> Scales;      ///< Int8 store: one scale per marker.
  std::vector<TypeRef> Types;
  std::vector<int32_t> FileOf;    ///< Owning file id per marker; -1 none.
  std::vector<char> Dead;         ///< 1 = tombstoned (queries skip it).
  size_t NumDead = 0;
  std::vector<std::string> FileTags;            ///< Interned tag strings.
  std::unordered_map<std::string, int> FileIdOf;
  /// Live rows per file id, ascending (removeMarkersForFile's worklist).
  std::unordered_map<int, std::vector<int>> RowsOfFile;
  size_t Dropped = 0;
};

/// (marker index, L1 distance) pairs, ascending by distance.
using NeighborList = std::vector<std::pair<int, float>>;

/// A scored candidate type.
struct ScoredType {
  TypeRef Type = nullptr;
  double Prob = 0;
};

/// Eq. 5: P(s : τ) = (1/Z) Σ_i I(τ_i = τ) d_i^{-p} over the neighbours.
/// Returns candidates sorted by descending probability. Single pass over
/// the neighbour list, accumulating into a small flat map (k is ~10, the
/// distinct-type count smaller still).
std::vector<ScoredType> scoreNeighbors(const TypeMap &Map,
                                       const NeighborList &Neighbors,
                                       double P);

/// The one interface every τmap index speaks. An index covers the rows
/// the map held when it was built (or loaded): [0, indexedMarkers()).
/// Rows appended afterwards — the *delta* — are answered by queryBatch
/// itself: a blocked exact scan of [indexedMarkers(), size()) merged with
/// the index's top-K under the (distance, index) order. That order is
/// total, so the top-K of the two sorted top-K lists is the top-K of their
/// union, and folding the delta into a rebuilt index changes no bits.
/// Tombstoned rows never surface, on either side of the boundary.
class KnnIndex {
public:
  virtual ~KnnIndex() = default;
  KnnIndex(const KnnIndex &) = delete;
  KnnIndex &operator=(const KnnIndex &) = delete;

  /// Answers \p NumQueries queries (rows of \p Qs, stride dim()) through
  /// the pool; \p MaxWays > 0 caps the parallelism. \p EfSearch is the
  /// per-request budget: only HNSW reads it, <= 0 means its default.
  std::vector<NeighborList> queryBatch(const float *Qs, int64_t NumQueries,
                                       int K, int EfSearch = 0,
                                       int MaxWays = 0) const;
  NeighborList query(const float *Q, int K, int EfSearch = 0) const {
    return std::move(queryBatch(Q, 1, K, EfSearch).front());
  }

  /// Markers the index was built (or loaded) over.
  size_t indexedMarkers() const { return NumIndexed; }
  /// The save contract: a snapshot must cover exactly the map's rows, and
  /// the map must hold no tombstones (session state, never serialized).
  /// \returns false otherwise, with an error that says to compact first.
  bool isCompact(std::string *Err = nullptr) const;

  /// Chunk tag of the snapshot save() writes ("hnsw"); null when there is
  /// nothing to snapshot (the exact scan).
  virtual const char *snapshotTag() const { return nullptr; }
  /// The artifact format version that introduced the snapshot chunk.
  virtual uint32_t snapshotVersion() const { return 1; }
  /// Appends the built structure to the open chunk, so a serving process
  /// skips the rebuild.
  virtual void save(ArchiveWriter &) const {}
  /// One `inspect` line on the built structure and the query budget;
  /// empty when the kind says it all.
  virtual std::string describe(int /*EfSearch*/) const { return {}; }

protected:
  /// \p Grain: queries per pool chunk.
  KnnIndex(const TypeMap &Map, int64_t Grain)
      : Map(Map), NumIndexed(Map.size()), Grain(Grain) {}
  /// Answers queries [Lo, Hi) of \p Qs over rows [0, NumIndexed) into
  /// \p Out. Called once per pool chunk, so scratch can live per chunk.
  virtual void queryChunk(const float *Qs, int64_t Lo, int64_t Hi, int K,
                          int EfSearch,
                          std::vector<NeighborList> &Out) const = 0;

  const TypeMap &Map;
  size_t NumIndexed;

private:
  int64_t Grain;
};

/// Builds a \p Kind index over \p Map (\p NumThreads > 0 caps the build
/// parallelism). An empty map gets the exact scan: there is nothing to
/// index, and every row added later is delta.
std::unique_ptr<KnnIndex> buildKnnIndex(KnnIndexKind Kind, const TypeMap &Map,
                                        int NumThreads = 0);
/// Loads the \p Kind index saved alongside \p Map from its snapshot chunk
/// of \p R — only that kind's chunk is read. \returns null and sets
/// \p Err on a missing or malformed snapshot.
std::unique_ptr<KnnIndex> loadKnnIndex(KnnIndexKind Kind,
                                       const ArchiveReader &R,
                                       const TypeMap &Map, std::string *Err);

/// Exact L1 k-nearest-neighbour scan (the reference the approximate
/// index is validated against). The engine is a cache-blocked
/// query×marker tiled scan: each marker tile is streamed once through
/// every query of a query block, each query keeps a fixed-size bounded
/// max-heap of the best k seen so far (no O(N) allocation per query),
/// and the tile bodies dispatch through the active SIMD kernel table
/// with the store switch hoisted out of the inner loops. Ties break
/// (distance, index) exactly like the historical partial_sort, so
/// results are bit-identical to that scan for every store (the tests
/// keep it as their oracle). The same scan answers every index's delta
/// rows.
class ExactIndex : public KnnIndex {
public:
  explicit ExactIndex(const TypeMap &Map);

private:
  void queryChunk(const float *Qs, int64_t Lo, int64_t Hi, int K, int,
                  std::vector<NeighborList> &Out) const override;
};

/// A deterministic HNSW (hierarchical navigable small-world) graph for L1
/// distance. Level assignment is a pure function of (Seed, row index),
/// rows are inserted in row order, and every selection step (beam
/// updates, neighbour pruning, tie-breaks) is sequential under the
/// (distance, index) order — candidate *distances* are evaluated in
/// parallel through the pool, but distances are bit-identical for any
/// thread count, so the built graph and every query answer are a
/// function of (Map, Seed) alone. Query cost is O(ef · M · log N)
/// distance evaluations — sublinear in marker count — with EfSearch
/// (layer-0 beam width, default max(4·K, 64), clamped to >= K) as the
/// per-request latency/recall budget. Tombstoned rows keep routing
/// through the graph but never surface as results.
class HnswIndex : public KnnIndex {
public:
  /// \p M: max links per node per upper layer (layer 0 keeps 2M);
  /// \p EfConstruction: insertion beam width; \p MaxWays > 0 caps the
  /// build-time distance-evaluation parallelism (1 = fully serial).
  HnswIndex(const TypeMap &Map, int M = 16, int EfConstruction = 128,
            uint64_t Seed = 0x45317, int MaxWays = 0);

  int m() const { return M; }
  int efConstruction() const { return EfConstruction; }

  const char *snapshotTag() const override { return "hnsw"; }
  uint32_t snapshotVersion() const override { return 3; }
  /// Writes params, entry point, per-node levels and adjacency.
  void save(ArchiveWriter &W) const override;
  std::string describe(int EfSearch) const override;
  /// Reconstructs a graph written by save() over \p Map (which must be
  /// the snapshot saved alongside it). Queries on the loaded graph are
  /// bit-identical to queries on the original.
  static std::unique_ptr<HnswIndex> load(ArchiveCursor &C, const TypeMap &Map,
                                         std::string *Err);

private:
  struct LoadShellTag {};
  HnswIndex(const TypeMap &Map, LoadShellTag) : KnnIndex(Map, 8) {}

  struct Node {
    int Level = 0;
    /// Links[L]: neighbour row indices at layer L, 0 <= L <= Level.
    std::vector<std::vector<int>> Links;
  };

  /// Reusable per-query search state (epoch-marked visited array: no
  /// O(N) clear per query).
  struct SearchScratch {
    std::vector<uint32_t> VisitedAt;
    uint32_t Epoch = 0;
    std::vector<int> Frontier;    ///< Unvisited neighbours this round.
    std::vector<float> FrontierD; ///< Their distances (parallel eval).
  };

  /// Beam search at \p Layer from entry point \p Ep: the best \p Ef
  /// (distance, index) pairs, ascending.
  void searchLayer(const float *Q, int Ep, float EpDist, int Ef, int Layer,
                   SearchScratch &S,
                   std::vector<std::pair<float, int>> &Out) const;
  /// Greedy descent at \p Layer (ef = 1).
  void descendLayer(const float *Q, int &Ep, float &EpDist, int Layer) const;
  /// Distances from \p Q to \p Ids through the pool (MaxWays-capped).
  void distanceMany(const float *Q, const int *Ids, size_t N,
                    float *Out) const;
  void insert(size_t I, const float *Coords, SearchScratch &S);
  /// Prunes node \p NodeId's layer-\p Layer links to the \p MaxLinks
  /// closest under (distance, index). \p Decode is reusable scratch for
  /// the node's own coordinates.
  void shrinkLinks(int NodeId, int Layer, int MaxLinks,
                   std::vector<float> &Decode);
  /// Seeded geometric level for row \p I — pure in (Seed, I).
  int levelFor(size_t I) const;
  void queryChunk(const float *Qs, int64_t Lo, int64_t Hi, int K,
                  int EfSearch, std::vector<NeighborList> &Out) const override;

  int M = 16;
  int EfConstruction = 128;
  uint64_t Seed = 0x45317;
  int MaxWays = 0;
  int EntryPoint = -1;
  int MaxLevel = -1;
  std::vector<Node> Nodes;
};

} // namespace typilus

#endif // TYPILUS_KNN_TYPEMAP_H
