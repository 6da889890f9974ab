//===- knn/TypeMap.cpp - τmap, kNN indexes, Eq. 5 scoring --------------------===//

#include "knn/TypeMap.h"

#include "nn/Simd.h"
#include "support/Float16.h"
#include "support/Str.h"
#include "support/ThreadPool.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstring>
#include <limits>
#include <queue>

using namespace typilus;

const char *typilus::markerStoreName(MarkerStore S) {
  switch (S) {
  case MarkerStore::F32:
    return "f32";
  case MarkerStore::F16:
    return "f16";
  case MarkerStore::Int8:
    return "int8";
  }
  return "f32";
}

bool typilus::parseMarkerStore(std::string_view Name, MarkerStore *Out) {
  if (Name == "f32")
    *Out = MarkerStore::F32;
  else if (Name == "f16")
    *Out = MarkerStore::F16;
  else if (Name == "int8")
    *Out = MarkerStore::Int8;
  else
    return false;
  return true;
}

const char *typilus::knnIndexName(KnnIndexKind K) {
  switch (K) {
  case KnnIndexKind::Exact:
    return "exact";
  case KnnIndexKind::Hnsw:
    return "hnsw";
  }
  return "exact";
}

bool typilus::parseKnnIndexKind(std::string_view Name, KnnIndexKind *Out) {
  if (Name == "exact")
    *Out = KnnIndexKind::Exact;
  else if (Name == "hnsw")
    *Out = KnnIndexKind::Hnsw;
  else
    return false;
  return true;
}

std::vector<ScoredType> typilus::scoreNeighbors(const TypeMap &Map,
                                                const NeighborList &Neighbors,
                                                double P) {
  // One pass over the neighbours; the distinct types (a handful for k~10)
  // accumulate in a flat array scanned linearly — no tree map, no rescans.
  std::vector<ScoredType> Result;
  Result.reserve(Neighbors.size());
  double Z = 0;
  for (auto [Idx, Dist] : Neighbors) {
    double W = std::pow(std::max(static_cast<double>(Dist), 1e-6), -P);
    TypeRef T = Map.type(static_cast<size_t>(Idx));
    Z += W;
    auto It = std::find_if(Result.begin(), Result.end(),
                           [T](const ScoredType &S) { return S.Type == T; });
    if (It == Result.end())
      Result.push_back(ScoredType{T, W});
    else
      It->Prob += W;
  }
  for (ScoredType &S : Result)
    S.Prob = Z > 0 ? S.Prob / Z : 0;
  std::sort(Result.begin(), Result.end(),
            [](const ScoredType &A, const ScoredType &B) {
              if (A.Prob != B.Prob)
                return A.Prob > B.Prob;
              return A.Type->str() < B.Type->str(); // deterministic ties
            });
  return Result;
}

//===----------------------------------------------------------------------===//
// TypeMap: storage, dedup, quantization
//===----------------------------------------------------------------------===//

float TypeMap::coord(size_t I, int Dim) const {
  size_t At = I * static_cast<size_t>(D) + static_cast<size_t>(Dim);
  switch (Store) {
  case MarkerStore::F32:
    return Flat[At];
  case MarkerStore::F16:
    return f16BitsToF32(FlatF16[At]);
  case MarkerStore::Int8:
    return Scales[I] * static_cast<float>(FlatI8[At]);
  }
  return 0.f;
}

void TypeMap::decodeEmbedding(size_t I, float *Out) const {
  size_t Base = I * static_cast<size_t>(D);
  switch (Store) {
  case MarkerStore::F32:
    std::memcpy(Out, Flat.data() + Base, static_cast<size_t>(D) * 4);
    return;
  case MarkerStore::F16:
    for (int K = 0; K != D; ++K)
      Out[K] = f16BitsToF32(FlatF16[Base + static_cast<size_t>(K)]);
    return;
  case MarkerStore::Int8:
    for (int K = 0; K != D; ++K)
      Out[K] =
          Scales[I] * static_cast<float>(FlatI8[Base + static_cast<size_t>(K)]);
    return;
  }
}

float TypeMap::l1DistanceTo(const float *Q, size_t I) const {
  const nn::simd::KernelTable &KT = nn::simd::active();
  size_t Base = I * static_cast<size_t>(D);
  switch (Store) {
  case MarkerStore::F32:
    return KT.L1(Q, Flat.data() + Base, D);
  case MarkerStore::F16:
    return KT.L1F16(Q, FlatF16.data() + Base, D);
  case MarkerStore::Int8:
    return KT.L1I8(Q, FlatI8.data() + Base, Scales[I], D);
  }
  return 0.f;
}

uint64_t TypeMap::rowHash(const void *Row, size_t NumBytes, float Scale,
                          TypeRef T) const {
  uint64_t H = 0xCBF29CE484222325ull;
  auto Mix = [&H](const void *Data, size_t N) {
    const unsigned char *P = static_cast<const unsigned char *>(Data);
    for (size_t I = 0; I != N; ++I) {
      H ^= P[I];
      H *= 0x100000001B3ull;
    }
  };
  if (Store == MarkerStore::Int8)
    Mix(&Scale, sizeof(Scale));
  Mix(Row, NumBytes);
  H ^= reinterpret_cast<uintptr_t>(T);
  H *= 0x100000001B3ull;
  return H;
}

uint64_t TypeMap::storedHash(size_t I) const {
  size_t Base = I * static_cast<size_t>(D);
  switch (Store) {
  case MarkerStore::F32:
    return rowHash(Flat.data() + Base, static_cast<size_t>(D) * 4, 0.f,
                   Types[I]);
  case MarkerStore::F16:
    return rowHash(FlatF16.data() + Base, static_cast<size_t>(D) * 2, 0.f,
                   Types[I]);
  case MarkerStore::Int8:
    return rowHash(FlatI8.data() + Base, static_cast<size_t>(D), Scales[I],
                   Types[I]);
  }
  return 0;
}

void TypeMap::rebuildDedupIndex() {
  // Re-key over the current markers (which may include duplicates when a
  // pre-compaction artifact was loaded — first occurrences win, so later
  // adds dedupe against the loaded content without altering it).
  DedupIndex.clear();
  DedupIndexStale = false;
  size_t RowBytes = static_cast<size_t>(D) *
                    (Store == MarkerStore::F32   ? 4
                     : Store == MarkerStore::F16 ? 2
                                                 : 1);
  auto RowPtr = [this](size_t I) -> const void * {
    size_t Base = I * static_cast<size_t>(D);
    switch (Store) {
    case MarkerStore::F32:
      return Flat.data() + Base;
    case MarkerStore::F16:
      return FlatF16.data() + Base;
    case MarkerStore::Int8:
      return FlatI8.data() + Base;
    }
    return nullptr;
  };
  for (size_t I = 0; I != Types.size(); ++I) {
    std::vector<int> &Bucket = DedupIndex[storedHash(I)];
    bool Seen = false;
    for (int J : Bucket)
      if (Types[static_cast<size_t>(J)] == Types[I] &&
          (Store != MarkerStore::Int8 ||
           Scales[static_cast<size_t>(J)] == Scales[I]) &&
          std::memcmp(RowPtr(static_cast<size_t>(J)), RowPtr(I), RowBytes) ==
              0) {
        Seen = true;
        break;
      }
    if (!Seen)
      Bucket.push_back(static_cast<int>(I));
  }
}

float TypeMap::encodeI8Row(const float *Src, int8_t *Dst) const {
  float MaxAbs = 0.f;
  for (int K = 0; K != D; ++K)
    MaxAbs = std::max(MaxAbs, std::fabs(Src[K]));
  // All-zero (or non-finite-free degenerate) rows get scale 0 and all-zero
  // codes; decode reproduces them exactly.
  float Scale = MaxAbs == 0.f ? 0.f : MaxAbs / 127.f;
  for (int K = 0; K != D; ++K) {
    long Q = Scale == 0.f ? 0 : std::lround(Src[K] / Scale);
    Dst[K] = static_cast<int8_t>(std::min(127l, std::max(-127l, Q)));
  }
  return Scale;
}

int TypeMap::fileIdFor(std::string_view FileTag) {
  if (FileTag.empty())
    return -1;
  auto It = FileIdOf.find(std::string(FileTag));
  if (It != FileIdOf.end())
    return It->second;
  int Id = static_cast<int>(FileTags.size());
  FileTags.emplace_back(FileTag);
  FileIdOf.emplace(FileTags.back(), Id);
  return Id;
}

void TypeMap::tagRow(size_t I, int FileId) {
  FileOf[I] = FileId;
  if (FileId < 0)
    return;
  std::vector<int> &Rows = RowsOfFile[FileId];
  // Appends during a bulk fill are already ascending; resurrection can
  // land mid-list, so keep the list sorted with an ordered insert.
  auto At = std::lower_bound(Rows.begin(), Rows.end(), static_cast<int>(I));
  if (At == Rows.end() || *At != static_cast<int>(I))
    Rows.insert(At, static_cast<int>(I));
}

std::string_view TypeMap::fileTag(size_t I) const {
  int Id = FileOf[I];
  return Id < 0 ? std::string_view() : std::string_view(FileTags[Id]);
}

std::vector<int> TypeMap::markersForFile(std::string_view FileTag) const {
  auto It = FileIdOf.find(std::string(FileTag));
  if (It == FileIdOf.end())
    return {};
  auto Rows = RowsOfFile.find(It->second);
  return Rows == RowsOfFile.end() ? std::vector<int>() : Rows->second;
}

size_t TypeMap::removeMarkersForFile(std::string_view FileTag) {
  auto It = FileIdOf.find(std::string(FileTag));
  if (It == FileIdOf.end())
    return 0;
  auto Rows = RowsOfFile.find(It->second);
  if (Rows == RowsOfFile.end())
    return 0;
  size_t Removed = 0;
  for (int I : Rows->second)
    if (!Dead[static_cast<size_t>(I)]) {
      Dead[static_cast<size_t>(I)] = 1;
      ++NumDead;
      ++Removed;
    }
  // The file no longer owns live rows; a dead row re-tags on resurrection.
  RowsOfFile.erase(Rows);
  return Removed;
}

bool TypeMap::compact() {
  if (NumDead == 0)
    return false;
  size_t Next = 0;
  for (size_t I = 0; I != Types.size(); ++I) {
    if (Dead[I])
      continue;
    if (Next != I) {
      size_t DstBase = Next * static_cast<size_t>(D);
      size_t SrcBase = I * static_cast<size_t>(D);
      switch (Store) {
      case MarkerStore::F32:
        std::memmove(Flat.data() + DstBase, Flat.data() + SrcBase,
                     static_cast<size_t>(D) * 4);
        break;
      case MarkerStore::F16:
        std::memmove(FlatF16.data() + DstBase, FlatF16.data() + SrcBase,
                     static_cast<size_t>(D) * 2);
        break;
      case MarkerStore::Int8:
        std::memmove(FlatI8.data() + DstBase, FlatI8.data() + SrcBase,
                     static_cast<size_t>(D));
        Scales[Next] = Scales[I];
        break;
      }
      Types[Next] = Types[I];
      FileOf[Next] = FileOf[I];
    }
    ++Next;
  }
  size_t Coords = Next * static_cast<size_t>(D);
  switch (Store) {
  case MarkerStore::F32:
    Flat.resize(Coords);
    break;
  case MarkerStore::F16:
    FlatF16.resize(Coords);
    break;
  case MarkerStore::Int8:
    FlatI8.resize(Coords);
    Scales.resize(Next);
    break;
  }
  Types.resize(Next);
  FileOf.resize(Next);
  Dead.assign(Next, 0);
  NumDead = 0;
  RowsOfFile.clear();
  for (size_t I = 0; I != FileOf.size(); ++I)
    if (FileOf[I] >= 0)
      RowsOfFile[FileOf[I]].push_back(static_cast<int>(I));
  DedupIndex.clear();
  DedupIndexStale = true;
  return true;
}

bool TypeMap::add(const float *Embedding, TypeRef T) {
  return add(Embedding, T, std::string_view());
}

bool TypeMap::add(const float *Embedding, TypeRef T,
                  std::string_view FileTag) {
  if (DedupIndexStale)
    rebuildDedupIndex();
  // Encode the candidate into the store's representation first; dedup
  // compares encoded rows, so post-rounding collisions also collapse.
  std::vector<uint16_t> EncF16;
  std::vector<int8_t> EncI8;
  float Scale = 0.f;
  const void *Row = Embedding;
  size_t RowBytes = static_cast<size_t>(D) * 4;
  if (Store == MarkerStore::F16) {
    EncF16.resize(static_cast<size_t>(D));
    for (int K = 0; K != D; ++K)
      EncF16[static_cast<size_t>(K)] = f32ToF16Bits(Embedding[K]);
    Row = EncF16.data();
    RowBytes = static_cast<size_t>(D) * 2;
  } else if (Store == MarkerStore::Int8) {
    EncI8.resize(static_cast<size_t>(D));
    Scale = encodeI8Row(Embedding, EncI8.data());
    Row = EncI8.data();
    RowBytes = static_cast<size_t>(D);
  }
  auto StoredRow = [this](size_t I) -> const void * {
    size_t Base = I * static_cast<size_t>(D);
    switch (Store) {
    case MarkerStore::F32:
      return Flat.data() + Base;
    case MarkerStore::F16:
      return FlatF16.data() + Base;
    case MarkerStore::Int8:
      return FlatI8.data() + Base;
    }
    return nullptr;
  };
  std::vector<int> &Bucket = DedupIndex[rowHash(Row, RowBytes, Scale, T)];
  for (int I : Bucket)
    if (Types[static_cast<size_t>(I)] == T &&
        (Store != MarkerStore::Int8 ||
         Scales[static_cast<size_t>(I)] == Scale) &&
        std::memcmp(StoredRow(static_cast<size_t>(I)), Row, RowBytes) == 0) {
      if (Dead[static_cast<size_t>(I)]) {
        // Resurrect the tombstoned row in place: the marker layout (row
        // index, bytes, order) is exactly what it was before the removal,
        // so every index over the map — and every prediction — is
        // bit-identical to the pre-removal state.
        Dead[static_cast<size_t>(I)] = 0;
        --NumDead;
        tagRow(static_cast<size_t>(I), fileIdFor(FileTag));
        return true;
      }
      ++Dropped;
      return false;
    }
  Bucket.push_back(static_cast<int>(Types.size()));
  switch (Store) {
  case MarkerStore::F32:
    Flat.insert(Flat.end(), Embedding, Embedding + D);
    break;
  case MarkerStore::F16:
    FlatF16.insert(FlatF16.end(), EncF16.begin(), EncF16.end());
    break;
  case MarkerStore::Int8:
    FlatI8.insert(FlatI8.end(), EncI8.begin(), EncI8.end());
    Scales.push_back(Scale);
    break;
  }
  Types.push_back(T);
  FileOf.push_back(-1);
  Dead.push_back(0);
  tagRow(Types.size() - 1, fileIdFor(FileTag));
  return true;
}

void TypeMap::quantize(MarkerStore NewStore) {
  if (NewStore == Store)
    return;
  assert(Store == MarkerStore::F32 &&
         "quantize converts a freshly built f32 map; re-quantization of an "
         "already-quantized store is lossy-on-lossy and unsupported");
  assert(NumDead == 0 && "compact() before quantize()");
  size_t N = Types.size();
  if (NewStore == MarkerStore::F16) {
    // Software RNE encode always (support/Float16.h), so the artifact
    // bytes do not depend on the host's F16C availability.
    FlatF16.resize(Flat.size());
    for (size_t I = 0; I != Flat.size(); ++I)
      FlatF16[I] = f32ToF16Bits(Flat[I]);
  } else {
    FlatI8.resize(Flat.size());
    Scales.resize(N);
    for (size_t I = 0; I != N; ++I)
      Scales[I] =
          encodeI8Row(Flat.data() + I * static_cast<size_t>(D),
                      FlatI8.data() + I * static_cast<size_t>(D));
  }
  Flat.clear();
  Flat.shrink_to_fit();
  Store = NewStore;
  // Rounding can merge rows that were distinct in f32; the index keys are
  // stale either way.
  DedupIndex.clear();
  DedupIndexStale = true;
}

size_t TypeMap::subsampleCoreset(size_t MaxMarkers) {
  assert(Store == MarkerStore::F32 &&
         "subsample before quantize: k-center needs the exact coordinates");
  assert(NumDead == 0 && "compact() before subsampling");
  if (MaxMarkers == 0 || Types.size() <= MaxMarkers)
    return Types.size();

  // Group marker indices by type, in first-occurrence order of the types
  // (NOT interned-pointer order, which varies run to run).
  std::vector<TypeRef> TypeOrder;
  std::unordered_map<TypeRef, std::vector<int>> Groups;
  for (size_t I = 0; I != Types.size(); ++I) {
    std::vector<int> &G = Groups[Types[I]];
    if (G.empty())
      TypeOrder.push_back(Types[I]);
    G.push_back(static_cast<int>(I));
  }

  // Budget: one marker per type while the budget lasts (first-occurrence
  // order decides who misses out when MaxMarkers < #types), then the
  // remainder proportionally to each type's excess markers, leftovers
  // round-robin in type order.
  size_t NumTypes = TypeOrder.size();
  std::vector<size_t> Alloc(NumTypes, 0);
  size_t SumExcess = 0;
  for (size_t G = 0; G != NumTypes; ++G) {
    if (G < MaxMarkers)
      Alloc[G] = 1;
    SumExcess += Groups[TypeOrder[G]].size() - 1;
  }
  if (MaxMarkers > NumTypes && SumExcess > 0) {
    size_t Extra = MaxMarkers - NumTypes;
    size_t Given = 0;
    for (size_t G = 0; G != NumTypes; ++G) {
      size_t Excess = Groups[TypeOrder[G]].size() - 1;
      size_t Share = std::min(Excess, Extra * Excess / SumExcess);
      Alloc[G] += Share;
      Given += Share;
    }
    // Flooring leaves a few slots; hand them out one at a time to groups
    // that can still grow.
    while (Given < Extra) {
      bool Any = false;
      for (size_t G = 0; G != NumTypes && Given < Extra; ++G)
        if (Alloc[G] < Groups[TypeOrder[G]].size()) {
          ++Alloc[G];
          ++Given;
          Any = true;
        }
      if (!Any)
        break;
    }
  }

  // Greedy k-center within each type: seed with the type's first marker,
  // then repeatedly take the marker farthest (L1) from the chosen set.
  std::vector<int> Kept;
  Kept.reserve(MaxMarkers);
  for (size_t G = 0; G != NumTypes; ++G) {
    const std::vector<int> &Items = Groups[TypeOrder[G]];
    size_t Want = std::min(Alloc[G], Items.size());
    if (Want == 0)
      continue;
    if (Want == Items.size()) {
      Kept.insert(Kept.end(), Items.begin(), Items.end());
      continue;
    }
    std::vector<float> MinDist(Items.size(),
                               std::numeric_limits<float>::max());
    std::vector<char> Chosen(Items.size(), 0);
    size_t Last = 0;
    Chosen[0] = 1;
    Kept.push_back(Items[0]);
    for (size_t Picked = 1; Picked != Want; ++Picked) {
      const float *C =
          embedding(static_cast<size_t>(Items[Last]));
      size_t Best = SIZE_MAX;
      float BestDist = -1.f;
      for (size_t I = 0; I != Items.size(); ++I) {
        if (Chosen[I])
          continue;
        float Dist = l1DistanceTo(C, static_cast<size_t>(Items[I]));
        if (Dist < MinDist[I])
          MinDist[I] = Dist;
        // Strict > keeps ties on the lowest index — deterministic.
        if (MinDist[I] > BestDist) {
          BestDist = MinDist[I];
          Best = I;
        }
      }
      if (Best == SIZE_MAX)
        break;
      Chosen[Best] = 1;
      Kept.push_back(Items[Best]);
      Last = Best;
    }
  }

  // Rebuild in original marker order so survivors keep their relative
  // layout (and the result is independent of the per-type pick order).
  std::sort(Kept.begin(), Kept.end());
  std::vector<float> NewFlat;
  NewFlat.reserve(Kept.size() * static_cast<size_t>(D));
  std::vector<TypeRef> NewTypes;
  NewTypes.reserve(Kept.size());
  std::vector<int32_t> NewFileOf;
  NewFileOf.reserve(Kept.size());
  for (int I : Kept) {
    const float *Row = embedding(static_cast<size_t>(I));
    NewFlat.insert(NewFlat.end(), Row, Row + D);
    NewTypes.push_back(Types[static_cast<size_t>(I)]);
    NewFileOf.push_back(FileOf[static_cast<size_t>(I)]);
  }
  Flat = std::move(NewFlat);
  Types = std::move(NewTypes);
  FileOf = std::move(NewFileOf);
  Dead.assign(Types.size(), 0);
  RowsOfFile.clear();
  for (size_t I = 0; I != FileOf.size(); ++I)
    if (FileOf[I] >= 0)
      RowsOfFile[FileOf[I]].push_back(static_cast<int>(I));
  DedupIndex.clear();
  DedupIndexStale = true;
  return Types.size();
}

void TypeMap::save(ArchiveWriter &W,
                   const std::map<TypeRef, int> &TypeIds) const {
  assert(NumDead == 0 &&
         "tombstones are in-memory session state: compact() before save()");
  W.writeI32(D);
  W.writeU64(Types.size());
  switch (Store) {
  case MarkerStore::F32:
    // Exactly the historical byte stream — f32 artifacts stay
    // bit-identical across this change.
    W.writeF32Array(Flat.data(), Flat.size());
    break;
  case MarkerStore::F16:
    W.writeU16Array(FlatF16.data(), FlatF16.size());
    break;
  case MarkerStore::Int8:
    W.writeF32Array(Scales.data(), Scales.size());
    W.writeBytes(FlatI8.data(), FlatI8.size());
    break;
  }
  for (TypeRef T : Types)
    W.writeI32(TypeIds.at(T));
}

bool TypeMap::load(ArchiveCursor &C, const std::vector<TypeRef> &ById,
                   std::string *Err, MarkerStore S) {
  int32_t Dim = C.readI32();
  uint64_t Count = C.readU64();
  // Bound the marker count against the payload before any allocation, so
  // no adversarial count/dim pair can overflow the byte-size comparison
  // (same policy as nn::readTensor). Every marker costs its coordinate
  // bytes plus a 4-byte type id (plus the int8 scale).
  uint64_t CoordBytes = S == MarkerStore::F32   ? 4
                        : S == MarkerStore::F16 ? 2
                                                : 1;
  if (!C.ok() || Dim <= 0) {
    if (Err && Err->empty())
      *Err = "malformed type-map snapshot";
    return false;
  }
  uint64_t PerMarker = static_cast<uint64_t>(Dim) * CoordBytes + 4 +
                       (S == MarkerStore::Int8 ? 4 : 0);
  if (Count > C.remaining() / PerMarker) {
    if (Err && Err->empty())
      *Err = "malformed type-map snapshot";
    return false;
  }
  size_t Coords = static_cast<size_t>(Count) * static_cast<size_t>(Dim);
  std::vector<float> NewFlat;
  std::vector<uint16_t> NewF16;
  std::vector<int8_t> NewI8;
  std::vector<float> NewScales;
  switch (S) {
  case MarkerStore::F32:
    NewFlat.resize(Coords);
    C.readF32Array(NewFlat.data(), NewFlat.size());
    break;
  case MarkerStore::F16:
    NewF16.resize(Coords);
    C.readU16Array(NewF16.data(), NewF16.size());
    break;
  case MarkerStore::Int8:
    NewScales.resize(static_cast<size_t>(Count));
    C.readF32Array(NewScales.data(), NewScales.size());
    NewI8.resize(Coords);
    C.readBytes(NewI8.data(), NewI8.size());
    break;
  }
  std::vector<TypeRef> NewTypes;
  NewTypes.reserve(static_cast<size_t>(Count));
  for (uint64_t I = 0; I != Count; ++I) {
    int Idx = C.readI32();
    if (!C.ok() || Idx < 0 || static_cast<size_t>(Idx) >= ById.size()) {
      if (Err && Err->empty())
        *Err = "type-map marker references a type outside the type table";
      return false;
    }
    NewTypes.push_back(ById[static_cast<size_t>(Idx)]);
  }
  D = Dim;
  Store = S;
  Flat = std::move(NewFlat);
  FlatF16 = std::move(NewF16);
  FlatI8 = std::move(NewI8);
  Scales = std::move(NewScales);
  Types = std::move(NewTypes);
  // Tags and tombstones are never serialized: a loaded snapshot starts
  // with every marker live and untagged.
  FileOf.assign(Types.size(), -1);
  Dead.assign(Types.size(), 0);
  NumDead = 0;
  FileTags.clear();
  FileIdOf.clear();
  RowsOfFile.clear();
  // Loading stays a pure byte copy: the dedup index is marked stale and
  // rebuilt by the first add() — serving processes, which never insert,
  // never pay the O(N·D) re-keying or hold the index at all.
  DedupIndex.clear();
  DedupIndexStale = true;
  Dropped = 0;
  return true;
}

//===----------------------------------------------------------------------===//
// kNN indexes
//===----------------------------------------------------------------------===//

namespace {

/// The one neighbour order every index agrees on: (distance, index)
/// ascending — a *total* order (indices are distinct), so the top-k set
/// and its sorted layout are uniquely determined however they were
/// selected. That is what makes the blocked bounded-heap engine
/// bit-identical to the historical partial_sort.
inline bool neighborLess(const std::pair<int, float> &A,
                         const std::pair<int, float> &B) {
  if (A.second != B.second)
    return A.second < B.second;
  return A.first < B.first;
}

/// Marker rows per streamed tile: one tile's coordinates stay resident
/// while every query of the block scans it, so a query block reads the
/// marker array once from memory instead of once per query.
constexpr size_t kMarkerTile = 256;
/// Queries per block — also the exact index's parallelFor grain, so tiny
/// batches form a handful of tile-sized tasks instead of one per query.
constexpr int64_t kQueryTile = 16;

/// Bounded max-heap push: keeps the K smallest candidates under
/// neighborLess, worst on top.
inline void pushBounded(NeighborList &H, int K, std::pair<int, float> Cand) {
  if (static_cast<int>(H.size()) < K) {
    H.push_back(Cand);
    std::push_heap(H.begin(), H.end(), neighborLess);
  } else if (neighborLess(Cand, H.front())) {
    std::pop_heap(H.begin(), H.end(), neighborLess);
    H.back() = Cand;
    std::push_heap(H.begin(), H.end(), neighborLess);
  }
}

/// The blocked exact engine: answers queries [QBegin, QEnd) of \p Qs over
/// the live rows in [RowBegin, RowEnd) into Out[0, QEnd - QBegin), each
/// ascending under neighborLess. Queries go kQueryTile at a time, with
/// one bounded heap per query of the tile reused across tiles.
void scanRows(const TypeMap &Map, const float *Qs, int64_t QBegin,
              int64_t QEnd, int K, size_t RowBegin, size_t RowEnd,
              NeighborList *Out) {
  if (K <= 0)
    return; // Out entries stay empty, like the legacy Keep=0.
  const nn::simd::KernelTable &KT = nn::simd::active();
  const int64_t D = Map.dim();
  // Hoist the store dispatch out of the tile bodies: raw arrays + the
  // active kernel table, fetched once.
  const MarkerStore Store = Map.store();
  const float *F32 = Map.rawF32();
  const uint16_t *F16 = Map.rawF16();
  const int8_t *I8 = Map.rawI8();
  const float *Scales = Map.rawI8Scales();
  std::vector<NeighborList> Heaps(static_cast<size_t>(kQueryTile));
  for (int64_t QB = QBegin; QB < QEnd; QB += kQueryTile) {
    const size_t NumQ =
        static_cast<size_t>(std::min(QEnd, QB + kQueryTile) - QB);
    for (size_t Q = 0; Q != NumQ; ++Q) {
      Heaps[Q].clear();
      Heaps[Q].reserve(static_cast<size_t>(K));
    }
    for (size_t MB = RowBegin; MB < RowEnd; MB += kMarkerTile) {
      const size_t ME = std::min(RowEnd, MB + kMarkerTile);
      for (size_t Q = 0; Q != NumQ; ++Q) {
        const float *Query = Qs + (QB + static_cast<int64_t>(Q)) * D;
        NeighborList &H = Heaps[Q];
        switch (Store) {
        case MarkerStore::F32:
          for (size_t I = MB; I != ME; ++I)
            if (Map.isLive(I))
              pushBounded(H, K,
                          {static_cast<int>(I),
                           KT.L1(Query, F32 + I * static_cast<size_t>(D), D)});
          break;
        case MarkerStore::F16:
          for (size_t I = MB; I != ME; ++I)
            if (Map.isLive(I))
              pushBounded(
                  H, K,
                  {static_cast<int>(I),
                   KT.L1F16(Query, F16 + I * static_cast<size_t>(D), D)});
          break;
        case MarkerStore::Int8:
          for (size_t I = MB; I != ME; ++I)
            if (Map.isLive(I))
              pushBounded(H, K,
                          {static_cast<int>(I),
                           KT.L1I8(Query, I8 + I * static_cast<size_t>(D),
                                   Scales[I], D)});
          break;
        }
      }
    }
    for (size_t Q = 0; Q != NumQ; ++Q) {
      std::sort_heap(Heaps[Q].begin(), Heaps[Q].end(), neighborLess);
      Out[static_cast<size_t>(QB - QBegin) + Q] = Heaps[Q];
    }
  }
}

} // namespace

std::vector<NeighborList> KnnIndex::queryBatch(const float *Qs,
                                               int64_t NumQueries, int K,
                                               int EfSearch,
                                               int MaxWays) const {
  std::vector<NeighborList> Results(static_cast<size_t>(NumQueries));
  parallelFor(
      0, NumQueries, Grain,
      [&](int64_t Lo, int64_t Hi) {
        queryChunk(Qs, Lo, Hi, K, EfSearch, Results);
        if (NumIndexed == Map.size())
          return;
        // The delta: rows appended since the build, scanned exactly and
        // merged into each sorted answer under the same total order.
        std::vector<NeighborList> Delta(static_cast<size_t>(Hi - Lo));
        scanRows(Map, Qs, Lo, Hi, K, NumIndexed, Map.size(), Delta.data());
        for (int64_t Q = Lo; Q != Hi; ++Q) {
          NeighborList &L = Results[static_cast<size_t>(Q)];
          const NeighborList &R = Delta[static_cast<size_t>(Q - Lo)];
          auto Mid = static_cast<std::ptrdiff_t>(L.size());
          L.insert(L.end(), R.begin(), R.end());
          std::inplace_merge(L.begin(), L.begin() + Mid, L.end(),
                             neighborLess);
          if (L.size() > static_cast<size_t>(K))
            L.resize(static_cast<size_t>(K));
        }
      },
      MaxWays);
  return Results;
}

bool KnnIndex::isCompact(std::string *Err) const {
  if (Map.deadMarkers() == 0 && NumIndexed == Map.size())
    return true;
  if (Err)
    *Err = strformat("the type map holds %zu tombstoned and %zu unindexed "
                     "rows; call compactMarkers() before saving",
                     Map.deadMarkers(), Map.size() - NumIndexed);
  return false;
}

std::unique_ptr<KnnIndex> typilus::buildKnnIndex(KnnIndexKind Kind,
                                                 const TypeMap &Map,
                                                 int NumThreads) {
  if (Kind == KnnIndexKind::Exact || Map.size() == 0)
    return std::make_unique<ExactIndex>(Map);
  return std::make_unique<HnswIndex>(Map, /*M=*/16, /*EfConstruction=*/128,
                                     /*Seed=*/0x45317, NumThreads);
}

std::unique_ptr<KnnIndex> typilus::loadKnnIndex(KnnIndexKind Kind,
                                                const ArchiveReader &R,
                                                const TypeMap &Map,
                                                std::string *Err) {
  // Mirrors buildKnnIndex: exact and empty maps have no snapshot chunk.
  if (Kind == KnnIndexKind::Exact || Map.size() == 0)
    return std::make_unique<ExactIndex>(Map);
  // A missing chunk poisons the cursor; the chunk() error is the one kept.
  ArchiveCursor C = R.chunk("hnsw", Err);
  return HnswIndex::load(C, Map, Err);
}

ExactIndex::ExactIndex(const TypeMap &Map) : KnnIndex(Map, kQueryTile) {}

void ExactIndex::queryChunk(const float *Qs, int64_t Lo, int64_t Hi, int K,
                            int, std::vector<NeighborList> &Out) const {
  scanRows(Map, Qs, Lo, Hi, K, 0, NumIndexed,
           Out.data() + static_cast<size_t>(Lo));
}

static_assert(sizeof(int) == 4,
              "index snapshots store adjacency as raw i32 runs");

//===----------------------------------------------------------------------===//
// HnswIndex
//===----------------------------------------------------------------------===//

int HnswIndex::levelFor(size_t I) const {
  // One derived stream per row: level_I depends on (Seed, I) alone, so
  // neither insertion order nor thread count can perturb the hierarchy.
  Rng R = Rng(Seed).fork(static_cast<uint64_t>(I));
  double U = R.uniformReal();
  if (U < 1e-12)
    U = 1e-12;
  double ML = 1.0 / std::log(std::max(2.0, static_cast<double>(M)));
  int L = static_cast<int>(-std::log(U) * ML);
  return std::min(L, 32);
}

void HnswIndex::distanceMany(const float *Q, const int *Ids, size_t N,
                             float *Out) const {
  // The parallel half of the build/search contract: distances fan out
  // through the pool while every *selection* over them stays sequential.
  // Each distance is bit-identical for any thread count, so the chosen
  // neighbours — and therefore the graph — do not depend on the split.
  parallelFor(
      0, static_cast<int64_t>(N), 32,
      [&](int64_t Lo, int64_t Hi) {
        for (int64_t I = Lo; I != Hi; ++I)
          Out[I] = Map.l1DistanceTo(
              Q, static_cast<size_t>(Ids[static_cast<size_t>(I)]));
      },
      MaxWays);
}

void HnswIndex::searchLayer(const float *Q, int Ep, float EpDist, int Ef,
                            int Layer, SearchScratch &S,
                            std::vector<std::pair<float, int>> &Out) const {
  // (distance, index) pairs compare lexicographically — exactly the
  // neighbour tie-break order — so every heap decision is deterministic.
  using DistIdx = std::pair<float, int>;
  std::priority_queue<DistIdx, std::vector<DistIdx>, std::greater<>> Cand;
  std::priority_queue<DistIdx> Best; // worst of the kept Ef on top
  if (S.VisitedAt.size() < Nodes.size())
    S.VisitedAt.resize(Nodes.size(), 0);
  if (++S.Epoch == 0) { // epoch wrap: reset the marks once per 2^32 queries
    std::fill(S.VisitedAt.begin(), S.VisitedAt.end(), 0u);
    S.Epoch = 1;
  }
  S.VisitedAt[static_cast<size_t>(Ep)] = S.Epoch;
  Cand.emplace(EpDist, Ep);
  Best.emplace(EpDist, Ep);
  while (!Cand.empty()) {
    DistIdx C = Cand.top();
    if (static_cast<int>(Best.size()) == Ef && Best.top() < C)
      break;
    Cand.pop();
    const std::vector<int> &Links =
        Nodes[static_cast<size_t>(C.second)].Links[static_cast<size_t>(Layer)];
    S.Frontier.clear();
    for (int E : Links)
      if (S.VisitedAt[static_cast<size_t>(E)] != S.Epoch) {
        S.VisitedAt[static_cast<size_t>(E)] = S.Epoch;
        S.Frontier.push_back(E);
      }
    S.FrontierD.resize(S.Frontier.size());
    distanceMany(Q, S.Frontier.data(), S.Frontier.size(), S.FrontierD.data());
    for (size_t I = 0; I != S.Frontier.size(); ++I) {
      DistIdx Next{S.FrontierD[I], S.Frontier[I]};
      if (static_cast<int>(Best.size()) < Ef || Next < Best.top()) {
        Cand.push(Next);
        Best.push(Next);
        if (static_cast<int>(Best.size()) > Ef)
          Best.pop();
      }
    }
  }
  Out.resize(Best.size());
  for (size_t I = Best.size(); I-- > 0;) {
    Out[I] = Best.top();
    Best.pop();
  }
}

void HnswIndex::descendLayer(const float *Q, int &Ep, float &EpDist,
                             int Layer) const {
  bool Improved = true;
  while (Improved) {
    Improved = false;
    // The range binds to the entry point the round started from; strict
    // (distance, index) improvement keeps the walk deterministic.
    for (int E : Nodes[static_cast<size_t>(Ep)]
                     .Links[static_cast<size_t>(Layer)]) {
      float Dist = Map.l1DistanceTo(Q, static_cast<size_t>(E));
      if (std::pair<float, int>(Dist, E) < std::pair<float, int>(EpDist, Ep)) {
        EpDist = Dist;
        Ep = E;
        Improved = true;
      }
    }
  }
}

void HnswIndex::shrinkLinks(int NodeId, int Layer, int MaxLinks,
                            std::vector<float> &Decode) {
  Decode.resize(static_cast<size_t>(Map.dim()));
  Map.decodeEmbedding(static_cast<size_t>(NodeId), Decode.data());
  std::vector<int> &Links =
      Nodes[static_cast<size_t>(NodeId)].Links[static_cast<size_t>(Layer)];
  std::vector<float> Ds(Links.size());
  distanceMany(Decode.data(), Links.data(), Links.size(), Ds.data());
  std::vector<std::pair<float, int>> Scored(Links.size());
  for (size_t I = 0; I != Links.size(); ++I)
    Scored[I] = {Ds[I], Links[I]};
  std::sort(Scored.begin(), Scored.end()); // (distance, index) ascending
  Links.resize(static_cast<size_t>(MaxLinks));
  for (int I = 0; I != MaxLinks; ++I)
    Links[static_cast<size_t>(I)] = Scored[static_cast<size_t>(I)].second;
}

void HnswIndex::insert(size_t I, const float *Coords, SearchScratch &S) {
  int L = Nodes[I].Level;
  Nodes[I].Links.assign(static_cast<size_t>(L) + 1, {});
  if (EntryPoint < 0) {
    EntryPoint = static_cast<int>(I);
    MaxLevel = L;
    return;
  }
  int Ep = EntryPoint;
  float EpDist = Map.l1DistanceTo(Coords, static_cast<size_t>(Ep));
  for (int Layer = MaxLevel; Layer > L; --Layer)
    descendLayer(Coords, Ep, EpDist, Layer);
  std::vector<std::pair<float, int>> Found;
  std::vector<float> Decode;
  for (int Layer = std::min(L, MaxLevel); Layer >= 0; --Layer) {
    searchLayer(Coords, Ep, EpDist, EfConstruction, Layer, S, Found);
    int MaxLinks = Layer == 0 ? 2 * M : M;
    size_t Take = std::min<size_t>(static_cast<size_t>(MaxLinks),
                                   Found.size());
    std::vector<int> &Mine = Nodes[I].Links[static_cast<size_t>(Layer)];
    for (size_t J = 0; J != Take; ++J) {
      int Nb = Found[J].second;
      Mine.push_back(Nb);
      std::vector<int> &Theirs =
          Nodes[static_cast<size_t>(Nb)].Links[static_cast<size_t>(Layer)];
      Theirs.push_back(static_cast<int>(I));
      if (static_cast<int>(Theirs.size()) > MaxLinks)
        shrinkLinks(Nb, Layer, MaxLinks, Decode);
    }
    Ep = Found.front().second;
    EpDist = Found.front().first;
  }
  if (L > MaxLevel) {
    MaxLevel = L;
    EntryPoint = static_cast<int>(I);
  }
}

HnswIndex::HnswIndex(const TypeMap &Map, int M, int EfConstruction,
                     uint64_t Seed, int MaxWays)
    : KnnIndex(Map, 8), M(std::max(2, M)),
      EfConstruction(std::max(8, EfConstruction)), Seed(Seed),
      MaxWays(MaxWays) {
  size_t N = Map.size();
  Nodes.resize(N);
  // Levels first (a pure per-row function), then strict row-order
  // insertion: the graph is a function of (Map, Seed) alone. Tombstoned
  // rows enter the graph too — they route, and queries filter them from
  // results.
  for (size_t I = 0; I != N; ++I)
    Nodes[I].Level = levelFor(I);
  SearchScratch S;
  std::vector<float> Coords(static_cast<size_t>(Map.dim()));
  for (size_t I = 0; I != N; ++I) {
    Map.decodeEmbedding(I, Coords.data());
    insert(I, Coords.data(), S);
  }
}

void HnswIndex::queryChunk(const float *Qs, int64_t Lo, int64_t Hi, int K,
                           int EfSearch,
                           std::vector<NeighborList> &Out) const {
  if (EntryPoint < 0 || K <= 0)
    return;
  const int Ef = std::max(EfSearch > 0 ? EfSearch : std::max(4 * K, 64), K);
  SearchScratch S; // reused across this chunk's queries
  std::vector<std::pair<float, int>> Found;
  for (int64_t QI = Lo; QI != Hi; ++QI) {
    const float *Q = Qs + QI * Map.dim();
    int Ep = EntryPoint;
    float EpDist = Map.l1DistanceTo(Q, static_cast<size_t>(Ep));
    for (int Layer = MaxLevel; Layer > 0; --Layer)
      descendLayer(Q, Ep, EpDist, Layer);
    searchLayer(Q, Ep, EpDist, Ef, 0, S, Found);
    // Found is already ascending under (distance, index) with exact
    // distances; keep the first K live rows (tombstones route but never
    // surface).
    NeighborList &Result = Out[static_cast<size_t>(QI)];
    for (const auto &[Dist, Idx] : Found) {
      if (!Map.isLive(static_cast<size_t>(Idx)))
        continue;
      Result.emplace_back(Idx, Dist);
      if (static_cast<int>(Result.size()) == K)
        break;
    }
  }
}

std::string HnswIndex::describe(int EfSearch) const {
  return strformat("hnsw graph: %zu nodes, M=%d, efConstruction=%d, "
                   "efSearch=%s",
                   NumIndexed, M, EfConstruction,
                   EfSearch > 0 ? std::to_string(EfSearch).c_str()
                                : "default");
}

void HnswIndex::save(ArchiveWriter &W) const {
  W.writeI32(M);
  W.writeI32(EfConstruction);
  W.writeU64(Seed);
  W.writeI32(EntryPoint);
  W.writeI32(MaxLevel);
  W.writeU64(Nodes.size());
  for (const Node &N : Nodes) {
    W.writeI32(N.Level);
    for (const std::vector<int> &Links : N.Links) {
      W.writeU64(Links.size());
      W.writeI32Array(reinterpret_cast<const int32_t *>(Links.data()),
                      Links.size());
    }
  }
}

std::unique_ptr<HnswIndex> HnswIndex::load(ArchiveCursor &C,
                                           const TypeMap &Map,
                                           std::string *Err) {
  auto Fail = [&](const char *Why) {
    if (Err && Err->empty())
      *Err = std::string("malformed kNN index snapshot: ") + Why;
    return nullptr;
  };
  std::unique_ptr<HnswIndex> Idx(new HnswIndex(Map, LoadShellTag{}));
  Idx->M = C.readI32();
  Idx->EfConstruction = C.readI32();
  Idx->Seed = C.readU64();
  Idx->EntryPoint = C.readI32();
  Idx->MaxLevel = C.readI32();
  uint64_t NumNodes = C.readU64();
  if (!C.ok() || Idx->M < 2 || Idx->EfConstruction < 1)
    return Fail("graph params");
  // Node id == τmap row id: the graph must cover exactly the snapshot's
  // markers.
  if (NumNodes != Map.size())
    return Fail("node count");
  if (NumNodes == 0) {
    if (Idx->EntryPoint != -1 || Idx->MaxLevel != -1)
      return Fail("entry point");
    return Idx;
  }
  if (Idx->EntryPoint < 0 ||
      static_cast<uint64_t>(Idx->EntryPoint) >= NumNodes ||
      Idx->MaxLevel < 0 || Idx->MaxLevel > 32)
    return Fail("entry point");
  Idx->Nodes.resize(static_cast<size_t>(NumNodes));
  for (uint64_t I = 0; I != NumNodes; ++I) {
    Node &N = Idx->Nodes[static_cast<size_t>(I)];
    N.Level = C.readI32();
    if (!C.ok() || N.Level < 0 || N.Level > Idx->MaxLevel)
      return Fail("node level");
    N.Links.resize(static_cast<size_t>(N.Level) + 1);
    for (std::vector<int> &Links : N.Links) {
      uint64_t NumLinks = C.readU64();
      if (!C.ok() || NumLinks > C.remaining())
        return Fail("adjacency payload");
      Links.resize(static_cast<size_t>(NumLinks));
      C.readI32Array(reinterpret_cast<int32_t *>(Links.data()),
                     Links.size());
      if (!C.ok())
        return Fail("adjacency payload");
      for (int E : Links)
        if (E < 0 || static_cast<uint64_t>(E) >= NumNodes ||
            static_cast<uint64_t>(E) == I)
          return Fail("adjacency out of range");
    }
  }
  if (static_cast<size_t>(Idx->MaxLevel) !=
      static_cast<size_t>(
          Idx->Nodes[static_cast<size_t>(Idx->EntryPoint)].Level))
    return Fail("entry point");
  // Cross-node invariant (checkable only once every node is in): a link
  // at layer L must reach a node that *has* a layer L, or the search
  // would walk off the target's adjacency array.
  for (const Node &N : Idx->Nodes)
    for (size_t L = 0; L != N.Links.size(); ++L)
      for (int E : N.Links[L])
        if (static_cast<size_t>(
                Idx->Nodes[static_cast<size_t>(E)].Level) < L)
          return Fail("adjacency level");
  return Idx;
}
