//===- tests/KnnTest.cpp - knn/ unit & property tests --------------------------===//

#include "LegacyExactScan.h"
#include "knn/TypeMap.h"
#include "support/Float16.h"
#include "support/Str.h"
#include "support/Rng.h"
#include "typesys/Type.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <set>
#include <vector>

using namespace typilus;

namespace {

/// A random map of N markers over T types in D dims.
struct MapFixture {
  TypeUniverse U;
  TypeMap Map;
  std::vector<std::vector<float>> Points;

  MapFixture(int N, int NumTypes, int D, uint64_t Seed) : Map(D) {
    Rng R(Seed);
    for (int I = 0; I != N; ++I) {
      std::vector<float> P(static_cast<size_t>(D));
      for (float &X : P)
        X = static_cast<float>(R.normal());
      TypeRef T = U.get(strformat("T%d", static_cast<int>(
                                             R.uniformInt(NumTypes))));
      Map.add(P.data(), T);
      Points.push_back(std::move(P));
    }
  }
};

} // namespace

TEST(ExactIndexTest, FindsSelfAtDistanceZero) {
  MapFixture F(50, 5, 8, 1);
  ExactIndex Idx(F.Map);
  for (size_t I = 0; I != 10; ++I) {
    auto N = Idx.query(F.Points[I].data(), 1);
    ASSERT_EQ(N.size(), 1u);
    EXPECT_EQ(N[0].first, static_cast<int>(I));
    EXPECT_FLOAT_EQ(N[0].second, 0.f);
  }
}

TEST(ExactIndexTest, DistancesAreSorted) {
  MapFixture F(100, 5, 8, 2);
  ExactIndex Idx(F.Map);
  auto N = Idx.query(F.Points[3].data(), 20);
  ASSERT_EQ(N.size(), 20u);
  for (size_t I = 1; I != N.size(); ++I)
    EXPECT_LE(N[I - 1].second, N[I].second);
}

TEST(ExactIndexTest, KLargerThanMapIsClamped) {
  MapFixture F(5, 2, 4, 3);
  ExactIndex Idx(F.Map);
  EXPECT_EQ(Idx.query(F.Points[0].data(), 50).size(), 5u);
}

//===----------------------------------------------------------------------===//
// Eq. 5 scoring
//===----------------------------------------------------------------------===//

TEST(ScoringTest, ProbabilitiesSumToOne) {
  TypeUniverse U;
  TypeMap Map(2);
  float A[2] = {0, 0}, B[2] = {1, 1}, C[2] = {2, 2};
  Map.add(A, U.parse("int"));
  Map.add(B, U.parse("str"));
  Map.add(C, U.parse("int"));
  NeighborList N{{0, 0.5f}, {1, 1.0f}, {2, 2.0f}};
  auto Scored = scoreNeighbors(Map, N, 1.0);
  double Sum = 0;
  for (const ScoredType &S : Scored)
    Sum += S.Prob;
  EXPECT_NEAR(Sum, 1.0, 1e-9);
}

TEST(ScoringTest, SameTypeNeighborsAggregate) {
  TypeUniverse U;
  TypeMap Map(1);
  // Distinct embeddings: identical (embedding, type) pairs would be
  // deduped on insert (crafted distances below are what the test pins).
  float X0[1] = {0}, X1[1] = {1}, X2[1] = {2};
  Map.add(X0, U.parse("int"));
  Map.add(X1, U.parse("int"));
  Map.add(X2, U.parse("str"));
  NeighborList N{{0, 1.0f}, {1, 1.0f}, {2, 1.0f}};
  auto Scored = scoreNeighbors(Map, N, 1.0);
  ASSERT_EQ(Scored.size(), 2u);
  EXPECT_EQ(Scored[0].Type, U.parse("int"));
  EXPECT_NEAR(Scored[0].Prob, 2.0 / 3.0, 1e-9);
}

TEST(ScoringTest, LargePSharpensTowardsNearest) {
  // p -> inf approaches 1-NN: the closest neighbour's type must win even
  // when outnumbered.
  TypeUniverse U;
  TypeMap Map(1);
  float X0[1] = {0}, X1[1] = {1}, X2[1] = {2}, X3[1] = {3};
  Map.add(X0, U.parse("int")); // closest
  Map.add(X1, U.parse("str"));
  Map.add(X2, U.parse("str"));
  Map.add(X3, U.parse("str"));
  NeighborList N{{0, 0.1f}, {1, 1.0f}, {2, 1.0f}, {3, 1.0f}};
  auto Sharp = scoreNeighbors(Map, N, 6.0);
  EXPECT_EQ(Sharp[0].Type, U.parse("int"));
  // With p ~ 0 it degenerates to majority voting.
  auto Flat = scoreNeighbors(Map, N, 0.001);
  EXPECT_EQ(Flat[0].Type, U.parse("str"));
}

TEST(ScoringTest, ZeroDistanceIsHandled) {
  TypeUniverse U;
  TypeMap Map(1);
  float X[1] = {0};
  Map.add(X, U.parse("int"));
  NeighborList N{{0, 0.0f}};
  auto Scored = scoreNeighbors(Map, N, 2.0);
  ASSERT_EQ(Scored.size(), 1u);
  EXPECT_NEAR(Scored[0].Prob, 1.0, 1e-9);
  EXPECT_TRUE(std::isfinite(Scored[0].Prob));
}

TEST(ScoringTest, DeterministicTieBreaking) {
  TypeUniverse U;
  TypeMap Map(1);
  float X[1] = {0};
  Map.add(X, U.parse("str"));
  Map.add(X, U.parse("int"));
  NeighborList N{{0, 1.0f}, {1, 1.0f}};
  auto S1 = scoreNeighbors(Map, N, 1.0);
  auto S2 = scoreNeighbors(Map, N, 1.0);
  EXPECT_EQ(S1[0].Type, S2[0].Type);
  EXPECT_EQ(S1[0].Type, U.parse("int")); // lexicographic tie-break
}

//===----------------------------------------------------------------------===//
// Parallel build / batch queries (the execution layer)
//===----------------------------------------------------------------------===//

#include "support/ThreadPool.h"

TEST(ExactIndexTest, QueryBatchMatchesIndividualQueries) {
  MapFixture F(400, 6, 8, 13);
  ExactIndex Exact(F.Map);
  std::vector<float> Qs;
  const int NumQ = 20, D = 8;
  for (int Q = 0; Q != NumQ; ++Q)
    Qs.insert(Qs.end(), F.Points[static_cast<size_t>(Q)].begin(),
              F.Points[static_cast<size_t>(Q)].end());
  auto Batch = Exact.queryBatch(Qs.data(), NumQ, 7);
  ASSERT_EQ(Batch.size(), static_cast<size_t>(NumQ));
  for (int Q = 0; Q != NumQ; ++Q) {
    auto One = Exact.query(Qs.data() + Q * D, 7);
    ASSERT_EQ(Batch[static_cast<size_t>(Q)], One);
  }
}

TEST(TypeMapTest, IdenticalMarkersDedupeOnInsert) {
  TypeUniverse U;
  TypeMap Map(2);
  float A[2] = {1.f, 2.f}, B[2] = {1.f, 2.f}, C[2] = {3.f, 4.f};
  EXPECT_TRUE(Map.add(A, U.parse("int")));
  // Same embedding bytes + same type: dropped, count does not grow.
  EXPECT_FALSE(Map.add(B, U.parse("int")));
  EXPECT_EQ(Map.size(), 1u);
  EXPECT_EQ(Map.droppedDuplicates(), 1u);
  // Same embedding, different type: a real marker.
  EXPECT_TRUE(Map.add(A, U.parse("str")));
  // Different embedding, same type: a real marker.
  EXPECT_TRUE(Map.add(C, U.parse("int")));
  EXPECT_EQ(Map.size(), 3u);
  // Duplicates of the later inserts are dropped too.
  EXPECT_FALSE(Map.add(C, U.parse("int")));
  EXPECT_EQ(Map.size(), 3u);
  EXPECT_EQ(Map.droppedDuplicates(), 2u);
}

TEST(TypeMapTest, DedupSurvivesSnapshotRoundTrip) {
  TypeUniverse U;
  TypeMap Map(2);
  float A[2] = {1.f, 2.f};
  Map.add(A, U.parse("int"));

  std::map<TypeRef, int> TypeIds{{U.parse("int"), 0}};
  std::vector<TypeRef> ById{U.parse("int")};
  ArchiveWriter W(1);
  W.beginChunk("tmap");
  Map.save(W, TypeIds);
  W.endChunk();
  ArchiveReader R;
  std::string Err;
  ASSERT_TRUE(R.openBytes(W.bytes(), &Err)) << Err;
  ArchiveCursor C = R.chunk("tmap", &Err);
  TypeMap Loaded(2);
  ASSERT_TRUE(Loaded.load(C, ById, &Err)) << Err;
  ASSERT_EQ(Loaded.size(), 1u);
  // The loaded map dedupes against its snapshotted markers.
  EXPECT_FALSE(Loaded.add(A, U.parse("int")));
  EXPECT_EQ(Loaded.size(), 1u);
}

TEST(TypeMapTest, ReserveKeepsContentsIntact) {
  TypeUniverse U;
  TypeMap Map(3);
  float A[3] = {1, 2, 3};
  Map.add(A, U.parse("int"));
  Map.reserve(1000);
  EXPECT_EQ(Map.size(), 1u);
  EXPECT_FLOAT_EQ(Map.embedding(0)[1], 2.f);
  float B[3] = {4, 5, 6};
  Map.add(B, U.parse("str"));
  EXPECT_EQ(Map.size(), 2u);
  EXPECT_FLOAT_EQ(Map.embedding(1)[2], 6.f);
}

TEST(TypeMapTest, ReserveIsTotalAndIdempotent) {
  TypeUniverse U;
  TypeMap Map(3);
  // reserve() takes a *total* marker bound, so repeating the same call
  // must not grow the reservation (the historical incremental semantics
  // doubled it on every call).
  Map.reserve(100);
  size_t Cap = Map.reservedMarkers();
  EXPECT_GE(Cap, 100u);
  Map.reserve(100);
  EXPECT_EQ(Map.reservedMarkers(), Cap);
  // A smaller bound never shrinks an existing reservation.
  Map.reserve(10);
  EXPECT_EQ(Map.reservedMarkers(), Cap);
}

//===----------------------------------------------------------------------===//
// Quantized marker stores (f16 / int8)
//===----------------------------------------------------------------------===//

namespace {

/// L1 between a query and the *decoded* coordinates of marker I — the
/// reference l1DistanceTo must agree with on every store.
float decodedL1(const TypeMap &Map, const float *Q, size_t I) {
  std::vector<float> Row(static_cast<size_t>(Map.dim()));
  Map.decodeEmbedding(I, Row.data());
  float Sum = 0;
  for (int D = 0; D != Map.dim(); ++D)
    Sum += std::fabs(Q[static_cast<size_t>(D)] - Row[static_cast<size_t>(D)]);
  return Sum;
}

} // namespace

TEST(QuantizedMapTest, F16CoordsAreRoundToNearestEven) {
  MapFixture F(64, 4, 8, 11);
  TypeMap Q = F.Map; // quantize a copy; keep the f32 original
  Q.quantize(MarkerStore::F16);
  EXPECT_EQ(Q.store(), MarkerStore::F16);
  ASSERT_EQ(Q.size(), F.Map.size());
  for (size_t I = 0; I != Q.size(); ++I)
    for (int D = 0; D != 8; ++D) {
      float Orig = F.Map.embedding(I)[D];
      // Exactly one binary16 rounding, nothing else.
      EXPECT_EQ(Q.coord(I, D), f16BitsToF32(f32ToF16Bits(Orig)));
      EXPECT_NEAR(Q.coord(I, D), Orig, 1e-3f * std::max(1.f, std::fabs(Orig)));
    }
}

TEST(QuantizedMapTest, Int8CoordsWithinHalfScaleStep) {
  MapFixture F(64, 4, 8, 12);
  TypeMap Q = F.Map;
  Q.quantize(MarkerStore::Int8);
  EXPECT_EQ(Q.store(), MarkerStore::Int8);
  for (size_t I = 0; I != Q.size(); ++I) {
    float MaxAbs = 0;
    for (int D = 0; D != 8; ++D)
      MaxAbs = std::max(MaxAbs, std::fabs(F.Map.embedding(I)[D]));
    float Scale = MaxAbs / 127.f;
    for (int D = 0; D != 8; ++D)
      // Round-to-nearest against a per-marker scale: the decode error is
      // at most half a quantization step.
      EXPECT_NEAR(Q.coord(I, D), F.Map.embedding(I)[D], 0.5f * Scale + 1e-6f);
  }
}

TEST(QuantizedMapTest, DistancesMatchDecodedCoordinates) {
  MapFixture F(128, 6, 16, 13);
  for (MarkerStore S : {MarkerStore::F16, MarkerStore::Int8}) {
    TypeMap Q = F.Map;
    Q.quantize(S);
    Rng R(14);
    std::vector<float> Query(16);
    for (int T = 0; T != 10; ++T) {
      for (float &X : Query)
        X = static_cast<float>(R.normal());
      for (size_t I = 0; I < Q.size(); I += 7)
        EXPECT_NEAR(Q.l1DistanceTo(Query.data(), I),
                    decodedL1(Q, Query.data(), I), 1e-3f)
            << markerStoreName(S) << " marker " << I;
    }
  }
}

TEST(QuantizedMapTest, SnapshotRoundTripIsExact) {
  MapFixture F(50, 5, 8, 15);
  for (MarkerStore S : {MarkerStore::F16, MarkerStore::Int8}) {
    TypeMap Q = F.Map;
    Q.quantize(S);

    std::map<TypeRef, int> TypeIds;
    std::vector<TypeRef> ById;
    for (size_t I = 0; I != Q.size(); ++I)
      TypeIds.emplace(Q.type(I), 0);
    int Next = 0;
    for (auto &[T, Id] : TypeIds) {
      Id = Next++;
      ById.push_back(T);
    }

    ArchiveWriter W(2);
    W.beginChunk("tmap");
    Q.save(W, TypeIds);
    W.endChunk();
    ArchiveReader R;
    std::string Err;
    ASSERT_TRUE(R.openBytes(W.bytes(), &Err)) << Err;
    ArchiveCursor C = R.chunk("tmap", &Err);
    TypeMap Loaded(8);
    ASSERT_TRUE(Loaded.load(C, ById, &Err, S)) << Err;
    ASSERT_TRUE(C.atEnd()) << "trailing bytes in a "
                           << markerStoreName(S) << " snapshot";
    ASSERT_EQ(Loaded.size(), Q.size());
    EXPECT_EQ(Loaded.store(), S);
    for (size_t I = 0; I != Q.size(); ++I) {
      EXPECT_EQ(Loaded.type(I), ById[static_cast<size_t>(TypeIds.at(Q.type(I)))]);
      for (int D = 0; D != 8; ++D)
        // Bit-exact: quantized coordinates serialize as their stored
        // encoding, never through a decode/re-encode.
        EXPECT_EQ(Loaded.coord(I, D), Q.coord(I, D))
            << markerStoreName(S) << " marker " << I << " dim " << D;
    }
  }
}

TEST(QuantizedMapTest, AddEncodesAndDedupesOnStoredBytes) {
  TypeUniverse U;
  TypeMap Map(2);
  float A[2] = {1.0f, 2.0f};
  Map.add(A, U.parse("int"));
  Map.quantize(MarkerStore::F16);

  // A fresh point inserts (encoded on the way in)...
  float B[2] = {3.0f, 4.0f};
  EXPECT_TRUE(Map.add(B, U.parse("int")));
  EXPECT_EQ(Map.store(), MarkerStore::F16);
  EXPECT_EQ(Map.size(), 2u);
  // ...an exact duplicate is dropped...
  EXPECT_FALSE(Map.add(B, U.parse("int")));
  // ...and so is a point that only collides after f16 rounding (1e-5 is
  // far below half a ulp of 3.0 in binary16, which is ~1e-3).
  float BNudged[2] = {3.00001f, 4.0f};
  ASSERT_EQ(f32ToF16Bits(BNudged[0]), f32ToF16Bits(B[0]));
  EXPECT_FALSE(Map.add(BNudged, U.parse("int")));
  EXPECT_EQ(Map.size(), 2u);
  EXPECT_EQ(Map.droppedDuplicates(), 2u);
}

TEST(QuantizedMapTest, QueryQualityCloseToF32) {
  // kNN answers over quantized stores must stay close to the exact-store
  // answers: the Fig. 6 accuracy-delta guarantee, in miniature.
  MapFixture F(1000, 10, 16, 16);
  ExactIndex Truth(F.Map);
  Rng R(17);
  const int Queries = 40, K = 10;
  for (MarkerStore S : {MarkerStore::F16, MarkerStore::Int8}) {
    TypeMap Q = F.Map;
    Q.quantize(S);
    ExactIndex Approx(Q);
    double Recall = 0;
    for (int T = 0; T != Queries; ++T) {
      std::vector<float> P(16);
      for (float &X : P)
        X = static_cast<float>(R.normal());
      auto Want = Truth.query(P.data(), K);
      auto Got = Approx.query(P.data(), K);
      std::set<int> WantSet;
      for (auto [I, D] : Want)
        WantSet.insert(I);
      int Hits = 0;
      for (auto [I, D] : Got)
        Hits += WantSet.count(I);
      Recall += static_cast<double>(Hits) / K;
    }
    Recall /= Queries;
    EXPECT_GE(Recall, S == MarkerStore::F16 ? 0.97 : 0.85)
        << markerStoreName(S) << " neighbour recall degraded too far";
  }
}

//===----------------------------------------------------------------------===//
// Coreset subsampling
//===----------------------------------------------------------------------===//

TEST(CoresetTest, BoundRespectedAndEveryTypeKept) {
  MapFixture F(500, 10, 8, 18);
  std::set<TypeRef> AllTypes;
  for (size_t I = 0; I != F.Map.size(); ++I)
    AllTypes.insert(F.Map.type(I));

  size_t NewSize = F.Map.subsampleCoreset(60);
  EXPECT_EQ(NewSize, F.Map.size());
  EXPECT_LE(F.Map.size(), 60u);
  EXPECT_GE(F.Map.size(), AllTypes.size());
  std::set<TypeRef> KeptTypes;
  for (size_t I = 0; I != F.Map.size(); ++I)
    KeptTypes.insert(F.Map.type(I));
  EXPECT_EQ(KeptTypes, AllTypes) << "subsampling lost a type entirely";
}

TEST(CoresetTest, DeterministicAcrossRuns) {
  MapFixture A(300, 8, 8, 19), B(300, 8, 8, 19);
  A.Map.subsampleCoreset(50);
  B.Map.subsampleCoreset(50);
  ASSERT_EQ(A.Map.size(), B.Map.size());
  for (size_t I = 0; I != A.Map.size(); ++I) {
    EXPECT_EQ(A.Map.type(I)->str(), B.Map.type(I)->str());
    for (int D = 0; D != 8; ++D)
      EXPECT_EQ(A.Map.embedding(I)[D], B.Map.embedding(I)[D]);
  }
}

TEST(CoresetTest, NoOpWithinBoundOrUnlimited) {
  MapFixture F(40, 4, 8, 20);
  EXPECT_EQ(F.Map.subsampleCoreset(0), 40u);   // 0 = unlimited
  EXPECT_EQ(F.Map.subsampleCoreset(100), 40u); // already within bound
  EXPECT_EQ(F.Map.size(), 40u);
  // Survivors after a real cut still dedupe correctly on insert.
  F.Map.subsampleCoreset(20);
  std::vector<float> Row(8);
  for (int D = 0; D != 8; ++D)
    Row[static_cast<size_t>(D)] = F.Map.embedding(0)[D];
  EXPECT_FALSE(F.Map.add(Row.data(), F.Map.type(0)));
}

//===----------------------------------------------------------------------===//
// τmap mutation (file tags, tombstones, compaction) — the editor loop
//===----------------------------------------------------------------------===//

namespace {

/// Random tagged markers in per-file blocks (block order makes the
/// compacted layout directly comparable to a fresh build).
struct TaggedMapFixture {
  TypeUniverse U;
  TypeMap Map;
  std::vector<std::string> Files;
  std::vector<std::vector<float>> Points;
  std::vector<TypeRef> MarkTypes;
  std::vector<std::string> Tags; ///< Owning file per marker.

  TaggedMapFixture(int NumFiles, int PerFile, int NumTypes, int D,
                   uint64_t Seed)
      : Map(D) {
    Rng R(Seed);
    for (int F = 0; F != NumFiles; ++F) {
      std::string Tag = strformat("proj/f%02d.py", F);
      Files.push_back(Tag);
      for (int I = 0; I != PerFile; ++I) {
        std::vector<float> P(static_cast<size_t>(D));
        for (float &X : P)
          X = static_cast<float>(R.normal());
        TypeRef T = U.get(
            strformat("T%d", static_cast<int>(R.uniformInt(NumTypes))));
        Map.add(P.data(), T, Tag);
        Points.push_back(std::move(P));
        MarkTypes.push_back(T);
        Tags.push_back(Tag);
      }
    }
  }
};

} // namespace

TEST(TypeMapMutationTest, FileTagsAndRangeBookkeeping) {
  TaggedMapFixture F(4, 10, 5, 8, 21);
  ASSERT_EQ(F.Map.size(), 40u);
  EXPECT_EQ(F.Map.liveSize(), 40u);
  EXPECT_EQ(F.Map.deadMarkers(), 0u);
  EXPECT_EQ(F.Map.tombstoneRatio(), 0.0);

  // Every row knows its owner; per-file ranges are ascending and exact.
  for (size_t I = 0; I != F.Map.size(); ++I)
    EXPECT_EQ(F.Map.fileTag(I), F.Tags[I]) << "row " << I;
  for (const std::string &File : F.Files) {
    std::vector<int> Rows = F.Map.markersForFile(File);
    ASSERT_EQ(Rows.size(), 10u);
    for (size_t I = 1; I != Rows.size(); ++I)
      EXPECT_LT(Rows[I - 1], Rows[I]);
    for (int Row : Rows)
      EXPECT_EQ(F.Map.fileTag(static_cast<size_t>(Row)), File);
  }

  // Untagged adds stay untagged and invisible to file queries.
  TypeUniverse U2;
  TypeMap Plain(2);
  float A[2] = {1, 2};
  Plain.add(A, U2.parse("int"));
  EXPECT_EQ(Plain.fileTag(0), "");
  EXPECT_TRUE(Plain.markersForFile("anything.py").empty());

  // Removal tombstones exactly the file's rows, in place.
  size_t Removed = F.Map.removeMarkersForFile(F.Files[1]);
  EXPECT_EQ(Removed, 10u);
  EXPECT_EQ(F.Map.size(), 40u) << "tombstoning must not move rows";
  EXPECT_EQ(F.Map.liveSize(), 30u);
  EXPECT_EQ(F.Map.deadMarkers(), 10u);
  EXPECT_NEAR(F.Map.tombstoneRatio(), 0.25, 1e-12);
  EXPECT_TRUE(F.Map.markersForFile(F.Files[1]).empty());
  for (size_t I = 0; I != F.Map.size(); ++I)
    EXPECT_EQ(F.Map.isLive(I), F.Tags[I] != F.Files[1]) << "row " << I;
  // Removing again is a no-op.
  EXPECT_EQ(F.Map.removeMarkersForFile(F.Files[1]), 0u);
}

TEST(TypeMapMutationTest, RemoveReAddResurrectsBitIdentically) {
  TaggedMapFixture F(3, 12, 4, 8, 22);
  // Snapshot the full marker layout.
  std::vector<TypeRef> TypesBefore;
  std::vector<float> CoordsBefore;
  for (size_t I = 0; I != F.Map.size(); ++I) {
    TypesBefore.push_back(F.Map.type(I));
    for (int D = 0; D != 8; ++D)
      CoordsBefore.push_back(F.Map.embedding(I)[D]);
  }

  ASSERT_EQ(F.Map.removeMarkersForFile(F.Files[1]), 12u);
  // Re-add the identical content: every add resurrects (returns true)
  // instead of appending.
  for (size_t I = 12; I != 24; ++I)
    EXPECT_TRUE(F.Map.add(F.Points[I].data(), F.MarkTypes[I], F.Files[1]))
        << "row " << I << " did not resurrect";

  ASSERT_EQ(F.Map.size(), 36u) << "resurrection must not append";
  EXPECT_EQ(F.Map.liveSize(), 36u);
  EXPECT_EQ(F.Map.deadMarkers(), 0u);
  for (size_t I = 0; I != F.Map.size(); ++I) {
    EXPECT_EQ(F.Map.type(I), TypesBefore[I]) << "row " << I;
    EXPECT_EQ(F.Map.fileTag(I), F.Tags[I]) << "row " << I;
    for (int D = 0; D != 8; ++D)
      EXPECT_EQ(F.Map.embedding(I)[D],
                CoordsBefore[I * 8 + static_cast<size_t>(D)])
          << "row " << I << " dim " << D;
  }
  std::vector<int> Rows = F.Map.markersForFile(F.Files[1]);
  ASSERT_EQ(Rows.size(), 12u);
  EXPECT_EQ(Rows.front(), 12);
  EXPECT_EQ(Rows.back(), 23);

  // A live duplicate still drops (first-writer ownership).
  EXPECT_FALSE(F.Map.add(F.Points[0].data(), F.MarkTypes[0], "elsewhere.py"));
  EXPECT_EQ(F.Map.fileTag(0), F.Files[0]);
}

TEST(TypeMapMutationTest, TombstoneThenCompactEqualsFreshBuild) {
  TaggedMapFixture F(4, 15, 6, 8, 23);
  ASSERT_EQ(F.Map.removeMarkersForFile(F.Files[2]), 15u);
  EXPECT_TRUE(F.Map.compact());
  EXPECT_FALSE(F.Map.compact()) << "compact without tombstones must no-op";
  EXPECT_EQ(F.Map.deadMarkers(), 0u);

  // Fresh build over the surviving files only, same order.
  TypeMap Fresh(8);
  for (size_t I = 0; I != F.Points.size(); ++I)
    if (F.Tags[I] != F.Files[2])
      Fresh.add(F.Points[I].data(), F.MarkTypes[I], F.Tags[I]);

  ASSERT_EQ(F.Map.size(), Fresh.size());
  for (size_t I = 0; I != Fresh.size(); ++I) {
    EXPECT_EQ(F.Map.type(I), Fresh.type(I)) << "row " << I;
    EXPECT_EQ(F.Map.fileTag(I), Fresh.fileTag(I)) << "row " << I;
    for (int D = 0; D != 8; ++D)
      EXPECT_EQ(F.Map.embedding(I)[D], Fresh.embedding(I)[D])
          << "row " << I << " dim " << D;
  }
  // Per-file bookkeeping matches the fresh build's.
  for (const std::string &File : F.Files)
    EXPECT_EQ(F.Map.markersForFile(File), Fresh.markersForFile(File)) << File;
  // Dedup state after compaction matches too: an existing row still drops.
  EXPECT_FALSE(F.Map.add(F.Points[0].data(), F.MarkTypes[0], F.Files[0]));

  // Identical maps build identical graphs: every query agrees bit-wise.
  HnswIndex IdxA(F.Map), IdxB(Fresh);
  for (size_t Q = 0; Q != 20; ++Q) {
    auto NA = IdxA.query(F.Points[Q].data(), 10);
    auto NB = IdxB.query(F.Points[Q].data(), 10);
    ASSERT_EQ(NA.size(), NB.size());
    for (size_t I = 0; I != NA.size(); ++I) {
      EXPECT_EQ(NA[I].first, NB[I].first);
      EXPECT_EQ(NA[I].second, NB[I].second);
    }
  }
}

TEST(TypeMapMutationTest, CompactWorksOnQuantizedStores) {
  // The LSP mutates *loaded* artifacts, which may be f16/int8: compaction
  // must preserve the stored (encoded) bytes of the survivors.
  for (MarkerStore S : {MarkerStore::F16, MarkerStore::Int8}) {
    TaggedMapFixture F(3, 8, 4, 8, 24);
    TypeMap Q = F.Map;
    Q.quantize(S);
    // Re-tag rows (quantize keeps tags; this asserts it).
    for (size_t I = 0; I != Q.size(); ++I)
      EXPECT_EQ(Q.fileTag(I), F.Tags[I]);

    std::vector<float> Before;
    std::vector<TypeRef> TypesBefore;
    for (size_t I = 0; I != Q.size(); ++I)
      if (F.Tags[I] != F.Files[0]) {
        TypesBefore.push_back(Q.type(I));
        for (int D = 0; D != 8; ++D)
          Before.push_back(Q.coord(I, D));
      }

    ASSERT_EQ(Q.removeMarkersForFile(F.Files[0]), 8u);
    ASSERT_TRUE(Q.compact());
    ASSERT_EQ(Q.size(), 16u);
    EXPECT_EQ(Q.store(), S);
    size_t Pos = 0;
    for (size_t I = 0; I != Q.size(); ++I) {
      EXPECT_EQ(Q.type(I), TypesBefore[I]) << markerStoreName(S);
      for (int D = 0; D != 8; ++D)
        EXPECT_EQ(Q.coord(I, D), Before[Pos++])
            << markerStoreName(S) << " row " << I << " dim " << D;
    }
  }
}

TEST(TypeMapMutationTest, DeadRowsSkippedInQueries) {
  TaggedMapFixture F(4, 25, 6, 8, 25);
  ExactIndex Exact(F.Map);
  HnswIndex Hnsw(F.Map);

  // Self-queries resolve to the marker itself while it is live.
  auto Self = Exact.query(F.Points[30].data(), 1);
  ASSERT_EQ(Self.size(), 1u);
  ASSERT_EQ(Self[0].first, 30);
  std::string Victim = F.Tags[30];

  ASSERT_GT(F.Map.removeMarkersForFile(Victim), 0u);
  // Neither index returns a tombstoned row — including through indexes
  // built before the removal.
  for (size_t Q = 0; Q < F.Points.size(); Q += 9) {
    for (auto [I, D] : Exact.query(F.Points[Q].data(), 10)) {
      EXPECT_TRUE(F.Map.isLive(static_cast<size_t>(I)));
      EXPECT_NE(F.Map.fileTag(static_cast<size_t>(I)), Victim);
    }
    for (auto [I, D] : Hnsw.query(F.Points[Q].data(), 10)) {
      EXPECT_TRUE(F.Map.isLive(static_cast<size_t>(I)));
      EXPECT_NE(F.Map.fileTag(static_cast<size_t>(I)), Victim);
    }
  }
  // The dead self-marker's slot is answered by some other live row.
  auto After = Exact.query(F.Points[30].data(), 1);
  ASSERT_EQ(After.size(), 1u);
  EXPECT_NE(After[0].first, 30);
}

TEST(TypeMapMutationTest, TagsSurviveCoresetEviction) {
  // Per-file bookkeeping must stay exact through subsampleCoreset's row
  // remapping (serving artifacts are subsampled before the LSP mutates
  // them).
  TaggedMapFixture F(2, 100, 6, 8, 26);
  F.Map.subsampleCoreset(40);
  ASSERT_LE(F.Map.size(), 40u);

  for (const std::string &File : F.Files) {
    std::vector<int> Rows = F.Map.markersForFile(File);
    std::vector<int> Expect;
    for (size_t I = 0; I != F.Map.size(); ++I)
      if (F.Map.fileTag(I) == File)
        Expect.push_back(static_cast<int>(I));
    EXPECT_EQ(Rows, Expect) << File;
  }
  // Removal after eviction retires exactly the surviving tagged rows.
  size_t TaggedA = F.Map.markersForFile(F.Files[0]).size();
  EXPECT_EQ(F.Map.removeMarkersForFile(F.Files[0]), TaggedA);
  EXPECT_EQ(F.Map.liveSize(), F.Map.size() - TaggedA);
}

//===----------------------------------------------------------------------===//
// KnnIndex delta rows: rows appended after the build merge into answers
//===----------------------------------------------------------------------===//

TEST(KnnIndexTest, DeltaMergeMatchesOracleForEveryKindAndStore) {
  // Every index answers the rows appended after its build through the
  // shared exact delta scan. The oracle: the same kind built over a copy
  // of the map taken before the appends (same rows, same seed, so the same
  // structure) answers the indexed rows; every live delta row is added,
  // the union sorted under (distance, index) and truncated to K.
  // Tombstones land on both sides of indexedMarkers().
  const int D = 8;
  for (MarkerStore S :
       {MarkerStore::F32, MarkerStore::F16, MarkerStore::Int8}) {
    TaggedMapFixture F(4, 60, 6, D, 41);
    if (S != MarkerStore::F32)
      F.Map.quantize(S);
    TypeMap Base = F.Map;
    const size_t NumIndexed = F.Map.size();
    const KnnIndexKind Kinds[] = {KnnIndexKind::Exact, KnnIndexKind::Hnsw};
    std::vector<std::unique_ptr<KnnIndex>> Idx, BaseIdx;
    for (KnnIndexKind Kind : Kinds) {
      Idx.push_back(buildKnnIndex(Kind, F.Map));
      BaseIdx.push_back(buildKnnIndex(Kind, Base));
    }

    // Delta rows: one group owned by an indexed file (its removal then
    // tombstones rows on both sides), one doomed new file, one live one.
    Rng R(42);
    std::vector<float> Qs;
    const std::string Groups[] = {F.Files[1], "proj/gone.py", "proj/new.py"};
    for (const std::string &Tag : Groups)
      for (int I = 0; I != 20; ++I) {
        std::vector<float> P(static_cast<size_t>(D));
        for (float &X : P)
          X = static_cast<float>(R.normal());
        ASSERT_TRUE(F.Map.add(P.data(), F.MarkTypes[static_cast<size_t>(I)],
                              Tag));
        if (I < 3) // self-queries: exact-zero distances on delta rows
          Qs.insert(Qs.end(), P.begin(), P.end());
      }
    for (const std::string &Tag : {F.Files[1], F.Files[2]}) {
      ASSERT_GT(F.Map.removeMarkersForFile(Tag), 0u);
      ASSERT_GT(Base.removeMarkersForFile(Tag), 0u);
    }
    ASSERT_GT(F.Map.removeMarkersForFile("proj/gone.py"), 0u);
    for (int Q = 0; Q != 20; ++Q)
      for (int I = 0; I != D; ++I)
        Qs.push_back(static_cast<float>(R.normal()));
    const int64_t NumQ = static_cast<int64_t>(Qs.size()) / D;

    for (size_t KI = 0; KI != Idx.size(); ++KI) {
      ASSERT_EQ(Idx[KI]->indexedMarkers(), NumIndexed);
      EXPECT_FALSE(Idx[KI]->isCompact());
      for (int K : {1, 10}) {
        auto Indexed = BaseIdx[KI]->queryBatch(Qs.data(), NumQ, K);
        bool SawDelta = false;
        for (int Threads : {1, 4}) {
          setGlobalNumThreads(Threads);
          auto Got = Idx[KI]->queryBatch(Qs.data(), NumQ, K);
          setGlobalNumThreads(0);
          for (int64_t Q = 0; Q != NumQ; ++Q) {
            NeighborList Want = Indexed[static_cast<size_t>(Q)];
            for (size_t I = NumIndexed; I != F.Map.size(); ++I)
              if (F.Map.isLive(I))
                Want.emplace_back(static_cast<int>(I),
                                  F.Map.l1DistanceTo(Qs.data() + Q * D, I));
            std::sort(Want.begin(), Want.end(),
                      [](const auto &A, const auto &B) {
                        return std::make_pair(A.second, A.first) <
                               std::make_pair(B.second, B.first);
                      });
            Want.resize(std::min(Want.size(), static_cast<size_t>(K)));
            ASSERT_EQ(Got[static_cast<size_t>(Q)], Want)
                << markerStoreName(S) << " " << knnIndexName(Kinds[KI])
                << " K=" << K << " query " << Q << " threads=" << Threads;
            for (auto [I, Dist] : Want)
              SawDelta |= static_cast<size_t>(I) >= NumIndexed;
          }
        }
        EXPECT_TRUE(SawDelta) << "no delta row surfaced";
      }
    }
  }
}

//===----------------------------------------------------------------------===//
// Blocked exact top-k: bit-identical to the legacy full-sort scan
//===----------------------------------------------------------------------===//

TEST(ExactIndexTest, BlockedScanMatchesLegacyBitForBit) {
  // The blocked engine replaces materialize + partial_sort with a tiled
  // scan and a bounded heap; (distance, index) is a total order, so the
  // selected set — and its order — must be the legacy result exactly,
  // on every marker store and at any thread count.
  MapFixture F(1500, 12, 16, 31);
  Rng R(32);
  const int NumQ = 40, D = 16;
  std::vector<float> Qs;
  for (int Q = 0; Q != NumQ; ++Q) {
    if (Q < 10) { // self-queries exercise exact-zero distances
      Qs.insert(Qs.end(), F.Points[static_cast<size_t>(Q)].begin(),
                F.Points[static_cast<size_t>(Q)].end());
      continue;
    }
    for (int I = 0; I != D; ++I)
      Qs.push_back(static_cast<float>(R.normal()));
  }

  for (MarkerStore S :
       {MarkerStore::F32, MarkerStore::F16, MarkerStore::Int8}) {
    TypeMap Map = F.Map;
    if (S != MarkerStore::F32)
      Map.quantize(S);
    ExactIndex Idx(Map);
    for (int K : {1, 10, 64, 2000}) { // 2000 > N: clamped, full sort
      for (int Q = 0; Q != NumQ; ++Q) {
        auto Blocked = Idx.query(Qs.data() + Q * D, K);
        auto Legacy = legacyExactQuery(Map, Qs.data() + Q * D, K);
        ASSERT_EQ(Blocked, Legacy)
            << markerStoreName(S) << " query " << Q << " K=" << K;
      }
      for (int Threads : {1, 4}) {
        setGlobalNumThreads(Threads);
        auto Batch = Idx.queryBatch(Qs.data(), NumQ, K);
        setGlobalNumThreads(0);
        ASSERT_EQ(Batch.size(), static_cast<size_t>(NumQ));
        for (int Q = 0; Q != NumQ; ++Q)
          ASSERT_EQ(Batch[static_cast<size_t>(Q)],
                    legacyExactQuery(Map, Qs.data() + Q * D, K))
              << markerStoreName(S) << " batch query " << Q << " K=" << K
              << " threads=" << Threads;
      }
    }
  }
}

TEST(ExactIndexTest, BlockedScanHandlesDegenerateK) {
  MapFixture F(50, 5, 8, 34);
  ExactIndex Idx(F.Map);
  EXPECT_TRUE(Idx.query(F.Points[0].data(), 0).empty());
  auto Batch = Idx.queryBatch(F.Points[0].data(), 1, 0);
  ASSERT_EQ(Batch.size(), 1u);
  EXPECT_TRUE(Batch[0].empty());
}

//===----------------------------------------------------------------------===//
// HNSW graph index (deterministic build, budgeted query)
//===----------------------------------------------------------------------===//

TEST(HnswIndexTest, EmptyMapYieldsNothing) {
  TypeUniverse U;
  TypeMap Map(4);
  HnswIndex H(Map);
  std::vector<float> Q(4, 0.f);
  EXPECT_TRUE(H.query(Q.data(), 5).empty());
}

TEST(HnswIndexTest, HighRecallVsExact) {
  // The acceptance guardrail: at the default build parameters and a
  // bounded per-query budget, recall@10 against the exact scan must
  // clear 0.95.
  MapFixture F(2000, 20, 16, 4);
  ExactIndex Exact(F.Map);
  HnswIndex Hnsw(F.Map);
  Rng R(5);
  double HnswRecall = 0;
  const int Queries = 50, K = 10;
  for (int Q = 0; Q != Queries; ++Q) {
    std::vector<float> P(16);
    for (float &X : P)
      X = static_cast<float>(R.normal());
    auto Truth = Exact.query(P.data(), K);
    std::set<int> TruthSet;
    for (auto [I, D] : Truth)
      TruthSet.insert(I);
    int HnswHits = 0;
    for (auto [I, D] : Hnsw.query(P.data(), K, /*EfSearch=*/128))
      HnswHits += TruthSet.count(I);
    HnswRecall += static_cast<double>(HnswHits) / K;
  }
  HnswRecall /= Queries;
  EXPECT_GE(HnswRecall, 0.95) << "HNSW recall@10 below the guardrail";
}

TEST(HnswIndexTest, ReturnedDistancesAreTrueL1) {
  MapFixture F(300, 5, 8, 6);
  HnswIndex H(F.Map);
  auto N = H.query(F.Points[7].data(), 5);
  ASSERT_FALSE(N.empty());
  for (auto [Idx, Dist] : N) {
    float True = 0;
    for (int D = 0; D != 8; ++D)
      True += std::fabs(F.Points[7][static_cast<size_t>(D)] -
                        F.Map.embedding(static_cast<size_t>(Idx))[D]);
    EXPECT_NEAR(Dist, True, 1e-4f);
  }
}

TEST(HnswIndexTest, BuildIsDeterministicAcrossThreadCounts) {
  // The graph is a function of (Map, Seed) alone: insertion order is
  // sequential and only candidate distance evaluation fans out, so any
  // thread count builds byte-identical adjacency — asserted through
  // query identity, the observable that matters.
  MapFixture F(900, 10, 8, 35);
  setGlobalNumThreads(1);
  HnswIndex Serial(F.Map, 16, 128, 42);
  setGlobalNumThreads(4);
  HnswIndex Parallel(F.Map, 16, 128, 42);
  setGlobalNumThreads(0);
  for (size_t Q = 0; Q != 30; ++Q) {
    auto NA = Serial.query(F.Points[Q].data(), 10);
    auto NB = Parallel.query(F.Points[Q].data(), 10);
    ASSERT_EQ(NA, NB) << "query " << Q;
  }
}

TEST(HnswIndexTest, QueryBatchMatchesIndividualQueries) {
  MapFixture F(800, 10, 8, 36);
  HnswIndex H(F.Map, 16, 128, 7);
  std::vector<float> Qs;
  const int NumQ = 30, D = 8;
  for (int Q = 0; Q != NumQ; ++Q)
    Qs.insert(Qs.end(), F.Points[static_cast<size_t>(Q)].begin(),
              F.Points[static_cast<size_t>(Q)].end());
  for (int Threads : {1, 4}) {
    setGlobalNumThreads(Threads);
    auto Batch = H.queryBatch(Qs.data(), NumQ, 5);
    setGlobalNumThreads(0);
    ASSERT_EQ(Batch.size(), static_cast<size_t>(NumQ));
    for (int Q = 0; Q != NumQ; ++Q)
      ASSERT_EQ(Batch[static_cast<size_t>(Q)], H.query(Qs.data() + Q * D, 5))
          << "query " << Q << " threads=" << Threads;
  }
}

TEST(HnswIndexTest, EfSearchTradesRecallMonotonically) {
  // The per-request budget is a real knob: a clamped-to-K beam may miss,
  // a generous one must not do worse. (Weak monotonicity only — equal
  // recalls are fine on easy data.)
  MapFixture F(1500, 12, 16, 37);
  ExactIndex Exact(F.Map);
  HnswIndex H(F.Map);
  Rng R(38);
  const int Queries = 30, K = 10;
  double RecallAt[2] = {0, 0}; // EfSearch = K (floor) vs 256
  for (int Q = 0; Q != Queries; ++Q) {
    std::vector<float> P(16);
    for (float &X : P)
      X = static_cast<float>(R.normal());
    std::set<int> TruthSet;
    for (auto [I, D] : Exact.query(P.data(), K))
      TruthSet.insert(I);
    int E = 0;
    for (int Ef : {K, 256}) {
      int Hits = 0;
      for (auto [I, D] : H.query(P.data(), K, Ef))
        Hits += TruthSet.count(I);
      RecallAt[E++] += static_cast<double>(Hits) / K;
    }
  }
  EXPECT_GE(RecallAt[1], RecallAt[0]);
  EXPECT_GE(RecallAt[1] / Queries, 0.95);
}

TEST(HnswIndexTest, DeadRowsAreSkipped) {
  TaggedMapFixture F(4, 25, 6, 8, 27);
  HnswIndex H(F.Map, 16, 128, 42);
  std::string Victim = F.Tags[30];
  ASSERT_GT(F.Map.removeMarkersForFile(Victim), 0u);
  // An index built before the removal routes through dead rows but never
  // surfaces one.
  for (size_t Q = 0; Q < F.Points.size(); Q += 9) {
    auto N = H.query(F.Points[Q].data(), 10);
    ASSERT_FALSE(N.empty());
    for (auto [I, D] : N) {
      EXPECT_TRUE(F.Map.isLive(static_cast<size_t>(I)));
      EXPECT_NE(F.Map.fileTag(static_cast<size_t>(I)), Victim);
    }
  }
}

TEST(HnswIndexTest, SnapshotRoundTripIsQueryIdentical) {
  MapFixture F(600, 8, 8, 33);
  HnswIndex Built(F.Map, 16, 128, 42);
  ArchiveWriter W(3);
  W.beginChunk("hnsw");
  Built.save(W);
  W.endChunk();
  ArchiveReader R;
  std::string Err;
  ASSERT_TRUE(R.openBytes(W.bytes(), &Err)) << Err;
  ArchiveCursor C = R.chunk("hnsw", &Err);
  std::unique_ptr<HnswIndex> Loaded = HnswIndex::load(C, F.Map, &Err);
  ASSERT_NE(Loaded, nullptr) << Err;
  ASSERT_TRUE(C.atEnd()) << "trailing bytes in the hnsw snapshot";
  EXPECT_EQ(Loaded->indexedMarkers(), Built.indexedMarkers());
  EXPECT_EQ(Loaded->m(), Built.m());
  EXPECT_EQ(Loaded->efConstruction(), Built.efConstruction());
  for (size_t Q = 0; Q != 25; ++Q)
    for (int Ef : {-1, 32, 200})
      ASSERT_EQ(Loaded->query(F.Points[Q].data(), 10, Ef),
                Built.query(F.Points[Q].data(), 10, Ef))
          << "query " << Q << " ef " << Ef;
}
