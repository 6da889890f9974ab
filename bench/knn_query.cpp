//===- bench/knn_query.cpp - kNN index query latency and recall ----------------===//
//
// The crawl-scale query engine head-to-head: the legacy exact scan
// (materialize + partial_sort), the blocked exact scan (tiled, bounded
// heap) and the deterministic HNSW graph, over growing marker counts.
// Reports per-query latency, build time, the cost of one serving
// request's batch and recall@10 against the exact answer — the trade
// surface behind KnnOptions::Index. The per-request column sets
// kHnswMinMarkers, the size from which the default index is HNSW.
// Records via tools/record_bench.sh as BENCH_knn_query.json.
//
// Acceptance anchors: blocked >= 2x the legacy scan single-threaded at
// >= 10k markers; HNSW recall@10 >= 0.95 with per-query cost that grows
// sublinearly in the marker count.
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"
#include "LegacyExactScan.h"
#include "knn/TypeMap.h"
#include "support/Rng.h"
#include "support/ThreadPool.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <set>
#include <utility>
#include <vector>

using namespace typilus;
using namespace typilus::bench;

namespace {

double secondsSince(std::chrono::steady_clock::time_point T0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - T0)
      .count();
}

/// A synthetic τmap at a controlled marker count (benching the index
/// layer needs no trained model — markers are just points with types).
TypeMap makeMap(TypeUniverse &U, int N, int D, uint64_t Seed) {
  TypeMap Map(D);
  Rng R(Seed);
  std::vector<float> P(static_cast<size_t>(D));
  for (int I = 0; I != N; ++I) {
    for (float &X : P)
      X = static_cast<float>(R.normal());
    Map.add(P.data(), U.get(strformat("T%d", static_cast<int>(
                                                 R.uniformInt(64)))));
  }
  return Map;
}

double recallAt10(const std::vector<NeighborList> &Truth,
                  const std::vector<NeighborList> &Got) {
  double Sum = 0;
  for (size_t Q = 0; Q != Truth.size(); ++Q) {
    std::set<int> TruthSet;
    for (auto [I, D] : Truth[Q])
      TruthSet.insert(I);
    int Hits = 0;
    for (auto [I, D] : Got[Q])
      Hits += TruthSet.count(I);
    Sum += Truth[Q].empty()
               ? 1.0
               : static_cast<double>(Hits) / static_cast<double>(Truth[Q].size());
  }
  return Truth.empty() ? 1.0 : Sum / static_cast<double>(Truth.size());
}

} // namespace

/// Median single-threaded µs of one request on \p Exact and on \p Hnsw:
/// \p PerRequest queries in one queryBatch call, the way the serve daemon
/// probes the index when its batches are in flight side by side (a busy
/// pool runs inline). The two engines take turns on every request, five
/// passes over the query set, so host noise lands on both alike.
std::pair<double, double> requestUs(const KnnIndex &Exact,
                                    const KnnIndex &Hnsw,
                                    const std::vector<float> &Qs, int NumQ,
                                    int D, int K, int PerRequest) {
  std::vector<double> Us[2];
  const KnnIndex *Engines[2] = {&Exact, &Hnsw};
  for (int Rep = 0; Rep != 5; ++Rep)
    for (int Q = 0; Q + PerRequest <= NumQ; Q += PerRequest)
      for (int E = 0; E != 2; ++E) {
        auto T0 = std::chrono::steady_clock::now();
        Engines[E]->queryBatch(Qs.data() + static_cast<size_t>(Q) * D,
                               PerRequest, K, /*EfSearch=*/0, /*MaxWays=*/1);
        Us[E].push_back(secondsSince(T0) * 1e6);
      }
  for (std::vector<double> &V : Us)
    std::nth_element(V.begin(), V.begin() + V.size() / 2, V.end());
  return {Us[0][Us[0].size() / 2], Us[1][Us[1].size() / 2]};
}

int main() {
  banner("kNN query engines: exact (legacy vs blocked) and HNSW",
         "the Sec. 5 serving path at crawl scale");

  // 26 queries per request: the mean targets per file of the synthetic
  // corpus (15,086 over the 570 files of the serving artifact's), i.e.
  // the kNN probes one serve request makes.
  const int D = 32, K = 10, NumQ = 260, PerRequest = 26;
  TextTable T;
  T.setHeader({"markers", "engine", "build (ms)", "query 1t (us)",
               "query mt (us)", "request 1t (us)", "recall@10",
               "vs legacy 1t"});
  // Sizes where HNSW served a request faster than the exact scan.
  std::vector<std::pair<int, bool>> HnswFaster;

  for (int N : {2000, 4000, 6000, 8000, 10000, 40000}) {
    TypeUniverse U;
    TypeMap Map = makeMap(U, N, D, /*Seed=*/77);
    Rng R(78);
    std::vector<float> Qs(static_cast<size_t>(NumQ) * D);
    for (float &X : Qs)
      X = static_cast<float>(R.normal());

    // Legacy exact: the pre-blocking scan, one query at a time (it had
    // no tiling to amortize), single-threaded — the baseline every
    // speedup column is against.
    auto T0 = std::chrono::steady_clock::now();
    std::vector<NeighborList> Truth(static_cast<size_t>(NumQ));
    for (int Q = 0; Q != NumQ; ++Q)
      Truth[static_cast<size_t>(Q)] =
          legacyExactQuery(Map, Qs.data() + Q * D, K);
    double LegacyUs = secondsSince(T0) / NumQ * 1e6;
    T.addRow({strformat("%d", N), "exact legacy", "-",
              strformat("%.1f", LegacyUs), "-", "-", "1.000", "1.00x"});

    // Blocked exact: same bits, tiled through the marker store.
    ExactIndex Exact(Map);
    T0 = std::chrono::steady_clock::now();
    auto Blocked1 = Exact.queryBatch(Qs.data(), NumQ, K, /*EfSearch=*/0,
                                     /*MaxWays=*/1);
    double Blocked1Us = secondsSince(T0) / NumQ * 1e6;
    T0 = std::chrono::steady_clock::now();
    auto BlockedMt = Exact.queryBatch(Qs.data(), NumQ, K);
    double BlockedMtUs = secondsSince(T0) / NumQ * 1e6;
    if (Blocked1 != Truth || BlockedMt != Truth) {
      std::fprintf(stderr, "error: blocked scan diverged from legacy\n");
      return 1;
    }
    // HNSW graph at the Predictor's build parameters, default query
    // budget (EfSearch = max(4k, 64)).
    T0 = std::chrono::steady_clock::now();
    HnswIndex Hnsw(Map, /*M=*/16, /*EfConstruction=*/128, /*Seed=*/0x45317);
    double HnswBuildMs = secondsSince(T0) * 1e3;
    T0 = std::chrono::steady_clock::now();
    std::vector<NeighborList> HnswGot(static_cast<size_t>(NumQ));
    for (int Q = 0; Q != NumQ; ++Q)
      HnswGot[static_cast<size_t>(Q)] = Hnsw.query(Qs.data() + Q * D, K);
    double Hnsw1Us = secondsSince(T0) / NumQ * 1e6;
    T0 = std::chrono::steady_clock::now();
    auto HnswMt = Hnsw.queryBatch(Qs.data(), NumQ, K);
    double HnswMtUs = secondsSince(T0) / NumQ * 1e6;
    auto [ExactReqUs, HnswReqUs] =
        requestUs(Exact, Hnsw, Qs, NumQ, D, K, PerRequest);
    HnswFaster.emplace_back(N, HnswReqUs < ExactReqUs);
    T.addRow({strformat("%d", N), "exact blocked", "-",
              strformat("%.1f", Blocked1Us), strformat("%.1f", BlockedMtUs),
              strformat("%.0f", ExactReqUs), "1.000",
              strformat("%.2fx", LegacyUs / Blocked1Us)});
    T.addRow({strformat("%d", N), "hnsw", strformat("%.1f", HnswBuildMs),
              strformat("%.1f", Hnsw1Us), strformat("%.1f", HnswMtUs),
              strformat("%.0f", HnswReqUs),
              strformat("%.3f", recallAt10(Truth, HnswGot)),
              strformat("%.2fx", LegacyUs / Hnsw1Us)});

    // The per-request budget knob: a 4x beam buys back the recall the
    // default trades away at larger marker counts, still sublinear.
    T0 = std::chrono::steady_clock::now();
    std::vector<NeighborList> HnswWide(static_cast<size_t>(NumQ));
    for (int Q = 0; Q != NumQ; ++Q)
      HnswWide[static_cast<size_t>(Q)] =
          Hnsw.query(Qs.data() + Q * D, K, /*EfSearch=*/256);
    double HnswWideUs = secondsSince(T0) / NumQ * 1e6;
    T.addRow({strformat("%d", N), "hnsw ef=256", "-",
              strformat("%.1f", HnswWideUs), "-", "-",
              strformat("%.3f", recallAt10(Truth, HnswWide)),
              strformat("%.2fx", LegacyUs / HnswWideUs)});
  }

  std::printf("%s", T.renderAscii().c_str());
  std::printf(
      "\n(query 1t = per-query latency single-threaded; mt = queryBatch on\n"
      "the full pool; request 1t = one queryBatch of %d queries, one\n"
      "thread. Exact engines are bit-identical by construction — the\n"
      "blocked row is verified against legacy in-run. HNSW queries use\n"
      "the default per-request budget; KnnOptions::EfSearch raises recall\n"
      "at the cost of latency.)\n",
      PerRequest);
  // The crossover: the smallest size from which HNSW wins at every
  // larger size of the sweep too.
  int Crossover = 0;
  for (auto It = HnswFaster.rbegin(); It != HnswFaster.rend() && It->second;
       ++It)
    Crossover = It->first;
  std::printf("\nHNSW serves a request faster from %s on; the default index "
              "is HNSW from %zu markers (kHnswMinMarkers)\n",
              Crossover ? strformat("%d markers", Crossover).c_str()
                        : "no size of this sweep",
              kHnswMinMarkers);
  return 0;
}
