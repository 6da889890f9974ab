//===- bench/speed_micro.cpp - Sec. 6.1 "Computational Speed" -----------------===//
//
// google-benchmark microbenches for the paper's speed claims: a GGNN
// training epoch is far cheaper than a biRNN epoch (paper: 86s vs 5255s
// per epoch, ~29x faster inference), plus kNN index and graph-construction
// throughput.
//
// The kernel benches take a trailing `threads` argument (1 = serial
// baseline, 0 = all hardware threads) so one run reports the
// serial-vs-parallel story of the execution layer (support/ThreadPool.h).
// Because every kernel is bit-reproducible across thread counts, the two
// rows compute identical results. `--quick` runs just the kernel
// microbenches (the CI smoke test).
//
//===----------------------------------------------------------------------===//

#include "core/Experiments.h"
#include "nn/Autograd.h"
#include "nn/Kernels.h"
#include "nn/Simd.h"
#include "pyfront/Parser.h"
#include "support/ThreadPool.h"

#include <benchmark/benchmark.h>

#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <vector>

using namespace typilus;

namespace {

/// Shared fixture state, built once.
struct SpeedEnv {
  Workbench WB;
  std::unique_ptr<TypeModel> GraphModel, SeqModel;

  SpeedEnv() {
    CorpusConfig CC;
    CC.NumFiles = 24;
    DatasetConfig DC;
    WB = Workbench::make(CC, DC);
    ModelConfig GC;
    GC.Encoder = EncoderKind::Graph;
    GC.TimeSteps = 8; // the paper's T=8 for the speed comparison
    GraphModel = makeModel(GC, WB.DS, *WB.U);
    ModelConfig SC;
    SC.Encoder = EncoderKind::Seq;
    SeqModel = makeModel(SC, WB.DS, *WB.U);
  }

  static SpeedEnv &get() {
    static SpeedEnv E;
    return E;
  }
};

/// A τmap of \p NumMarkers random D-dimensional markers (all typed `int`;
/// the kNN benches measure geometry, not scoring).
TypeMap makeFilledMap(TypeUniverse &U, int NumMarkers, int D, uint64_t Seed) {
  Rng R(Seed);
  TypeMap Map(D);
  Map.reserve(static_cast<size_t>(NumMarkers));
  std::vector<float> Emb(static_cast<size_t>(D));
  TypeRef T = U.parse("int");
  for (int I = 0; I != NumMarkers; ++I) {
    for (float &X : Emb)
      X = static_cast<float>(R.normal());
    Map.add(Emb.data(), T);
  }
  return Map;
}

/// A filled 32-d map and its HNSW graph per marker count, built on first
/// use: google-benchmark re-enters a benchmark function several times,
/// and the graph build would dwarf the queries being timed.
struct HnswFixture {
  TypeUniverse U;
  TypeMap Map{32};
  std::unique_ptr<HnswIndex> Idx;
};
const HnswFixture &hnswFixture(int NumMarkers) {
  static std::map<int, std::unique_ptr<HnswFixture>> Cache;
  std::unique_ptr<HnswFixture> &F = Cache[NumMarkers];
  if (!F) {
    F = std::make_unique<HnswFixture>();
    F->Map = makeFilledMap(F->U, NumMarkers, 32, 7);
    F->Idx = std::make_unique<HnswIndex>(F->Map);
  }
  return *F;
}

//===--------------------------------------------------------------------===//
// Kernel microbenches (serial vs parallel; `--quick` runs only these)
//===--------------------------------------------------------------------===//

/// Dense GEMM throughput at a GGNN-ish square size. Arg0 = dim,
/// Arg1 = threads (0 = all).
void BM_MatmulKernel(benchmark::State &State) {
  const int64_t D = State.range(0);
  setGlobalNumThreads(static_cast<int>(State.range(1)));
  Rng R(9);
  Tensor A = Tensor::randn(D, D, R, 1.f), B = Tensor::randn(D, D, R, 1.f);
  Tensor C(D, D);
  for (auto _ : State) {
    gemm(false, false, D, D, D, 1.f, A.data(), B.data(), 0.f, C.data());
    benchmark::DoNotOptimize(C.data());
  }
  setGlobalNumThreads(0);
  State.SetItemsProcessed(State.iterations() * 2 * D * D * D); // FLOPs
}
BENCHMARK(BM_MatmulKernel)
    ->Args({192, 1})
    ->Args({192, 0})
    ->ArgNames({"dim", "threads"})
    ->Unit(benchmark::kMicrosecond);

/// One GGNN forward pass (T=8 message-passing steps) over the whole train
/// split merged into a single batch graph: every row in the targets'
/// backward slice. Arg0 = threads.
void BM_GgnnStep(benchmark::State &State) {
  SpeedEnv &E = SpeedEnv::get();
  setGlobalNumThreads(static_cast<int>(State.range(0)));
  std::vector<const FileExample *> Batch;
  for (const FileExample &F : E.WB.DS.Train)
    Batch.push_back(&F);
  for (auto _ : State) {
    std::vector<const Target *> Targets;
    benchmark::DoNotOptimize(E.GraphModel->embed(Batch, &Targets));
  }
  setGlobalNumThreads(0);
  State.SetItemsProcessed(State.iterations() *
                          static_cast<int64_t>(Batch.size()) *
                          E.GraphModel->config().TimeSteps);
}
BENCHMARK(BM_GgnnStep)
    ->Arg(1)
    ->Arg(0)
    ->ArgNames({"threads"})
    ->Unit(benchmark::kMillisecond)
    ->Iterations(2);

/// Bulk kNN queries through the pool, on the index the size rule picks
/// for 20k markers (HNSW). Arg0 = threads.
void BM_KnnQueryBatch(benchmark::State &State) {
  const int Threads = static_cast<int>(State.range(0));
  const int NumQueries = 256, D = 32;
  const HnswIndex &Hnsw = *hnswFixture(20000).Idx;
  Rng R(8);
  std::vector<float> Qs(static_cast<size_t>(NumQueries * D));
  for (float &X : Qs)
    X = static_cast<float>(R.normal());
  for (auto _ : State) {
    auto Results = Hnsw.queryBatch(Qs.data(), NumQueries, 10,
                                   /*EfSearch=*/0, Threads);
    benchmark::DoNotOptimize(Results.data());
  }
  State.SetItemsProcessed(State.iterations() * NumQueries);
}
BENCHMARK(BM_KnnQueryBatch)
    ->Arg(1)
    ->Arg(0)
    ->ArgNames({"threads"})
    ->Unit(benchmark::kMillisecond);

//===--------------------------------------------------------------------===//
// SIMD vs scalar (single thread, so the rows isolate the ISA dispatch win
// from the thread-pool win measured above)
//===--------------------------------------------------------------------===//

/// Pins the dispatch table for one bench run; restores the startup
/// selection (SIMD when available) afterwards.
struct SimdPin {
  explicit SimdPin(bool Simd) { nn::simd::setSimdEnabled(Simd); }
  ~SimdPin() { nn::simd::setSimdEnabled(true); }
};

/// GEMM through the dispatch table. Arg0 = simd (0 = scalar reference).
void BM_GemmSimd(benchmark::State &State) {
  SimdPin Pin(State.range(0) != 0);
  setGlobalNumThreads(1);
  const int64_t D = 192;
  Rng R(9);
  Tensor A = Tensor::randn(D, D, R, 1.f), B = Tensor::randn(D, D, R, 1.f);
  Tensor C(D, D);
  for (auto _ : State) {
    gemm(false, false, D, D, D, 1.f, A.data(), B.data(), 0.f, C.data());
    benchmark::DoNotOptimize(C.data());
  }
  setGlobalNumThreads(0);
  State.SetItemsProcessed(State.iterations() * 2 * D * D * D);
}
BENCHMARK(BM_GemmSimd)
    ->Arg(0)
    ->Arg(1)
    ->ArgNames({"simd"})
    ->Unit(benchmark::kMicrosecond);

/// The GGNN's GEMM shapes at the default D=32 on a 355-node file, single
/// thread: the forward H x W (355x32 times 32x32) and the weight gradient
/// dW += H^T x dC (TransA, 32x355 times 355x32, accumulating). Both run
/// through the table's GemmRow. Arg0 = transA, Arg1 = simd.
void BM_GgnnGemm(benchmark::State &State) {
  const bool TransA = State.range(0) != 0;
  SimdPin Pin(State.range(1) != 0);
  setGlobalNumThreads(1);
  const int64_t Nodes = 355, D = 32;
  Rng R(9);
  Tensor H = Tensor::randn(Nodes, D, R, 1.f);
  Tensor W = Tensor::randn(D, D, R, 1.f);
  Tensor DC = Tensor::randn(Nodes, D, R, 1.f);
  Tensor Out = TransA ? Tensor(D, D) : Tensor(Nodes, D);
  for (auto _ : State) {
    if (TransA)
      gemm(true, false, D, D, Nodes, 1.f, H.data(), DC.data(), 1.f,
           Out.data());
    else
      gemm(false, false, Nodes, D, D, 1.f, H.data(), W.data(), 0.f,
           Out.data());
    benchmark::DoNotOptimize(Out.data());
  }
  setGlobalNumThreads(0);
  State.SetItemsProcessed(State.iterations() * 2 * Nodes * D * D);
}
BENCHMARK(BM_GgnnGemm)
    ->Args({0, 0})
    ->Args({0, 1})
    ->Args({1, 0})
    ->Args({1, 1})
    ->ArgNames({"transA", "simd"})
    ->Unit(benchmark::kMicrosecond);

/// The GGNN backward's input-gradient shape: dA += dC x W^T for a
/// 1500-node minibatch at D=32 (1500x32 times 32x32, TransB, accumulating),
/// single thread. It runs through the table's GemmDotRow. Arg0 = simd.
void BM_GgnnGemmInputGrad(benchmark::State &State) {
  SimdPin Pin(State.range(0) != 0);
  setGlobalNumThreads(1);
  const int64_t Nodes = 1500, D = 32;
  Rng R(9);
  Tensor DC = Tensor::randn(Nodes, D, R, 1.f);
  Tensor W = Tensor::randn(D, D, R, 1.f);
  Tensor DA(Nodes, D);
  for (auto _ : State) {
    gemm(false, true, Nodes, D, D, 1.f, DC.data(), W.data(), 1.f, DA.data());
    benchmark::DoNotOptimize(DA.data());
    benchmark::ClobberMemory();
  }
  setGlobalNumThreads(0);
  State.SetItemsProcessed(State.iterations() * 2 * Nodes * D * D);
}
BENCHMARK(BM_GgnnGemmInputGrad)
    ->Arg(0)
    ->Arg(1)
    ->ArgNames({"simd"})
    ->Unit(benchmark::kMicrosecond);

/// Shared body for the fused activation benches: refill from the same
/// random source each iteration (both arms pay the same memcpy), then run
/// the in-place kernel.
template <void (*Kernel)(float *, int64_t)>
void activationBench(benchmark::State &State) {
  SimdPin Pin(State.range(0) != 0);
  setGlobalNumThreads(1);
  const int64_t N = 1 << 16;
  Rng R(11);
  std::vector<float> Src(static_cast<size_t>(N)), X(static_cast<size_t>(N));
  for (float &V : Src)
    V = static_cast<float>(R.normal());
  for (auto _ : State) {
    std::memcpy(X.data(), Src.data(), static_cast<size_t>(N) * 4);
    Kernel(X.data(), N);
    benchmark::DoNotOptimize(X.data());
  }
  setGlobalNumThreads(0);
  State.SetItemsProcessed(State.iterations() * N);
}

void BM_SigmoidSimd(benchmark::State &State) {
  activationBench<nn::kernels::sigmoidForward>(State);
}
BENCHMARK(BM_SigmoidSimd)
    ->Arg(0)
    ->Arg(1)
    ->ArgNames({"simd"})
    ->Unit(benchmark::kMicrosecond);

void BM_TanhSimd(benchmark::State &State) { activationBench<nn::kernels::tanhForward>(State); }
BENCHMARK(BM_TanhSimd)
    ->Arg(0)
    ->Arg(1)
    ->ArgNames({"simd"})
    ->Unit(benchmark::kMicrosecond);

/// Row-wise softmax (the attention/scoring shape). Arg0 = simd.
void BM_SoftmaxSimd(benchmark::State &State) {
  SimdPin Pin(State.range(0) != 0);
  setGlobalNumThreads(1);
  const int64_t Rows = 256, Cols = 256;
  Rng R(12);
  std::vector<float> Src(static_cast<size_t>(Rows * Cols)),
      X(static_cast<size_t>(Rows * Cols));
  for (float &V : Src)
    V = static_cast<float>(R.normal());
  for (auto _ : State) {
    std::memcpy(X.data(), Src.data(), static_cast<size_t>(Rows * Cols) * 4);
    nn::kernels::softmaxRowsInPlace(X.data(), Rows, Cols);
    benchmark::DoNotOptimize(X.data());
  }
  setGlobalNumThreads(0);
  State.SetItemsProcessed(State.iterations() * Rows * Cols);
}
BENCHMARK(BM_SoftmaxSimd)
    ->Arg(0)
    ->Arg(1)
    ->ArgNames({"simd"})
    ->Unit(benchmark::kMicrosecond);

/// All-pairs L1 (the clustering inner loop). Arg0 = simd.
void BM_PairwiseL1Simd(benchmark::State &State) {
  SimdPin Pin(State.range(0) != 0);
  setGlobalNumThreads(1);
  const int64_t Rows = 256, D = 64;
  Rng R(13);
  std::vector<float> A(static_cast<size_t>(Rows * D));
  for (float &V : A)
    V = static_cast<float>(R.normal());
  std::vector<float> Out(static_cast<size_t>(Rows * Rows));
  for (auto _ : State) {
    nn::kernels::pairwiseL1(Out.data(), A.data(), Rows, D);
    benchmark::DoNotOptimize(Out.data());
  }
  setGlobalNumThreads(0);
  State.SetItemsProcessed(State.iterations() * Rows * Rows);
}
BENCHMARK(BM_PairwiseL1Simd)
    ->Arg(0)
    ->Arg(1)
    ->ArgNames({"simd"})
    ->Unit(benchmark::kMicrosecond);

/// The backward of the TypeSpace's pairwise L1 distance matrix (the input
/// of Eq. 3) over one minibatch: 128 target embeddings at D=32, single
/// thread. The row loop is table-free, so there is no simd arm.
void BM_PairwiseL1Backward(benchmark::State &State) {
  setGlobalNumThreads(1);
  const int64_t Rows = 128, D = 32;
  Rng R(14);
  nn::Value A = nn::Value::param(Tensor::randn(Rows, D, R, 1.f));
  nn::Value Out = nn::pairwiseL1(A);
  Out.grad() = Tensor::randn(Rows, Rows, R, 1.f);
  for (auto _ : State) {
    Out.node()->BackwardFn();
    benchmark::DoNotOptimize(A.grad().data());
    benchmark::ClobberMemory();
  }
  setGlobalNumThreads(0);
  State.SetItemsProcessed(State.iterations() * Rows * Rows);
}
BENCHMARK(BM_PairwiseL1Backward)->Unit(benchmark::kMicrosecond);

/// Full-τmap L1 scan against one query, per marker store. Arg0 = store
/// (0 = f32, 1 = f16, 2 = int8), Arg1 = simd. The f16/int8 rows measure
/// the quantized scan: less memory traffic per marker, decode fused into
/// the distance kernel.
void BM_TmapScanSimd(benchmark::State &State) {
  SimdPin Pin(State.range(1) != 0);
  const auto Store = static_cast<MarkerStore>(State.range(0));
  const int NumMarkers = 20000, D = 32;
  TypeUniverse U;
  TypeMap Map = makeFilledMap(U, NumMarkers, D, 7);
  if (Store != MarkerStore::F32)
    Map.quantize(Store);
  Rng R(8);
  std::vector<float> Q(static_cast<size_t>(D));
  for (float &X : Q)
    X = static_cast<float>(R.normal());
  for (auto _ : State) {
    float Acc = 0;
    for (size_t I = 0; I != Map.size(); ++I)
      Acc += Map.l1DistanceTo(Q.data(), I);
    benchmark::DoNotOptimize(Acc);
  }
  State.SetItemsProcessed(State.iterations() * NumMarkers);
}
BENCHMARK(BM_TmapScanSimd)
    ->Args({0, 0})
    ->Args({0, 1})
    ->Args({1, 0})
    ->Args({1, 1})
    ->Args({2, 0})
    ->Args({2, 1})
    ->ArgNames({"store", "simd"})
    ->Unit(benchmark::kMicrosecond);

//===--------------------------------------------------------------------===//
// End-to-end benches (the paper's Sec. 6.1 comparison)
//===--------------------------------------------------------------------===//

void BM_GnnTrainEpoch(benchmark::State &State) {
  SpeedEnv &E = SpeedEnv::get();
  TrainOptions TO;
  TO.Epochs = 1;
  TO.NumThreads = static_cast<int>(State.range(0));
  for (auto _ : State)
    benchmark::DoNotOptimize(trainModel(*E.GraphModel, E.WB.DS.Train, TO));
  State.SetItemsProcessed(State.iterations() *
                          static_cast<int64_t>(E.WB.DS.Train.size()));
}
BENCHMARK(BM_GnnTrainEpoch)
    ->Arg(1)
    ->Arg(0)
    ->ArgNames({"threads"})
    ->Unit(benchmark::kMillisecond)
    ->Iterations(1);

void BM_BiRnnTrainEpoch(benchmark::State &State) {
  SpeedEnv &E = SpeedEnv::get();
  TrainOptions TO;
  TO.Epochs = 1;
  TO.NumThreads = static_cast<int>(State.range(0));
  for (auto _ : State)
    benchmark::DoNotOptimize(trainModel(*E.SeqModel, E.WB.DS.Train, TO));
  State.SetItemsProcessed(State.iterations() *
                          static_cast<int64_t>(E.WB.DS.Train.size()));
}
BENCHMARK(BM_BiRnnTrainEpoch)
    ->Arg(1)
    ->Arg(0)
    ->ArgNames({"threads"})
    ->Unit(benchmark::kMillisecond)
    ->Iterations(1);

// Inference as Predictor::embedFiles runs it: no autograd graph recorded.
// The Graph encoder computes only its targets' backward slice, as it does
// when recording. One run of a few milliseconds swings with the host, so
// both inference benches report aggregates over ten repetitions.
void BM_GnnInferencePerGraph(benchmark::State &State) {
  SpeedEnv &E = SpeedEnv::get();
  const FileExample &F = E.WB.DS.Test.front();
  nn::NoRecordScope NoRecord;
  for (auto _ : State) {
    std::vector<const Target *> Targets;
    benchmark::DoNotOptimize(E.GraphModel->embed({&F}, &Targets));
  }
}
BENCHMARK(BM_GnnInferencePerGraph)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(3)
    ->Repetitions(10)
    ->ReportAggregatesOnly(true);

void BM_BiRnnInferencePerFile(benchmark::State &State) {
  SpeedEnv &E = SpeedEnv::get();
  const FileExample &F = E.WB.DS.Test.front();
  nn::NoRecordScope NoRecord;
  for (auto _ : State) {
    std::vector<const Target *> Targets;
    benchmark::DoNotOptimize(E.SeqModel->embed({&F}, &Targets));
  }
}
BENCHMARK(BM_BiRnnInferencePerFile)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(3)
    ->Repetitions(10)
    ->ReportAggregatesOnly(true);

void BM_GraphConstruction(benchmark::State &State) {
  SpeedEnv &E = SpeedEnv::get();
  const CorpusFile &F = E.WB.Files.front();
  TypeUniverse U;
  for (auto _ : State)
    benchmark::DoNotOptimize(buildExample(F, U, GraphBuildOptions{}));
}
BENCHMARK(BM_GraphConstruction)->Unit(benchmark::kMicrosecond);

/// kNN queries: exact scan vs the HNSW graph (Sec. 4.2 requires a
/// spatial index for a practical τmap).
void BM_KnnQuery(benchmark::State &State) {
  const bool UseHnsw = State.range(0) != 0;
  const HnswFixture &F = hnswFixture(static_cast<int>(State.range(1)));
  ExactIndex Exact(F.Map);
  Rng R(8);
  std::vector<float> Q(32);
  for (float &X : Q)
    X = static_cast<float>(R.normal());
  for (auto _ : State) {
    if (UseHnsw)
      benchmark::DoNotOptimize(F.Idx->query(Q.data(), 10));
    else
      benchmark::DoNotOptimize(Exact.query(Q.data(), 10));
  }
}
BENCHMARK(BM_KnnQuery)
    ->Args({0, 2000})
    ->Args({1, 2000})
    ->Args({0, 20000})
    ->Args({1, 20000})
    ->Unit(benchmark::kMicrosecond);

} // namespace

// Custom main so `--quick` (used by the CI smoke step) maps onto a filter
// for the fast kernel microbenches instead of tripping google-benchmark's
// unknown-flag handling.
int main(int argc, char **argv) {
  std::vector<char *> Args;
  bool Quick = false;
  for (int I = 0; I != argc; ++I) {
    if (argv[I] && std::strcmp(argv[I], "--quick") == 0) {
      Quick = true;
      continue;
    }
    Args.push_back(argv[I]);
  }
  std::string Filter = "--benchmark_filter=BM_(MatmulKernel|GgnnStep|"
                       "KnnQueryBatch|GemmSimd|GgnnGemm|"
                       "GgnnGemmInputGrad|SigmoidSimd|"
                       "TanhSimd|SoftmaxSimd|PairwiseL1Simd|"
                       "PairwiseL1Backward|TmapScanSimd)";
  if (Quick)
    Args.push_back(Filter.data());
  int ArgC = static_cast<int>(Args.size());
  benchmark::Initialize(&ArgC, Args.data());
  if (benchmark::ReportUnrecognizedArguments(ArgC, Args.data()))
    return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
