//===- nn/Kernels.cpp - Raw float tensor kernels ------------------------------===//

#include "nn/Kernels.h"

#include "nn/Simd.h"
#include "support/ThreadPool.h"

#include <algorithm>
#include <cmath>
#include <cstring>

using namespace typilus;
using namespace typilus::nn;

//===----------------------------------------------------------------------===//
// GEMM
//===----------------------------------------------------------------------===//

namespace {

/// Row grain so each parallel chunk carries at least ~GemmParallelFlops
/// multiply-adds.
int64_t gemmRowGrain(int64_t N, int64_t K) {
  int64_t FlopsPerRow = std::max<int64_t>(1, N * K);
  return std::max<int64_t>(1, kernels::GemmParallelFlops / FlopsPerRow);
}

/// Rows [RB, RE) of C for the transposed-A, transposed-B case. The A
/// access is strided, so this stays a scalar loop on every ISA (it is
/// bit-identical to the historical kernel by construction).
void gemmRowsDotStrided(int64_t RB, int64_t RE, int64_t N, int64_t K,
                        float Alpha, const float *A, int64_t Lda,
                        const float *B, int64_t Ldb, float *C) {
  for (int64_t I = RB; I != RE; ++I)
    for (int64_t J = 0; J != N; ++J) {
      const float *BRow = B + J * Ldb;
      float Sum = 0.f;
      for (int64_t P = 0; P != K; ++P)
        Sum += A[P * Lda + I] * BRow[P];
      C[I * N + J] += Alpha * Sum;
    }
}

} // namespace

void typilus::gemm(bool TransA, bool TransB, int64_t M, int64_t N, int64_t K,
                   float Alpha, const float *A, const float *B, float Beta,
                   float *C) {
  if (Beta == 0.f)
    std::memset(C, 0, static_cast<size_t>(M * N) * sizeof(float));
  else if (Beta != 1.f)
    for (int64_t I = 0; I != M * N; ++I)
      C[I] *= Beta;

  // Leading dimensions of the stored matrices.
  const int64_t Lda = TransA ? M : K;
  const int64_t Ldb = TransB ? K : N;

  // All four cases are parallelized over rows of C: each output row is
  // produced by exactly one chunk with a fixed per-element operation
  // sequence (k ascending through the active kernel table), so the result
  // is bit-identical for any thread count. With the scalar table it is
  // also bit-identical to the naive i-k-j kernel.
  const simd::KernelTable &KT = simd::active();
  const int64_t Grain = gemmRowGrain(N, K);

  if (!TransB) {
    // The k-j cases: the table's GemmRow runs the i-k-j kernel's
    // per-element sequence over the contiguous B rows; TransA only
    // changes the strides A is read with.
    const int64_t ARowStride = TransA ? 1 : Lda;
    const int64_t AColStride = TransA ? Lda : 1;
    parallelFor(0, M, Grain, [&](int64_t RB, int64_t RE) {
      KT.GemmRow(C + RB * N, RE - RB, N, K, Alpha, A + RB * ARowStride,
                 ARowStride, AColStride, B, Ldb);
    });
    return;
  }
  if (!TransA)
    // Both the A row and the B row are contiguous: the table's GemmDotRow
    // runs its own Dot sequence per element.
    parallelFor(0, M, Grain, [&](int64_t RB, int64_t RE) {
      KT.GemmDotRow(C + RB * N, RE - RB, N, K, Alpha, A + RB * Lda, Lda, B,
                    Ldb);
    });
  else
    parallelFor(0, M, Grain, [&](int64_t RB, int64_t RE) {
      gemmRowsDotStrided(RB, RE, N, K, Alpha, A, Lda, B, Ldb, C);
    });
}

//===----------------------------------------------------------------------===//
// Fused elementwise kernels
//===----------------------------------------------------------------------===//

namespace {

/// Chunks [0, N) through the pool above the elementwise grain. Chunking is
/// safe for any per-element map: outputs are disjoint, and every table's
/// kernels compute each element independently of where the chunk (and
/// therefore vector-lane) boundaries fall.
template <typename Fn> void forChunks(int64_t N, Fn Body) {
  parallelFor(0, N, kernels::ElementwiseGrain,
              [&](int64_t Lo, int64_t Hi) { Body(Lo, Hi); });
}

} // namespace

void kernels::addInPlace(float *Dst, const float *Src, int64_t N) {
  const simd::KernelTable &KT = simd::active();
  forChunks(N, [&](int64_t Lo, int64_t Hi) {
    KT.Add(Dst + Lo, Src + Lo, Hi - Lo);
  });
}

void kernels::subInPlace(float *Dst, const float *Src, int64_t N) {
  const simd::KernelTable &KT = simd::active();
  forChunks(N, [&](int64_t Lo, int64_t Hi) {
    KT.Sub(Dst + Lo, Src + Lo, Hi - Lo);
  });
}

void kernels::mulInPlace(float *Dst, const float *Src, int64_t N) {
  const simd::KernelTable &KT = simd::active();
  forChunks(N, [&](int64_t Lo, int64_t Hi) {
    KT.Mul(Dst + Lo, Src + Lo, Hi - Lo);
  });
}

void kernels::scaleInPlace(float *Dst, float S, int64_t N) {
  const simd::KernelTable &KT = simd::active();
  forChunks(N, [&](int64_t Lo, int64_t Hi) {
    KT.Scale(Dst + Lo, S, Hi - Lo);
  });
}

void kernels::axpyAcc(float *Dst, float A, const float *X, int64_t N) {
  const simd::KernelTable &KT = simd::active();
  forChunks(N, [&](int64_t Lo, int64_t Hi) {
    KT.AxpyRow(Dst + Lo, A, X + Lo, Hi - Lo);
  });
}

void kernels::mulAcc(float *Dst, const float *A, const float *B, int64_t N) {
  const simd::KernelTable &KT = simd::active();
  forChunks(N, [&](int64_t Lo, int64_t Hi) {
    KT.MulAcc(Dst + Lo, A + Lo, B + Lo, Hi - Lo);
  });
}

void kernels::sigmoidForward(float *X, int64_t N) {
  const simd::KernelTable &KT = simd::active();
  forChunks(N, [&](int64_t Lo, int64_t Hi) { KT.Sigmoid(X + Lo, Hi - Lo); });
}

void kernels::sigmoidBackwardAcc(float *DX, const float *DY, const float *Y,
                                 int64_t N) {
  const simd::KernelTable &KT = simd::active();
  forChunks(N, [&](int64_t Lo, int64_t Hi) {
    KT.SigmoidBwd(DX + Lo, DY + Lo, Y + Lo, Hi - Lo);
  });
}

void kernels::tanhForward(float *X, int64_t N) {
  const simd::KernelTable &KT = simd::active();
  forChunks(N, [&](int64_t Lo, int64_t Hi) { KT.Tanh(X + Lo, Hi - Lo); });
}

void kernels::tanhBackwardAcc(float *DX, const float *DY, const float *Y,
                              int64_t N) {
  const simd::KernelTable &KT = simd::active();
  forChunks(N, [&](int64_t Lo, int64_t Hi) {
    KT.TanhBwd(DX + Lo, DY + Lo, Y + Lo, Hi - Lo);
  });
}

void kernels::reluForward(float *X, int64_t N) {
  const simd::KernelTable &KT = simd::active();
  forChunks(N, [&](int64_t Lo, int64_t Hi) { KT.Relu(X + Lo, Hi - Lo); });
}

void kernels::reluBackwardAcc(float *DX, const float *DY, const float *X,
                              int64_t N) {
  const simd::KernelTable &KT = simd::active();
  forChunks(N, [&](int64_t Lo, int64_t Hi) {
    KT.ReluBwd(DX + Lo, DY + Lo, X + Lo, Hi - Lo);
  });
}

//===----------------------------------------------------------------------===//
// Row-structured kernels
//===----------------------------------------------------------------------===//

void kernels::gatherRows(float *Out, const float *A, const int *Idx,
                         int64_t NumIdx, int64_t D) {
  parallelFor(0, NumIdx, rowGrain(D), [&](int64_t Lo, int64_t Hi) {
    for (int64_t I = Lo; I != Hi; ++I)
      std::memcpy(Out + I * D, A + static_cast<int64_t>(Idx[I]) * D,
                  static_cast<size_t>(D) * sizeof(float));
  });
}

void kernels::softmaxRowsInPlace(float *X, int64_t Rows, int64_t Cols) {
  const simd::KernelTable &KT = simd::active();
  parallelFor(0, Rows, rowGrain(Cols), [&](int64_t Lo, int64_t Hi) {
    for (int64_t R = Lo; R != Hi; ++R)
      KT.SoftmaxRow(X + R * Cols, Cols);
  });
}

void kernels::pairwiseL1(float *Out, const float *A, int64_t R, int64_t D) {
  // Iteration I fills row I for J > I plus the mirror cells (J, I): each
  // cell is written by exactly one iteration (min of its coordinates), so
  // chunks over I write disjoint outputs.
  const simd::KernelTable &KT = simd::active();
  int64_t Grain = std::max<int64_t>(
      1, GemmParallelFlops / std::max<int64_t>(1, R * D));
  parallelFor(0, R, Grain, [&](int64_t Lo, int64_t Hi) {
    for (int64_t I = Lo; I != Hi; ++I) {
      Out[I * R + I] = 0.f;
      const float *AI = A + I * D;
      for (int64_t J = I + 1; J != R; ++J) {
        float Sum = KT.L1(AI, A + J * D, D);
        Out[I * R + J] = Sum;
        Out[J * R + I] = Sum;
      }
    }
  });
}
