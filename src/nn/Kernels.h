//===- nn/Kernels.h - Raw float tensor kernels --------------------*- C++ -*-===//
//
// Part of the Typilus C++ reproduction.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The raw float kernels the autograd ops (nn/Ops.cpp) are glued onto:
/// register-blocked GEMM plus fused elementwise / row-structured routines over
/// contiguous buffers. Each kernel dispatches through the process-wide
/// ThreadPool above a size threshold.
///
/// Determinism contract: every kernel computes each output element with the
/// same floating-point operation sequence regardless of thread count, and
/// parallel chunks write disjoint outputs — so results are bit-identical
/// for any pool size. Kernels are free of autograd state and unit-testable
/// in isolation (tests/NnTest.cpp pins them against naive references).
///
//===----------------------------------------------------------------------===//

#ifndef TYPILUS_NN_KERNELS_H
#define TYPILUS_NN_KERNELS_H

#include <cstdint>

namespace typilus {

/// C = alpha * op(A) * op(B) + beta * C, where op transposes when the flag
/// is set; at most one of TransA and TransB may be set (asserted). Shapes:
/// op(A) is MxK, op(B) is KxN, C is MxN. Row-parallel; the
/// non-transposed-B cases run through the kernel table's GemmRow and the
/// transposed-B case through its GemmDotRow. The
/// per-element accumulation order (k ascending) is that of the naive i-k-j
/// kernel, so on the scalar table the result is bit-identical to it.
void gemm(bool TransA, bool TransB, int64_t M, int64_t N, int64_t K,
          float Alpha, const float *A, const float *B, float Beta, float *C);

namespace nn {
namespace kernels {

/// Elementwise kernels below this many elements run inline; at or above it
/// they chunk through the pool (chunking never changes per-element math).
constexpr int64_t ElementwiseGrain = 16384;
/// GEMMs with fewer multiply-adds than this run single-threaded.
constexpr int64_t GemmParallelFlops = 1 << 17;

/// Row grain for row-parallel loops over [Rows, D] matrices: chunks carry
/// at least ~ElementwiseGrain elements. Shared by the kernels and the ops
/// glue so dispatch thresholds stay in sync.
inline int64_t rowGrain(int64_t D) {
  int64_t G = ElementwiseGrain / (D > 0 ? D : 1);
  return G > 0 ? G : 1;
}

// Fused elementwise over contiguous buffers. `InPlace` mutate Dst; the
// `Acc` variants accumulate (Dst += ...), matching backward-pass use.
void addInPlace(float *Dst, const float *Src, int64_t N);  ///< dst += src
void subInPlace(float *Dst, const float *Src, int64_t N);  ///< dst -= src
void mulInPlace(float *Dst, const float *Src, int64_t N);  ///< dst *= src
void scaleInPlace(float *Dst, float S, int64_t N);         ///< dst *= s
void axpyAcc(float *Dst, float A, const float *X, int64_t N); ///< dst += a*x
void mulAcc(float *Dst, const float *A, const float *B,
            int64_t N); ///< dst += a*b

// Fused activations: forward transforms X in place; backward accumulates
// dX += dY * f'(...) given the forward output Y (or input X for relu).
void sigmoidForward(float *X, int64_t N);
void sigmoidBackwardAcc(float *DX, const float *DY, const float *Y,
                        int64_t N);
void tanhForward(float *X, int64_t N);
void tanhBackwardAcc(float *DX, const float *DY, const float *Y, int64_t N);
void reluForward(float *X, int64_t N);
void reluBackwardAcc(float *DX, const float *DY, const float *X, int64_t N);

// Row-structured kernels (row-major matrices; rows are independent and
// processed in parallel).

/// Out[i, :] = A[Idx[i], :] for i in [0, NumIdx).
void gatherRows(float *Out, const float *A, const int *Idx, int64_t NumIdx,
                int64_t D);
/// Row-wise softmax in place over an [Rows, Cols] matrix.
void softmaxRowsInPlace(float *X, int64_t Rows, int64_t Cols);
/// Out[i, j] = L1(A[i, :], A[j, :]) over an [R, D] matrix; Out is [R, R]
/// with a zero diagonal. Each unordered pair is computed once.
void pairwiseL1(float *Out, const float *A, int64_t R, int64_t D);

} // namespace kernels
} // namespace nn
} // namespace typilus

#endif // TYPILUS_NN_KERNELS_H
