//===- tests/NnTest.cpp - autograd gradient checks & layer tests -------------===//
//
// Property tests: every autograd op is validated against central finite
// differences; layers and the optimizer are checked on toy problems.
//
//===----------------------------------------------------------------------===//

#include "nn/Autograd.h"
#include "nn/Layers.h"
#include "nn/Optim.h"
#include "nn/Simd.h"
#include "support/Float16.h"
#include "support/Rng.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>
#include <functional>
#include <limits>
#include <stdexcept>
#include <thread>
#include <vector>

using namespace typilus;
using namespace typilus::nn;

namespace {

/// Pins the kernel dispatch to one table for a test's lifetime and
/// restores the startup selection afterwards.
struct SimdGuard {
  explicit SimdGuard(bool Enabled) : Was(simd::simdEnabled()) {
    simd::setSimdEnabled(Enabled);
  }
  ~SimdGuard() { simd::setSimdEnabled(Was); }
  bool Was;
};

/// Fills \p T with values away from kinks (|x| >= 0.1) so relu/abs/max
/// gradients are stable under finite differences.
Tensor randomAwayFromKinks(int64_t Rows, int64_t Cols, Rng &R) {
  Tensor T = Cols > 0 ? Tensor(Rows, Cols) : Tensor(Rows);
  for (int64_t I = 0; I != T.numel(); ++I) {
    float V = static_cast<float>(R.normal());
    if (std::fabs(V) < 0.1f)
      V = V < 0 ? V - 0.15f : V + 0.15f;
    T[I] = V;
  }
  return T;
}

/// Checks d(F(P))/dP against central differences for every coordinate.
void checkGrad(const std::function<Value(Value)> &F, const Tensor &T0,
               float RelTol = 5e-2f) {
  Value P = Value::param(T0);
  Value Loss = F(P);
  ASSERT_EQ(Loss.val().numel(), 1);
  backward(Loss);
  Tensor Analytic = P.grad();

  const float Eps = 1e-2f;
  for (int64_t I = 0; I != T0.numel(); ++I) {
    Tensor TP = T0, TM = T0;
    TP[I] += Eps;
    TM[I] -= Eps;
    float LP = F(Value::param(TP)).val()[0];
    float LM = F(Value::param(TM)).val()[0];
    float Numeric = (LP - LM) / (2 * Eps);
    float Tol = RelTol * std::max(1.f, std::fabs(Numeric));
    EXPECT_NEAR(Analytic[I], Numeric, Tol)
        << "coordinate " << I << " of " << T0.numel();
  }
}

/// Reduces an arbitrary-shaped output to a scalar through a fixed random
/// projection so gradcheck exercises all coordinates.
std::function<Value(Value)> scalarized(std::function<Value(Value)> F,
                                       const Tensor &ProbeShape, Rng &R) {
  Value Out = F(Value::param(ProbeShape));
  Tensor W = Tensor::zerosLike(Out.val());
  for (int64_t I = 0; I != W.numel(); ++I)
    W[I] = static_cast<float>(R.normal());
  return [F = std::move(F), W = std::move(W)](Value P) {
    return meanAll(mul(F(P), Value::constant(W)));
  };
}

} // namespace

//===----------------------------------------------------------------------===//
// Elementwise and linear-algebra ops
//===----------------------------------------------------------------------===//

TEST(GradCheck, AddSameShape) {
  Rng R(1);
  Tensor A = randomAwayFromKinks(3, 4, R);
  Tensor B = randomAwayFromKinks(3, 4, R);
  checkGrad(scalarized(
                [&](Value P) { return add(P, Value::constant(B)); }, A, R),
            A);
  // And through the second operand.
  checkGrad(scalarized(
                [&](Value P) { return add(Value::constant(A), P); }, B, R),
            B);
}

TEST(GradCheck, AddBiasBroadcast) {
  Rng R(2);
  Tensor A = randomAwayFromKinks(3, 4, R);
  Tensor Bias = randomAwayFromKinks(4, 0, R);
  checkGrad(scalarized(
                [&](Value P) { return add(Value::constant(A), P); }, Bias, R),
            Bias);
}

TEST(GradCheck, SubAndMul) {
  Rng R(3);
  Tensor A = randomAwayFromKinks(2, 5, R);
  Tensor B = randomAwayFromKinks(2, 5, R);
  checkGrad(scalarized(
                [&](Value P) { return sub(P, Value::constant(B)); }, A, R),
            A);
  checkGrad(scalarized(
                [&](Value P) { return mul(P, Value::constant(B)); }, A, R),
            A);
  checkGrad(scalarized(
                [&](Value P) { return mul(Value::constant(A), P); }, B, R),
            B);
}

TEST(GradCheck, Scale) {
  Rng R(4);
  Tensor A = randomAwayFromKinks(3, 3, R);
  checkGrad(scalarized([](Value P) { return scale(P, -2.5f); }, A, R), A);
}

TEST(GradCheck, MatmulBothSides) {
  Rng R(5);
  Tensor A = randomAwayFromKinks(3, 4, R);
  Tensor B = randomAwayFromKinks(4, 2, R);
  checkGrad(scalarized(
                [&](Value P) { return matmul(P, Value::constant(B)); }, A, R),
            A);
  checkGrad(scalarized(
                [&](Value P) { return matmul(Value::constant(A), P); }, B, R),
            B);
}

TEST(GradCheck, MatmulNTBothSides) {
  Rng R(6);
  Tensor A = randomAwayFromKinks(3, 4, R);
  Tensor B = randomAwayFromKinks(5, 4, R); // used transposed
  checkGrad(scalarized(
                [&](Value P) { return matmulNT(P, Value::constant(B)); }, A,
                R),
            A);
  checkGrad(scalarized(
                [&](Value P) { return matmulNT(Value::constant(A), P); }, B,
                R),
            B);
}

TEST(GradCheck, Activations) {
  Rng R(7);
  Tensor A = randomAwayFromKinks(4, 3, R);
  checkGrad(scalarized([](Value P) { return sigmoid(P); }, A, R), A);
  checkGrad(scalarized([](Value P) { return tanhOp(P); }, A, R), A);
  checkGrad(scalarized([](Value P) { return relu(P); }, A, R), A);
}

TEST(GradCheck, ConcatCols) {
  Rng R(8);
  Tensor A = randomAwayFromKinks(3, 2, R);
  Tensor B = randomAwayFromKinks(3, 4, R);
  checkGrad(scalarized(
                [&](Value P) { return concatCols(P, Value::constant(B)); }, A,
                R),
            A);
  checkGrad(scalarized(
                [&](Value P) { return concatCols(Value::constant(A), P); }, B,
                R),
            B);
}

//===----------------------------------------------------------------------===//
// Gather / scatter ops
//===----------------------------------------------------------------------===//

TEST(GradCheck, GatherRowsWithRepeats) {
  Rng R(9);
  Tensor A = randomAwayFromKinks(4, 3, R);
  std::vector<int> Idx{2, 0, 2, 3, 2};
  checkGrad(scalarized([&](Value P) { return gatherRows(P, Idx); }, A, R), A);
}

TEST(GradCheck, ScatterMax) {
  Rng R(10);
  Tensor Msgs = randomAwayFromKinks(6, 3, R);
  std::vector<int> Dst{0, 1, 1, 2, 0, 2};
  checkGrad(scalarized(
                [&](Value P) { return scatterMax(P, Dst, 4); }, Msgs, R),
            Msgs);
}

TEST(GradCheck, ScatterMean) {
  Rng R(11);
  Tensor Msgs = randomAwayFromKinks(5, 2, R);
  std::vector<int> Dst{0, 0, 2, 2, 2};
  checkGrad(scalarized(
                [&](Value P) { return scatterMean(P, Dst, 3); }, Msgs, R),
            Msgs);
}

TEST(GradCheck, IndexAddRows) {
  Rng R(12);
  Tensor Base = randomAwayFromKinks(4, 3, R);
  Tensor Rows = randomAwayFromKinks(3, 3, R);
  std::vector<int> Idx{1, 3, 1};
  checkGrad(scalarized(
                [&](Value P) {
                  return indexAddRows(P, Idx, Value::constant(Rows));
                },
                Base, R),
            Base);
  checkGrad(scalarized(
                [&](Value P) {
                  return indexAddRows(Value::constant(Base), Idx, P);
                },
                Rows, R),
            Rows);
}

TEST(GradCheck, ReduceMaxRows) {
  Rng R(13);
  Tensor A = randomAwayFromKinks(5, 4, R);
  checkGrad(scalarized([](Value P) { return reduceMaxRows(P); }, A, R), A);
}

TEST(GradCheck, MeanAll) {
  Rng R(14);
  Tensor A = randomAwayFromKinks(3, 7, R);
  checkGrad([](Value P) { return meanAll(P); }, A);
}

//===----------------------------------------------------------------------===//
// Losses
//===----------------------------------------------------------------------===//

TEST(GradCheck, SoftmaxCrossEntropy) {
  Rng R(15);
  Tensor Logits = randomAwayFromKinks(4, 3, R);
  std::vector<int> Labels{0, 2, -1, 1}; // one ignored row
  checkGrad([&](Value P) { return softmaxCrossEntropy(P, Labels); }, Logits);
}

TEST(GradCheck, PairwiseL1) {
  Rng R(16);
  Tensor A = randomAwayFromKinks(4, 3, R);
  checkGrad(scalarized([](Value P) { return pairwiseL1(P); }, A, R), A,
            8e-2f);
}

TEST(GradCheck, SpaceLossThroughEmbeddings) {
  Rng R(17);
  Tensor A = randomAwayFromKinks(6, 3, R);
  std::vector<int> Types{0, 0, 1, 1, 2, 0};
  checkGrad(
      [&](Value P) { return spaceLoss(pairwiseL1(P), Types, 0.5f); }, A,
      8e-2f);
}

TEST(SpaceLossTest, ZeroWhenNoValidSamples) {
  // A single labeled point has no same-type partner: loss must be 0.
  Tensor A(2, 3);
  A.fill(1.f);
  A.at(1, 0) = 3.f;
  std::vector<int> Types{0, 1};
  Value L = spaceLoss(pairwiseL1(Value::param(A)), Types, 1.f);
  EXPECT_FLOAT_EQ(L.val()[0], 0.f);
}

TEST(SpaceLossTest, PullsSameTypePointsTogether) {
  // Two same-type points far apart, one different point nearby: the loss
  // must be positive (P+ non-empty with larger distance than d-min - m).
  Tensor A(3, 2);
  A.at(0, 0) = 0.f;
  A.at(1, 0) = 10.f; // same type as row 0, far away
  A.at(2, 0) = 1.f;  // different type, close to row 0
  std::vector<int> Types{0, 0, 1};
  Value L = spaceLoss(pairwiseL1(Value::constant(A)), Types, 1.f);
  EXPECT_GT(L.val()[0], 0.f);
}

TEST(SoftmaxTest, RowsSumToOne) {
  Rng R(18);
  Tensor Logits = randomAwayFromKinks(5, 7, R);
  Tensor P = softmaxRows(Logits);
  for (int64_t I = 0; I != P.rows(); ++I) {
    float Sum = 0;
    for (int64_t J = 0; J != P.cols(); ++J) {
      Sum += P.at(I, J);
      EXPECT_GE(P.at(I, J), 0.f);
    }
    EXPECT_NEAR(Sum, 1.f, 1e-5f);
  }
}

//===----------------------------------------------------------------------===//
// Layers
//===----------------------------------------------------------------------===//

TEST(GradCheck, GruCellStep) {
  Rng R(19);
  ParamSet PS;
  GruCell Cell(3, 4, PS, R);
  Tensor X0 = randomAwayFromKinks(2, 3, R);
  Tensor H0 = randomAwayFromKinks(2, 4, R);
  checkGrad(scalarized(
                [&](Value P) {
                  return Cell.step(P, Value::constant(H0));
                },
                X0, R),
            X0, 8e-2f);
  checkGrad(scalarized(
                [&](Value P) {
                  return Cell.step(Value::constant(X0), P);
                },
                H0, R),
            H0, 8e-2f);
}

TEST(LayersTest, LinearShapes) {
  Rng R(20);
  ParamSet PS;
  Linear L(5, 3, PS, R);
  Value Out = L.apply(Value::constant(Tensor(4, 5)));
  EXPECT_EQ(Out.val().rows(), 4);
  EXPECT_EQ(Out.val().cols(), 3);
  EXPECT_EQ(PS.params().size(), 2u);
}

TEST(LayersTest, EmbeddingLooksUpRows) {
  Rng R(21);
  ParamSet PS;
  Embedding E(10, 4, PS, R);
  Value Out = E.rows({3, 3, 7});
  EXPECT_EQ(Out.val().rows(), 3);
  for (int64_t J = 0; J != 4; ++J)
    EXPECT_FLOAT_EQ(Out.val().at(0, J), Out.val().at(1, J));
}

TEST(LayersTest, CharCnnEncodesWords) {
  Rng R(22);
  ParamSet PS;
  CharCnn C(8, 16, PS, R);
  Value A = C.encode("loss");
  Value B = C.encode("");
  EXPECT_EQ(A.val().rows(), 1);
  EXPECT_EQ(A.val().cols(), 16);
  EXPECT_EQ(B.val().cols(), 16);
  for (int64_t I = 0; I != A.val().numel(); ++I)
    EXPECT_TRUE(std::isfinite(A.val()[I]));
}

TEST(LayersTest, CharCnnGradientsFlow) {
  Rng R(23);
  ParamSet PS;
  CharCnn C(4, 6, PS, R);
  Value Loss = meanAll(C.encode("abc"));
  backward(Loss);
  // At least one parameter received gradient signal.
  double Total = 0;
  for (const Value &P : PS.params()) {
    const Tensor &G = P.grad();
    for (int64_t I = 0; I != G.numel(); ++I)
      Total += std::fabs(G[I]);
  }
  EXPECT_GT(Total, 0.0);
}

//===----------------------------------------------------------------------===//
// Optimizer
//===----------------------------------------------------------------------===//

TEST(AdamTest, SolvesLeastSquares) {
  Rng R(24);
  ParamSet PS;
  // Fit y = x * Wtrue with a linear model.
  Tensor WTrue = Tensor::randn(3, 2, R, 1.f);
  Tensor X = Tensor::randn(16, 3, R, 1.f);
  Tensor Y(16, 2);
  gemm(false, false, 16, 2, 3, 1.f, X.data(), WTrue.data(), 0.f, Y.data());

  Value W = PS.make(Tensor::randn(3, 2, R, 0.5f));
  Adam Opt(PS, 5e-2f);
  float FirstLoss = -1, LastLoss = -1;
  for (int Step = 0; Step != 300; ++Step) {
    Value Pred = matmul(Value::constant(X), W);
    Value Diff = sub(Pred, Value::constant(Y));
    Value Loss = meanAll(mul(Diff, Diff));
    if (Step == 0)
      FirstLoss = Loss.val()[0];
    LastLoss = Loss.val()[0];
    PS.zeroGrads();
    backward(Loss);
    Opt.step();
  }
  EXPECT_LT(LastLoss, FirstLoss * 0.01f);
}

TEST(AdamTest, GradientsAreZeroedAfterStep) {
  Rng R(25);
  ParamSet PS;
  Value W = PS.make(Tensor::randn(2, 2, R, 1.f));
  Adam Opt(PS, 1e-3f);
  Value Loss = meanAll(mul(W, W));
  backward(Loss);
  Opt.step();
  const Tensor &G = W.grad();
  for (int64_t I = 0; I != G.numel(); ++I)
    EXPECT_FLOAT_EQ(G[I], 0.f);
}

TEST(AdamTest, ClippingBoundsUpdateMagnitude) {
  Rng R(26);
  ParamSet PS;
  Value W = PS.make(Tensor::randn(4, 4, R, 1.f));
  Tensor Before = W.val();
  Adam Opt(PS, 1e-1f, /*ClipNorm=*/1e-3f);
  Value Loss = scale(meanAll(mul(W, W)), 1e6f); // huge gradients
  backward(Loss);
  Opt.step();
  // Adam's per-coordinate step is bounded by ~Lr regardless, but clipping
  // must additionally have kept things finite.
  for (int64_t I = 0; I != W.val().numel(); ++I) {
    EXPECT_TRUE(std::isfinite(W.val()[I]));
    EXPECT_NEAR(W.val()[I], Before[I], 0.2f);
  }
}

//===----------------------------------------------------------------------===//
// Backward-pass plumbing
//===----------------------------------------------------------------------===//

TEST(BackwardTest, DiamondDependencyAccumulates) {
  // L = mean((P + P) * P) — P participates through multiple paths.
  Tensor T(2, 2);
  T.at(0, 0) = 1;
  T.at(0, 1) = 2;
  T.at(1, 0) = 3;
  T.at(1, 1) = 4;
  checkGrad([](Value P) { return meanAll(mul(add(P, P), P)); }, T);
}

TEST(BackwardTest, ConstantsReceiveNoGradient) {
  Value C = Value::constant(Tensor(2, 2));
  Rng R(27);
  Value P = Value::param(Tensor::randn(2, 2, R, 1.f));
  Value L = meanAll(mul(add(C, P), P));
  backward(L);
  EXPECT_FALSE(C.needsGrad());
}

TEST(BackwardTest, DeepChainStaysFinite) {
  // A 200-step chain (like an unrolled RNN) must not blow the stack or
  // produce NaNs thanks to iterative topo sort.
  Rng R(28);
  Value X = Value::param(Tensor::randn(1, 8, R, 0.1f));
  Value H = X;
  for (int I = 0; I != 200; ++I)
    H = tanhOp(scale(H, 1.01f));
  Value L = meanAll(H);
  backward(L);
  const Tensor &G = X.grad();
  for (int64_t I = 0; I != G.numel(); ++I)
    EXPECT_TRUE(std::isfinite(G[I]));
}

TEST(GradCheck, ConcatRows) {
  Rng R(29);
  Tensor A = randomAwayFromKinks(2, 3, R);
  Tensor B = randomAwayFromKinks(3, 3, R);
  checkGrad(scalarized(
                [&](Value P) {
                  return concatRows({P, Value::constant(B)});
                },
                A, R),
            A);
  checkGrad(scalarized(
                [&](Value P) {
                  return concatRows({Value::constant(A), P});
                },
                B, R),
            B);
}

TEST(GradCheck, AttentionPoolBothInputs) {
  Rng R(30);
  Tensor S = randomAwayFromKinks(4, 1, R);
  Tensor Rows = randomAwayFromKinks(4, 3, R);
  checkGrad(scalarized(
                [&](Value P) {
                  return attentionPool(P, Value::constant(Rows));
                },
                S, R),
            S, 8e-2f);
  checkGrad(scalarized(
                [&](Value P) {
                  return attentionPool(Value::constant(S), P);
                },
                Rows, R),
            Rows, 8e-2f);
}

TEST(AttentionPoolTest, UniformScoresAverageRows) {
  Tensor S(3, 1); // all-equal scores -> plain mean
  Tensor Rows(3, 2);
  Rows.at(0, 0) = 3.f;
  Rows.at(1, 0) = 6.f;
  Rows.at(2, 0) = 9.f;
  Value Out = attentionPool(Value::constant(S), Value::constant(Rows));
  EXPECT_NEAR(Out.val().at(0, 0), 6.f, 1e-5f);
}

//===----------------------------------------------------------------------===//
// Kernel determinism: the blocked/parallel kernels must be bit-identical
// to naive references for every thread count (the execution layer's
// core guarantee; see docs/ARCHITECTURE.md).
//===----------------------------------------------------------------------===//

#include "support/ThreadPool.h"

namespace {

/// The seed's naive GEMM, kept verbatim as the bit-level reference.
void naiveGemm(bool TransA, bool TransB, int64_t M, int64_t N, int64_t K,
               float Alpha, const float *A, const float *B, float Beta,
               float *C) {
  if (Beta == 0.f)
    std::fill(C, C + M * N, 0.f);
  else if (Beta != 1.f)
    for (int64_t I = 0; I != M * N; ++I)
      C[I] *= Beta;
  const int64_t Lda = TransA ? M : K;
  const int64_t Ldb = TransB ? K : N;
  for (int64_t I = 0; I != M; ++I)
    for (int64_t J = 0; J != N; ++J) {
      // Per-element k-ascending accumulation in the i-k-j kernel's order.
      for (int64_t P = 0; P != K; ++P) {
        float AV = TransA ? A[P * Lda + I] : A[I * Lda + P];
        float BV = TransB ? B[J * Ldb + P] : B[P * Ldb + J];
        if (TransB)
          continue; // dot-product cases handled below
        float AIP = Alpha * AV;
        if (AIP == 0.f)
          continue;
        C[I * N + J] += AIP * BV;
      }
      if (TransB) {
        float Sum = 0.f;
        for (int64_t P = 0; P != K; ++P) {
          float AV = TransA ? A[P * Lda + I] : A[I * Lda + P];
          Sum += AV * B[J * Ldb + P];
        }
        C[I * N + J] += Alpha * Sum;
      }
    }
}

Tensor randomTensor(int64_t Rows, int64_t Cols, Rng &R) {
  Tensor T(Rows, Cols);
  for (int64_t I = 0; I != T.numel(); ++I)
    T[I] = static_cast<float>(R.normal());
  return T;
}

} // namespace

TEST(KernelTest, GemmBitIdenticalToNaiveAllTransposes) {
  // Bit-identity to the naive kernel is the *scalar reference's* contract
  // (the SIMD tables reassociate through FMA and are tolerance-tested by
  // SimdTest below); pin the scalar table for this test.
  SimdGuard Scalar(false);
  Rng R(41);
  const int64_t M = 37, N = 29, K = 53; // odd sizes stress the tiling
  for (bool TA : {false, true})
    for (bool TB : {false, true}) {
      Tensor A = TA ? randomTensor(K, M, R) : randomTensor(M, K, R);
      Tensor B = TB ? randomTensor(N, K, R) : randomTensor(K, N, R);
      Tensor Want(M, N), Got(M, N);
      for (int64_t I = 0; I != Want.numel(); ++I)
        Want[I] = Got[I] = static_cast<float>(R.normal());
      naiveGemm(TA, TB, M, N, K, 1.5f, A.data(), B.data(), 1.f, Want.data());
      for (int Threads : {1, 4}) {
        Tensor Out = Got;
        setGlobalNumThreads(Threads);
        gemm(TA, TB, M, N, K, 1.5f, A.data(), B.data(), 1.f, Out.data());
        for (int64_t I = 0; I != Out.numel(); ++I)
          EXPECT_EQ(Out[I], Want[I])
              << "TA=" << TA << " TB=" << TB << " threads=" << Threads
              << " elem " << I;
      }
    }
  setGlobalNumThreads(0);
}

TEST(KernelTest, MatmulForwardBackwardBitIdenticalAcrossThreads) {
  // Large enough to cross the parallel-dispatch thresholds.
  Rng R(42);
  Tensor A0 = randomTensor(96, 64, R);
  Tensor B0 = randomTensor(64, 80, R);
  Tensor BT0 = randomTensor(80, 64, R); // for matmulNT
  auto Run = [&](int Threads) {
    setGlobalNumThreads(Threads);
    Value A = Value::param(A0), B = Value::param(B0), BT = Value::param(BT0);
    Value Out = matmul(A, B);
    Value OutNT = matmulNT(A, BT);
    Value Loss = meanAll(add(mul(Out, Out), mul(OutNT, OutNT)));
    backward(Loss);
    return std::make_tuple(Out.val(), OutNT.val(), A.grad(), B.grad(),
                           BT.grad(), Loss.val()[0]);
  };
  auto Serial = Run(1);
  auto Parallel = Run(4);
  setGlobalNumThreads(0);
  EXPECT_EQ(std::get<5>(Serial), std::get<5>(Parallel)) << "loss diverged";
  auto ExpectSame = [](const Tensor &X, const Tensor &Y, const char *What) {
    ASSERT_EQ(X.numel(), Y.numel());
    for (int64_t I = 0; I != X.numel(); ++I)
      ASSERT_EQ(X[I], Y[I]) << What << " elem " << I;
  };
  ExpectSame(std::get<0>(Serial), std::get<0>(Parallel), "matmul fwd");
  ExpectSame(std::get<1>(Serial), std::get<1>(Parallel), "matmulNT fwd");
  ExpectSame(std::get<2>(Serial), std::get<2>(Parallel), "dA");
  ExpectSame(std::get<3>(Serial), std::get<3>(Parallel), "dB");
  ExpectSame(std::get<4>(Serial), std::get<4>(Parallel), "dBT");
}

TEST(KernelTest, ElementwiseAndLossOpsBitIdenticalAcrossThreads) {
  Rng R(43);
  Tensor X0 = randomTensor(128, 160, R); // > ElementwiseGrain elements
  std::vector<int> Types(128);
  for (size_t I = 0; I != Types.size(); ++I)
    Types[I] = static_cast<int>(I % 5);
  auto Run = [&](int Threads) {
    setGlobalNumThreads(Threads);
    Value X = Value::param(X0);
    Value H = tanhOp(sigmoid(relu(X)));
    Value Loss = add(spaceLoss(pairwiseL1(H), Types, 1.f),
                     meanAll(mul(H, H)));
    backward(Loss);
    return std::make_pair(Loss.val()[0], X.grad());
  };
  auto Serial = Run(1);
  auto Parallel = Run(4);
  setGlobalNumThreads(0);
  EXPECT_EQ(Serial.first, Parallel.first);
  ASSERT_EQ(Serial.second.numel(), Parallel.second.numel());
  for (int64_t I = 0; I != Serial.second.numel(); ++I)
    ASSERT_EQ(Serial.second[I], Parallel.second[I]) << "grad elem " << I;
}

TEST(KernelTest, CharCnnBatchMatchesPerWordEncode) {
  Rng R(44);
  ParamSet PS;
  CharCnn C(8, 16, PS, R);
  std::vector<std::string> Words{"loss", "x", "", "gradient", "loss2"};
  Value Batched = C.encodeBatch(Words);
  ASSERT_EQ(Batched.val().rows(), static_cast<int64_t>(Words.size()));
  for (size_t W = 0; W != Words.size(); ++W) {
    Value One = C.encode(Words[W]);
    for (int64_t J = 0; J != One.val().cols(); ++J)
      EXPECT_EQ(Batched.val().at(static_cast<int64_t>(W), J),
                One.val().at(0, J))
          << "word " << W << " dim " << J;
  }
}

//===----------------------------------------------------------------------===//
// SIMD-vs-scalar tolerance suite
//
// The scalar table is the reference (pinned bit-identical above); the
// SIMD table may reassociate reductions and use FMA / polynomial exp, so
// each kernel gets an explicit error budget: results must agree within
// MaxUlp units-in-the-last-place OR an absolute epsilon (the epsilon
// covers well-conditioned cancellation, e.g. tanh near zero). Sizes sweep
// through every dispatch width: sub-vector, exact multiples, and
// remainder lanes of both the 8-wide AVX2 and 4-wide NEON paths.
//===----------------------------------------------------------------------===//

namespace {

int64_t ulpDiff(float A, float B) {
  if (A == B)
    return 0;
  int32_t IA, IB;
  std::memcpy(&IA, &A, 4);
  std::memcpy(&IB, &B, 4);
  // Map the sign-magnitude float encoding onto a monotonic integer line.
  if (IA < 0)
    IA = std::numeric_limits<int32_t>::min() - IA;
  if (IB < 0)
    IB = std::numeric_limits<int32_t>::min() - IB;
  return std::llabs(static_cast<int64_t>(IA) - static_cast<int64_t>(IB));
}

void expectClose(float Got, float Want, int64_t MaxUlp, float Atol,
                 const char *What, int64_t N, int64_t I) {
  if (std::fabs(Got - Want) <= Atol)
    return;
  EXPECT_LE(ulpDiff(Got, Want), MaxUlp)
      << What << " N=" << N << " elem " << I << ": got " << Got << " want "
      << Want;
}

/// The dispatch widths under test: around the 4- and 8-lane boundaries,
/// plus chunk-sized runs.
const std::vector<int64_t> &simdSizes() {
  static const std::vector<int64_t> S{1,  2,  3,  4,  5,  7,   8,   9,
                                      15, 16, 17, 31, 32, 33,  63,  64,
                                      65, 100, 255, 1000};
  return S;
}

std::vector<float> randomVec(int64_t N, Rng &R, float Scale = 1.f) {
  std::vector<float> V(static_cast<size_t>(N));
  for (float &X : V)
    X = Scale * static_cast<float>(R.normal());
  return V;
}

class SimdTest : public ::testing::Test {
protected:
  void SetUp() override {
    if (!simd::simdAvailable())
      GTEST_SKIP() << "no SIMD table in this build/CPU";
  }
  const simd::KernelTable &S = simd::scalarTable();
  const simd::KernelTable &V = simd::active(); // probe-selected table
};

} // namespace

TEST_F(SimdTest, ElementwiseKernelsBitIdenticalToScalar) {
  // These kernels use the scalar per-element operation sequence inside
  // the vector lanes (mul then add, compare-and-mask), so the budget is
  // exactly zero ulp.
  Rng R(71);
  for (int64_t N : simdSizes()) {
    auto A = randomVec(N, R), B = randomVec(N, R);
    auto D1 = randomVec(N, R);
    auto D2 = D1;
    auto Check = [&](const char *What) {
      for (int64_t I = 0; I != N; ++I)
        EXPECT_EQ(D1[static_cast<size_t>(I)], D2[static_cast<size_t>(I)])
            << What << " N=" << N << " elem " << I;
    };
    S.Add(D1.data(), A.data(), N);
    V.Add(D2.data(), A.data(), N);
    Check("add");
    S.Sub(D1.data(), A.data(), N);
    V.Sub(D2.data(), A.data(), N);
    Check("sub");
    S.Mul(D1.data(), A.data(), N);
    V.Mul(D2.data(), A.data(), N);
    Check("mul");
    S.Scale(D1.data(), 1.25f, N);
    V.Scale(D2.data(), 1.25f, N);
    Check("scale");
    S.MulAcc(D1.data(), A.data(), B.data(), N);
    V.MulAcc(D2.data(), A.data(), B.data(), N);
    Check("mulAcc");
    S.Relu(D1.data(), N);
    V.Relu(D2.data(), N);
    Check("relu");
    S.ReluBwd(D1.data(), A.data(), B.data(), N);
    V.ReluBwd(D2.data(), A.data(), B.data(), N);
    Check("reluBwd");
    S.SigmoidBwd(D1.data(), A.data(), B.data(), N);
    V.SigmoidBwd(D2.data(), A.data(), B.data(), N);
    Check("sigmoidBwd");
    S.TanhBwd(D1.data(), A.data(), B.data(), N);
    V.TanhBwd(D2.data(), A.data(), B.data(), N);
    Check("tanhBwd");
  }
}

TEST_F(SimdTest, AxpyRowWithinOneFmaRounding) {
  // FMA skips one rounding of the product; near-cancelling dst + a*x can
  // turn that into many ulp of a tiny result, so the budget is one fused
  // rounding in absolute terms with a tight ulp bound elsewhere.
  Rng R(72);
  for (int64_t N : simdSizes()) {
    auto X = randomVec(N, R);
    auto D1 = randomVec(N, R);
    auto D2 = D1;
    S.AxpyRow(D1.data(), 0.7f, X.data(), N);
    V.AxpyRow(D2.data(), 0.7f, X.data(), N);
    for (int64_t I = 0; I != N; ++I)
      expectClose(D2[static_cast<size_t>(I)], D1[static_cast<size_t>(I)],
                  /*MaxUlp=*/4, /*Atol=*/1e-6f, "axpyRow", N, I);
  }
}

TEST_F(SimdTest, ReductionsWithinBudget) {
  Rng R(73);
  for (int64_t N : simdSizes()) {
    auto A = randomVec(N, R), B = randomVec(N, R);
    expectClose(V.Dot(A.data(), B.data(), N), S.Dot(A.data(), B.data(), N),
                /*MaxUlp=*/256, /*Atol=*/1e-3f, "dot", N, -1);
    expectClose(V.L1(A.data(), B.data(), N), S.L1(A.data(), B.data(), N),
                /*MaxUlp=*/64, /*Atol=*/1e-4f, "l1", N, -1);
  }
}

TEST_F(SimdTest, QuantizedRowDistancesMatchScalarDecode) {
  Rng R(74);
  for (int64_t N : simdSizes()) {
    auto Q = randomVec(N, R);
    auto Src = randomVec(N, R);
    std::vector<uint16_t> H(static_cast<size_t>(N));
    std::vector<int8_t> I8(static_cast<size_t>(N));
    float MaxAbs = 0.f;
    for (int64_t I = 0; I != N; ++I)
      MaxAbs = std::max(MaxAbs, std::fabs(Src[static_cast<size_t>(I)]));
    float Scale = MaxAbs / 127.f;
    for (int64_t I = 0; I != N; ++I) {
      H[static_cast<size_t>(I)] = f32ToF16Bits(Src[static_cast<size_t>(I)]);
      long Ticks = std::lround(Src[static_cast<size_t>(I)] / Scale);
      I8[static_cast<size_t>(I)] = static_cast<int8_t>(
          std::max(-127l, std::min(127l, Ticks)));
    }
    // Decode is exact on both sides, so only summation order differs.
    expectClose(V.L1F16(Q.data(), H.data(), N),
                S.L1F16(Q.data(), H.data(), N),
                /*MaxUlp=*/64, /*Atol=*/1e-4f, "l1f16", N, -1);
    expectClose(V.L1I8(Q.data(), I8.data(), Scale, N),
                S.L1I8(Q.data(), I8.data(), Scale, N),
                /*MaxUlp=*/64, /*Atol=*/1e-4f, "l1i8", N, -1);
  }
}

TEST_F(SimdTest, ActivationsWithinBudget) {
  Rng R(75);
  for (int64_t N : simdSizes()) {
    // 4x-scaled inputs reach the saturating tails of both activations.
    auto X = randomVec(N, R, 4.f);
    auto X1 = X, X2 = X;
    S.Sigmoid(X1.data(), N);
    V.Sigmoid(X2.data(), N);
    for (int64_t I = 0; I != N; ++I)
      expectClose(X2[static_cast<size_t>(I)], X1[static_cast<size_t>(I)],
                  /*MaxUlp=*/256, /*Atol=*/1e-5f, "sigmoid", N, I);
    X1 = X;
    X2 = X;
    S.Tanh(X1.data(), N);
    V.Tanh(X2.data(), N);
    for (int64_t I = 0; I != N; ++I)
      expectClose(X2[static_cast<size_t>(I)], X1[static_cast<size_t>(I)],
                  /*MaxUlp=*/512, /*Atol=*/1e-5f, "tanh", N, I);
  }
}

TEST_F(SimdTest, SoftmaxRowWithinBudgetAndNormalized) {
  Rng R(76);
  for (int64_t N : simdSizes()) {
    auto X = randomVec(N, R, 3.f);
    auto X1 = X, X2 = X;
    S.SoftmaxRow(X1.data(), N);
    V.SoftmaxRow(X2.data(), N);
    double Sum = 0;
    for (int64_t I = 0; I != N; ++I) {
      expectClose(X2[static_cast<size_t>(I)], X1[static_cast<size_t>(I)],
                  /*MaxUlp=*/256, /*Atol=*/1e-5f, "softmaxRow", N, I);
      Sum += X2[static_cast<size_t>(I)];
    }
    EXPECT_NEAR(Sum, 1.0, 1e-4) << "softmax row must stay normalized, N=" << N;
  }
}

TEST_F(SimdTest, SimdPathIsThreadCountDeterministic) {
  // The SIMD contract is weaker than the scalar one only in *which* bits:
  // for a fixed build+CPU the result must still not depend on the thread
  // count. Remainder lanes mirror the vector lanes' operation sequence,
  // so chunk boundaries (which move with the pool size) cannot show
  // through. Exercised at the public-kernel level where chunking lives.
  Rng R(77);
  const int64_t N = 64 * 1024; // several ElementwiseGrain chunks
  auto X = randomVec(N, R);
  auto Run = [&](int Threads) {
    auto Y = X;
    setGlobalNumThreads(Threads);
    kernels::sigmoidForward(Y.data(), N);
    kernels::scaleInPlace(Y.data(), 1.1f, N);
    kernels::tanhForward(Y.data(), N);
    return Y;
  };
  auto One = Run(1);
  auto Four = Run(4);
  setGlobalNumThreads(0);
  for (int64_t I = 0; I != N; ++I)
    ASSERT_EQ(One[static_cast<size_t>(I)], Four[static_cast<size_t>(I)])
        << "elem " << I;
}

//===----------------------------------------------------------------------===//
// The register-blocked GEMM row kernel and the branch-free max aggregation
// must reproduce the loops they replaced bit for bit, on every kernel
// table this CPU offers.
//===----------------------------------------------------------------------===//

namespace {

/// The scalar reference plus, when the CPU has one, the SIMD table.
std::vector<const simd::KernelTable *> offeredTables() {
  std::vector<const simd::KernelTable *> Tables{&simd::scalarTable()};
  if (simd::simdAvailable()) {
    SimdGuard On(true);
    Tables.push_back(&simd::active());
  }
  return Tables;
}

/// Index of the first element whose bits differ (so -0 != +0 and NaN
/// payloads count), or -1.
int64_t firstBitMismatch(const float *X, const float *Y, int64_t N) {
  for (int64_t I = 0; I != N; ++I)
    if (std::memcmp(X + I, Y + I, sizeof(float)) != 0)
      return I;
  return -1;
}

/// gemm as it was before the GemmRow entry: the k-j cases made one
/// KT.AxpyRow call per (row, k) over 512-column tiles; the transposed-B
/// cases are the Dot and strided loops gemm still runs.
void axpyLoopGemm(const simd::KernelTable &KT, bool TransA, bool TransB,
                  int64_t M, int64_t N, int64_t K, float Alpha, const float *A,
                  const float *B, float Beta, float *C) {
  if (Beta == 0.f)
    std::fill(C, C + M * N, 0.f);
  else if (Beta != 1.f)
    for (int64_t I = 0; I != M * N; ++I)
      C[I] *= Beta;
  const int64_t Lda = TransA ? M : K;
  const int64_t Ldb = TransB ? K : N;
  for (int64_t I = 0; I != M; ++I) {
    if (!TransB) {
      for (int64_t JB = 0; JB < N; JB += 512) {
        int64_t JE = std::min<int64_t>(N, JB + 512);
        for (int64_t P = 0; P != K; ++P) {
          float AIP = Alpha * (TransA ? A[P * Lda + I] : A[I * Lda + P]);
          if (AIP == 0.f)
            continue;
          KT.AxpyRow(C + I * N + JB, AIP, B + P * Ldb + JB, JE - JB);
        }
      }
    } else if (!TransA) {
      for (int64_t J = 0; J != N; ++J)
        C[I * N + J] += Alpha * KT.Dot(A + I * Lda, B + J * Ldb, K);
    } else {
      for (int64_t J = 0; J != N; ++J) {
        float Sum = 0.f;
        for (int64_t P = 0; P != K; ++P)
          Sum += A[P * Lda + I] * B[J * Ldb + P];
        C[I * N + J] += Alpha * Sum;
      }
    }
  }
}

const std::vector<int64_t> &gemmRowWidths() {
  static const std::vector<int64_t> W{1, 7, 8, 9, 31, 32, 33, 64, 100};
  return W;
}

} // namespace

TEST(GemmRowTest, GemmBitIdenticalToAxpyLoopOnEveryTable) {
  // M and K are odd so row pairs leave a single-row remainder; at N=100
  // the product crosses GemmParallelFlops, so 4 threads really split rows.
  const int64_t M = 67, K = 37;
  for (const simd::KernelTable *KT : offeredTables()) {
    SimdGuard Pin(KT->WhichIsa != simd::Isa::Scalar);
    ASSERT_EQ(&simd::active(), KT);
    Rng R(81);
    for (bool TA : {false, true})
      for (bool TB : {false, true})
        for (int64_t N : gemmRowWidths()) {
          // op(A) has a fully zero row and scattered exact zeros; C has
          // -0 entries, which an fma(0, b, c) would turn into +0.
          Tensor OpA = randomTensor(M, K, R);
          for (int64_t P = 0; P != K; ++P)
            OpA.at(3, P) = 0.f;
          for (int64_t I = 0; I < OpA.numel(); I += 5)
            OpA[I] = 0.f;
          Tensor A = OpA;
          if (TA) {
            A = Tensor(K, M);
            for (int64_t I = 0; I != M; ++I)
              for (int64_t P = 0; P != K; ++P)
                A.at(P, I) = OpA.at(I, P);
          }
          Tensor B = TB ? randomTensor(N, K, R) : randomTensor(K, N, R);
          Tensor C0 = randomTensor(M, N, R);
          for (int64_t I = 0; I < C0.numel(); I += 7)
            C0[I] = -0.0f;
          for (float Alpha : {1.f, 1.5f})
            for (float Beta : {0.f, 1.f, 0.5f}) {
              Tensor Want = C0;
              axpyLoopGemm(*KT, TA, TB, M, N, K, Alpha, A.data(), B.data(),
                           Beta, Want.data());
              for (int Threads : {1, 4}) {
                setGlobalNumThreads(Threads);
                Tensor Got = C0;
                gemm(TA, TB, M, N, K, Alpha, A.data(), B.data(), Beta,
                     Got.data());
                int64_t Bad =
                    firstBitMismatch(Got.data(), Want.data(), Got.numel());
                EXPECT_EQ(Bad, -1)
                    << simd::isaName(KT->WhichIsa) << " TA=" << TA
                    << " TB=" << TB << " N=" << N << " alpha=" << Alpha
                    << " beta=" << Beta << " threads=" << Threads;
              }
            }
        }
  }
  setGlobalNumThreads(0);
}

TEST(GemmRowTest, EntrySkipsZeroCoefficientsLikeTheAxpyComposition) {
  // Row 4 of B is +inf and column 4 of A is zero: the skip leaves C
  // alone, where fma(0, inf, c) would write NaN. Row 1 of A is all zero,
  // so its -0 entries in C must survive untouched.
  const int64_t K = 9;
  for (const simd::KernelTable *KT : offeredTables())
    for (int64_t Rows : {1, 2, 3, 5})
      for (int64_t N : gemmRowWidths())
        for (bool Strided : {false, true}) {
          Rng R(82);
          Tensor A = randomTensor(Rows, K, R); // [r, p] at r*K + p
          for (int64_t I = 0; I != Rows; ++I)
            A.at(I, 4) = 0.f;
          if (Rows > 1)
            for (int64_t P = 0; P != K; ++P)
              A.at(1, P) = 0.f;
          // The strided case reads the same coefficients from A^T.
          Tensor AT(K, Rows);
          for (int64_t I = 0; I != Rows; ++I)
            for (int64_t P = 0; P != K; ++P)
              AT.at(P, I) = A.at(I, P);
          const float *AData = Strided ? AT.data() : A.data();
          int64_t RowStride = Strided ? 1 : K, ColStride = Strided ? Rows : 1;
          Tensor B = randomTensor(K, N, R);
          for (int64_t J = 0; J != N; ++J)
            B.at(4, J) = std::numeric_limits<float>::infinity();
          Tensor Want = randomTensor(Rows, N, R);
          for (int64_t I = 0; I < Want.numel(); I += 3)
            Want[I] = -0.0f;
          Tensor Got = Want;
          for (int64_t I = 0; I != Rows; ++I)
            for (int64_t P = 0; P != K; ++P) {
              float AIP = 1.5f * A.at(I, P);
              if (AIP != 0.f)
                KT->AxpyRow(Want.data() + I * N, AIP, B.data() + P * N, N);
            }
          KT->GemmRow(Got.data(), Rows, N, K, 1.5f, AData, RowStride,
                      ColStride, B.data(), N);
          EXPECT_EQ(firstBitMismatch(Got.data(), Want.data(), Got.numel()), -1)
              << simd::isaName(KT->WhichIsa) << " rows=" << Rows
              << " N=" << N << " strided=" << Strided;
          for (int64_t I = 0; I != Got.numel(); ++I)
            ASSERT_FALSE(std::isnan(Got[I])) << "zero coefficient not skipped";
        }
}

namespace {

/// scatterMax's forward as it was: a data-dependent branch per element.
void branchyScatterMax(const Tensor &Msgs, const std::vector<int> &Dst,
                       int64_t NumRows, Tensor &Out, std::vector<int> &Arg) {
  int64_t D = Msgs.cols();
  Out = Tensor(NumRows, D);
  Arg.assign(static_cast<size_t>(NumRows * D), -1);
  for (size_t E = 0; E != Dst.size(); ++E) {
    int Nd = Dst[E];
    for (int64_t J = 0; J != D; ++J) {
      float V = Msgs.at(static_cast<int64_t>(E), J);
      int &Slot = Arg[static_cast<size_t>(Nd * D + J)];
      if (Slot < 0 || V > Out.at(Nd, J)) {
        Out.at(Nd, J) = V;
        Slot = static_cast<int>(E);
      }
    }
  }
}

} // namespace

TEST(ScatterMaxTest, MatchesTheBranchyLoopForwardAndBackward) {
  // Values from a small pool give ties (including -0 vs +0), negatives
  // and NaN messages; rows 0, 5 and 11 receive no message at all.
  const float NaN = std::numeric_limits<float>::quiet_NaN();
  const float Pool[] = {-3.f, -1.f, -1.f, -0.5f, 0.f, -0.0f, 2.f, 2.f, NaN};
  const std::vector<int> Rows{1, 2, 3, 4, 6, 7, 8, 9, 10};
  const int64_t NumRows = 12, NumMsgs = 60, D = 9;
  Rng R(83);
  Tensor Msgs(NumMsgs, D);
  for (int64_t I = 0; I != Msgs.numel(); ++I)
    Msgs[I] = Pool[R.uniformInt(sizeof(Pool) / sizeof(Pool[0]))];
  std::vector<int> Dst;
  for (int64_t E = 0; E != NumMsgs; ++E)
    Dst.push_back(Rows[R.uniformInt(Rows.size())]);
  Dst[0] = Dst[1] = Dst[2] = 4; // a NaN first message, then repeats
  for (int64_t J = 0; J != D; ++J)
    Msgs.at(0, J) = NaN;

  Tensor WantOut;
  std::vector<int> WantArg;
  branchyScatterMax(Msgs, Dst, NumRows, WantOut, WantArg);

  Value P = Value::param(Msgs);
  Value Out = scatterMax(P, Dst, NumRows);
  ASSERT_TRUE(Out.val().sameShape(WantOut));
  EXPECT_EQ(firstBitMismatch(Out.val().data(), WantOut.data(),
                             WantOut.numel()),
            -1);

  // Backward: each output cell's gradient lands on exactly the message
  // the branchy loop chose.
  Tensor W = randomTensor(NumRows, D, R);
  backward(meanAll(mul(Out, Value::constant(W))));
  float Inv = 1.f / static_cast<float>(NumRows * D);
  Tensor WantGrad(NumMsgs, D);
  for (int64_t Row = 0; Row != NumRows; ++Row)
    for (int64_t J = 0; J != D; ++J) {
      int E = WantArg[static_cast<size_t>(Row * D + J)];
      if (E >= 0)
        WantGrad.at(E, J) += Inv * W.at(Row, J);
    }
  EXPECT_EQ(firstBitMismatch(P.grad().data(), WantGrad.data(),
                             WantGrad.numel()),
            -1);
}

//===----------------------------------------------------------------------===//
// The transposed-B GEMM row kernel and the row-ordered backward loops
// must reproduce the loops they replaced bit for bit, on every kernel
// table this CPU offers and for any thread count.
//===----------------------------------------------------------------------===//

TEST(GemmDotRowTest, BitIdenticalToTheDotLoopOnEveryTable) {
  // M is odd so row pairs leave a single-row remainder; the largest
  // shapes cross GemmParallelFlops, so 4 threads really split rows.
  const int64_t M = 131;
  const float Inf = std::numeric_limits<float>::infinity();
  for (const simd::KernelTable *KT : offeredTables()) {
    SimdGuard Pin(KT->WhichIsa != simd::Isa::Scalar);
    ASSERT_EQ(&simd::active(), KT);
    Rng R(84);
    for (int64_t N : {1, 7, 8, 9, 31, 32, 33, 50, 64})
      for (int64_t K : {1, 7, 8, 15, 16, 17, 32, 33, 50}) {
        // A has a zero row, scattered zeros and infinities; C has -0.
        Tensor A = randomTensor(M, K, R);
        for (int64_t P = 0; P != K; ++P)
          A.at(2, P) = 0.f;
        for (int64_t I = 0; I < A.numel(); I += 5)
          A[I] = 0.f;
        A.at(5, 0) = Inf;
        A.at(6, K - 1) = -Inf;
        Tensor B = randomTensor(N, K, R); // stored [N, K]: op(B) = B^T
        Tensor C0 = randomTensor(M, N, R);
        for (int64_t I = 0; I < C0.numel(); I += 3)
          C0[I] = -0.0f;
        for (float Alpha : {1.f, 1.5f})
          for (float Beta : {0.f, 1.f, 0.5f}) {
            // gemm's Beta step, then the loop GemmDotRow replaced.
            Tensor Want = C0;
            if (Beta != 1.f)
              for (int64_t I = 0; I != Want.numel(); ++I)
                Want[I] = Beta == 0.f ? 0.f : Want[I] * Beta;
            for (int64_t I = 0; I != M; ++I)
              for (int64_t J = 0; J != N; ++J)
                Want.at(I, J) +=
                    Alpha * KT->Dot(A.data() + I * K, B.data() + J * K, K);
            for (int Threads : {1, 4}) {
              setGlobalNumThreads(Threads);
              Tensor Got = C0;
              gemm(false, true, M, N, K, Alpha, A.data(), B.data(), Beta,
                   Got.data());
              EXPECT_EQ(firstBitMismatch(Got.data(), Want.data(), Got.numel()),
                        -1)
                  << simd::isaName(KT->WhichIsa) << " N=" << N << " K=" << K
                  << " alpha=" << Alpha << " beta=" << Beta
                  << " threads=" << Threads;
            }
          }
        // The entry itself, with row strides wider than K.
        const int64_t Rows = 5, Lda = K + 3, Ldb = K + 5;
        Tensor AS = randomTensor(Rows, Lda, R), BS = randomTensor(N, Ldb, R);
        AS.at(1, 0) = Inf;
        Tensor Want = randomTensor(Rows, N, R);
        Want[0] = -0.0f;
        Tensor Got = Want;
        for (int64_t I = 0; I != Rows; ++I)
          for (int64_t J = 0; J != N; ++J)
            Want.at(I, J) += 1.5f * KT->Dot(AS.data() + I * Lda,
                                            BS.data() + J * Ldb, K);
        KT->GemmDotRow(Got.data(), Rows, N, K, 1.5f, AS.data(), Lda,
                       BS.data(), Ldb);
        EXPECT_EQ(firstBitMismatch(Got.data(), Want.data(), Got.numel()), -1)
            << simd::isaName(KT->WhichIsa) << " strided N=" << N
            << " K=" << K;
      }
  }
  setGlobalNumThreads(0);
}

namespace {

/// Values that expose any change of per-element order: large and tiny
/// magnitudes (so sums round differently when reassociated), repeats
/// (ties), signed zeros and NaN.
Tensor trickyTensor(int64_t Rows, int64_t Cols, Rng &R) {
  const float Pool[] = {-1.5f, -1.f, -0.0f, 0.f,   0.25f, 1.f,
                        1.f,   3.f,  1e-8f, 7e7f, -7e7f,
                        std::numeric_limits<float>::quiet_NaN()};
  Tensor T(Rows, Cols);
  for (int64_t I = 0; I != T.numel(); ++I)
    T[I] = Pool[R.uniformInt(sizeof(Pool) / sizeof(Pool[0]))];
  return T;
}

/// Runs only \p Out's backward closure, with upstream gradient \p G, onto
/// \p In's gradient preset to \p Init. \returns In's gradient.
Tensor backwardStep(const Value &Out, const Value &In, const Tensor &G,
                    const Tensor &Init) {
  In.grad() = Init;
  Out.node()->Grad = G;
  Out.node()->BackwardFn();
  return In.grad();
}

} // namespace

TEST(RowOrderedBackwardTest, AddBroadcastMatchesTheColumnLoop) {
  const int64_t Rows = 257, Cols = 37;
  for (const simd::KernelTable *KT : offeredTables()) {
    SimdGuard Pin(KT->WhichIsa != simd::Isa::Scalar);
    Rng R(85);
    Tensor G = trickyTensor(Rows, Cols, R);
    Tensor Tricky = trickyTensor(1, Cols, R);
    Tensor Init(Cols);
    for (int64_t C = 0; C != Cols; ++C)
      Init[C] = Tricky[C];
    // The loop the bias backward ran before: column by column.
    Tensor Want = Init;
    for (int64_t C = 0; C != Cols; ++C)
      for (int64_t Row = 0; Row != Rows; ++Row)
        Want[C] += G.at(Row, C);
    for (int Threads : {1, 4}) {
      setGlobalNumThreads(Threads);
      Value A = Value::param(randomTensor(Rows, Cols, R));
      Value B = Value::param(Tensor(Cols));
      Value Out = add(A, B);
      Tensor Got = backwardStep(Out, B, G, Init);
      EXPECT_EQ(firstBitMismatch(Got.data(), Want.data(), Want.numel()), -1)
          << simd::isaName(KT->WhichIsa) << " threads=" << Threads;
    }
  }
  setGlobalNumThreads(0);
}

TEST(RowOrderedBackwardTest, GatherRowsMatchesTheElementLoop) {
  const int64_t NumRows = 23, NumIdx = 300, D = 19;
  for (const simd::KernelTable *KT : offeredTables()) {
    SimdGuard Pin(KT->WhichIsa != simd::Isa::Scalar);
    Rng R(86);
    std::vector<int> Idx;
    for (int64_t I = 0; I != NumIdx; ++I)
      Idx.push_back(static_cast<int>(R.uniformInt(NumRows)));
    Idx[1] = Idx[2] = Idx[3] = Idx[0]; // back-to-back repeats
    Tensor G = trickyTensor(NumIdx, D, R);
    Tensor Init = trickyTensor(NumRows, D, R);
    Tensor Want = Init;
    for (size_t I = 0; I != Idx.size(); ++I)
      for (int64_t J = 0; J != D; ++J)
        Want.at(Idx[I], J) += G.at(static_cast<int64_t>(I), J);
    for (int Threads : {1, 4}) {
      setGlobalNumThreads(Threads);
      Value A = Value::param(randomTensor(NumRows, D, R));
      Value Out = gatherRows(A, Idx);
      Tensor Got = backwardStep(Out, A, G, Init);
      EXPECT_EQ(firstBitMismatch(Got.data(), Want.data(), Want.numel()), -1)
          << simd::isaName(KT->WhichIsa) << " threads=" << Threads;
    }
  }
  setGlobalNumThreads(0);
}

TEST(RowOrderedBackwardTest, PairwiseL1MatchesThePairLoop) {
  // Tied coordinates (Diff == 0), ±0 and NaN coordinates, NaN in the
  // accumulated gradient, and G == 0 pairs (both signs of zero) alongside
  // large gradients. G itself stays finite: for a NaN G the loop below
  // leaves the NaN's sign bit to the compiler, which may fold G * -1 into
  // -G. At R = 70 the rows split into several parallel chunks.
  const int64_t R = 70, D = 33;
  for (const simd::KernelTable *KT : offeredTables()) {
    SimdGuard Pin(KT->WhichIsa != simd::Isa::Scalar);
    Rng Rand(87);
    Tensor V = trickyTensor(R, D, Rand);
    for (int64_t K = 0; K != D; ++K)
      V.at(4, K) = V.at(3, K); // two identical rows
    Tensor G = trickyTensor(R, R, Rand);
    for (int64_t I = 0; I != G.numel(); ++I)
      if (std::isnan(G[I]) || I % 4 == 0)
        G[I] = I % 8 ? 0.f : -0.0f;
    Tensor Init = trickyTensor(R, D, Rand);
    // The loop the backward ran before: every ordered pair in turn.
    Tensor Want = Init;
    for (int64_t I = 0; I != R; ++I)
      for (int64_t J = 0; J != R; ++J) {
        if (I == J)
          continue;
        float GIJ = G.at(I, J);
        if (GIJ == 0.f)
          continue;
        for (int64_t K = 0; K != D; ++K) {
          float Diff = V.at(I, K) - V.at(J, K);
          float Sign = Diff > 0.f ? 1.f : (Diff < 0.f ? -1.f : 0.f);
          Want.at(I, K) += GIJ * Sign;
          Want.at(J, K) -= GIJ * Sign;
        }
      }
    for (int Threads : {1, 4}) {
      setGlobalNumThreads(Threads);
      Value A = Value::param(V);
      Value Out = pairwiseL1(A);
      Tensor Got = backwardStep(Out, A, G, Init);
      EXPECT_EQ(firstBitMismatch(Got.data(), Want.data(), Want.numel()), -1)
          << simd::isaName(KT->WhichIsa) << " threads=" << Threads;
    }
  }
  setGlobalNumThreads(0);
}

//===----------------------------------------------------------------------===//
// No-record inference
//===----------------------------------------------------------------------===//

TEST(NoRecordTest, OpsComputeIdenticalValuesAndRecordNothing) {
  Rng R(84);
  Value A = Value::param(randomTensor(6, 5, R));
  Value B = Value::param(randomTensor(6, 5, R));
  Value Rows3 = Value::param(randomTensor(3, 5, R));
  Value W = Value::param(randomTensor(5, 4, R));
  Value WT = Value::param(randomTensor(4, 5, R));
  Value Scores = Value::param(randomTensor(6, 1, R));
  Tensor BiasT(5);
  for (int64_t I = 0; I != 5; ++I)
    BiasT[I] = static_cast<float>(R.normal());
  Value Bias = Value::param(BiasT);
  const std::vector<int> Dst{1, 0, 1, 3, 3, 1};
  const std::vector<std::pair<const char *, std::function<Value()>>> Ops{
      {"add", [&] { return add(A, B); }},
      {"addBias", [&] { return add(A, Bias); }},
      {"sub", [&] { return sub(A, B); }},
      {"mul", [&] { return mul(A, B); }},
      {"scale", [&] { return scale(A, 1.5f); }},
      {"matmul", [&] { return matmul(A, W); }},
      {"matmulNT", [&] { return matmulNT(A, WT); }},
      {"sigmoid", [&] { return sigmoid(A); }},
      {"tanh", [&] { return tanhOp(A); }},
      {"relu", [&] { return relu(A); }},
      {"concatCols", [&] { return concatCols(A, B); }},
      {"concatRows", [&] { return concatRows({A, B, Rows3}); }},
      {"attentionPool", [&] { return attentionPool(Scores, A); }},
      {"gatherRows", [&] { return gatherRows(A, {0, 2, 2, 5}); }},
      {"scatterMax", [&] { return scatterMax(A, Dst, 4); }},
      {"scatterMean", [&] { return scatterMean(A, Dst, 4); }},
      {"indexAddRows", [&] { return indexAddRows(A, {0, 2, 2}, Rows3); }},
      {"reduceMaxRows", [&] { return reduceMaxRows(A); }},
      {"meanAll", [&] { return meanAll(A); }},
      {"softmaxCrossEntropy",
       [&] { return softmaxCrossEntropy(A, {0, 4, -1, 2, 1, 3}); }},
      {"pairwiseL1", [&] { return pairwiseL1(A); }},
      {"spaceLoss",
       [&] { return spaceLoss(pairwiseL1(A), {0, 1, 0, 1, -1, 2}, 1.f); }},
  };
  for (const auto &[Name, Op] : Ops) {
    Value Recorded = Op();
    ASSERT_FALSE(Recorded.node()->Prev.empty()) << Name;
    ASSERT_TRUE(static_cast<bool>(Recorded.node()->BackwardFn)) << Name;
    Value Bare;
    {
      NoRecordScope NoRecord;
      Bare = Op();
    }
    ASSERT_TRUE(Bare.val().sameShape(Recorded.val())) << Name;
    EXPECT_EQ(firstBitMismatch(Bare.val().data(), Recorded.val().data(),
                               Bare.val().numel()),
              -1)
        << Name;
    EXPECT_TRUE(Bare.node()->Prev.empty()) << Name;
    EXPECT_FALSE(static_cast<bool>(Bare.node()->BackwardFn)) << Name;
    EXPECT_FALSE(Bare.needsGrad()) << Name;
  }
}

TEST(NoRecordTest, ScopeIsPerThreadNestedAndRestoredOnExit) {
  Rng R(85);
  Value P = Value::param(randomTensor(2, 3, R));
  auto Records = [&] { return !relu(P).node()->Prev.empty(); };
  EXPECT_TRUE(Records());
  {
    NoRecordScope Outer;
    {
      NoRecordScope Inner;
      EXPECT_FALSE(Records());
    }
    EXPECT_FALSE(Records()) << "inner exit closed the outer scope";
    // Another thread records as usual.
    bool OtherRecords = false;
    std::thread T([&] { OtherRecords = Records(); });
    T.join();
    EXPECT_TRUE(OtherRecords);
  }
  EXPECT_TRUE(Records());

  // Unwinding through an exception closes the scope.
  try {
    NoRecordScope NoRecord;
    throw std::runtime_error("unwind");
  } catch (const std::runtime_error &) {
  }
  EXPECT_TRUE(Records());

  // Scopes entered inside pool chunks (as Predictor::embedFiles does)
  // leave no worker in no-record mode afterwards.
  setGlobalNumThreads(4);
  parallelFor(0, 64, 1, [&](int64_t, int64_t) {
    NoRecordScope NoRecord;
    EXPECT_FALSE(Records());
  });
  std::atomic<int> Leaked{0};
  parallelFor(0, 64, 1, [&](int64_t, int64_t) {
    if (!Records())
      ++Leaked;
  });
  setGlobalNumThreads(0);
  EXPECT_EQ(Leaked.load(), 0);

  // Training after all of that still gets its gradients.
  backward(meanAll(mul(P, P)));
  EXPECT_NE(P.grad()[0], 0.f);
}

//===----------------------------------------------------------------------===//
// The fused GGNN timestep (nn::messagePass, nn::gruCell) must reproduce
// its composed form (tests/ComposedGgnn.h) bit for bit: the values and
// the gradient of every input and weight, on every kernel table this CPU
// offers and for any thread count.
//===----------------------------------------------------------------------===//

#include "ComposedGgnn.h"

namespace {

/// Builds a graph over parameters \p P in the fused or the composed form.
using TwinGraph = std::function<Value(bool Fused, const std::vector<Value> &P)>;

/// Runs \p F fused and composed, each over fresh parameters initialised
/// from \p Init and with a backward from the same random projection of
/// its output, and expects the outputs and every parameter's gradient
/// (named by \p Names) to match bit for bit on every table, at 1 and 4
/// threads.
void expectFusedMatchesComposed(const std::vector<Tensor> &Init,
                                const std::vector<std::string> &Names,
                                const TwinGraph &F) {
  ASSERT_EQ(Init.size(), Names.size());
  for (const simd::KernelTable *KT : offeredTables()) {
    SimdGuard Pin(KT->WhichIsa != simd::Isa::Scalar);
    for (int Threads : {1, 4}) {
      setGlobalNumThreads(Threads);
      Tensor Out[2];
      std::vector<Tensor> Grads[2];
      for (int Fused : {0, 1}) {
        std::vector<Value> P;
        for (const Tensor &T : Init)
          P.push_back(Value::param(T));
        Value Y = F(Fused == 1, P);
        Rng R(97);
        Tensor Proj = randomTensor(Y.val().rows(), Y.val().cols(), R);
        backward(meanAll(mul(Y, Value::constant(std::move(Proj)))));
        Out[Fused] = Y.val();
        for (const Value &V : P)
          Grads[Fused].push_back(V.grad());
      }
      const char *Isa = simd::isaName(KT->WhichIsa);
      ASSERT_TRUE(Out[0].sameShape(Out[1]));
      EXPECT_EQ(firstBitMismatch(Out[1].data(), Out[0].data(), Out[0].numel()),
                -1)
          << "value, " << Isa << " threads=" << Threads;
      for (size_t I = 0; I != Init.size(); ++I)
        EXPECT_EQ(firstBitMismatch(Grads[1][I].data(), Grads[0][I].data(),
                                   Grads[0][I].numel()),
                  -1)
            << "d" << Names[I] << ", " << Isa << " threads=" << Threads;
    }
  }
  setGlobalNumThreads(0);
}

const std::vector<std::string> &gruNames() {
  static const std::vector<std::string> Names{"Wr", "Ur", "Br", "Wz", "Uz",
                                              "Bz", "Wn", "Un", "Bn"};
  return Names;
}

/// Initial values for an In -> Hid GRU's weights, biases non-zero.
std::vector<Tensor> gruInit(int64_t In, int64_t Hid, Rng &R) {
  const float SIn = 1.f / std::sqrt(static_cast<float>(In));
  const float SHid = 1.f / std::sqrt(static_cast<float>(Hid));
  std::vector<Tensor> W;
  for (int Gate = 0; Gate != 3; ++Gate) {
    W.push_back(Tensor::randn(In, Hid, R, SIn));
    W.push_back(Tensor::randn(Hid, Hid, R, SHid));
    Tensor B(Hid);
    for (int64_t I = 0; I != Hid; ++I)
      B[I] = static_cast<float>(R.normal()) * 0.5f;
    W.push_back(std::move(B));
  }
  return W;
}

GruWeights gruWeights(const std::vector<Value> &P, size_t First) {
  return {P[First],     P[First + 1], P[First + 2],
          P[First + 3], P[First + 4], P[First + 5],
          P[First + 6], P[First + 7], P[First + 8]};
}

/// One GRU step in either form; the fused one as GruCell::step builds it.
Value gruStep(bool Fused, Value X, Value H, const GruWeights &W) {
  return Fused ? gruCell(matmul(X, W.Wz), X, H, W) : composedGruStep(X, H, W);
}

/// Inits and names: {X, H} then the GRU weights.
std::vector<Tensor> stepInit(int64_t Rows, int64_t In, int64_t Hid, Rng &R,
                             std::vector<std::string> &Names) {
  std::vector<Tensor> Init{randomTensor(Rows, In, R),
                           randomTensor(Rows, Hid, R)};
  Names = {"X", "H"};
  for (Tensor &T : gruInit(In, Hid, R))
    Init.push_back(std::move(T));
  Names.insert(Names.end(), gruNames().begin(), gruNames().end());
  return Init;
}

} // namespace

TEST(FusedGgnnTest, GruCellMatchesTheComposedStepAcrossBlockEdges) {
  // One row, a block minus one, one, plus one, and a batch-sized matrix.
  for (int64_t Rows : {1, 63, 64, 65, 1500}) {
    SCOPED_TRACE("rows=" + std::to_string(Rows));
    Rng R(101);
    std::vector<std::string> Names;
    std::vector<Tensor> Init = stepInit(Rows, 32, 32, R, Names);
    expectFusedMatchesComposed(Init, Names,
                               [](bool Fused, const std::vector<Value> &P) {
                                 return gruStep(Fused, P[0], P[1],
                                                gruWeights(P, 2));
                               });
  }
}

TEST(FusedGgnnTest, GruCellMatchesWhenInputAndHiddenWidthsDiffer) {
  // The Seq encoder's cells map 32 -> 16.
  Rng R(102);
  std::vector<std::string> Names;
  std::vector<Tensor> Init = stepInit(70, 32, 16, R, Names);
  expectFusedMatchesComposed(Init, Names,
                             [](bool Fused, const std::vector<Value> &P) {
                               return gruStep(Fused, P[0], P[1],
                                              gruWeights(P, 2));
                             });
}

TEST(FusedGgnnTest, GruCellMatchesFromAConstantState) {
  // The Seq and Path encoders start from a constant zero state; a
  // constant non-zero state covers the no-gradient branch for H alone.
  Rng R(103);
  for (bool Zero : {true, false}) {
    SCOPED_TRACE(Zero ? "zero state" : "random state");
    Tensor H0 = Zero ? Tensor(65, 32) : randomTensor(65, 32, R);
    std::vector<Tensor> Init{randomTensor(65, 32, R)};
    std::vector<std::string> Names{"X"};
    for (Tensor &T : gruInit(32, 32, R))
      Init.push_back(std::move(T));
    Names.insert(Names.end(), gruNames().begin(), gruNames().end());
    expectFusedMatchesComposed(
        Init, Names, [&H0](bool Fused, const std::vector<Value> &P) {
          return gruStep(Fused, P[0], Value::constant(H0), gruWeights(P, 1));
        });
  }
}

TEST(FusedGgnnTest, GruCellMatchesWithOneInputSharedByChainedSteps) {
  // X feeds both steps, so its gradient and dWz collect contributions
  // from two gruCell nodes and two X Wz nodes, in the composed DFS order.
  Rng R(104);
  std::vector<std::string> Names;
  std::vector<Tensor> Init = stepInit(65, 32, 32, R, Names);
  expectFusedMatchesComposed(Init, Names,
                             [](bool Fused, const std::vector<Value> &P) {
                               GruWeights W = gruWeights(P, 2);
                               Value H1 = gruStep(Fused, P[0], P[1], W);
                               return gruStep(Fused, P[0], H1, W);
                             });
}

TEST(FusedGgnnTest, GruSequencesMatchInBothDirections) {
  // runGruSequence's shape: one-row inputs gathered from a shared source,
  // a constant initial state, every state concatenated. Read backwards,
  // the DFS reaches each step's X Wz before its state, so dWz collects
  // the steps in the opposite order to the other weights.
  const int L = 6;
  for (bool Reverse : {false, true}) {
    SCOPED_TRACE(Reverse ? "reverse" : "forward");
    Rng R(105);
    std::vector<Tensor> Init{randomTensor(L, 32, R)};
    std::vector<std::string> Names{"Source"};
    for (Tensor &T : gruInit(32, 16, R))
      Init.push_back(std::move(T));
    Names.insert(Names.end(), gruNames().begin(), gruNames().end());
    expectFusedMatchesComposed(
        Init, Names, [&](bool Fused, const std::vector<Value> &P) {
          GruWeights W = gruWeights(P, 1);
          Value State = Value::constant(Tensor(int64_t{1}, int64_t{16}));
          std::vector<Value> Rows(L);
          for (int S = 0; S != L; ++S) {
            int I = Reverse ? L - 1 - S : S;
            State = gruStep(Fused, gatherRows(P[0], {I}), State, W);
            Rows[static_cast<size_t>(I)] = State;
          }
          return concatRows(Rows);
        });
  }
}

namespace {

/// Random edges over \p NumRows rows in the encoder's part layout: per
/// label a forward part (sources to destinations) and a reverse part.
/// Labels in \p EmptyLabels get no edges.
std::shared_ptr<MessageEdges>
randomEdges(int64_t NumRows, int EdgesPerLabel, const std::vector<int> &Rows,
            const std::vector<size_t> &EmptyLabels, Rng &R) {
  std::vector<std::vector<int>> Srcs;
  std::vector<int> Dst;
  for (size_t K = 0; K != 8; ++K) {
    std::vector<int> Fwd, Rev, FwdDst, RevDst;
    bool Empty = std::find(EmptyLabels.begin(), EmptyLabels.end(), K) !=
                 EmptyLabels.end();
    for (int I = 0; I != (Empty ? 0 : EdgesPerLabel); ++I) {
      int S = static_cast<int>(R.uniformInt(static_cast<uint64_t>(NumRows)));
      int T = Rows[R.uniformInt(Rows.size())];
      Fwd.push_back(S);
      FwdDst.push_back(T);
      Rev.push_back(T);
      RevDst.push_back(S);
    }
    Dst.insert(Dst.end(), FwdDst.begin(), FwdDst.end());
    Dst.insert(Dst.end(), RevDst.begin(), RevDst.end());
    Srcs.push_back(std::move(Fwd));
    Srcs.push_back(std::move(Rev));
  }
  return std::make_shared<MessageEdges>(std::move(Srcs), std::move(Dst));
}

/// One message pass in either form.
Value passMessages(bool Fused, Value H,
                   const std::shared_ptr<MessageEdges> &E,
                   const std::vector<Value> &Transforms, int64_t NumRows) {
  return Fused ? messagePass(H, E, Transforms, NumRows)
               : composedMessagePass(H, *E, Transforms, NumRows);
}

} // namespace

TEST(FusedGgnnTest, MessagePassMatchesOnEdgeCases) {
  // Label 3 has no edges; sources repeat; rows 0, 5 and 11 receive no
  // message (they are never a destination and never a source, so no
  // reverse edge reaches them either); rows 2 and 3 are equal, so
  // messages from them tie; row 7 holds a NaN, so its messages are NaN.
  const int64_t NumRows = 12, D = 9;
  const std::vector<int> Rows{1, 2, 3, 4, 6, 7, 8, 9, 10};
  Rng R(106);
  auto E = randomEdges(NumRows, 25, Rows, {3}, R);
  std::vector<std::vector<int>> Srcs = E->Srcs;
  for (std::vector<int> &Part : Srcs)
    for (int &S : Part)
      if (S == 0 || S == 5 || S == 11)
        S = 2;
  Srcs[0][1] = Srcs[0][2] = Srcs[0][0]; // back-to-back repeats
  E = std::make_shared<MessageEdges>(std::move(Srcs), E->Dst);
  Tensor H = randomTensor(NumRows, D, R);
  for (int64_t J = 0; J != D; ++J)
    H.at(3, J) = H.at(2, J);
  H.at(7, 4) = std::numeric_limits<float>::quiet_NaN();
  std::vector<Tensor> Init{H};
  std::vector<std::string> Names{"H"};
  for (int K = 0; K != 16; ++K) {
    Init.push_back(Tensor::randn(D, D, R, 1.f / 3));
    Names.push_back("E" + std::to_string(K));
  }
  expectFusedMatchesComposed(
      Init, Names, [&](bool Fused, const std::vector<Value> &P) {
        std::vector<Value> T(P.begin() + 1, P.end());
        return passMessages(Fused, P[0], E, T, NumRows);
      });
}

TEST(FusedGgnnTest, MessagePassMatchesWithRepeatedSources) {
  // The forward multiplies each part's distinct sources once and folds
  // the products through MessageEdges::Product. Part 0 sends every
  // message from row 4, so the messages it sends into rows 2 and 4 tie
  // and the first must win; part 1 mixes repeated and unique sources;
  // row 3 is a source in both parts.
  std::vector<std::vector<int>> Srcs{{4, 4, 4, 4, 4, 4, 4},
                                     {1, 7, 1, 3, 7, 7, 9, 0, 3}};
  std::vector<int> Dst{0, 2, 2, 5, 9, 4, 4, 2, 2, 6, 0, 5, 8, 4, 4, 3};
  auto E = std::make_shared<MessageEdges>(Srcs, Dst);
  ASSERT_EQ(E->Sources,
            (std::vector<std::vector<int>>{{4}, {1, 7, 3, 9, 0}}));
  for (int64_t D : {12, 32}) {
    SCOPED_TRACE("D=" + std::to_string(D));
    Rng R(109);
    std::vector<Tensor> Init{randomTensor(10, D, R)};
    std::vector<std::string> Names{"H"};
    for (int K = 0; K != 2; ++K) {
      Init.push_back(Tensor::randn(D, D, R, 1.f / 3));
      Names.push_back("E" + std::to_string(K));
    }
    expectFusedMatchesComposed(
        Init, Names, [&](bool Fused, const std::vector<Value> &P) {
          return passMessages(Fused, P[0], E, {P[1], P[2]}, 10);
        });
  }
}

TEST(FusedGgnnTest, GgnnTimestepsMatchTheComposedEncoder) {
  // Two timesteps as encodeGraphBatch runs them on a batch-sized graph:
  // gradients for the initial states, the 16 edge transforms and the 9
  // GRU weights.
  const int64_t NumRows = 1500, D = 32;
  Rng R(107);
  std::vector<int> Rows;
  for (int I = 0; I != NumRows; ++I)
    if (I % 7 != 3) // some rows never receive a message
      Rows.push_back(I);
  auto E = randomEdges(NumRows, 200, Rows, {5}, R);
  std::vector<Tensor> Init{randomTensor(NumRows, D, R)};
  std::vector<std::string> Names{"H"};
  for (int K = 0; K != 16; ++K) {
    Init.push_back(
        Tensor::randn(D, D, R, 1.f / std::sqrt(static_cast<float>(D))));
    Names.push_back("E" + std::to_string(K));
  }
  for (Tensor &T : gruInit(D, D, R))
    Init.push_back(std::move(T));
  Names.insert(Names.end(), gruNames().begin(), gruNames().end());
  expectFusedMatchesComposed(
      Init, Names, [&](bool Fused, const std::vector<Value> &P) {
        std::vector<Value> T(P.begin() + 1, P.begin() + 17);
        GruWeights W = gruWeights(P, 17);
        Value H = P[0];
        for (int Step = 0; Step != 2; ++Step)
          H = gruStep(Fused, passMessages(Fused, H, E, T, NumRows), H, W);
        return H;
      });
}

TEST(FusedGgnnTest, TimestepRecordsThreeNodes) {
  // messagePass, X Wz and gruCell: the composed timestep recorded 54.
  Rng R(108);
  auto E = randomEdges(10, 4, {0, 1, 2, 3, 4, 5, 6, 7, 8, 9}, {}, R);
  std::vector<Value> T;
  for (int K = 0; K != 16; ++K)
    T.push_back(Value::param(Tensor::randn(4, 4, R, 0.5f)));
  ParamSet PS;
  GruCell Cell(4, 4, PS, R);
  Value H0 = Value::param(randomTensor(10, 4, R));
  Value H1 = Cell.step(messagePass(H0, E, T, 10), H0);
  // Walk the recorded nodes between H1 and H0.
  std::vector<const Node *> Stack{H1.node().get()}, Seen;
  while (!Stack.empty()) {
    const Node *N = Stack.back();
    Stack.pop_back();
    if (N == H0.node().get() || !N->BackwardFn ||
        std::find(Seen.begin(), Seen.end(), N) != Seen.end())
      continue;
    Seen.push_back(N);
    for (const auto &P : N->Prev)
      Stack.push_back(P.get());
  }
  EXPECT_EQ(Seen.size(), 3u);
  // The parent order the gradient order depends on.
  ASSERT_GE(H1.node()->Prev.size(), 3u);
  const Node *XWz = H1.node()->Prev[0].get();
  const Node *Msg = H1.node()->Prev[1].get();
  EXPECT_EQ(XWz->Prev[0].get(), Msg);
  EXPECT_EQ(H1.node()->Prev[2].get(), H0.node().get());
  EXPECT_EQ(Msg->Prev[0].get(), H0.node().get());
}
