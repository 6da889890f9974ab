//===- nn/Ops.cpp - Autograd op implementations ------------------------------===//
//
// Autograd glue only: each op wires the DAG (makeOut + backward closure,
// neither under a NoRecordScope) and delegates the float work to the
// kernels in nn/Kernels.cpp, which run blocked and pool-parallel above a
// size threshold. Ops whose natural backward accumulation has write
// conflicts across rows (repeated gather indices, scatter destinations)
// keep their serial loops — in the exact seed order — and pairwiseL1's
// backward regroups the seed order per destination row, so every op is
// bit-reproducible for any thread count.
//
//===----------------------------------------------------------------------===//

#include "nn/Autograd.h"

#include "nn/Simd.h"

#include "support/ThreadPool.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstring>
#include <unordered_set>

using namespace typilus;
using namespace typilus::nn;
using namespace typilus::nn::kernels;

namespace {

/// Depth of the NoRecordScopes alive on this thread.
thread_local int NoRecordDepth = 0;

/// Creates the output node for an op with the given parents; wires
/// NeedsGrad. The backward closure is attached afterwards iff needed —
/// never under a NoRecordScope, where the node keeps no parents either.
std::shared_ptr<Node> makeOut(Tensor Val, const Value *Parents,
                              size_t NumParents) {
  auto Out = std::make_shared<Node>();
  Out->Val = std::move(Val);
  if (NoRecordDepth > 0)
    return Out;
  for (size_t I = 0; I != NumParents; ++I) {
    assert(Parents[I].defined() && "op on undefined Value");
    Out->Prev.push_back(Parents[I].node());
    Out->NeedsGrad |= Parents[I].node()->NeedsGrad;
  }
  return Out;
}

std::shared_ptr<Node> makeOut(Tensor Val,
                              std::initializer_list<Value> Parents) {
  return makeOut(std::move(Val), Parents.begin(), Parents.size());
}

/// The bias broadcast: Out[r, c] += Bias[c] over [Rows, Cols].
void addBias(float *Out, const float *Bias, int64_t Rows, int64_t Cols) {
  for (int64_t R = 0; R != Rows; ++R)
    for (int64_t C = 0; C != Cols; ++C)
      Out[R * Cols + C] += Bias[C];
}

/// The bias-broadcast backward: column sums, one whole row at a time, so
/// each column's contributions still arrive row-ascending.
void addRowSums(float *DBias, const float *G, int64_t Rows, int64_t Cols) {
  const simd::KernelTable &KT = simd::active();
  for (int64_t R = 0; R != Rows; ++R)
    KT.Add(DBias, G + R * Cols, Cols);
}

/// Folds message \p Msg's columns [0, N) into one destination row (see
/// maxAggregate). The update is a select, not a branch (which would
/// mispredict on every element): a message is taken when its slot is
/// empty or it is strictly greater, so ties and NaNs keep the first
/// maximum. The restrict rows spare the loop an alias check, and a
/// count that is a multiple of 8 spares it an epilogue, so -O2's cheap
/// vectorizer takes it as -O3's does.
inline void maxSelect(const float *__restrict Src, float *__restrict OutRow,
                      int *__restrict ArgRow, int64_t N, int Msg) {
  for (int64_t J = 0; J != N; ++J) {
    float V = Src[J], Cur = OutRow[J];
    int Slot = ArgRow[J];
    bool Take = (Slot < 0) | (V > Cur);
    OutRow[J] = Take ? V : Cur;
    ArgRow[J] = Take ? Msg : Slot;
  }
}

/// Out[Dst[e]] = elementwise max over the |Dst| messages, in message
/// order; message e is row Row[e] of the [*, D] matrix Msgs (row e when
/// Row is null). Arg records the winning message per (row, dim), -1 for
/// none (Out must be zeros and Arg all -1 on entry, and stay so for such
/// cells). Destination-conflicting writes: serial, in edge order; the
/// backward routes the gradient to the first maximum. Each row folds its
/// first D - D mod 8 columns in one vectorizable pass, then the rest.
/// (Separate 8-wide calls vectorize at -O2 too, but GCC 12's -O3 unrolls
/// them completely and then leaves them scalar, 10x slower.)
void maxAggregate(const float *Msgs, const int *Row,
                  const std::vector<int> &Dst, int64_t D, int64_t NumRows,
                  float *Out, int *Arg) {
  (void)NumRows;
  const int64_t Body = D & ~int64_t(7);
  for (size_t E = 0; E != Dst.size(); ++E) {
    int64_t Nd = Dst[E];
    assert(Nd >= 0 && Nd < NumRows && "scatter destination out of range");
    const float *Src =
        Msgs + static_cast<int64_t>(Row ? Row[E] : static_cast<int>(E)) * D;
    float *OutRow = Out + Nd * D;
    int *ArgRow = Arg + Nd * D;
    const int Msg = static_cast<int>(E);
    maxSelect(Src, OutRow, ArgRow, Body, Msg);
    maxSelect(Src + Body, OutRow + Body, ArgRow + Body, D - Body, Msg);
  }
}

} // namespace

NoRecordScope::NoRecordScope() { ++NoRecordDepth; }
NoRecordScope::~NoRecordScope() { --NoRecordDepth; }

Value nn::add(Value A, Value B) {
  const Tensor &TA = A.val(), &TB = B.val();
  Tensor Out = TA;
  if (TA.sameShape(TB)) {
    addInPlace(Out.data(), TB.data(), Out.numel());
  } else {
    // Bias broadcast: B is rank-1 of length cols(A).
    assert(TB.rank() == 1 && TB.rows() == TA.cols() && "bad add broadcast");
    int64_t Cols = TA.cols();
    parallelFor(0, TA.rows(), rowGrain(Cols), [&](int64_t Lo, int64_t Hi) {
      addBias(Out.data() + Lo * Cols, TB.data(), Hi - Lo, Cols);
    });
  }
  auto N = makeOut(std::move(Out), {A, B});
  if (N->NeedsGrad) {
    Node *O = N.get();
    auto NA = A.node(), NB = B.node();
    bool Broadcast = !TA.sameShape(TB);
    N->BackwardFn = [O, NA, NB, Broadcast] {
      if (NA->NeedsGrad) {
        NA->ensureGrad();
        addInPlace(NA->Grad.data(), O->Grad.data(), O->Grad.numel());
      }
      if (NB->NeedsGrad) {
        NB->ensureGrad();
        if (!Broadcast)
          addInPlace(NB->Grad.data(), O->Grad.data(), O->Grad.numel());
        else
          addRowSums(NB->Grad.data(), O->Grad.data(), O->Grad.rows(),
                     O->Grad.cols());
      }
    };
  }
  return Value(std::move(N));
}

Value nn::sub(Value A, Value B) {
  const Tensor &TA = A.val(), &TB = B.val();
  assert(TA.sameShape(TB) && "sub requires matching shapes");
  Tensor Out = TA;
  subInPlace(Out.data(), TB.data(), Out.numel());
  auto N = makeOut(std::move(Out), {A, B});
  if (N->NeedsGrad) {
    Node *O = N.get();
    auto NA = A.node(), NB = B.node();
    N->BackwardFn = [O, NA, NB] {
      if (NA->NeedsGrad) {
        NA->ensureGrad();
        addInPlace(NA->Grad.data(), O->Grad.data(), O->Grad.numel());
      }
      if (NB->NeedsGrad) {
        NB->ensureGrad();
        subInPlace(NB->Grad.data(), O->Grad.data(), O->Grad.numel());
      }
    };
  }
  return Value(std::move(N));
}

Value nn::mul(Value A, Value B) {
  const Tensor &TA = A.val(), &TB = B.val();
  assert(TA.sameShape(TB) && "mul requires matching shapes");
  Tensor Out = TA;
  mulInPlace(Out.data(), TB.data(), Out.numel());
  auto N = makeOut(std::move(Out), {A, B});
  if (N->NeedsGrad) {
    Node *O = N.get();
    auto NA = A.node(), NB = B.node();
    N->BackwardFn = [O, NA, NB] {
      if (NA->NeedsGrad) {
        NA->ensureGrad();
        mulAcc(NA->Grad.data(), O->Grad.data(), NB->Val.data(),
               O->Grad.numel());
      }
      if (NB->NeedsGrad) {
        NB->ensureGrad();
        mulAcc(NB->Grad.data(), O->Grad.data(), NA->Val.data(),
               O->Grad.numel());
      }
    };
  }
  return Value(std::move(N));
}

Value nn::scale(Value A, float S) {
  Tensor Out = A.val();
  scaleInPlace(Out.data(), S, Out.numel());
  auto N = makeOut(std::move(Out), {A});
  if (N->NeedsGrad) {
    Node *O = N.get();
    auto NA = A.node();
    N->BackwardFn = [O, NA, S] {
      NA->ensureGrad();
      axpyAcc(NA->Grad.data(), S, O->Grad.data(), O->Grad.numel());
    };
  }
  return Value(std::move(N));
}

Value nn::matmul(Value A, Value B) {
  const Tensor &TA = A.val(), &TB = B.val();
  assert(TA.rank() == 2 && TB.rank() == 2 && TA.cols() == TB.rows() &&
         "matmul shape mismatch");
  int64_t M = TA.rows(), K = TA.cols(), Nc = TB.cols();
  Tensor Out(M, Nc); // zeros: gemm accumulates onto them (Beta = 1)
  gemm(false, false, M, Nc, K, 1.f, TA.data(), TB.data(), 1.f, Out.data());
  auto N = makeOut(std::move(Out), {A, B});
  if (N->NeedsGrad) {
    Node *O = N.get();
    auto NA = A.node(), NB = B.node();
    N->BackwardFn = [O, NA, NB, M, K, Nc] {
      if (NA->NeedsGrad) {
        NA->ensureGrad();
        // dA += dC * B^T : [M,Nc] x [Nc,K] with B stored [K,Nc] -> TransB.
        gemm(false, true, M, K, Nc, 1.f, O->Grad.data(), NB->Val.data(), 1.f,
             NA->Grad.data());
      }
      if (NB->NeedsGrad) {
        NB->ensureGrad();
        // dB += A^T * dC.
        gemm(true, false, K, Nc, M, 1.f, NA->Val.data(), O->Grad.data(), 1.f,
             NB->Grad.data());
      }
    };
  }
  return Value(std::move(N));
}

Value nn::matmulNT(Value A, Value B) {
  const Tensor &TA = A.val(), &TB = B.val();
  assert(TA.rank() == 2 && TB.rank() == 2 && TA.cols() == TB.cols() &&
         "matmulNT shape mismatch");
  int64_t M = TA.rows(), K = TA.cols(), Nc = TB.rows();
  Tensor Out(M, Nc); // zeros: gemm accumulates onto them (Beta = 1)
  gemm(false, true, M, Nc, K, 1.f, TA.data(), TB.data(), 1.f, Out.data());
  auto N = makeOut(std::move(Out), {A, B});
  if (N->NeedsGrad) {
    Node *O = N.get();
    auto NA = A.node(), NB = B.node();
    N->BackwardFn = [O, NA, NB, M, K, Nc] {
      if (NA->NeedsGrad) {
        NA->ensureGrad();
        // dA += dC * B : [M,Nc] x [Nc,K].
        gemm(false, false, M, K, Nc, 1.f, O->Grad.data(), NB->Val.data(), 1.f,
             NA->Grad.data());
      }
      if (NB->NeedsGrad) {
        NB->ensureGrad();
        // dB += dC^T * A : [Nc,M] x [M,K].
        gemm(true, false, Nc, K, M, 1.f, O->Grad.data(), NA->Val.data(), 1.f,
             NB->Grad.data());
      }
    };
  }
  return Value(std::move(N));
}

namespace {

/// Unary activation glue: \p Fwd transforms the copied buffer in place;
/// \p Bwd accumulates dX given (dY, reference buffer) — the forward output
/// for sigmoid/tanh, the forward input for relu.
enum class ActRef { Output, Input };

template <typename FwdKernel, typename BwdKernel>
Value activation(Value A, FwdKernel Fwd, BwdKernel Bwd, ActRef Ref) {
  Tensor Out = A.val();
  Fwd(Out.data(), Out.numel());
  auto N = makeOut(std::move(Out), {A});
  if (N->NeedsGrad) {
    Node *O = N.get();
    auto NA = A.node();
    N->BackwardFn = [O, NA, Bwd, Ref] {
      NA->ensureGrad();
      const Tensor &RefT = Ref == ActRef::Output ? O->Val : NA->Val;
      Bwd(NA->Grad.data(), O->Grad.data(), RefT.data(), O->Grad.numel());
    };
  }
  return Value(std::move(N));
}

} // namespace

Value nn::sigmoid(Value A) {
  return activation(A, sigmoidForward, sigmoidBackwardAcc, ActRef::Output);
}

Value nn::tanhOp(Value A) {
  return activation(A, tanhForward, tanhBackwardAcc, ActRef::Output);
}

Value nn::relu(Value A) {
  return activation(A, reluForward, reluBackwardAcc, ActRef::Input);
}

Value nn::concatCols(Value A, Value B) {
  const Tensor &TA = A.val(), &TB = B.val();
  assert(TA.rank() == 2 && TB.rank() == 2 && TA.rows() == TB.rows() &&
         "concatCols shape mismatch");
  int64_t R = TA.rows(), CA = TA.cols(), CB = TB.cols();
  Tensor Out(R, CA + CB);
  parallelFor(0, R, rowGrain(CA + CB), [&](int64_t Lo, int64_t Hi) {
    for (int64_t I = Lo; I != Hi; ++I) {
      std::memcpy(&Out.at(I, 0), TA.data() + I * CA,
                  static_cast<size_t>(CA) * sizeof(float));
      std::memcpy(&Out.at(I, CA), TB.data() + I * CB,
                  static_cast<size_t>(CB) * sizeof(float));
    }
  });
  auto N = makeOut(std::move(Out), {A, B});
  if (N->NeedsGrad) {
    Node *O = N.get();
    auto NA = A.node(), NB = B.node();
    N->BackwardFn = [O, NA, NB, R, CA, CB] {
      if (NA->NeedsGrad) {
        NA->ensureGrad();
        parallelFor(0, R, rowGrain(CA), [&](int64_t Lo, int64_t Hi) {
          for (int64_t I = Lo; I != Hi; ++I)
            for (int64_t J = 0; J != CA; ++J)
              NA->Grad.at(I, J) += O->Grad.at(I, J);
        });
      }
      if (NB->NeedsGrad) {
        NB->ensureGrad();
        parallelFor(0, R, rowGrain(CB), [&](int64_t Lo, int64_t Hi) {
          for (int64_t I = Lo; I != Hi; ++I)
            for (int64_t J = 0; J != CB; ++J)
              NB->Grad.at(I, J) += O->Grad.at(I, CA + J);
        });
      }
    };
  }
  return Value(std::move(N));
}

Value nn::concatRows(const std::vector<Value> &Parts) {
  assert(!Parts.empty() && "concatRows of nothing");
  int64_t D = Parts[0].val().cols();
  int64_t TotalRows = 0;
  for (const Value &P : Parts) {
    assert(P.val().rank() == 2 && P.val().cols() == D &&
           "concatRows column mismatch");
    TotalRows += P.val().rows();
  }
  Tensor Out(TotalRows, D);
  int64_t Row = 0;
  for (const Value &P : Parts) {
    const Tensor &T = P.val();
    // Equal column counts make each part one contiguous block.
    std::memcpy(Out.data() + Row * D, T.data(),
                static_cast<size_t>(T.numel()) * sizeof(float));
    Row += T.rows();
  }
  auto N = makeOut(std::move(Out), Parts.data(), Parts.size());
  if (N->NeedsGrad) {
    Node *O = N.get();
    auto Parents = N->Prev;
    N->BackwardFn = [O, Parents, D] {
      int64_t Row = 0;
      for (const auto &P : Parents) {
        int64_t R = P->Val.rows();
        if (P->NeedsGrad) {
          P->ensureGrad();
          addInPlace(P->Grad.data(), O->Grad.data() + Row * D, R * D);
        }
        Row += R;
      }
    };
  }
  return Value(std::move(N));
}

Value nn::attentionPool(Value Scores, Value Rows) {
  const Tensor &TS = Scores.val(), &TR = Rows.val();
  assert(TS.rank() == 2 && TS.cols() == 1 && TS.rows() == TR.rows() &&
         "attentionPool shape mismatch");
  int64_t K = TR.rows(), D = TR.cols();
  // Softmax over the K scores. (K is the paths-per-symbol count — small —
  // so this op stays serial.)
  Tensor Alpha(K);
  float Max = TS.at(0, 0);
  for (int64_t I = 1; I != K; ++I)
    Max = std::max(Max, TS.at(I, 0));
  float Sum = 0;
  for (int64_t I = 0; I != K; ++I) {
    Alpha[I] = std::exp(TS.at(I, 0) - Max);
    Sum += Alpha[I];
  }
  for (int64_t I = 0; I != K; ++I)
    Alpha[I] /= Sum;
  Tensor Out(static_cast<int64_t>(1), D);
  for (int64_t I = 0; I != K; ++I)
    for (int64_t J = 0; J != D; ++J)
      Out.at(0, J) += Alpha[I] * TR.at(I, J);
  auto N = makeOut(std::move(Out), {Scores, Rows});
  if (N->NeedsGrad) {
    Node *O = N.get();
    auto NS = Scores.node(), NR = Rows.node();
    N->BackwardFn = [O, NS, NR, Alpha = std::move(Alpha), K, D] {
      // dRows[i] = alpha_i * dOut.
      if (NR->NeedsGrad) {
        NR->ensureGrad();
        for (int64_t I = 0; I != K; ++I)
          for (int64_t J = 0; J != D; ++J)
            NR->Grad.at(I, J) += Alpha[I] * O->Grad.at(0, J);
      }
      // dScore_i = alpha_i * (g.r_i - sum_k alpha_k g.r_k).
      if (NS->NeedsGrad) {
        NS->ensureGrad();
        float Mix = 0;
        std::vector<float> GDotR(static_cast<size_t>(K), 0.f);
        for (int64_t I = 0; I != K; ++I) {
          float Dot = 0;
          for (int64_t J = 0; J != D; ++J)
            Dot += O->Grad.at(0, J) * NR->Val.at(I, J);
          GDotR[static_cast<size_t>(I)] = Dot;
          Mix += Alpha[I] * Dot;
        }
        for (int64_t I = 0; I != K; ++I)
          NS->Grad.at(I, 0) += Alpha[I] * (GDotR[static_cast<size_t>(I)] - Mix);
      }
    };
  }
  return Value(std::move(N));
}

Value nn::gatherRows(Value A, std::vector<int> Idx) {
  const Tensor &TA = A.val();
  assert(TA.rank() == 2 && "gatherRows needs a matrix");
  int64_t D = TA.cols();
#ifndef NDEBUG
  for (int I : Idx)
    assert(I >= 0 && I < TA.rows() && "gather index out of range");
#endif
  Tensor Out(static_cast<int64_t>(Idx.size()), D);
  kernels::gatherRows(Out.data(), TA.data(), Idx.data(),
                      static_cast<int64_t>(Idx.size()), D);
  auto N = makeOut(std::move(Out), {A});
  if (N->NeedsGrad) {
    Node *O = N.get();
    auto NA = A.node();
    // Backward scatters with possibly repeated indices: serial, one row
    // add per index in Idx order.
    N->BackwardFn = [O, NA, Idx = std::move(Idx), D] {
      NA->ensureGrad();
      const simd::KernelTable &KT = simd::active();
      for (size_t I = 0; I != Idx.size(); ++I)
        KT.Add(NA->Grad.data() + static_cast<int64_t>(Idx[I]) * D,
               O->Grad.data() + static_cast<int64_t>(I) * D, D);
    };
  }
  return Value(std::move(N));
}

Value nn::scatterMax(Value Msgs, const std::vector<int> &Dst,
                     int64_t NumRows) {
  const Tensor &TM = Msgs.val();
  assert(TM.rank() == 2 && TM.rows() == static_cast<int64_t>(Dst.size()) &&
         "scatterMax shape mismatch");
  int64_t D = TM.cols();
  Tensor Out(NumRows, D);
  std::vector<int> Arg(static_cast<size_t>(NumRows * D), -1);
  maxAggregate(TM.data(), nullptr, Dst, D, NumRows, Out.data(), Arg.data());
  auto N = makeOut(std::move(Out), {Msgs});
  if (N->NeedsGrad) {
    Node *O = N.get();
    auto NM = Msgs.node();
    N->BackwardFn = [O, NM, Arg = std::move(Arg), NumRows, D] {
      NM->ensureGrad();
      for (int64_t R = 0; R != NumRows; ++R)
        for (int64_t J = 0; J != D; ++J) {
          int E = Arg[static_cast<size_t>(R * D + J)];
          if (E >= 0)
            NM->Grad.at(E, J) += O->Grad.at(R, J);
        }
    };
  }
  return Value(std::move(N));
}

Value nn::scatterMean(Value Msgs, std::vector<int> Dst, int64_t NumRows) {
  const Tensor &TM = Msgs.val();
  assert(TM.rank() == 2 && TM.rows() == static_cast<int64_t>(Dst.size()) &&
         "scatterMean shape mismatch");
  int64_t D = TM.cols();
  Tensor Out(NumRows, D);
  std::vector<int> Count(static_cast<size_t>(NumRows), 0);
  for (size_t E = 0; E != Dst.size(); ++E) {
    assert(Dst[E] >= 0 && Dst[E] < NumRows && "scatter dest out of range");
    ++Count[static_cast<size_t>(Dst[E])];
    for (int64_t J = 0; J != D; ++J)
      Out.at(Dst[E], J) += TM.at(static_cast<int64_t>(E), J);
  }
  for (int64_t R = 0; R != NumRows; ++R)
    if (Count[static_cast<size_t>(R)] > 0)
      for (int64_t J = 0; J != D; ++J)
        Out.at(R, J) /= static_cast<float>(Count[static_cast<size_t>(R)]);
  auto N = makeOut(std::move(Out), {Msgs});
  if (N->NeedsGrad) {
    Node *O = N.get();
    auto NM = Msgs.node();
    // Backward writes one distinct source row per message: row-parallel.
    N->BackwardFn = [O, NM, Dst = std::move(Dst), Count = std::move(Count),
                     D] {
      NM->ensureGrad();
      int64_t NumMsgs = static_cast<int64_t>(Dst.size());
      parallelFor(0, NumMsgs, rowGrain(D), [&](int64_t Lo, int64_t Hi) {
        for (int64_t E = Lo; E != Hi; ++E) {
          float Inv =
              1.f / static_cast<float>(Count[static_cast<size_t>(
                        Dst[static_cast<size_t>(E)])]);
          for (int64_t J = 0; J != D; ++J)
            NM->Grad.at(E, J) +=
                Inv * O->Grad.at(Dst[static_cast<size_t>(E)], J);
        }
      });
    };
  }
  return Value(std::move(N));
}

Value nn::indexAddRows(Value Base, std::vector<int> Idx, Value Rows) {
  const Tensor &TB = Base.val(), &TR = Rows.val();
  assert(TB.rank() == 2 && TR.rank() == 2 && TB.cols() == TR.cols() &&
         TR.rows() == static_cast<int64_t>(Idx.size()) &&
         "indexAddRows shape mismatch");
  int64_t D = TB.cols();
  Tensor Out = TB;
  // Possibly repeated destination indices: serial, in input order.
  for (size_t M = 0; M != Idx.size(); ++M) {
    assert(Idx[M] >= 0 && Idx[M] < TB.rows() && "index out of range");
    for (int64_t J = 0; J != D; ++J)
      Out.at(Idx[M], J) += TR.at(static_cast<int64_t>(M), J);
  }
  auto N = makeOut(std::move(Out), {Base, Rows});
  if (N->NeedsGrad) {
    Node *O = N.get();
    auto NB = Base.node(), NR = Rows.node();
    N->BackwardFn = [O, NB, NR, Idx = std::move(Idx), D] {
      if (NB->NeedsGrad) {
        NB->ensureGrad();
        addInPlace(NB->Grad.data(), O->Grad.data(), O->Grad.numel());
      }
      if (NR->NeedsGrad) {
        NR->ensureGrad();
        // One distinct output row per m: row-parallel gather.
        int64_t NumRows = static_cast<int64_t>(Idx.size());
        parallelFor(0, NumRows, rowGrain(D), [&](int64_t Lo, int64_t Hi) {
          for (int64_t M = Lo; M != Hi; ++M)
            for (int64_t J = 0; J != D; ++J)
              NR->Grad.at(M, J) +=
                  O->Grad.at(Idx[static_cast<size_t>(M)], J);
        });
      }
    };
  }
  return Value(std::move(N));
}

Value nn::reduceMaxRows(Value A) {
  const Tensor &TA = A.val();
  assert(TA.rank() == 2 && TA.rows() > 0 && "reduceMaxRows needs rows");
  int64_t R = TA.rows(), D = TA.cols();
  Tensor Out(static_cast<int64_t>(1), D);
  std::vector<int> Arg(static_cast<size_t>(D), 0);
  for (int64_t J = 0; J != D; ++J) {
    float Best = TA.at(0, J);
    for (int64_t I = 1; I != R; ++I)
      if (TA.at(I, J) > Best) {
        Best = TA.at(I, J);
        Arg[static_cast<size_t>(J)] = static_cast<int>(I);
      }
    Out.at(0, J) = Best;
  }
  auto N = makeOut(std::move(Out), {A});
  if (N->NeedsGrad) {
    Node *O = N.get();
    auto NA = A.node();
    N->BackwardFn = [O, NA, Arg = std::move(Arg), D] {
      NA->ensureGrad();
      for (int64_t J = 0; J != D; ++J)
        NA->Grad.at(Arg[static_cast<size_t>(J)], J) += O->Grad.at(0, J);
    };
  }
  return Value(std::move(N));
}

Value nn::meanAll(Value A) {
  const Tensor &TA = A.val();
  assert(TA.numel() > 0 && "meanAll of empty tensor");
  // Serial ascending sum: the reduction order is part of the determinism
  // contract (a tree reduction would change the loss bits).
  float Sum = 0;
  for (int64_t I = 0; I != TA.numel(); ++I)
    Sum += TA[I];
  float Inv = 1.f / static_cast<float>(TA.numel());
  auto N = makeOut(Tensor::scalar(Sum * Inv), {A});
  if (N->NeedsGrad) {
    Node *O = N.get();
    auto NA = A.node();
    N->BackwardFn = [O, NA, Inv] {
      NA->ensureGrad();
      float G = O->Grad[0] * Inv;
      parallelFor(0, NA->Grad.numel(), ElementwiseGrain,
                  [&](int64_t Lo, int64_t Hi) {
                    for (int64_t I = Lo; I != Hi; ++I)
                      NA->Grad[I] += G;
                  });
    };
  }
  return Value(std::move(N));
}

Tensor nn::softmaxRows(const Tensor &Logits) {
  assert(Logits.rank() == 2);
  Tensor Out = Logits;
  softmaxRowsInPlace(Out.data(), Out.rows(), Out.cols());
  return Out;
}

Value nn::softmaxCrossEntropy(Value Logits, std::vector<int> Labels) {
  const Tensor &TL = Logits.val();
  assert(TL.rank() == 2 &&
         TL.rows() == static_cast<int64_t>(Labels.size()) &&
         "softmaxCrossEntropy shape mismatch");
  Tensor Probs = softmaxRows(TL);
  int Valid = 0;
  float Loss = 0;
  for (size_t I = 0; I != Labels.size(); ++I) {
    if (Labels[I] < 0)
      continue;
    assert(Labels[I] < TL.cols() && "label out of range");
    ++Valid;
    Loss -= std::log(std::max(
        Probs.at(static_cast<int64_t>(I), Labels[I]), 1e-12f));
  }
  float Inv = Valid > 0 ? 1.f / static_cast<float>(Valid) : 0.f;
  auto N = makeOut(Tensor::scalar(Loss * Inv), {Logits});
  if (N->NeedsGrad) {
    Node *O = N.get();
    auto NL = Logits.node();
    N->BackwardFn = [O, NL, Probs = std::move(Probs),
                     Labels = std::move(Labels), Inv] {
      NL->ensureGrad();
      float G = O->Grad[0] * Inv;
      int64_t Rows = static_cast<int64_t>(Labels.size());
      int64_t Cols = Probs.cols();
      parallelFor(0, Rows, rowGrain(Cols), [&](int64_t Lo, int64_t Hi) {
        for (int64_t R = Lo; R != Hi; ++R) {
          int Label = Labels[static_cast<size_t>(R)];
          if (Label < 0)
            continue;
          for (int64_t C = 0; C != Cols; ++C) {
            float Delta = C == Label ? 1.f : 0.f;
            NL->Grad.at(R, C) += G * (Probs.at(R, C) - Delta);
          }
        }
      });
    };
  }
  return Value(std::move(N));
}

Value nn::pairwiseL1(Value A) {
  const Tensor &TA = A.val();
  assert(TA.rank() == 2 && "pairwiseL1 needs a matrix");
  int64_t R = TA.rows(), D = TA.cols();
  Tensor Out(R, R);
  kernels::pairwiseL1(Out.data(), TA.data(), R, D);
  auto N = makeOut(std::move(Out), {A});
  if (N->NeedsGrad) {
    Node *O = N.get();
    auto NA = A.node();
    // Each ordered pair (I, J) adds G(I,J)·sign(V_I − V_J) to row I and
    // subtracts it from row J. Row X gathers its own updates in the order
    // the serial pair loop (I, J ascending) applied them: the pairs (I, X)
    // with I < X, then (X, J) for every J, then (I, X) with I > X. Rows
    // are then independent, so they run in parallel and the loop over K
    // vectorizes.
    N->BackwardFn = [O, NA, R, D] {
      NA->ensureGrad();
      const float *V = NA->Val.data(), *G = O->Grad.data();
      float *DV = NA->Grad.data();
      // The seed's sign(Diff) values (+0 for ties and NaN) as an integer
      // difference: branch-free, and G * Sign stays a real multiply.
      auto Sign = [](float Diff) {
        return static_cast<float>((Diff > 0.f) - (Diff < 0.f));
      };
      int64_t Grain = std::max<int64_t>(
          1, GemmParallelFlops / std::max<int64_t>(1, 2 * R * D));
      parallelFor(0, R, Grain, [&](int64_t Lo, int64_t Hi) {
        for (int64_t X = Lo; X != Hi; ++X) {
          float *DX = DV + X * D;
          const float *VX = V + X * D;
          auto AsSecond = [&](int64_t I) { // the pair (I, X)
            float GI = G[I * R + X];
            if (GI == 0.f)
              return;
            const float *VI = V + I * D;
            for (int64_t K = 0; K != D; ++K)
              DX[K] -= GI * Sign(VI[K] - VX[K]);
          };
          for (int64_t I = 0; I != X; ++I)
            AsSecond(I);
          for (int64_t J = 0; J != R; ++J) { // the pairs (X, J)
            float GJ = G[X * R + J];
            if (J == X || GJ == 0.f)
              continue;
            const float *VJ = V + J * D;
            for (int64_t K = 0; K != D; ++K)
              DX[K] += GJ * Sign(VX[K] - VJ[K]);
          }
          for (int64_t I = X + 1; I != R; ++I)
            AsSecond(I);
        }
      });
    };
  }
  return Value(std::move(N));
}

Value nn::spaceLoss(Value Dists, const std::vector<int> &TypeIds,
                    float Margin) {
  const Tensor &TD = Dists.val();
  int64_t N = TD.rows();
  assert(TD.rank() == 2 && TD.cols() == N &&
         N == static_cast<int64_t>(TypeIds.size()) &&
         "spaceLoss shape mismatch");

  // Forward: per-sample P+ / P- selection (Eq. 3, Fig. 2); gradients flow
  // only through the selected distance entries. Each sample's selection
  // and partial loss are independent — computed in parallel into per-row
  // slots, then combined in ascending row order so the final loss sum is
  // bit-identical to the serial scan.
  struct Selection {
    int64_t Row;
    std::vector<int64_t> Pos, Neg;
  };
  std::vector<Selection> PerRow(static_cast<size_t>(N));
  std::vector<float> PerRowLoss(static_cast<size_t>(N), 0.f);
  std::vector<char> HasSel(static_cast<size_t>(N), 0);
  parallelFor(0, N, 8, [&](int64_t Lo, int64_t Hi) {
    for (int64_t I = Lo; I != Hi; ++I) {
      if (TypeIds[static_cast<size_t>(I)] < 0)
        continue;
      float DMaxPlus = -1, DMinMinus = -1;
      bool HasPlus = false, HasMinus = false;
      for (int64_t J = 0; J != N; ++J) {
        if (J == I || TypeIds[static_cast<size_t>(J)] < 0)
          continue;
        if (TypeIds[static_cast<size_t>(J)] ==
            TypeIds[static_cast<size_t>(I)]) {
          if (!HasPlus || TD.at(I, J) > DMaxPlus)
            DMaxPlus = TD.at(I, J);
          HasPlus = true;
        } else {
          if (!HasMinus || TD.at(I, J) < DMinMinus)
            DMinMinus = TD.at(I, J);
          HasMinus = true;
        }
      }
      if (!HasPlus || !HasMinus)
        continue;
      Selection S;
      S.Row = I;
      for (int64_t J = 0; J != N; ++J) {
        if (J == I || TypeIds[static_cast<size_t>(J)] < 0)
          continue;
        if (TypeIds[static_cast<size_t>(J)] ==
            TypeIds[static_cast<size_t>(I)]) {
          if (TD.at(I, J) > DMinMinus - Margin)
            S.Pos.push_back(J);
        } else if (TD.at(I, J) < DMaxPlus + Margin) {
          S.Neg.push_back(J);
        }
      }
      float LI = 0;
      if (!S.Pos.empty()) {
        float Sum = 0;
        for (int64_t J : S.Pos)
          Sum += TD.at(I, J);
        LI += Sum / static_cast<float>(S.Pos.size());
      }
      if (!S.Neg.empty()) {
        float Sum = 0;
        for (int64_t J : S.Neg)
          Sum += TD.at(I, J);
        LI -= Sum / static_cast<float>(S.Neg.size());
      }
      PerRowLoss[static_cast<size_t>(I)] = LI;
      PerRow[static_cast<size_t>(I)] = std::move(S);
      HasSel[static_cast<size_t>(I)] = 1;
    }
  });
  std::vector<Selection> Sel;
  float Loss = 0;
  for (int64_t I = 0; I != N; ++I)
    if (HasSel[static_cast<size_t>(I)]) {
      Loss += PerRowLoss[static_cast<size_t>(I)];
      Sel.push_back(std::move(PerRow[static_cast<size_t>(I)]));
    }
  float Inv = Sel.empty() ? 0.f : 1.f / static_cast<float>(Sel.size());
  auto Out = makeOut(Tensor::scalar(Loss * Inv), {Dists});
  if (Out->NeedsGrad) {
    Node *O = Out.get();
    auto ND = Dists.node();
    // Each selection touches only its own row of the distance-matrix
    // gradient: row-parallel.
    Out->BackwardFn = [O, ND, Sel = std::move(Sel), Inv] {
      ND->ensureGrad();
      float G = O->Grad[0] * Inv;
      int64_t NumSel = static_cast<int64_t>(Sel.size());
      parallelFor(0, NumSel, 8, [&](int64_t Lo, int64_t Hi) {
        for (int64_t K = Lo; K != Hi; ++K) {
          const Selection &S = Sel[static_cast<size_t>(K)];
          if (!S.Pos.empty()) {
            float W = G / static_cast<float>(S.Pos.size());
            for (int64_t J : S.Pos)
              ND->Grad.at(S.Row, J) += W;
          }
          if (!S.Neg.empty()) {
            float W = G / static_cast<float>(S.Neg.size());
            for (int64_t J : S.Neg)
              ND->Grad.at(S.Row, J) -= W;
          }
        }
      });
    };
  }
  return Value(std::move(Out));
}

//===----------------------------------------------------------------------===//
// Fused GGNN timestep
//
// Both ops replay the kernel calls of their composed form (the ops above,
// in the order nn::backward runs their closures) block by block, so every
// element sees the same operation sequence, and every gradient the
// composed form accumulates from +0 starts at +0 here too. Where the
// composed form only passes a gradient on (an add's +0 + g), g is itself
// a +0-started sum, so never -0, and +0 + g == g bit for bit: the fused
// backward reads g instead of copying it. Row-local work runs on
// the pool by blocks of rows; the reductions over rows (weight and bias
// gradients) walk rows in ascending order, and writes that conflict
// across rows (the max-aggregation, the gather backward) stay serial in
// message order.
//===----------------------------------------------------------------------===//

namespace {

/// Rows per block of the fused ops: one block's gate buffers stay in L1.
constexpr int64_t FusedBlockRows = 64;

/// Runs Body(FirstRow, NumRows, Scratch) over [0, Rows) in blocks of
/// FusedBlockRows on the pool; Scratch holds \p ScratchFloats floats per
/// chunk of blocks.
template <typename Fn>
void forRowBlocks(int64_t Rows, int64_t ScratchFloats, const Fn &Body) {
  const int64_t Blocks = (Rows + FusedBlockRows - 1) / FusedBlockRows;
  parallelFor(0, Blocks, 1, [&](int64_t Lo, int64_t Hi) {
    std::vector<float> Scratch(static_cast<size_t>(ScratchFloats));
    for (int64_t B = Lo; B != Hi; ++B) {
      int64_t First = B * FusedBlockRows;
      Body(First, std::min(FusedBlockRows, Rows - First), Scratch.data());
    }
  });
}

/// One block of gathered rows: part Part's indices [First, First + Rows).
struct MessageBlock {
  size_t Part;
  int64_t First, Rows;
};

/// Blocks over per-part index lists: the messages (MessageEdges::Srcs) or
/// the distinct sources (MessageEdges::Sources).
std::vector<MessageBlock>
messageBlocks(const std::vector<std::vector<int>> &Parts) {
  std::vector<MessageBlock> Blocks;
  for (size_t K = 0; K != Parts.size(); ++K) {
    int64_t M = static_cast<int64_t>(Parts[K].size());
    for (int64_t First = 0; First < M; First += FusedBlockRows)
      Blocks.push_back({K, First, std::min(FusedBlockRows, M - First)});
  }
  return Blocks;
}

/// Copies rows Idx[0, Rows) of the [*, D] matrix A into Out.
void gatherBlock(float *Out, const float *A, const int *Idx, int64_t Rows,
                 int64_t D) {
  for (int64_t I = 0; I != Rows; ++I)
    std::memcpy(Out + I * D, A + static_cast<int64_t>(Idx[I]) * D,
                static_cast<size_t>(D) * sizeof(float));
}

} // namespace

MessageEdges::MessageEdges(std::vector<std::vector<int>> SrcsIn,
                           std::vector<int> DstIn)
    : Srcs(std::move(SrcsIn)), Dst(std::move(DstIn)), Sources(Srcs.size()) {
  int MaxSrc = -1;
  for (const std::vector<int> &Part : Srcs)
    for (int S : Part)
      MaxSrc = std::max(MaxSrc, S);
  // Slot[s]: source s's index in the current part's Sources, -1 if new.
  // Whether a source is new is unpredictable, so it is not a branch.
  std::vector<int> Slot(static_cast<size_t>(MaxSrc + 1), -1);
  Product.resize(Dst.size());
  size_t Msg = 0;
  int Base = 0;
  for (size_t K = 0; K != Srcs.size(); ++K) {
    std::vector<int> &Distinct = Sources[K];
    Distinct.resize(Srcs[K].size());
    int Count = 0;
    for (int S : Srcs[K]) {
      int &Sl = Slot[static_cast<size_t>(S)];
      const bool New = Sl < 0;
      Distinct[static_cast<size_t>(Count)] = S;
      Sl = New ? Count : Sl;
      Count += New;
      Product[Msg++] = Base + Sl;
    }
    Distinct.resize(static_cast<size_t>(Count));
    for (int S : Distinct)
      Slot[static_cast<size_t>(S)] = -1;
    Base += Count;
  }
}

std::vector<std::vector<int>>
nn::backwardSlice(const std::vector<std::vector<int>> &Srcs,
                  const std::vector<int> &Dst, const std::vector<int> &Targets,
                  int Steps, int64_t NumRows) {
  // The loops below keep or drop by arithmetic, not by branch: about half
  // of the rows and messages go each way, unpredictably.
  std::vector<char> In(static_cast<size_t>(NumRows), 0);
  for (int T : Targets)
    In[static_cast<size_t>(T)] = 1;
  auto Rows = [&] {
    std::vector<int> R(static_cast<size_t>(NumRows));
    size_t Kept = 0;
    for (int64_t I = 0; I != NumRows; ++I) {
      R[Kept] = static_cast<int>(I);
      Kept += static_cast<size_t>(In[static_cast<size_t>(I)]);
    }
    R.resize(Kept);
    return R;
  };
  std::vector<std::vector<int>> Slice(static_cast<size_t>(Steps) + 1);
  Slice[static_cast<size_t>(Steps)] = Rows();
  for (int Step = Steps; Step != 0; --Step) {
    std::vector<char> Prev = In;
    size_t Msg = 0;
    for (const std::vector<int> &Part : Srcs)
      for (int S : Part)
        Prev[static_cast<size_t>(S)] |= In[static_cast<size_t>(Dst[Msg++])];
    In = std::move(Prev);
    Slice[static_cast<size_t>(Step) - 1] = Rows();
  }
  return Slice;
}

MessageEdges nn::sliceEdges(const std::vector<std::vector<int>> &Srcs,
                            const std::vector<int> &Dst,
                            const std::vector<int> &From,
                            const std::vector<int> &To, int64_t NumRows) {
  std::vector<int> FromPos(static_cast<size_t>(NumRows), -1);
  std::vector<int> ToPos(static_cast<size_t>(NumRows), -1);
  for (size_t I = 0; I != From.size(); ++I)
    FromPos[static_cast<size_t>(From[I])] = static_cast<int>(I);
  for (size_t I = 0; I != To.size(); ++I)
    ToPos[static_cast<size_t>(To[I])] = static_cast<int>(I);
  // Every message is written; only those into To advance the cursors.
  std::vector<std::vector<int>> StepSrcs(Srcs.size());
  std::vector<int> StepDst(Dst.size());
  size_t Msg = 0, Kept = 0;
  for (size_t K = 0; K != Srcs.size(); ++K) {
    std::vector<int> &Part = StepSrcs[K];
    Part.resize(Srcs[K].size());
    size_t PartKept = 0;
    for (int S : Srcs[K]) {
      int T = ToPos[static_cast<size_t>(Dst[Msg++])];
      assert((T < 0 || FromPos[static_cast<size_t>(S)] >= 0) &&
             "a source of a sliced message lies outside From");
      Part[PartKept] = FromPos[static_cast<size_t>(S)];
      StepDst[Kept] = T;
      PartKept += static_cast<size_t>(T >= 0);
      Kept += static_cast<size_t>(T >= 0);
    }
    Part.resize(PartKept);
  }
  StepDst.resize(Kept);
  return MessageEdges(std::move(StepSrcs), std::move(StepDst));
}

Value nn::messagePass(Value H, std::shared_ptr<const MessageEdges> Edges,
                      const std::vector<Value> &Transforms, int64_t NumRows) {
  const Tensor &TH = H.val();
  assert(TH.rank() == 2 && Edges->Srcs.size() == Transforms.size() &&
         "messagePass needs one transform per part");
  const int64_t D = TH.cols();
  const size_t Parts = Transforms.size();
  // Part K's messages are rows [Begin[K], Begin[K + 1]) of the message
  // matrix, as in the composed form's concatRows.
  std::vector<int64_t> Begin(Parts + 1, 0);
  for (size_t K = 0; K != Parts; ++K) {
    assert(Transforms[K].val().rows() == D && Transforms[K].val().cols() == D &&
           "edge transforms are [D, D]");
#ifndef NDEBUG
    for (int I : Edges->Srcs[K])
      assert(I >= 0 && I < TH.rows() && "gather index out of range");
    for (size_t J = 0; J != K; ++J)
      assert(Transforms[J].node() != Transforms[K].node() &&
             "messagePass transforms must be distinct nodes");
#endif
    Begin[K + 1] = Begin[K] + static_cast<int64_t>(Edges->Srcs[K].size());
  }
  assert(Begin[Parts] == static_cast<int64_t>(Edges->Dst.size()) &&
         Edges->Product.size() == Edges->Dst.size() &&
         "one destination per message");
  const simd::KernelTable &KT = simd::active();

  // The product rows: each part's distinct sources, gathered and
  // transformed block by block on the pool.
  std::vector<int64_t> ProductBegin(Parts + 1, 0);
  for (size_t K = 0; K != Parts; ++K)
    ProductBegin[K + 1] =
        ProductBegin[K] + static_cast<int64_t>(Edges->Sources[K].size());
  const std::vector<MessageBlock> Blocks = messageBlocks(Edges->Sources);
  std::vector<float> Products(static_cast<size_t>(ProductBegin[Parts] * D),
                              0.f);
  parallelFor(0, static_cast<int64_t>(Blocks.size()), 1,
              [&](int64_t Lo, int64_t Hi) {
                std::vector<float> G(static_cast<size_t>(FusedBlockRows * D));
                for (int64_t B = Lo; B != Hi; ++B) {
                  const MessageBlock &Bk = Blocks[static_cast<size_t>(B)];
                  gatherBlock(G.data(), TH.data(),
                              Edges->Sources[Bk.Part].data() + Bk.First,
                              Bk.Rows, D);
                  KT.GemmRow(Products.data() +
                                 (ProductBegin[Bk.Part] + Bk.First) * D,
                             Bk.Rows, D, D, 1.f, G.data(), D, 1,
                             Transforms[Bk.Part].val().data(), D);
                }
              });
  Tensor Out(NumRows, D);
  std::vector<int> Arg(static_cast<size_t>(NumRows * D), -1);
  maxAggregate(Products.data(), Edges->Product.data(), Edges->Dst, D, NumRows,
               Out.data(), Arg.data());

  std::vector<Value> Parents{H};
  Parents.insert(Parents.end(), Transforms.begin(), Transforms.end());
  auto N = makeOut(std::move(Out), Parents.data(), Parents.size());
  if (N->NeedsGrad) {
    Node *O = N.get();
    N->BackwardFn = [O, NH = H.node(), Edges = std::move(Edges),
                     Transforms = std::vector<Value>(Transforms),
                     Arg = std::move(Arg), Begin = std::move(Begin), NumRows,
                     D] {
      const simd::KernelTable &KT = simd::active();
      const size_t Parts = Transforms.size();
      const int64_t Total = Begin[Parts];
      // The max-aggregation backward: each message's gradient is the
      // output gradient where it won, else +0 (each cell written once).
      std::vector<float> DMsg(static_cast<size_t>(Total * D), 0.f);
      parallelFor(0, NumRows, rowGrain(D), [&](int64_t Lo, int64_t Hi) {
        for (int64_t R = Lo; R != Hi; ++R)
          for (int64_t J = 0; J != D; ++J) {
            int E = Arg[static_cast<size_t>(R * D + J)];
            if (E >= 0)
              DMsg[static_cast<size_t>(E * D + J)] += O->Grad.at(R, J);
          }
      });
      // Per block: the gathered sources again (for the transforms'
      // gradients) and dG = dMsg x E^T, the gathers' gradients.
      const std::vector<MessageBlock> Blocks = messageBlocks(Edges->Srcs);
      std::vector<float> G(static_cast<size_t>(Total * D));
      std::vector<float> DG(NH->NeedsGrad ? static_cast<size_t>(Total * D) : 0,
                            0.f);
      parallelFor(0, static_cast<int64_t>(Blocks.size()), 1,
                  [&](int64_t Lo, int64_t Hi) {
                    for (int64_t B = Lo; B != Hi; ++B) {
                      const MessageBlock &Bk = Blocks[static_cast<size_t>(B)];
                      int64_t Row = Begin[Bk.Part] + Bk.First;
                      gatherBlock(G.data() + Row * D, NH->Val.data(),
                                  Edges->Srcs[Bk.Part].data() + Bk.First,
                                  Bk.Rows, D);
                      if (!DG.empty())
                        KT.GemmDotRow(DG.data() + Row * D, Bk.Rows, D, D, 1.f,
                                      DMsg.data() + Row * D, D,
                                      Transforms[Bk.Part].val().data(), D);
                    }
                  });
      // dE_K += G_K^T x dMsg_K, rows ascending; parts are independent.
      parallelFor(0, static_cast<int64_t>(Parts), 1,
                  [&](int64_t Lo, int64_t Hi) {
                    for (int64_t K = Lo; K != Hi; ++K) {
                      const Value &E = Transforms[static_cast<size_t>(K)];
                      int64_t Row = Begin[static_cast<size_t>(K)];
                      int64_t M = Begin[static_cast<size_t>(K) + 1] - Row;
                      if (M == 0 || !E.needsGrad())
                        continue;
                      gemm(true, false, D, D, M, 1.f, G.data() + Row * D,
                           DMsg.data() + Row * D, 1.f, E.grad().data());
                    }
                  });
      if (DG.empty())
        return;
      // The gathers' backward, last part first (the composed form's
      // reverse post-order), each in source order: serial, since sources
      // repeat.
      NH->ensureGrad();
      for (size_t K = Parts; K-- != 0;) {
        const std::vector<int> &Idx = Edges->Srcs[K];
        for (size_t I = 0; I != Idx.size(); ++I)
          KT.Add(NH->Grad.data() + static_cast<int64_t>(Idx[I]) * D,
                 DG.data() + (Begin[K] + static_cast<int64_t>(I)) * D, D);
      }
    };
  }
  return Value(std::move(N));
}

Value nn::gruCell(Value XWz, Value X, Value H, const GruWeights &W) {
  const Tensor &TX = X.val(), &TH = H.val();
  const int64_t Rows = TH.rows(), In = TX.cols(), Hid = TH.cols();
  assert(TX.rows() == Rows && XWz.val().rows() == Rows &&
         XWz.val().cols() == Hid && W.Wr.val().rows() == In &&
         W.Ur.val().rows() == Hid && "gruCell shape mismatch");
  const simd::KernelTable &KT = simd::active();
  // What the backward reads besides X and H: the gates r, z, n and H Un.
  Tensor R(Rows, Hid), Z(Rows, Hid), Cand(Rows, Hid), HUn(Rows, Hid);
  Tensor Out(Rows, Hid);
  forRowBlocks(Rows, FusedBlockRows * Hid, [&](int64_t First, int64_t NR,
                                                float *Tmp) {
    const int64_t Off = First * Hid, L = NR * Hid;
    const float *XB = TX.data() + First * In, *HB = TH.data() + Off;
    float *RB = R.data() + Off, *ZB = Z.data() + Off;
    float *NB = Cand.data() + Off, *UB = HUn.data() + Off;
    float *OB = Out.data() + Off;
    // A x W for this block, onto +0 (matmul's fresh output).
    auto Mat = [&](float *C, const float *A, int64_t K, const Value &Wt) {
      KT.GemmRow(C, NR, Hid, K, 1.f, A, K, 1, Wt.val().data(), Hid);
    };
    auto Zeroed = [&] {
      std::fill(Tmp, Tmp + L, 0.f);
      return Tmp;
    };
    // r = sigmoid(X Wr + H Ur + Br).
    Mat(RB, XB, In, W.Wr);
    Mat(Zeroed(), HB, Hid, W.Ur);
    KT.Add(RB, Tmp, L);
    addBias(RB, W.Br.val().data(), NR, Hid);
    KT.Sigmoid(RB, L);
    // z = sigmoid(XWz + H Uz + Bz).
    std::memcpy(ZB, XWz.val().data() + Off,
                static_cast<size_t>(L) * sizeof(float));
    Mat(Zeroed(), HB, Hid, W.Uz);
    KT.Add(ZB, Tmp, L);
    addBias(ZB, W.Bz.val().data(), NR, Hid);
    KT.Sigmoid(ZB, L);
    // n = tanh(X Wn + r * (H Un) + Bn).
    Mat(UB, HB, Hid, W.Un);
    Mat(NB, XB, In, W.Wn);
    std::memcpy(Tmp, RB, static_cast<size_t>(L) * sizeof(float));
    KT.Mul(Tmp, UB, L);
    KT.Add(NB, Tmp, L);
    addBias(NB, W.Bn.val().data(), NR, Hid);
    KT.Tanh(NB, L);
    // H' = z * H + (1 - z) * n.
    std::memcpy(OB, ZB, static_cast<size_t>(L) * sizeof(float));
    KT.Mul(OB, HB, L);
    std::fill(Tmp, Tmp + L, 1.f);
    KT.Sub(Tmp, ZB, L);
    KT.Mul(Tmp, NB, L);
    KT.Add(OB, Tmp, L);
  });

  auto N = makeOut(std::move(Out), {XWz, X, H, W.Wr, W.Ur, W.Br, W.Uz, W.Bz,
                                    W.Wn, W.Un, W.Bn});
  if (N->NeedsGrad) {
    Node *O = N.get();
    N->BackwardFn = [O, NXWz = XWz.node(), NX = X.node(), NH = H.node(), W,
                     R = std::move(R), Z = std::move(Z),
                     Cand = std::move(Cand), HUn = std::move(HUn), Rows, In,
                     Hid] {
      const simd::KernelTable &KT = simd::active();
      const bool GXWz = NXWz->NeedsGrad, GX = NX->NeedsGrad,
                 GH = NH->NeedsGrad;
      if (GXWz)
        NXWz->ensureGrad();
      if (GX)
        NX->ensureGrad();
      if (GH)
        NH->ensureGrad();
      // The gradients the row reductions read, whole-matrix (named after
      // the composed form's nodes): a2 = X Wr + H Ur + Br and a1 without
      // Br, c2 = X Wn + r * (H Un) + Bn and c1 without Bn, b2/b1 the same
      // for z, and H Un.
      const int64_t Len = Rows * Hid;
      std::vector<float> Buf(static_cast<size_t>(7 * Len), 0.f);
      float *DA2 = Buf.data(), *DA1 = DA2 + Len, *DC2 = DA1 + Len,
            *DC1 = DC2 + Len, *DB2 = DC1 + Len, *DB1 = DB2 + Len,
            *DHUn = DB1 + Len;
      forRowBlocks(Rows, 7 * FusedBlockRows * Hid, [&](int64_t First,
                                                       int64_t NR,
                                                       float *Tmp) {
        const int64_t Off = First * Hid, L = NR * Hid;
        std::fill(Tmp, Tmp + 7 * L, 0.f);
        float *DP = Tmp, *DQ = DP + L, *OmZ = DQ + L, *DOmZ = OmZ + L,
              *DN = DOmZ + L, *DR = DN + L, *DZ = DR + L;
        const float *G = O->Grad.data() + Off, *RB = R.data() + Off,
                    *ZB = Z.data() + Off, *NB = Cand.data() + Off,
                    *UB = HUn.data() + Off, *HB = NH->Val.data() + Off;
        float *DH = GH ? NH->Grad.data() + Off : nullptr;
        float *DX = GX ? NX->Grad.data() + First * In : nullptr;
        float *DA2B = DA2 + Off, *DA1B = DA1 + Off, *DC2B = DC2 + Off,
              *DC1B = DC1 + Off, *DB2B = DB2 + Off, *DB1B = DB1 + Off,
              *DHUnB = DHUn + Off;
        // dA += dC x Wt^T for this block (matmul's dA).
        auto MatBwd = [&](float *DA, int64_t K, const float *DC,
                          const Value &Wt) {
          KT.GemmDotRow(DA, NR, K, Hid, 1.f, DC, Hid, Wt.val().data(), Hid);
        };
        // H' = p + q, q = (1 - z) * n.
        KT.Add(DP, G, L);
        KT.Add(DQ, G, L);
        std::fill(OmZ, OmZ + L, 1.f);
        KT.Sub(OmZ, ZB, L);
        KT.MulAcc(DOmZ, DQ, NB, L);
        KT.MulAcc(DN, DQ, OmZ, L);
        // n = tanh(c2), c2 = c1 + Bn, c1 = X Wn + m (both take dc1).
        KT.TanhBwd(DC2B, DN, NB, L);
        KT.Add(DC1B, DC2B, L);
        // m = r * (H Un).
        KT.MulAcc(DR, DC1B, UB, L);
        KT.MulAcc(DHUnB, DC1B, RB, L);
        if (GH)
          MatBwd(DH, Hid, DHUnB, W.Un);
        // r = sigmoid(a2), a2 = a1 + Br, a1 = X Wr + H Ur (both take da1).
        KT.SigmoidBwd(DA2B, DR, RB, L);
        KT.Add(DA1B, DA2B, L);
        if (GH)
          MatBwd(DH, Hid, DA1B, W.Ur);
        if (GX) {
          MatBwd(DX, In, DA1B, W.Wr);
          MatBwd(DX, In, DC1B, W.Wn);
        }
        // 1 - z, then p = z * H.
        KT.Sub(DZ, DOmZ, L);
        KT.MulAcc(DZ, DP, HB, L);
        if (GH)
          KT.MulAcc(DH, DP, ZB, L);
        // z = sigmoid(b2), b2 = b1 + Bz, b1 = XWz + H Uz (both take db1).
        KT.SigmoidBwd(DB2B, DZ, ZB, L);
        KT.Add(DB1B, DB2B, L);
        if (GXWz)
          KT.Add(NXWz->Grad.data() + Off, DB1B, L);
        if (GH)
          MatBwd(DH, Hid, DB1B, W.Uz);
      });
      // The weight and bias gradients: reductions over rows, ascending.
      auto BiasBwd = [&](const Value &B, const float *DC) {
        if (B.needsGrad())
          addRowSums(B.grad().data(), DC, Rows, Hid);
      };
      auto WeightBwd = [&](const Value &Wt, const Tensor &A, const float *DC) {
        if (Wt.needsGrad())
          gemm(true, false, A.cols(), Hid, Rows, 1.f, A.data(), DC, 1.f,
               Wt.grad().data());
      };
      BiasBwd(W.Bn, DC2);
      WeightBwd(W.Un, NH->Val, DHUn);
      BiasBwd(W.Br, DA2);
      WeightBwd(W.Ur, NH->Val, DA1);
      WeightBwd(W.Wr, NX->Val, DA1);
      WeightBwd(W.Wn, NX->Val, DC1);
      BiasBwd(W.Bz, DB2);
      WeightBwd(W.Uz, NH->Val, DB1);
    };
  }
  return Value(std::move(N));
}

void nn::backward(Value Root) {
  assert(Root.defined() && Root.val().numel() == 1 &&
         "backward from a non-scalar");
  // Iterative post-order topological sort.
  std::vector<Node *> Topo;
  std::unordered_set<Node *> Visited;
  std::vector<std::pair<Node *, size_t>> Stack;
  Stack.emplace_back(Root.node().get(), 0);
  Visited.insert(Root.node().get());
  while (!Stack.empty()) {
    auto &[N, NextChild] = Stack.back();
    if (NextChild < N->Prev.size()) {
      Node *C = N->Prev[NextChild++].get();
      if (C->NeedsGrad && Visited.insert(C).second)
        Stack.emplace_back(C, 0);
      continue;
    }
    Topo.push_back(N);
    Stack.pop_back();
  }
  Root.node()->ensureGrad();
  Root.node()->Grad[0] = 1.f;
  for (auto It = Topo.rbegin(); It != Topo.rend(); ++It) {
    Node *N = *It;
    if (N->BackwardFn) {
      N->ensureGrad();
      N->BackwardFn();
    }
  }
}
