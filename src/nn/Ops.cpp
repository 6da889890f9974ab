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
      for (int64_t R = Lo; R != Hi; ++R)
        for (int64_t C = 0; C != Cols; ++C)
          Out.at(R, C) += TB[C];
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
        if (!Broadcast) {
          addInPlace(NB->Grad.data(), O->Grad.data(), O->Grad.numel());
        } else {
          // Column sums, one whole row at a time: each column's
          // contributions still arrive row-ascending.
          const simd::KernelTable &KT = simd::active();
          int64_t Rows = O->Grad.rows(), Cols = O->Grad.cols();
          for (int64_t R = 0; R != Rows; ++R)
            KT.Add(NB->Grad.data(), O->Grad.data() + R * Cols, Cols);
        }
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
  Tensor Out(M, Nc);
  gemm(false, false, M, Nc, K, 1.f, TA.data(), TB.data(), 0.f, Out.data());
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
  Tensor Out(M, Nc);
  gemm(false, true, M, Nc, K, 1.f, TA.data(), TB.data(), 0.f, Out.data());
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
  // Argmax message per (row, dim); -1 = no message (output stays 0).
  // Destination-conflicting writes: serial, in edge order. The update is
  // a select, not a branch (which would mispredict on every element): a
  // message is taken when its slot is empty or it is strictly greater,
  // so ties and NaNs keep the first maximum, and the backward routes the
  // gradient to it.
  std::vector<int> Arg(static_cast<size_t>(NumRows * D), -1);
  for (size_t E = 0; E != Dst.size(); ++E) {
    int64_t Nd = Dst[E];
    assert(Nd >= 0 && Nd < NumRows && "scatter destination out of range");
    const float *Src = TM.data() + static_cast<int64_t>(E) * D;
    float *OutRow = Out.data() + Nd * D;
    int *ArgRow = Arg.data() + Nd * D;
    const int Msg = static_cast<int>(E);
    for (int64_t J = 0; J != D; ++J) {
      float V = Src[J], Cur = OutRow[J];
      int Slot = ArgRow[J];
      bool Take = (Slot < 0) | (V > Cur);
      OutRow[J] = Take ? V : Cur;
      ArgRow[J] = Take ? Msg : Slot;
    }
  }
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
