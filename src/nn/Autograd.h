//===- nn/Autograd.h - Reverse-mode automatic differentiation -----*- C++ -*-===//
//
// Part of the Typilus C++ reproduction.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A tape-free reverse-mode autograd over Tensor: each op allocates a Node
/// holding its result, its parents and a backward closure. `backward()`
/// topologically sorts the DAG from the loss and accumulates gradients.
/// This is the substrate for the GGNN, the biGRU baseline, the path encoder
/// and all three training losses of the paper (Eqs. 1, 3, 4).
///
//===----------------------------------------------------------------------===//

#ifndef TYPILUS_NN_AUTOGRAD_H
#define TYPILUS_NN_AUTOGRAD_H

#include "nn/Tensor.h"

#include <functional>
#include <memory>
#include <vector>

namespace typilus {
namespace nn {

/// A node of the computation DAG.
class Node {
public:
  Tensor Val;
  Tensor Grad; ///< Allocated lazily by backward().
  /// True for parameters and for any node depending on one.
  bool NeedsGrad = false;
  std::vector<std::shared_ptr<Node>> Prev;
  /// Accumulates this node's Grad into its parents' Grads.
  std::function<void()> BackwardFn;

  void ensureGrad() {
    if (!Grad.sameShape(Val))
      Grad = Tensor::zerosLike(Val);
  }
};

/// Value handle; cheap to copy.
class Value {
public:
  Value() = default;
  explicit Value(std::shared_ptr<Node> N) : N(std::move(N)) {}

  /// A node that does not require gradients (inputs, masks...).
  static Value constant(Tensor T) {
    auto Nd = std::make_shared<Node>();
    Nd->Val = std::move(T);
    return Value(std::move(Nd));
  }
  /// A trainable parameter.
  static Value param(Tensor T) {
    auto Nd = std::make_shared<Node>();
    Nd->Val = std::move(T);
    Nd->NeedsGrad = true;
    return Value(std::move(Nd));
  }

  bool defined() const { return N != nullptr; }
  const Tensor &val() const { return N->Val; }
  Tensor &valMutable() { return N->Val; }
  Tensor &grad() const {
    N->ensureGrad();
    return N->Grad;
  }
  bool needsGrad() const { return N->NeedsGrad; }
  const std::shared_ptr<Node> &node() const { return N; }

private:
  std::shared_ptr<Node> N;
};

/// Inference mode for the current thread. While a scope is alive, every
/// op below computes its value exactly as it would otherwise, but the
/// result records nothing: no parents, no BackwardFn, NeedsGrad false.
/// Intermediates are then freed as soon as they are consumed. Scopes
/// nest; the flag is per thread, so a scope never changes what ops on
/// other threads (pool workers included) record.
class NoRecordScope {
public:
  NoRecordScope();
  ~NoRecordScope();
  NoRecordScope(const NoRecordScope &) = delete;
  NoRecordScope &operator=(const NoRecordScope &) = delete;
};

//===----------------------------------------------------------------------===//
// Ops. Unless noted, tensors are rank-2 [rows, cols].
//===----------------------------------------------------------------------===//

/// A + B; B may be rank-1 (a bias broadcast over A's rows).
Value add(Value A, Value B);
/// A - B (same shape).
Value sub(Value A, Value B);
/// Elementwise product (same shape).
Value mul(Value A, Value B);
/// S * A.
Value scale(Value A, float S);
/// [M,K] x [K,N].
Value matmul(Value A, Value B);
/// A x B^T with B stored [N,K] -> [M,N]. (Classification head, Eq. 1.)
Value matmulNT(Value A, Value B);
Value sigmoid(Value A);
Value tanhOp(Value A);
Value relu(Value A);
/// [N,K1] ++ [N,K2] -> [N,K1+K2].
Value concatCols(Value A, Value B);
/// Vertically stacks matrices with equal column counts.
Value concatRows(const std::vector<Value> &Parts);
/// Softmax(Scores)-weighted sum of Rows: ([K,1], [K,D]) -> [1,D].
/// (The code2seq-style self-weighted path average, Sec. 6.1.)
Value attentionPool(Value Scores, Value Rows);
/// Out[i] = A[Idx[i]].
Value gatherRows(Value A, std::vector<int> Idx);
/// Out[n] = elementwise max over {Msgs[e] : Dst[e] == n}; 0 when empty.
/// The GGNN message aggregation (the paper uses max pooling, Sec. 4.3).
/// \p Dst is only read during the forward pass (the backward keeps the
/// argmax table instead), so callers can reuse one list across timesteps.
Value scatterMax(Value Msgs, const std::vector<int> &Dst, int64_t NumRows);
/// Out[n] = mean over {Msgs[e] : Dst[e] == n}; 0 when empty.
Value scatterMean(Value Msgs, std::vector<int> Dst, int64_t NumRows);
/// Out = Base, then Out[Idx[m]] += Rows[m] for each m.
Value indexAddRows(Value Base, std::vector<int> Idx, Value Rows);
/// [N,D] -> [1,D] columnwise max.
Value reduceMaxRows(Value A);
/// Mean of all entries -> scalar [1].
Value meanAll(Value A);
/// Mean softmax cross-entropy over rows with Labels[i] >= 0 -> scalar [1].
Value softmaxCrossEntropy(Value Logits, std::vector<int> Labels);
/// Pairwise L1 distance matrix of the rows of A: [N,D] -> [N,N].
/// (The TypeSpace uses L1, Sec. 4.1.)
Value pairwiseL1(Value A);
/// The Typilus similarity loss L_SPACE (Eq. 3) over a precomputed distance
/// matrix. TypeIds[i] is the type label of row i (< 0 = unlabeled, skipped).
Value spaceLoss(Value Dists, const std::vector<int> &TypeIds, float Margin);

/// Runs reverse-mode accumulation from scalar \p Root.
void backward(Value Root);

/// Plain (non-differentiable) row-wise softmax helper for inference.
Tensor softmaxRows(const Tensor &Logits);

} // namespace nn
} // namespace typilus

#endif // TYPILUS_NN_AUTOGRAD_H
