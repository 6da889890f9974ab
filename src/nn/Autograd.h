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

/// False while a NoRecordScope is alive on this thread, when no op result
/// needs a gradient.
bool isRecording();

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

//===----------------------------------------------------------------------===//
// Fused GGNN timestep. Each op below records one node in place of the
// dozens its composed form records, stores only what its backward reads,
// and computes values and gradients bit-identical to the composed form
// (tests/ComposedGgnn.h): the same kernels in the same per-element order.
//===----------------------------------------------------------------------===//

/// The edge index lists of one message pass, shared by every timestep
/// (and every backward closure) of a batch. Part k gathers the state rows
/// Srcs[k] and transforms them with the k-th edge transform; Dst holds
/// each message's destination row, parts concatenated in order. The
/// constructor also indexes each part's distinct sources, so the forward
/// transforms every one of them once however many messages it sends.
struct MessageEdges {
  MessageEdges(std::vector<std::vector<int>> Srcs, std::vector<int> Dst);

  std::vector<std::vector<int>> Srcs;
  std::vector<int> Dst;
  /// Part k's distinct sources in first-occurrence order. Their products
  /// with the part's transform, parts concatenated, are the forward's
  /// product rows.
  std::vector<std::vector<int>> Sources;
  /// Message e's row among the product rows.
  std::vector<int> Product;
};

/// The backward slice of rows \p Targets in the message graph of \p E
/// over \p Steps timesteps: Slice[Steps] holds the distinct targets, and
/// Slice[t - 1] adds to Slice[t] every source of a message into it. Step
/// t then needs the states Slice[t - 1] and must compute Slice[t]; the
/// targets come out exact from the initial states Slice[0] alone. Every
/// list is ascending.
std::vector<std::vector<int>> backwardSlice(const MessageEdges &E,
                                            const std::vector<int> &Targets,
                                            int Steps, int64_t NumRows);

/// The messages of \p E into rows \p To, renumbered: sources become
/// positions in \p From, destinations positions in \p To. Both lists are
/// ascending and From holds every source of a message into To (a step of
/// backwardSlice). Parts and the order of messages within each part are
/// kept, so every destination folds its messages in the original order.
MessageEdges sliceEdges(const MessageEdges &E, const std::vector<int> &From,
                        const std::vector<int> &To, int64_t NumRows);

/// The GGNN message pass (Sec. 4.3): Out[n] is the elementwise max over
/// every message H[Srcs[k][i]] x Transforms[k] with destination n, taken
/// in message order (ties and NaNs keep the first); 0 when none arrives.
/// Equals scatterMax(concatRows({matmul(gatherRows(H, Srcs[k]),
/// Transforms[k])...}), Dst, NumRows), empty parts skipped: a GEMM row
/// does not depend on the rows beside it, so the forward multiplies each
/// of Sources[k] once and folds the products through Product. The argmax
/// table still names messages, and it is all the op stores; the backward
/// recomputes the gathers from H. H is the node's first parent.
Value messagePass(Value H, std::shared_ptr<const MessageEdges> Edges,
                  const std::vector<Value> &Transforms, int64_t NumRows);

/// The nine weights of a GRU cell: input transform W, state transform U
/// and bias B of the reset (r), update (z) and candidate (n) gates.
struct GruWeights {
  Value Wr, Ur, Br;
  Value Wz, Uz, Bz;
  Value Wn, Un, Bn;
};

/// One GRU step (X:[N,In], H:[N,Hid]) -> [N,Hid] given XWz = X x Wz:
///   r = sigmoid(X Wr + H Ur + Br),  z = sigmoid(XWz + H Uz + Bz),
///   n = tanh(X Wn + r * (H Un) + Bn),  H' = z * H + (1 - z) * n.
/// Stores r, z, n and H Un. XWz stays a separate matmul node and is the
/// first parent (then X, then H), so the gradient order of the composed
/// step, where the DFS reaches X Wz before H, is kept.
Value gruCell(Value XWz, Value X, Value H, const GruWeights &W);

/// Runs reverse-mode accumulation from scalar \p Root.
void backward(Value Root);

/// Plain (non-differentiable) row-wise softmax helper for inference.
Tensor softmaxRows(const Tensor &Logits);

} // namespace nn
} // namespace typilus

#endif // TYPILUS_NN_AUTOGRAD_H
