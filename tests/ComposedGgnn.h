//===- tests/ComposedGgnn.h - The GGNN timestep as composed ops -*- C++ -*-===//
//
// Part of the Typilus C++ reproduction.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The GGNN timestep as the encoders built it before the fused ops: the
/// GRU step and the max-pooled message pass composed from elementary
/// autograd ops (54 recorded nodes per timestep on 8 edge labels). NnTest
/// holds nn::gruCell and nn::messagePass bit-identical to these, values
/// and every gradient, on every kernel table and thread count.
///
//===----------------------------------------------------------------------===//

#ifndef TYPILUS_TESTS_COMPOSEDGGNN_H
#define TYPILUS_TESTS_COMPOSEDGGNN_H

#include "nn/Autograd.h"

#include <utility>
#include <vector>

namespace typilus {

/// h' = z * h + (1 - z) * n with the gates of nn::gruCell.
inline nn::Value composedGruStep(nn::Value X, nn::Value H,
                                 const nn::GruWeights &W) {
  using namespace nn;
  Value Rt = sigmoid(add(add(matmul(X, W.Wr), matmul(H, W.Ur)), W.Br));
  Value Zt = sigmoid(add(add(matmul(X, W.Wz), matmul(H, W.Uz)), W.Bz));
  Value Nt =
      tanhOp(add(add(matmul(X, W.Wn), mul(Rt, matmul(H, W.Un))), W.Bn));
  Tensor Ones(H.val().rows(), H.val().cols());
  Ones.fill(1.f);
  Value OneMinusZ = sub(Value::constant(std::move(Ones)), Zt);
  return add(mul(Zt, H), mul(OneMinusZ, Nt));
}

/// Gather, transform and concatenate every non-empty part's messages,
/// then max-aggregate them per destination row.
inline nn::Value composedMessagePass(nn::Value H, const nn::MessageEdges &E,
                                     const std::vector<nn::Value> &Transforms,
                                     int64_t NumRows) {
  using namespace nn;
  std::vector<Value> Msgs;
  for (size_t K = 0; K != E.Srcs.size(); ++K)
    if (!E.Srcs[K].empty())
      Msgs.push_back(matmul(gatherRows(H, E.Srcs[K]), Transforms[K]));
  return scatterMax(concatRows(Msgs), E.Dst, NumRows);
}

} // namespace typilus

#endif // TYPILUS_TESTS_COMPOSEDGGNN_H
