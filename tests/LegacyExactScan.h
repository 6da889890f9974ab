//===- tests/LegacyExactScan.h - The historical exact kNN scan --*- C++ -*-===//
//
// Part of the Typilus C++ reproduction.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The exact scan as it was before the blocked engine: materialize every
/// live marker's distance, then partial_sort under (distance, index).
/// KnnTest holds ExactIndex bit-identical to it on every store, K and
/// thread count; bench/knn_query times it as the baseline.
///
//===----------------------------------------------------------------------===//

#ifndef TYPILUS_TESTS_LEGACYEXACTSCAN_H
#define TYPILUS_TESTS_LEGACYEXACTSCAN_H

#include "knn/TypeMap.h"

#include <algorithm>

namespace typilus {

inline NeighborList legacyExactQuery(const TypeMap &Map, const float *Q,
                                     int K) {
  NeighborList All;
  All.reserve(Map.size());
  for (size_t I = 0; I != Map.size(); ++I)
    if (Map.isLive(I))
      All.emplace_back(static_cast<int>(I), Map.l1DistanceTo(Q, I));
  size_t Keep = std::min<size_t>(static_cast<size_t>(K), All.size());
  std::partial_sort(All.begin(), All.begin() + static_cast<long>(Keep),
                    All.end(), [](const auto &A, const auto &B) {
                      if (A.second != B.second)
                        return A.second < B.second;
                      return A.first < B.first;
                    });
  All.resize(Keep);
  return All;
}

} // namespace typilus

#endif // TYPILUS_TESTS_LEGACYEXACTSCAN_H
