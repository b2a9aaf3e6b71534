#pragma once

#include <cstdint>
#include <vector>

#include "pcss/pointcloud/point_cloud.h"

namespace pcss::pointcloud {

// Contract shared by every search below: each row holds the k smallest
// (distance, index) pairs in lexicographic order, ties included, so the
// result does not depend on visit order or cloud size. Each search
// compares every query with every reference point, O(N^2): at the zoo's
// cloud sizes (512 and 1024 points) that beats a cell-grid search.
// Rows are in ascending (distance, index) order; if fewer than k
// candidates exist, the last one is repeated to keep the layout
// rectangular (a row with no candidate is all zeros). Distances are
// computed as in squared_distance(). A non-finite coordinate (or color)
// throws std::invalid_argument, as does k <= 0.

/// k nearest neighbors of each point within the same set. Returns a flat
/// [n*k] row-major index array. When include_self is false the point
/// itself is excluded from its own neighbor list.
std::vector<std::int64_t> knn_self(const std::vector<Vec3>& points, int k,
                                   bool include_self = true);

/// k nearest neighbors of each query point among `reference` points.
/// Returns a flat [queries.size()*k] index array into `reference`.
std::vector<std::int64_t> knn_query(const std::vector<Vec3>& reference,
                                    const std::vector<Vec3>& queries, int k);

/// k nearest neighbors within one set under the combined position+color
/// metric of the revised SOR defense:
///   d^2(i, j) = ||p_i - p_j||^2 + color_weight * ||c_i - c_j||^2.
/// Returns a flat [n*k] row-major index array. The point itself is always
/// excluded from its own list. `positions` and `colors` must be the same
/// length; color_weight must be finite and >= 0 (0 reduces the metric to
/// plain positional kNN).
std::vector<std::int64_t> knn_self_combined(const std::vector<Vec3>& positions,
                                            const std::vector<Vec3>& colors,
                                            float color_weight, int k);

/// Fraction of points whose neighbor *set* changed between two [n*k] kNN
/// index arrays. Used for the paper's §V-B evidence that coordinate
/// perturbation disturbs >88% of neighborhoods.
double neighborhood_change_fraction(const std::vector<std::int64_t>& before,
                                    const std::vector<std::int64_t>& after, int k);

/// Mean distance from each point to its k nearest neighbors (excluding
/// self) — the statistic used by the SOR defense.
std::vector<float> mean_knn_distance(const std::vector<Vec3>& points, int k);

}  // namespace pcss::pointcloud
