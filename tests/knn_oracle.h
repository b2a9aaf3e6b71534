// Independent kNN oracle for the search tests: for each query, every
// (distance, index) pair is sorted and the first k are taken, padding by
// repeating the last entry (all zeros when there is no candidate). One
// sort per query serves every k up to the sorted depth. It shares no code
// with src/pointcloud/knn.cpp; distances come from squared_distance(),
// the metric knn.h promises.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "pcss/pointcloud/point_cloud.h"

namespace pcss_test {

using pcss::pointcloud::Vec3;

/// Rows of reference indices, one per query, each the first `depth`
/// candidates (all of them if fewer) in ascending (distance, index) order.
using OracleRows = std::vector<std::vector<std::int64_t>>;

/// `dist(q, j)` is the distance from query q to reference j; reference
/// index q is left out of row q when `exclude_self`.
template <typename DistFn>
OracleRows oracle_rows(std::int64_t n_queries, std::int64_t n_ref, bool exclude_self,
                       size_t depth, DistFn dist) {
  OracleRows rows(static_cast<size_t>(n_queries));
  std::vector<std::pair<float, std::int64_t>> all;
  for (std::int64_t q = 0; q < n_queries; ++q) {
    all.clear();
    for (std::int64_t j = 0; j < n_ref; ++j) {
      if (exclude_self && j == q) continue;
      all.emplace_back(dist(q, j), j);
    }
    const auto end = all.begin() + static_cast<std::ptrdiff_t>(std::min(depth, all.size()));
    std::partial_sort(all.begin(), end, all.end());
    for (auto it = all.begin(); it != end; ++it) rows[static_cast<size_t>(q)].push_back(it->second);
  }
  return rows;
}

/// The flat [rows*k] kNN layout: the first k of each row, padded by
/// repeating the last entry (all zeros for an empty row). k must not
/// exceed the rows' depth unless the rows hold every candidate.
inline std::vector<std::int64_t> first_k(const OracleRows& rows, int k) {
  std::vector<std::int64_t> out;
  out.reserve(rows.size() * static_cast<size_t>(k));
  for (const auto& row : rows) {
    for (int m = 0; m < k; ++m) {
      out.push_back(row.empty() ? 0 : row[std::min(static_cast<size_t>(m), row.size() - 1)]);
    }
  }
  return out;
}

inline OracleRows oracle_self(const std::vector<Vec3>& points, bool include_self,
                              size_t depth) {
  const auto n = static_cast<std::int64_t>(points.size());
  return oracle_rows(n, n, !include_self, depth, [&](std::int64_t q, std::int64_t j) {
    return pcss::pointcloud::squared_distance(points[static_cast<size_t>(q)],
                                              points[static_cast<size_t>(j)]);
  });
}

inline OracleRows oracle_query(const std::vector<Vec3>& reference,
                               const std::vector<Vec3>& queries, size_t depth) {
  return oracle_rows(static_cast<std::int64_t>(queries.size()),
                     static_cast<std::int64_t>(reference.size()), /*exclude_self=*/false, depth,
                     [&](std::int64_t q, std::int64_t j) {
                       return pcss::pointcloud::squared_distance(
                           queries[static_cast<size_t>(q)], reference[static_cast<size_t>(j)]);
                     });
}

inline OracleRows oracle_combined(const std::vector<Vec3>& positions,
                                  const std::vector<Vec3>& colors, float color_weight,
                                  size_t depth) {
  const auto n = static_cast<std::int64_t>(positions.size());
  return oracle_rows(n, n, /*exclude_self=*/true, depth, [&](std::int64_t q, std::int64_t j) {
    const auto a = static_cast<size_t>(q), b = static_cast<size_t>(j);
    return pcss::pointcloud::squared_distance(positions[a], positions[b]) +
           color_weight * pcss::pointcloud::squared_distance(colors[a], colors[b]);
  });
}

}  // namespace pcss_test
