#include "pcss/pointcloud/knn.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <unordered_set>

namespace pcss::pointcloud {

namespace {

/// squared_distance() inlined into the search loops (the out-of-line one
/// costs a call per candidate pair). Same expression and order:
/// d = a - b, then d0*d0 + d1*d1 + d2*d2 left to right.
inline float pair_dist_sq(const Vec3& a, const Vec3& b) {
  const float d0 = a[0] - b[0], d1 = a[1] - b[1], d2 = a[2] - b[2];
  return d0 * d0 + d1 * d1 + d2 * d2;
}

/// Bounded max-heap of (distance, index) keeping the k smallest entries.
class TopK {
 public:
  explicit TopK(int k) : k_(k) { heap_.reserve(static_cast<size_t>(k)); }

  void offer(float dist, std::int64_t idx) {
    if (static_cast<int>(heap_.size()) < k_) {
      heap_.emplace_back(dist, idx);
      std::push_heap(heap_.begin(), heap_.end());
    } else if (dist < heap_.front().first) {
      std::pop_heap(heap_.begin(), heap_.end());
      heap_.back() = {dist, idx};
      std::push_heap(heap_.begin(), heap_.end());
    }
  }

  float worst() const {
    return heap_.size() < static_cast<size_t>(k_) ? std::numeric_limits<float>::infinity()
                                                  : heap_.front().first;
  }

  /// Indices sorted by ascending distance; pads by repeating the last
  /// entry when fewer than k candidates were offered.
  void fill_sorted(std::int64_t* out) {
    std::sort(heap_.begin(), heap_.end());
    for (int j = 0; j < k_; ++j) {
      if (heap_.empty()) {
        out[j] = 0;
      } else {
        out[j] = heap_[std::min<size_t>(static_cast<size_t>(j), heap_.size() - 1)].second;
      }
    }
  }

 private:
  int k_;
  std::vector<std::pair<float, std::int64_t>> heap_;
};

}  // namespace

std::vector<std::int64_t> knn_self(const std::vector<Vec3>& points, int k,
                                   bool include_self) {
  // Large-N callers (outdoor scenes, model graph builds, the SOR defense
  // statistic) all route through the grid above the cutover; brute force
  // is O(N^2) and only wins on small clouds.
  if (static_cast<std::int64_t>(points.size()) >= kKnnGridCutover) {
    return knn_self_grid(points, k, include_self);
  }
  return knn_self_brute(points, k, include_self);
}

std::vector<std::int64_t> knn_self_brute(const std::vector<Vec3>& points, int k,
                                         bool include_self) {
  if (k <= 0) throw std::invalid_argument("knn_self: k must be positive");
  const std::int64_t n = static_cast<std::int64_t>(points.size());
  std::vector<std::int64_t> out(static_cast<size_t>(n) * static_cast<size_t>(k));
  for (std::int64_t i = 0; i < n; ++i) {
    TopK top(k);
    for (std::int64_t j = 0; j < n; ++j) {
      if (!include_self && j == i) continue;
      top.offer(pair_dist_sq(points[static_cast<size_t>(i)],
                             points[static_cast<size_t>(j)]),
                j);
    }
    top.fill_sorted(out.data() + i * k);
  }
  return out;
}

std::vector<std::int64_t> knn_query(const std::vector<Vec3>& reference,
                                    const std::vector<Vec3>& queries, int k) {
  if (k <= 0) throw std::invalid_argument("knn_query: k must be positive");
  if (reference.empty()) throw std::invalid_argument("knn_query: empty reference");
  const std::int64_t nq = static_cast<std::int64_t>(queries.size());
  std::vector<std::int64_t> out(static_cast<size_t>(nq) * static_cast<size_t>(k));
  for (std::int64_t i = 0; i < nq; ++i) {
    TopK top(k);
    for (std::int64_t j = 0; j < static_cast<std::int64_t>(reference.size()); ++j) {
      top.offer(pair_dist_sq(queries[static_cast<size_t>(i)],
                             reference[static_cast<size_t>(j)]),
                j);
    }
    top.fill_sorted(out.data() + i * k);
  }
  return out;
}

namespace {

struct CellKey {
  int x, y, z;
  bool operator==(const CellKey&) const = default;
};

struct CellHash {
  size_t operator()(const CellKey& c) const {
    // Three large primes mixed; collisions are harmless (bucket scan).
    return static_cast<size_t>(c.x) * 73856093u ^ static_cast<size_t>(c.y) * 19349663u ^
           static_cast<size_t>(c.z) * 83492791u;
  }
};

}  // namespace

/// Shared exact grid search parameterized over the pairwise squared
/// distance. Correctness requirement on `dist_sq`: it must be bounded
/// below by the positional squared distance, because the shell
/// termination bound is positional (true for the plain metric, where
/// they are equal, and for the combined position+color metric, which
/// only adds a non-negative term).
template <typename DistSqFn>
std::vector<std::int64_t> grid_search(const std::vector<Vec3>& points, int k,
                                      bool include_self, DistSqFn dist_sq) {
  const std::int64_t n = static_cast<std::int64_t>(points.size());
  if (n == 0) return {};
  const BBox box = compute_bbox(points);
  // Aim for ~2 points per cell so a shell radius of 1-2 usually suffices.
  const float volume = std::max(box.extent()[0], 1e-6f) * std::max(box.extent()[1], 1e-6f) *
                       std::max(box.extent()[2], 1e-6f);
  const float cell = std::max(std::cbrt(volume * 2.0f / static_cast<float>(n)), 1e-6f);
  std::unordered_map<CellKey, std::vector<std::int64_t>, CellHash> grid;
  auto key_of = [&](const Vec3& p) {
    return CellKey{static_cast<int>(std::floor((p[0] - box.min[0]) / cell)),
                   static_cast<int>(std::floor((p[1] - box.min[1]) / cell)),
                   static_cast<int>(std::floor((p[2] - box.min[2]) / cell))};
  };
  for (std::int64_t i = 0; i < n; ++i) grid[key_of(points[static_cast<size_t>(i)])].push_back(i);

  std::vector<std::int64_t> out(static_cast<size_t>(n) * static_cast<size_t>(k));
  for (std::int64_t i = 0; i < n; ++i) {
    const Vec3& p = points[static_cast<size_t>(i)];
    const CellKey center = key_of(p);
    TopK top(k);
    for (int radius = 0;; ++radius) {
      // Scan the shell of cells at Chebyshev distance `radius`.
      for (int dx = -radius; dx <= radius; ++dx) {
        for (int dy = -radius; dy <= radius; ++dy) {
          for (int dz = -radius; dz <= radius; ++dz) {
            if (std::max({std::abs(dx), std::abs(dy), std::abs(dz)}) != radius) continue;
            auto it = grid.find({center.x + dx, center.y + dy, center.z + dz});
            if (it == grid.end()) continue;
            for (std::int64_t j : it->second) {
              if (!include_self && j == i) continue;
              top.offer(dist_sq(i, j), j);
            }
          }
        }
      }
      // All unscanned cells are at least `radius * cell` away from p;
      // stop when the current k-th distance cannot be improved.
      const float safe = static_cast<float>(radius) * cell;
      if (top.worst() <= safe * safe) break;
      if (radius > 0 && safe * safe > pair_dist_sq(box.min, box.max)) break;
    }
    top.fill_sorted(out.data() + i * k);
  }
  return out;
}

std::vector<std::int64_t> knn_self_grid(const std::vector<Vec3>& points, int k,
                                        bool include_self) {
  if (k <= 0) throw std::invalid_argument("knn_self_grid: k must be positive");
  return grid_search(points, k, include_self, [&](std::int64_t i, std::int64_t j) {
    return pair_dist_sq(points[static_cast<size_t>(i)], points[static_cast<size_t>(j)]);
  });
}

namespace {

void check_combined_args(const std::vector<Vec3>& positions, const std::vector<Vec3>& colors,
                         float color_weight, int k, const char* who) {
  if (k <= 0) throw std::invalid_argument(std::string(who) + ": k must be positive");
  if (positions.size() != colors.size()) {
    throw std::invalid_argument(std::string(who) + ": positions/colors size mismatch");
  }
  if (color_weight < 0.0f) {
    throw std::invalid_argument(std::string(who) + ": color_weight must be >= 0");
  }
}

/// d^2 = d_pos^2 + color_weight * d_color^2 (the revised-SOR metric).
struct CombinedDistSq {
  const std::vector<Vec3>& positions;
  const std::vector<Vec3>& colors;
  float color_weight;

  float operator()(std::int64_t i, std::int64_t j) const {
    const auto a = static_cast<size_t>(i), b = static_cast<size_t>(j);
    return pair_dist_sq(positions[a], positions[b]) +
           color_weight * pair_dist_sq(colors[a], colors[b]);
  }
};

}  // namespace

std::vector<std::int64_t> knn_self_combined(const std::vector<Vec3>& positions,
                                            const std::vector<Vec3>& colors,
                                            float color_weight, int k) {
  check_combined_args(positions, colors, color_weight, k, "knn_self_combined");
  if (static_cast<std::int64_t>(positions.size()) >= kKnnGridCutover) {
    return knn_self_combined_grid(positions, colors, color_weight, k);
  }
  return knn_self_combined_brute(positions, colors, color_weight, k);
}

std::vector<std::int64_t> knn_self_combined_brute(const std::vector<Vec3>& positions,
                                                  const std::vector<Vec3>& colors,
                                                  float color_weight, int k) {
  check_combined_args(positions, colors, color_weight, k, "knn_self_combined_brute");
  const CombinedDistSq dist{positions, colors, color_weight};
  const std::int64_t n = static_cast<std::int64_t>(positions.size());
  std::vector<std::int64_t> out(static_cast<size_t>(n) * static_cast<size_t>(k));
  for (std::int64_t i = 0; i < n; ++i) {
    TopK top(k);
    for (std::int64_t j = 0; j < n; ++j) {
      if (j == i) continue;
      top.offer(dist(i, j), j);
    }
    top.fill_sorted(out.data() + i * k);
  }
  return out;
}

std::vector<std::int64_t> knn_self_combined_grid(const std::vector<Vec3>& positions,
                                                 const std::vector<Vec3>& colors,
                                                 float color_weight, int k) {
  check_combined_args(positions, colors, color_weight, k, "knn_self_combined_grid");
  // The grid cells span positions only; the combined distance can only
  // exceed the positional one, so the positional shell bound stays a
  // valid termination proof (shells just expand a little further when
  // color dominates the metric).
  return grid_search(positions, k, /*include_self=*/false,
                     CombinedDistSq{positions, colors, color_weight});
}

double neighborhood_change_fraction(const std::vector<std::int64_t>& before,
                                    const std::vector<std::int64_t>& after, int k) {
  if (before.size() != after.size() || k <= 0 || before.size() % static_cast<size_t>(k) != 0) {
    throw std::invalid_argument("neighborhood_change_fraction: inconsistent inputs");
  }
  const size_t n = before.size() / static_cast<size_t>(k);
  if (n == 0) return 0.0;
  size_t changed = 0;
  for (size_t i = 0; i < n; ++i) {
    std::unordered_set<std::int64_t> a(before.begin() + static_cast<std::ptrdiff_t>(i * k),
                                       before.begin() + static_cast<std::ptrdiff_t>((i + 1) * k));
    bool same = true;
    for (int j = 0; j < k; ++j) {
      if (!a.count(after[i * static_cast<size_t>(k) + static_cast<size_t>(j)])) {
        same = false;
        break;
      }
    }
    if (!same) ++changed;
  }
  return static_cast<double>(changed) / static_cast<double>(n);
}

std::vector<float> mean_knn_distance(const std::vector<Vec3>& points, int k) {
  const std::int64_t n = static_cast<std::int64_t>(points.size());
  std::vector<float> out(static_cast<size_t>(n), 0.0f);
  if (n <= 1) return out;
  const int kk = static_cast<int>(std::min<std::int64_t>(k, n - 1));
  const auto idx = knn_self(points, kk, /*include_self=*/false);
  for (std::int64_t i = 0; i < n; ++i) {
    float acc = 0.0f;
    for (int j = 0; j < kk; ++j) {
      acc += std::sqrt(squared_distance(points[static_cast<size_t>(i)],
                                        points[static_cast<size_t>(idx[i * kk + j])]));
    }
    out[static_cast<size_t>(i)] = acc / static_cast<float>(kk);
  }
  return out;
}

}  // namespace pcss::pointcloud
