#include "pcss/pointcloud/knn.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>
#include <unordered_set>
#include <utility>

namespace pcss::pointcloud {

namespace {

void require_k(int k, const char* who) {
  if (k <= 0) throw std::invalid_argument(std::string(who) + ": k must be positive");
}

/// Non-finite input has no (distance, index) order to be exact about.
void require_finite(const std::vector<Vec3>& values, const char* who) {
  for (const Vec3& v : values) {
    if (!std::isfinite(v[0]) || !std::isfinite(v[1]) || !std::isfinite(v[2])) {
      throw std::invalid_argument(std::string(who) + ": non-finite coordinate");
    }
  }
}

/// The k lexicographically smallest (distance, index) pairs offered so
/// far, sorted ascending. The contents never depend on offer order; each
/// index must be offered at most once.
class SortedK {
 public:
  explicit SortedK(int k)
      : k_(k), dist_(static_cast<size_t>(k)), idx_(static_cast<size_t>(k)) {}

  void clear() { size_ = 0; }

  /// Distance of the k-th entry; +inf until k entries are listed. A
  /// candidate farther than this cannot enter the list.
  float kth() const {
    return size_ < k_ ? std::numeric_limits<float>::infinity()
                      : dist_[static_cast<size_t>(k_ - 1)];
  }

  void offer(float d, std::int64_t j) {
    int end = size_;
    if (size_ == k_) {
      if (!before(d, j, k_ - 1)) return;
      end = k_ - 1;  // the current k-th entry drops out
    }
    int pos = end;
    for (; pos > 0 && before(d, j, pos - 1); --pos) {
      dist_[static_cast<size_t>(pos)] = dist_[static_cast<size_t>(pos - 1)];
      idx_[static_cast<size_t>(pos)] = idx_[static_cast<size_t>(pos - 1)];
    }
    dist_[static_cast<size_t>(pos)] = d;
    idx_[static_cast<size_t>(pos)] = j;
    if (size_ < k_) ++size_;
  }

  /// Indices in ascending (distance, index) order; pads by repeating the
  /// last entry when fewer than k candidates were offered (zeros if none).
  void fill(std::int64_t* out) const {
    for (int m = 0; m < k_; ++m) {
      out[m] = size_ == 0 ? 0 : idx_[static_cast<size_t>(std::min(m, size_ - 1))];
    }
  }

 private:
  bool before(float d, std::int64_t j, int m) const {
    const float dm = dist_[static_cast<size_t>(m)];
    return d < dm || (d == dm && j < idx_[static_cast<size_t>(m)]);
  }

  int k_;
  int size_ = 0;
  std::vector<float> dist_;
  std::vector<std::int64_t> idx_;
};

/// Points as three contiguous coordinate arrays, so the distances from one
/// query to every point are a single loop the compiler vectorizes.
struct Soa3 {
  std::vector<float> x, y, z;

  explicit Soa3(const std::vector<Vec3>& points)
      : x(points.size()), y(points.size()), z(points.size()) {
    for (size_t j = 0; j < points.size(); ++j) {
      x[j] = points[j][0];
      y[j] = points[j][1];
      z[j] = points[j][2];
    }
  }
};

/// out[j] = pair_dist_sq(a, b[j]) for every j, same expression and order.
void dist_row(const Vec3& a, const Soa3& b, float* __restrict out) {
  const float a0 = a[0], a1 = a[1], a2 = a[2];
  const float* __restrict bx = b.x.data();
  const float* __restrict by = b.y.data();
  const float* __restrict bz = b.z.data();
  const size_t n = b.x.size();
  for (size_t j = 0; j < n; ++j) {
    const float d0 = a0 - bx[j], d1 = a1 - by[j], d2 = a2 - bz[j];
    out[j] = d0 * d0 + d1 * d1 + d2 * d2;
  }
}

/// Spreads the low 10 bits of v so two zero bits follow each one.
std::uint32_t spread_bits(std::uint32_t v) {
  v = (v | (v << 16)) & 0x030000FFu;
  v = (v | (v << 8)) & 0x0300F00Fu;
  v = (v | (v << 4)) & 0x030C30C3u;
  v = (v | (v << 2)) & 0x09249249u;
  return v;
}

/// Point indices sorted by a 30-bit Morton code over the points' bounding
/// box (ties by index), so consecutive points are usually near each other.
std::vector<std::int64_t> morton_order(const std::vector<Vec3>& points) {
  const BBox box = compute_bbox(points);
  std::vector<std::pair<std::uint32_t, std::int64_t>> keyed(points.size());
  for (size_t i = 0; i < points.size(); ++i) {
    std::uint32_t code = 0;
    for (int a = 0; a < 3; ++a) {
      // In double: max - min of finite floats can overflow a float.
      const double extent = static_cast<double>(box.max[a]) - box.min[a];
      const double t =
          extent > 0.0 ? (static_cast<double>(points[i][a]) - box.min[a]) / extent : 0.0;
      code |= spread_bits(static_cast<std::uint32_t>(t * 1023.0)) << a;
    }
    keyed[i] = {code, static_cast<std::int64_t>(i)};
  }
  std::sort(keyed.begin(), keyed.end());
  std::vector<std::int64_t> order(points.size());
  for (size_t i = 0; i < keyed.size(); ++i) order[i] = keyed[i].second;
  return order;
}

/// The one exact search: for each query q, the k smallest
/// (distance, index) pairs over reference indices 0..n_ref-1, skipping
/// index q itself when `exclude_self`. `fill_row(q, dist)` writes the
/// distance from query q to every reference point.
///
/// Exact for any visit order: every candidate is compared, and SortedK
/// keeps the lexicographic minimum. Visiting queries in Morton order and
/// seeding each list with the previous query's neighbors only makes the
/// k-th distance small early, so few candidates pass the `<= kth` filter.
/// `offered[j] == q` marks a candidate already offered for query q (or
/// excluded from it), so no index reaches the list twice.
template <typename FillRow>
std::vector<std::int64_t> exact_search(const std::vector<Vec3>& query_positions,
                                       std::int64_t n_ref, int k, bool exclude_self,
                                       FillRow fill_row) {
  const std::int64_t nq = static_cast<std::int64_t>(query_positions.size());
  std::vector<std::int64_t> out(static_cast<size_t>(nq) * static_cast<size_t>(k));
  std::vector<float> dist(static_cast<size_t>(n_ref));
  std::vector<std::int64_t> offered(static_cast<size_t>(n_ref), -1);
  SortedK best(k);
  const std::int64_t* seeds = nullptr;
  for (const std::int64_t q : morton_order(query_positions)) {
    fill_row(q, dist.data());
    if (exclude_self) offered[static_cast<size_t>(q)] = q;
    best.clear();
    for (int m = 0; seeds != nullptr && m < k; ++m) {
      const auto s = static_cast<size_t>(seeds[m]);
      if (offered[s] == q) continue;  // excluded, or a repeat from row padding
      offered[s] = q;
      best.offer(dist[s], seeds[m]);
    }
    float kth = best.kth();
    for (std::int64_t j = 0; j < n_ref; ++j) {
      const auto u = static_cast<size_t>(j);
      if (dist[u] <= kth && offered[u] != q) {
        best.offer(dist[u], j);
        kth = best.kth();
      }
    }
    std::int64_t* row = out.data() + q * k;
    best.fill(row);
    seeds = row;
  }
  return out;
}

void check_combined_args(const std::vector<Vec3>& positions, const std::vector<Vec3>& colors,
                         float color_weight, int k) {
  require_k(k, "knn_self_combined");
  if (positions.size() != colors.size()) {
    throw std::invalid_argument("knn_self_combined: positions/colors size mismatch");
  }
  if (!std::isfinite(color_weight) || color_weight < 0.0f) {
    throw std::invalid_argument("knn_self_combined: color_weight must be finite and >= 0");
  }
  require_finite(positions, "knn_self_combined");
  require_finite(colors, "knn_self_combined");
}

}  // namespace

std::vector<std::int64_t> knn_self(const std::vector<Vec3>& points, int k,
                                   bool include_self) {
  require_k(k, "knn_self");
  require_finite(points, "knn_self");
  const Soa3 ref(points);
  return exact_search(points, static_cast<std::int64_t>(points.size()), k, !include_self,
                      [&](std::int64_t q, float* out) {
                        dist_row(points[static_cast<size_t>(q)], ref, out);
                      });
}

std::vector<std::int64_t> knn_query(const std::vector<Vec3>& reference,
                                    const std::vector<Vec3>& queries, int k) {
  require_k(k, "knn_query");
  if (reference.empty()) throw std::invalid_argument("knn_query: empty reference");
  require_finite(reference, "knn_query");
  require_finite(queries, "knn_query");
  const Soa3 ref(reference);
  return exact_search(queries, static_cast<std::int64_t>(reference.size()), k,
                      /*exclude_self=*/false, [&](std::int64_t q, float* out) {
                        dist_row(queries[static_cast<size_t>(q)], ref, out);
                      });
}

std::vector<std::int64_t> knn_self_combined(const std::vector<Vec3>& positions,
                                            const std::vector<Vec3>& colors,
                                            float color_weight, int k) {
  check_combined_args(positions, colors, color_weight, k);
  const Soa3 pos(positions), col(colors);
  std::vector<float> color_row(positions.size());
  return exact_search(positions, static_cast<std::int64_t>(positions.size()), k,
                      /*exclude_self=*/true, [&](std::int64_t q, float* out) {
                        const auto qi = static_cast<size_t>(q);
                        dist_row(positions[qi], pos, out);
                        dist_row(colors[qi], col, color_row.data());
                        for (size_t j = 0; j < color_row.size(); ++j) {
                          out[j] = out[j] + color_weight * color_row[j];
                        }
                      });
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
