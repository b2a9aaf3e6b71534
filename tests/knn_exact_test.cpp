// kNN exactness: every search entry point must return the oracle's k
// smallest (distance, index) pairs, ties included, on random and
// tie-heavy clouds up to the outdoor scene size, and reject non-finite
// input.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <initializer_list>
#include <limits>
#include <numeric>
#include <stdexcept>
#include <vector>

#include "knn_oracle.h"
#include "pcss/pointcloud/knn.h"
#include "pcss/tensor/rng.h"

using pcss::pointcloud::knn_query;
using pcss::pointcloud::knn_self;
using pcss::pointcloud::knn_self_combined;
using pcss::pointcloud::mean_knn_distance;
using pcss::pointcloud::Vec3;
using pcss::tensor::Rng;
using pcss_test::first_k;
using pcss_test::oracle_combined;
using pcss_test::oracle_query;
using pcss_test::oracle_self;

namespace {

std::vector<Vec3> random_cloud(std::int64_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Vec3> out(static_cast<size_t>(n));
  for (auto& p : out) {
    p = {rng.uniform(0.0f, 8.0f), rng.uniform(0.0f, 8.0f), rng.uniform(0.0f, 3.0f)};
  }
  return out;
}

std::vector<Vec3> random_colors(std::int64_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Vec3> out(static_cast<size_t>(n));
  for (auto& c : out) {
    c = {rng.uniform(0.0f, 1.0f), rng.uniform(0.0f, 1.0f), rng.uniform(0.0f, 1.0f)};
  }
  return out;
}

/// Snaps every coordinate to a multiple of `step`: many equal distances
/// at the k-th rank, and duplicate points once the lattice is crowded.
std::vector<Vec3> quantized(std::vector<Vec3> v, float step) {
  for (auto& p : v) {
    for (float& c : p) c = std::round(c / step) * step;
  }
  return v;
}

struct Cloud {
  const char* kind;
  std::vector<Vec3> points;
};

/// Random and tie-heavy clouds from one point up to past the 1024-point
/// outdoor scene size.
std::vector<Cloud> test_clouds() {
  std::vector<Cloud> out;
  for (std::int64_t n : std::initializer_list<std::int64_t>{1, 2, 7, 64, 300, 1024, 1100}) {
    out.push_back({"random", random_cloud(n, 1000u + static_cast<std::uint64_t>(n))});
  }
  for (std::int64_t n : std::initializer_list<std::int64_t>{64, 300, 1064}) {
    const auto base = random_cloud(n, 2000u + static_cast<std::uint64_t>(n));
    out.push_back({"step 1/3", quantized(base, 1.0f / 3.0f)});
    out.push_back({"step 1/50", quantized(base, 1.0f / 50.0f)});
  }
  return out;
}

/// The given k values, plus k >= n (padded rows) on the small clouds.
std::vector<int> ks_for(int n, std::initializer_list<int> ks) {
  std::vector<int> out(ks);
  if (n <= 64) {
    out.push_back(n);
    out.push_back(n + 3);
  }
  return out;
}

/// Oracle sort depth covering every k of ks_for(n, ...).
constexpr size_t kOracleDepth = 70;

TEST(KnnOracle, SelfSearchesMatchTheOracle) {
  for (const Cloud& cloud : test_clouds()) {
    const auto n = static_cast<int>(cloud.points.size());
    for (bool include_self : {true, false}) {
      const auto rows = oracle_self(cloud.points, include_self, kOracleDepth);
      for (int k : ks_for(n, {1, 4, 12})) {
        const auto expected = first_k(rows, k);
        const auto where = ::testing::Message() << cloud.kind << " n=" << n << " k=" << k
                                                << " include_self=" << include_self;
        ASSERT_EQ(knn_self(cloud.points, k, include_self), expected) << where;
      }
    }
  }
}

TEST(KnnOracle, QueryMatchesTheOracle) {
  const auto queries = random_cloud(150, 77);
  const auto tie_queries = quantized(random_cloud(150, 78), 1.0f / 3.0f);
  for (const Cloud& ref : test_clouds()) {
    const auto n = static_cast<int>(ref.points.size());
    for (const auto* q : {&queries, &tie_queries}) {
      const auto rows = oracle_query(ref.points, *q, kOracleDepth);
      for (int k : ks_for(n, {1, 16})) {
        ASSERT_EQ(knn_query(ref.points, *q, k), first_k(rows, k))
            << ref.kind << " n=" << n << " k=" << k;
      }
    }
  }
}

TEST(KnnOracle, CombinedSearchMatchesTheOracle) {
  // Color weights from "position only" through "color dominates".
  for (const Cloud& cloud : test_clouds()) {
    const auto n = static_cast<std::int64_t>(cloud.points.size());
    const auto colors = quantized(random_colors(n, 3000u + static_cast<std::uint64_t>(n)),
                                  1.0f / 3.0f);
    for (float cw : {0.0f, 1.0f, 50.0f}) {
      const auto rows = oracle_combined(cloud.points, colors, cw, kOracleDepth);
      for (int k : ks_for(static_cast<int>(n), {2, 8})) {
        const auto expected = first_k(rows, k);
        const auto where = ::testing::Message()
                           << cloud.kind << " n=" << n << " cw=" << cw << " k=" << k;
        ASSERT_EQ(knn_self_combined(cloud.points, colors, cw, k), expected) << where;
      }
    }
  }
}

TEST(KnnOracle, RowsDoNotDependOnQueryOrder) {
  // The search visits queries in its own order and seeds each one from
  // the previous; a row must come out the same under any permutation of
  // the queries, and the same as when its query is searched alone.
  const auto reference = quantized(random_cloud(400, 91), 1.0f / 3.0f);
  auto queries = quantized(random_cloud(120, 92), 1.0f / 3.0f);
  queries.push_back(queries[5]);  // a duplicate query
  const int k = 10;
  const auto base = knn_query(reference, queries, k);
  std::vector<size_t> perm(queries.size());
  std::iota(perm.begin(), perm.end(), size_t{0});
  Rng rng(93);
  for (size_t i = perm.size() - 1; i > 0; --i) {
    const auto j = static_cast<size_t>(rng.randint(0, static_cast<std::int64_t>(i)));
    std::swap(perm[i], perm[j]);
  }
  std::vector<Vec3> permuted(queries.size());
  for (size_t i = 0; i < perm.size(); ++i) permuted[i] = queries[perm[i]];
  const auto shuffled = knn_query(reference, permuted, k);
  for (size_t i = 0; i < perm.size(); ++i) {
    const auto row = base.begin() + static_cast<std::ptrdiff_t>(perm[i] * k);
    const auto moved = shuffled.begin() + static_cast<std::ptrdiff_t>(i * k);
    ASSERT_TRUE(std::equal(row, row + k, moved)) << "query " << perm[i];
    const auto alone = knn_query(reference, {queries[perm[i]]}, k);
    ASSERT_TRUE(std::equal(row, row + k, alone.begin())) << "query " << perm[i];
  }
  // knn_self rows likewise equal the point searched on its own.
  const auto self = knn_self(reference, k, /*include_self=*/true);
  for (size_t i = 0; i < reference.size(); i += 37) {
    const auto alone = knn_query(reference, {reference[i]}, k);
    EXPECT_TRUE(std::equal(alone.begin(), alone.end(),
                           self.begin() + static_cast<std::ptrdiff_t>(i * k)))
        << "point " << i;
  }
}

TEST(KnnOracle, NonFiniteCoordinatesThrowAtEveryEntryPoint) {
  for (float bad : {std::numeric_limits<float>::quiet_NaN(),
                    std::numeric_limits<float>::infinity(),
                    -std::numeric_limits<float>::infinity()}) {
    for (std::int64_t n : {std::int64_t{16}, std::int64_t{1032}}) {
      auto points = random_cloud(n, 51);
      points[3][1] = bad;
      const auto good = random_cloud(n, 52);
      const auto colors = random_colors(n, 53);
      auto bad_colors = colors;
      bad_colors[5][2] = bad;
      EXPECT_THROW(knn_self(points, 4), std::invalid_argument);
      EXPECT_THROW(knn_self(points, 4, /*include_self=*/false), std::invalid_argument);
      EXPECT_THROW(knn_query(points, good, 4), std::invalid_argument);
      EXPECT_THROW(knn_query(good, points, 4), std::invalid_argument);
      EXPECT_THROW(mean_knn_distance(points, 4), std::invalid_argument);
      EXPECT_THROW(knn_self_combined(points, colors, 1.0f, 4), std::invalid_argument);
      EXPECT_THROW(knn_self_combined(good, bad_colors, 1.0f, 4), std::invalid_argument);
    }
  }
}

TEST(KnnCombined, ZeroColorWeightReducesToPositionalKnn) {
  const auto pos = random_cloud(200, 31);
  const auto col = random_colors(200, 32);
  EXPECT_EQ(knn_self_combined(pos, col, 0.0f, 5),
            knn_self(pos, 5, /*include_self=*/false));
}

TEST(KnnCombined, RejectsBadArguments) {
  const auto pos = random_cloud(10, 41);
  const auto col = random_colors(9, 42);
  EXPECT_THROW(knn_self_combined(pos, col, 1.0f, 2), std::invalid_argument);
  const auto col_ok = random_colors(10, 43);
  EXPECT_THROW(knn_self_combined(pos, col_ok, -1.0f, 2), std::invalid_argument);
  EXPECT_THROW(knn_self_combined(pos, col_ok, std::numeric_limits<float>::quiet_NaN(), 2),
               std::invalid_argument);
  EXPECT_THROW(knn_self_combined(pos, col_ok, 1.0f, 0), std::invalid_argument);
}

TEST(KnnOracle, MeanKnnDistanceMatchesTheOracle) {
  // mean_knn_distance must match a recomputation from the oracle's
  // neighbors.
  const auto cloud = random_cloud(1056, 7);
  const auto dist = mean_knn_distance(cloud, 6);
  const auto idx = first_k(oracle_self(cloud, /*include_self=*/false, 6), 6);
  ASSERT_EQ(dist.size(), cloud.size());
  for (size_t i = 0; i < cloud.size(); ++i) {
    float acc = 0.0f;
    for (int j = 0; j < 6; ++j) {
      const Vec3& a = cloud[i];
      const Vec3& b = cloud[static_cast<size_t>(idx[i * 6 + static_cast<size_t>(j)])];
      const float dx = a[0] - b[0], dy = a[1] - b[1], dz = a[2] - b[2];
      acc += std::sqrt(dx * dx + dy * dy + dz * dz);
    }
    EXPECT_EQ(dist[i], acc / 6.0f);
  }
}

}  // namespace
