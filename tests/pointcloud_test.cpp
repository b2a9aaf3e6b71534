#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <set>

#include "pcss/pointcloud/io.h"
#include "pcss/pointcloud/knn.h"
#include "pcss/pointcloud/point_cloud.h"
#include "pcss/pointcloud/sampling.h"
#include "temp_dir.h"

using namespace pcss::pointcloud;
using pcss::tensor::Rng;

namespace {

PointCloud make_grid_cloud(int side) {
  PointCloud cloud;
  for (int x = 0; x < side; ++x) {
    for (int y = 0; y < side; ++y) {
      cloud.push_back({static_cast<float>(x), static_cast<float>(y), 0.0f},
                      {0.5f, 0.5f, 0.5f}, (x + y) % 3);
    }
  }
  return cloud;
}

TEST(Vec3Math, BasicOperations) {
  Vec3 a{1, 2, 3}, b{4, 5, 6};
  EXPECT_FLOAT_EQ(dot(a, b), 32.0f);
  EXPECT_FLOAT_EQ(norm({3, 4, 0}), 5.0f);
  EXPECT_FLOAT_EQ(squared_distance(a, b), 27.0f);
  const Vec3 s = (a + b) * 0.5f;
  EXPECT_FLOAT_EQ(s[1], 3.5f);
}

TEST(BBoxTest, ComputeAndExtent) {
  std::vector<Vec3> pts{{0, 0, 0}, {2, 1, 5}, {-1, 3, 2}};
  const BBox box = compute_bbox(pts);
  EXPECT_FLOAT_EQ(box.min[0], -1.0f);
  EXPECT_FLOAT_EQ(box.max[2], 5.0f);
  EXPECT_FLOAT_EQ(box.max_extent(), 5.0f);
  EXPECT_FLOAT_EQ(box.center()[1], 1.5f);
}

TEST(PointCloudTest, SubsetPreservesFields) {
  PointCloud cloud = make_grid_cloud(3);
  PointCloud sub = cloud.subset({0, 4, 8});
  EXPECT_EQ(sub.size(), 3);
  EXPECT_FLOAT_EQ(sub.positions[1][0], 1.0f);
  EXPECT_EQ(sub.labels[2], (2 + 2) % 3);
  EXPECT_THROW(cloud.subset({100}), std::out_of_range);
}

TEST(PointCloudTest, ValidateAndClamp) {
  PointCloud cloud;
  cloud.push_back({0, 0, 0}, {0.5f, 0.5f, 0.5f}, 0);
  EXPECT_NO_THROW(cloud.validate());
  cloud.colors[0][1] = 1.5f;
  EXPECT_THROW(cloud.validate(), std::runtime_error);
  cloud.clamp_colors();
  EXPECT_NO_THROW(cloud.validate());
  EXPECT_FLOAT_EQ(cloud.colors[0][1], 1.0f);
  cloud.labels.pop_back();
  EXPECT_THROW(cloud.validate(), std::runtime_error);
}

TEST(PointCloudIo, XyzRgblRoundTrip) {
  PointCloud cloud = make_grid_cloud(4);
  const pcss::testing::TempDir tmp;
  const std::string path = tmp.file("cloud.txt");
  save_xyzrgbl(cloud, path);
  PointCloud loaded = load_xyzrgbl(path);
  ASSERT_EQ(loaded.size(), cloud.size());
  for (std::int64_t i = 0; i < cloud.size(); ++i) {
    EXPECT_FLOAT_EQ(loaded.positions[static_cast<size_t>(i)][0],
                    cloud.positions[static_cast<size_t>(i)][0]);
    EXPECT_EQ(loaded.labels[static_cast<size_t>(i)], cloud.labels[static_cast<size_t>(i)]);
  }
}

TEST(PointCloudIo, PlyHeaderWritten) {
  PointCloud cloud = make_grid_cloud(2);
  const pcss::testing::TempDir tmp;
  const std::string path = tmp.file("cloud.ply");
  save_ply(cloud, path);
  std::ifstream in(path);
  std::string first;
  std::getline(in, first);
  EXPECT_EQ(first, "ply");
}

TEST(PointCloudIo, MissingFileThrows) {
  EXPECT_THROW(load_xyzrgbl("/nonexistent/nope.txt"), std::runtime_error);
}

// --- kNN -------------------------------------------------------------------

TEST(Knn, SelfNeighborsOnLine) {
  std::vector<Vec3> pts;
  for (int i = 0; i < 10; ++i) pts.push_back({static_cast<float>(i), 0, 0});
  const auto idx = knn_self(pts, 3, /*include_self=*/true);
  // Nearest neighbor of each point including self is itself.
  for (int i = 0; i < 10; ++i) EXPECT_EQ(idx[static_cast<size_t>(i * 3)], i);
  const auto idx_ns = knn_self(pts, 2, /*include_self=*/false);
  EXPECT_NE(idx_ns[0], 0);
  EXPECT_EQ(idx_ns[0], 1);  // nearest to 0 excluding itself
}

TEST(Knn, QueryMatchesManualCheck) {
  std::vector<Vec3> ref{{0, 0, 0}, {10, 0, 0}, {0, 10, 0}};
  std::vector<Vec3> q{{9, 1, 0}, {1, 9, 0}};
  const auto idx = knn_query(ref, q, 1);
  EXPECT_EQ(idx[0], 1);
  EXPECT_EQ(idx[1], 2);
}

TEST(Knn, PaddingWhenFewerCandidates) {
  std::vector<Vec3> pts{{0, 0, 0}, {1, 0, 0}};
  const auto idx = knn_self(pts, 4, true);
  ASSERT_EQ(idx.size(), 8u);
  // Last entries repeat rather than leaving garbage.
  EXPECT_EQ(idx[2], idx[3]);
}

TEST(Knn, ChangeFractionDetectsPerturbation) {
  Rng rng(77);
  std::vector<Vec3> pts;
  for (int i = 0; i < 200; ++i) {
    pts.push_back({rng.uniform(0, 1), rng.uniform(0, 1), rng.uniform(0, 1)});
  }
  const auto before = knn_self(pts, 4, true);
  EXPECT_DOUBLE_EQ(neighborhood_change_fraction(before, before, 4), 0.0);
  auto moved = pts;
  for (auto& p : moved) {
    p[0] += rng.uniform(-0.2f, 0.2f);
    p[1] += rng.uniform(-0.2f, 0.2f);
  }
  const auto after = knn_self(moved, 4, true);
  EXPECT_GT(neighborhood_change_fraction(before, after, 4), 0.5);
}

TEST(Knn, MeanDistanceFlagsOutlier) {
  std::vector<Vec3> pts;
  for (int i = 0; i < 50; ++i) {
    pts.push_back({static_cast<float>(i % 10) * 0.1f,
                   static_cast<float>(i / 10) * 0.1f, 0.0f});
  }
  pts.push_back({50.0f, 50.0f, 0.0f});  // planted outlier
  const auto d = mean_knn_distance(pts, 3);
  const size_t outlier = pts.size() - 1;
  for (size_t i = 0; i + 1 < pts.size(); ++i) EXPECT_LT(d[i], d[outlier]);
}

// --- Sampling ----------------------------------------------------------------

TEST(Sampling, FpsSpreadsPoints) {
  // Two distant clusters: FPS with m=2 must pick one from each.
  std::vector<Vec3> pts;
  for (int i = 0; i < 20; ++i) pts.push_back({static_cast<float>(i % 5) * 0.01f, 0, 0});
  for (int i = 0; i < 20; ++i) {
    pts.push_back({100.0f + static_cast<float>(i % 5) * 0.01f, 0, 0});
  }
  const auto sel = farthest_point_sample(pts, 2, 0);
  ASSERT_EQ(sel.size(), 2u);
  const bool one_far = (sel[0] < 20) != (sel[1] < 20);
  EXPECT_TRUE(one_far);
}

TEST(Sampling, FpsDistinctAndInRange) {
  Rng rng(123);
  std::vector<Vec3> pts;
  for (int i = 0; i < 64; ++i) {
    pts.push_back({rng.uniform(0, 1), rng.uniform(0, 1), rng.uniform(0, 1)});
  }
  const auto sel = farthest_point_sample(pts, 16);
  std::set<std::int64_t> uniq(sel.begin(), sel.end());
  EXPECT_EQ(uniq.size(), 16u);
  for (auto i : sel) EXPECT_LT(i, 64);
  EXPECT_THROW(farthest_point_sample(pts, 0), std::invalid_argument);
  EXPECT_THROW(farthest_point_sample(pts, 100), std::invalid_argument);
}

TEST(Sampling, RandomSampleWithoutReplacement) {
  Rng rng(9);
  const auto sel = random_sample(100, 40, rng);
  std::set<std::int64_t> uniq(sel.begin(), sel.end());
  EXPECT_EQ(uniq.size(), 40u);
  for (auto i : sel) {
    EXPECT_GE(i, 0);
    EXPECT_LT(i, 100);
  }
}

TEST(Sampling, RandomSampleDeterministicPerSeed) {
  Rng a(4), b(4), c(5);
  const auto sa = random_sample(50, 10, a);
  const auto sb = random_sample(50, 10, b);
  const auto sc = random_sample(50, 10, c);
  EXPECT_EQ(sa, sb);
  EXPECT_NE(sa, sc);
}

TEST(Sampling, DuplicateOrSelectCoversAllWhenGrowing) {
  Rng rng(31);
  const auto idx = duplicate_or_select(10, 25, rng);
  EXPECT_EQ(idx.size(), 25u);
  std::set<std::int64_t> uniq(idx.begin(), idx.end());
  EXPECT_EQ(uniq.size(), 10u) << "every original point must appear at least once";
}

TEST(Sampling, DuplicateOrSelectShrinks) {
  Rng rng(32);
  const auto idx = duplicate_or_select(30, 12, rng);
  EXPECT_EQ(idx.size(), 12u);
  std::set<std::int64_t> uniq(idx.begin(), idx.end());
  EXPECT_EQ(uniq.size(), 12u) << "selection must not duplicate";
}

TEST(Sampling, VoxelDownsampleReducesDensity) {
  std::vector<Vec3> pts;
  for (int i = 0; i < 1000; ++i) {
    pts.push_back({static_cast<float>(i % 10) * 0.01f,
                   static_cast<float>((i / 10) % 10) * 0.01f, 0.0f});
  }
  const auto keep = voxel_downsample(pts, 0.05f);
  EXPECT_LT(keep.size(), 100u);
  EXPECT_GE(keep.size(), 4u);
}

}  // namespace
