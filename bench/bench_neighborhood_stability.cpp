// Reproduces the paper's §V-B supporting evidence for Finding 1: "over
// 88% of the neighborhood points are changed after coordinate-based
// perturbation". Measures the fraction of kNN neighborhoods that change
// when coordinates are perturbed at several magnitudes, and a
// google-benchmark timing of the kNN kernels.
#include <benchmark/benchmark.h>

#include "bench_common.h"
#include "pcss/pointcloud/knn.h"

using pcss::bench::print_header;
using pcss::pointcloud::Vec3;
using pcss::tensor::Rng;

namespace {

void report_stability() {
  print_header("SSV-B evidence - kNN neighborhood stability under coordinate noise");
  pcss::train::ModelZoo zoo;
  const auto clouds = zoo.indoor_eval_scenes(2, 9200);
  const int k = 12;
  std::printf("\n  %-12s %s\n", "perturbation", "neighborhoods changed");
  for (float eps : {0.005f, 0.02f, 0.05f, 0.1f}) {
    double changed = 0.0;
    for (const auto& cloud : clouds) {
      const auto before = pcss::pointcloud::knn_self(cloud.positions, k, true);
      Rng rng(1234);
      auto moved = cloud.positions;
      for (auto& p : moved) {
        for (int a = 0; a < 3; ++a) p[a] += rng.uniform(-eps, eps);
      }
      const auto after = pcss::pointcloud::knn_self(moved, k, true);
      changed += pcss::pointcloud::neighborhood_change_fraction(before, after, k);
    }
    std::printf("  +-%-10.3f %6.2f%%\n", eps, 100.0 * changed / clouds.size());
  }
  std::printf("\nExpected shape (paper SSV-B): at attack-scale perturbations the\n"
              "overwhelming majority (>88%% in the paper) of neighborhoods change,\n"
              "which is why coordinate attacks are hard to control (Finding 1).\n");
}

std::vector<Vec3> random_points(int n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Vec3> pts(static_cast<size_t>(n));
  for (auto& p : pts) p = {rng.uniform(0, 8), rng.uniform(0, 6), rng.uniform(0, 3)};
  return pts;
}

void BM_KnnSelf(benchmark::State& state) {
  const auto pts = random_points(static_cast<int>(state.range(0)), 5);
  for (auto _ : state) {
    auto idx = pcss::pointcloud::knn_self(pts, 12, true);
    benchmark::DoNotOptimize(idx.data());
  }
}

BENCHMARK(BM_KnnSelf)->Arg(512)->Arg(1024)->Arg(2048)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  report_stability();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
