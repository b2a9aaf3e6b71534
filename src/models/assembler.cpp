#include "pcss/models/assembler.h"

#include <algorithm>
#include <cmath>

#include "pcss/tensor/pool.h"
#include "pcss/tensor/ops.h"

namespace pcss::models {

namespace ops = pcss::tensor::ops;
using pcss::pointcloud::BBox;
using pcss::pointcloud::compute_bbox;

std::vector<Vec3> effective_positions(const ModelInput& input) {
  const PointCloud& cloud = *input.cloud;
  std::vector<Vec3> out = cloud.positions;
  if (input.coord_delta.defined()) {
    const float* d = input.coord_delta.data();
    for (size_t i = 0; i < out.size(); ++i) {
      for (int a = 0; a < 3; ++a) out[i][a] += d[i * 3 + static_cast<size_t>(a)];
    }
  }
  return out;
}

AssembledInput assemble_input(const ModelInput& input, CoordConvention convention,
                              bool with_normalized_extra) {
  const PointCloud& cloud = *input.cloud;
  const std::int64_t n = cloud.size();
  const int f = with_normalized_extra ? 9 : 6;
  const BBox box = compute_bbox(cloud.positions);
  const float max_ext = std::max(box.max_extent(), 1e-6f);
  const Vec3 ext = box.extent();

  // Per-axis affine maps for the leading coordinate block.
  Vec3 coord_scale{0, 0, 0}, coord_offset{0, 0, 0};
  switch (convention) {
    case CoordConvention::kZeroToThree:
      for (int a = 0; a < 3; ++a) {
        coord_scale[a] = 3.0f / max_ext;
        coord_offset[a] = -box.min[a] * coord_scale[a];
      }
      break;
    case CoordConvention::kMinusOneToOne:
      for (int a = 0; a < 3; ++a) {
        coord_scale[a] = 2.0f / max_ext;
        coord_offset[a] = -box.center()[a] * coord_scale[a];
      }
      break;
    case CoordConvention::kCentered:
      for (int a = 0; a < 3; ++a) {
        coord_scale[a] = 1.0f;
        coord_offset[a] = -box.center()[a];
      }
      break;
  }

  // Base feature matrix from the raw (unperturbed) cloud, assembled
  // directly in a pooled (32-byte aligned) buffer so from_buffer can
  // adopt it without a copy — this runs on every model forward.
  pcss::tensor::FloatBuffer base =
      pcss::tensor::pool::acquire(static_cast<size_t>(n * f));
  for (std::int64_t i = 0; i < n; ++i) {
    const Vec3& p = cloud.positions[static_cast<size_t>(i)];
    const Vec3& c = cloud.colors[static_cast<size_t>(i)];
    float* row = base.data() + i * f;
    for (int a = 0; a < 3; ++a) row[a] = p[a] * coord_scale[a] + coord_offset[a];
    for (int a = 0; a < 3; ++a) row[3 + a] = c[a];
    if (with_normalized_extra) {
      for (int a = 0; a < 3; ++a) {
        row[6 + a] = (p[a] - box.min[a]) / std::max(ext[a], 1e-6f);
      }
    }
  }
  Tensor features = Tensor::from_buffer({n, f}, std::move(base));
  // A color delta only touches columns 3..5, so without a coordinate delta
  // the positions are sliced before it is spliced in: same values, but no
  // gradient, so a color attack's backward skips the relative-position
  // branches (LocSE, grouping offsets) whose gradient nothing reads.
  const Tensor unperturbed = features;

  // Splice the perturbations in. Color is 1:1; coordinates are scaled by
  // the same affine map as the base block (constants, so gradients are
  // exact).
  if (input.color_delta.defined()) {
    features = ops::scatter_add_cols(features, input.color_delta, 3);
  }
  if (input.coord_delta.defined()) {
    pcss::tensor::FloatBuffer scale_main =
        pcss::tensor::pool::acquire(static_cast<size_t>(n * 3));
    for (std::int64_t i = 0; i < n; ++i) {
      for (int a = 0; a < 3; ++a) scale_main[i * 3 + a] = coord_scale[a];
    }
    Tensor scaled =
        ops::mul(input.coord_delta, Tensor::from_buffer({n, 3}, std::move(scale_main)));
    features = ops::scatter_add_cols(features, scaled, 0);
    if (with_normalized_extra) {
      pcss::tensor::FloatBuffer scale_extra =
          pcss::tensor::pool::acquire(static_cast<size_t>(n * 3));
      for (std::int64_t i = 0; i < n; ++i) {
        for (int a = 0; a < 3; ++a) scale_extra[i * 3 + a] = 1.0f / std::max(ext[a], 1e-6f);
      }
      Tensor scaled_extra =
          ops::mul(input.coord_delta, Tensor::from_buffer({n, 3}, std::move(scale_extra)));
      features = ops::scatter_add_cols(features, scaled_extra, 6);
    }
  }

  AssembledInput out;
  out.features = features;
  out.positions = ops::slice_cols(input.coord_delta.defined() ? features : unperturbed, 0, 3);
  out.feature_count = f;
  out.graph_positions.resize(static_cast<size_t>(n));
  const float* pd = out.positions.data();
  for (std::int64_t i = 0; i < n; ++i) {
    out.graph_positions[static_cast<size_t>(i)] = {pd[i * 3], pd[i * 3 + 1], pd[i * 3 + 2]};
  }
  return out;
}

}  // namespace pcss::models
