#pragma once

#include <vector>

#include "pcss/models/model.h"
#include "pcss/pointcloud/point_cloud.h"
#include "pcss/tensor/ops.h"

namespace pcss::models {

/// The normalization convention a model applies to raw cloud fields
/// (paper §V-A: PointNet++ maps coordinates to [0,3] and color to [0,1];
/// ResGCN-28 maps coordinates to [-1,1]; RandLA-Net recenters them).
enum class CoordConvention {
  kZeroToThree,   ///< (p - min) / max_extent * 3        (PointNet++)
  kMinusOneToOne, ///< (p - center) / (max_extent / 2)   (ResGCN-28)
  kCentered,      ///< p - bbox center, unscaled         (RandLA-Net)
};

/// Differentiable raw-input -> feature-matrix pipeline.
///
/// The result exposes:
///  * `features`   — [N, F] autograd tensor with deltas spliced in,
///  * `positions`  — [N, 3] autograd view of the normalized coordinates
///                   (column slice of `features`), used for relative-
///                   position encodings so coordinate gradients flow; it
///                   carries a gradient only when a coordinate delta is set,
///  * `graph_positions` — plain values of the normalized, perturbed
///                   coordinates, used to (re)build kNN/FPS structures.
///
/// Normalization constants (bbox) are always computed from the *raw*
/// cloud so the pipeline stays affine in the deltas.
struct AssembledInput {
  Tensor features;
  Tensor positions;
  std::vector<Vec3> graph_positions;
  int feature_count = 0;
};

/// Assembles the input for a model with layout
///   [coords(3) | color(3) | extra-normalized coords(3)?]
/// where the trailing block is the S3DIS 9-feature convention
/// (per-axis position in [0,1]); pass with_normalized_extra=false for
/// the 6-feature models.
AssembledInput assemble_input(const ModelInput& input, CoordConvention convention,
                              bool with_normalized_extra);

}  // namespace pcss::models
