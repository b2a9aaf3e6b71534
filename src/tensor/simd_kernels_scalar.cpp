// Baseline (scalar / compiler-default SSE2) instantiation of the shared
// kernel source. This table is always present: it is the determinism
// reference the AVX2 build must match bit-for-bit, and the fallback on
// CPUs without AVX2.
#include <algorithm>
#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>

#include "pcss/tensor/simd.h"

#define PCSS_SIMD_NS scalar_impl
#include "simd_kernels.inc"
#undef PCSS_SIMD_NS

namespace pcss::tensor::simd::detail {

const Kernels& scalar_table() {
  static const Kernels table =
      pcss::tensor::simd::scalar_impl::build_table("scalar", Isa::kScalar);
  return table;
}

}  // namespace pcss::tensor::simd::detail
