// AVX2 instantiation of the shared kernel source. CMake compiles this
// one translation unit with -mavx2 (when the compiler supports it), so
// the identical source vectorizes 8-wide; nothing else in the library
// may be built with AVX2 flags, or baseline CPUs could fault in shared
// inline code. No FMA: -ffp-contract=off plus explicit mul+add keeps
// every chain bit-identical to the scalar table.
//
// The table constructor itself may contain AVX2 instructions, so it must
// only run behind a cpuid check — simd.cpp guards every path to
// avx2_table() with cpu_supports_avx2().
#include "pcss/tensor/simd.h"

#if defined(__AVX2__)

#include <immintrin.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>

#define PCSS_SIMD_IS_AVX2 1
#define PCSS_SIMD_NS avx2_impl
#include "simd_kernels.inc"
#undef PCSS_SIMD_NS

namespace pcss::tensor::simd::detail {

const Kernels* avx2_table() {
  static const Kernels table =
      pcss::tensor::simd::avx2_impl::build_table("avx2", Isa::kAvx2);
  return &table;
}

}  // namespace pcss::tensor::simd::detail

#else  // !__AVX2__: compiler could not target AVX2; the dispatcher sees null.

namespace pcss::tensor::simd::detail {

const Kernels* avx2_table() { return nullptr; }

}  // namespace pcss::tensor::simd::detail

#endif
