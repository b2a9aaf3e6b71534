// SIMD dispatch contract tests: ISA resolution rules, and — the heart of
// the determinism story — byte-for-byte equality of every dispatched
// kernel between the scalar and AVX2 tables, across odd sizes covering
// every tail length 1..7 past the 8-lane width. The file ends with
// whole-model and whole-experiment checks: forward+backward and a full
// runner document must be bit-identical whichever table executed, and a
// result store warmed under one ISA must be a 100% cache hit under the
// other.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <limits>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "pcss/data/indoor.h"
#include "pcss/models/resgcn.h"
#include "pcss/runner/executor.h"
#include "pcss/runner/result_store.h"
#include "pcss/tensor/nn.h"
#include "pcss/tensor/ops.h"
#include "pcss/tensor/pool.h"
#include "pcss/tensor/simd.h"
#include "pcss/tensor/tensor.h"
#include "temp_dir.h"

namespace {

namespace fs = std::filesystem;
namespace simd = pcss::tensor::simd;
namespace ops = pcss::tensor::ops;
using pcss::tensor::FloatBuffer;
using pcss::tensor::Rng;
using pcss::tensor::Tensor;

/// Restores the dispatch table active at construction (tests that force
/// an ISA must not leak it into the rest of the suite).
struct IsaGuard {
  simd::Isa saved = simd::active_isa();
  ~IsaGuard() { simd::force(saved); }
};

/// Deterministic values with sign changes, exact zeros and a spread of
/// magnitudes (so relu masks, max lanes and accumulation chains all see
/// interesting inputs).
std::vector<float> test_values(size_t n, std::uint64_t seed) {
  std::vector<float> out(n);
  std::uint64_t s = seed * 0x9E3779B97F4A7C15ull + 1;
  for (size_t i = 0; i < n; ++i) {
    s ^= s << 13;
    s ^= s >> 7;
    s ^= s << 17;
    const float u = static_cast<float>(s % 20011) / 20011.0f;  // [0, 1)
    float v = (u - 0.5f) * 4.0f;
    if (s % 11 == 0) v = 0.0f;                  // exact zeros
    if (s % 13 == 0) v *= 1e-4f;                // small magnitudes
    if (s % 17 == 0) v *= 64.0f;                // large magnitudes
    out[i] = v;
  }
  return out;
}

bool bytes_equal(const float* a, const float* b, size_t n) {
  return std::memcmp(a, b, n * sizeof(float)) == 0;
}

/// Sizes covering every 8-lane tail 1..7 plus multi-vector lengths.
const std::vector<std::int64_t>& tail_sizes() {
  static const std::vector<std::int64_t> sizes = {1,  2,  3,  4,  5,  6,   7,  8,
                                                  9,  11, 13, 15, 16, 17,  23, 31,
                                                  32, 33, 63, 64, 65, 100, 129};
  return sizes;
}

#define PCSS_REQUIRE_AVX2_TABLE()                                     \
  const simd::Kernels* avx2_ptr = simd::avx2_kernels();               \
  if (avx2_ptr == nullptr) GTEST_SKIP() << "AVX2 unavailable here";   \
  const simd::Kernels& A = *avx2_ptr;                                 \
  const simd::Kernels& S = simd::scalar_kernels()

// ---------------------------------------------------------------------------
// Resolution rules
// ---------------------------------------------------------------------------

TEST(SimdDispatch, ResolveIsaPicksBestWhenUnset) {
  EXPECT_EQ(simd::resolve_isa(nullptr, true), simd::Isa::kAvx2);
  EXPECT_EQ(simd::resolve_isa(nullptr, false), simd::Isa::kScalar);
  EXPECT_EQ(simd::resolve_isa("", true), simd::Isa::kAvx2);
}

TEST(SimdDispatch, ResolveIsaHonorsOverrides) {
  EXPECT_EQ(simd::resolve_isa("scalar", true), simd::Isa::kScalar);
  EXPECT_EQ(simd::resolve_isa("avx2", true), simd::Isa::kAvx2);
  // Requested-but-unsupported downgrades instead of failing, so one CI
  // matrix definition runs on mixed fleets.
  EXPECT_EQ(simd::resolve_isa("avx2", false), simd::Isa::kScalar);
}

TEST(SimdDispatch, ResolveIsaRejectsGarbage) {
  EXPECT_THROW(simd::resolve_isa("sse9", true), std::runtime_error);
  EXPECT_THROW(simd::resolve_isa("AVX2", true), std::runtime_error);
}

TEST(SimdDispatch, TablesReportTheirIsa) {
  EXPECT_STREQ(simd::scalar_kernels().name, "scalar");
  EXPECT_EQ(simd::scalar_kernels().isa, simd::Isa::kScalar);
  const simd::Kernels* avx2 = simd::avx2_kernels();
  if (!simd::cpu_supports_avx2()) {
    EXPECT_EQ(avx2, nullptr);
  } else if (avx2 != nullptr) {
    EXPECT_STREQ(avx2->name, "avx2");
    EXPECT_EQ(avx2->isa, simd::Isa::kAvx2);
  }
  EXPECT_NE(simd::active_name(), nullptr);
}

TEST(SimdDispatch, ForceSwitchesTheActiveTable) {
  IsaGuard guard;
  simd::force(simd::Isa::kScalar);
  EXPECT_STREQ(simd::active_name(), "scalar");
  if (simd::avx2_kernels() != nullptr) {
    simd::force(simd::Isa::kAvx2);
    EXPECT_STREQ(simd::active_name(), "avx2");
  } else {
    EXPECT_THROW(simd::force(simd::Isa::kAvx2), std::runtime_error);
  }
}

// ---------------------------------------------------------------------------
// Per-kernel bit-exactness, scalar vs AVX2
// ---------------------------------------------------------------------------

TEST(SimdBitExact, ElementwiseMaps) {
  PCSS_REQUIRE_AVX2_TABLE();
  for (const std::int64_t n64 : tail_sizes()) {
    const size_t n = static_cast<size_t>(n64);
    const auto a = test_values(n, 1), b = test_values(n, 2);
    std::vector<float> ys(n), ya(n);
    struct Unary {
      void (*s)(const float*, float*, size_t);
      void (*a)(const float*, float*, size_t);
      const char* name;
    };
    const Unary unary[] = {{S.ew_square, A.ew_square, "ew_square"},
                           {S.ew_relu, A.ew_relu, "ew_relu"}};
    for (const auto& k : unary) {
      k.s(a.data(), ys.data(), n);
      k.a(a.data(), ya.data(), n);
      EXPECT_TRUE(bytes_equal(ys.data(), ya.data(), n)) << k.name << " n=" << n;
    }
    struct Binary {
      void (*s)(const float*, const float*, float*, size_t);
      void (*a)(const float*, const float*, float*, size_t);
      const char* name;
    };
    const Binary binary[] = {{S.ew_add, A.ew_add, "ew_add"},
                             {S.ew_sub, A.ew_sub, "ew_sub"},
                             {S.ew_mul, A.ew_mul, "ew_mul"}};
    for (const auto& k : binary) {
      k.s(a.data(), b.data(), ys.data(), n);
      k.a(a.data(), b.data(), ya.data(), n);
      EXPECT_TRUE(bytes_equal(ys.data(), ya.data(), n)) << k.name << " n=" << n;
    }
    S.ew_scale(a.data(), 1.7f, ys.data(), n);
    A.ew_scale(a.data(), 1.7f, ya.data(), n);
    EXPECT_TRUE(bytes_equal(ys.data(), ya.data(), n)) << "ew_scale n=" << n;
    S.ew_add_scalar(a.data(), -0.3f, ys.data(), n);
    A.ew_add_scalar(a.data(), -0.3f, ya.data(), n);
    EXPECT_TRUE(bytes_equal(ys.data(), ya.data(), n)) << "ew_add_scalar n=" << n;
  }
}

TEST(SimdBitExact, ElementwiseAccumulators) {
  PCSS_REQUIRE_AVX2_TABLE();
  for (const std::int64_t n64 : tail_sizes()) {
    const size_t n = static_cast<size_t>(n64);
    const auto g = test_values(n, 3), x = test_values(n, 4), base = test_values(n, 5);
    auto run = [&](auto&& fs, auto&& fa, const char* name) {
      std::vector<float> ys(base), ya(base);
      fs(ys.data());
      fa(ya.data());
      EXPECT_TRUE(bytes_equal(ys.data(), ya.data(), n)) << name << " n=" << n;
    };
    run([&](float* y) { S.acc_add(y, g.data(), n); },
        [&](float* y) { A.acc_add(y, g.data(), n); }, "acc_add");
    run([&](float* y) { S.acc_scalar(y, 0.77f, n); },
        [&](float* y) { A.acc_scalar(y, 0.77f, n); }, "acc_scalar");
    run([&](float* y) { S.acc_axpy(y, g.data(), -1.3f, n); },
        [&](float* y) { A.acc_axpy(y, g.data(), -1.3f, n); }, "acc_axpy");
    run([&](float* y) { S.acc_mul(y, g.data(), x.data(), n); },
        [&](float* y) { A.acc_mul(y, g.data(), x.data(), n); }, "acc_mul");
    run([&](float* y) { S.acc_relu_mask(y, g.data(), x.data(), n); },
        [&](float* y) { A.acc_relu_mask(y, g.data(), x.data(), n); }, "acc_relu_mask");
    run([&](float* y) { S.acc_square_bw(y, g.data(), x.data(), n); },
        [&](float* y) { A.acc_square_bw(y, g.data(), x.data(), n); }, "acc_square_bw");
    run([&](float* y) { S.acc_tanh_bw(y, g.data(), x.data(), n); },
        [&](float* y) { A.acc_tanh_bw(y, g.data(), x.data(), n); }, "acc_tanh_bw");
  }
}

TEST(SimdBitExact, GemmNNAcrossOddShapes) {
  PCSS_REQUIRE_AVX2_TABLE();
  const std::int64_t ns[] = {1, 3, 4, 5, 9};
  const std::int64_t ks[] = {1, 2, 7, 16, 33};
  const std::int64_t ms[] = {1, 3, 7, 8, 13, 16, 24, 33};
  for (const auto n : ns) {
    for (const auto k : ks) {
      for (const auto m : ms) {
        const auto a = test_values(static_cast<size_t>(n * k), 6);
        const auto b = test_values(static_cast<size_t>(k * m), 7);
        const auto c0 = test_values(static_cast<size_t>(n * m), 8);
        std::vector<float> cs(c0), ca(c0);
        S.gemm_nn(a.data(), b.data(), cs.data(), n, k, m);
        A.gemm_nn(a.data(), b.data(), ca.data(), n, k, m);
        EXPECT_TRUE(bytes_equal(cs.data(), ca.data(), cs.size()))
            << "gemm_nn n=" << n << " k=" << k << " m=" << m;
        S.gemm_nn_init(a.data(), b.data(), cs.data(), n, k, m);
        A.gemm_nn_init(a.data(), b.data(), ca.data(), n, k, m);
        EXPECT_TRUE(bytes_equal(cs.data(), ca.data(), cs.size()))
            << "gemm_nn_init n=" << n << " k=" << k << " m=" << m;
        // A reinterpreted as [k, n] (same element count), C is [n, m].
        std::vector<float> ds(c0), da(c0);
        S.gemm_at_b(a.data(), b.data(), ds.data(), k, n, m);
        A.gemm_at_b(a.data(), b.data(), da.data(), k, n, m);
        EXPECT_TRUE(bytes_equal(ds.data(), da.data(), ds.size()))
            << "gemm_at_b k=" << k << " n=" << n << " m=" << m;
      }
    }
  }
}

TEST(SimdBitExact, RowStructuredKernels) {
  PCSS_REQUIRE_AVX2_TABLE();
  for (const std::int64_t c : tail_sizes()) {
    const std::int64_t n = 7;
    const auto x = test_values(static_cast<size_t>(n * c), 9);
    const auto v = test_values(static_cast<size_t>(c), 10);
    const auto col = test_values(static_cast<size_t>(n), 11);
    std::vector<float> ys(static_cast<size_t>(n * c)), ya(ys);
    S.add_rowvec(x.data(), v.data(), ys.data(), n, c);
    A.add_rowvec(x.data(), v.data(), ya.data(), n, c);
    EXPECT_TRUE(bytes_equal(ys.data(), ya.data(), ys.size())) << "add_rowvec c=" << c;
    S.mul_rows(x.data(), col.data(), ys.data(), n, c);
    A.mul_rows(x.data(), col.data(), ya.data(), n, c);
    EXPECT_TRUE(bytes_equal(ys.data(), ya.data(), ys.size())) << "mul_rows c=" << c;
    const auto acc0 = test_values(static_cast<size_t>(c), 12);
    std::vector<float> as(acc0), aa(acc0);
    S.acc_col_sum(as.data(), x.data(), n, c);
    A.acc_col_sum(aa.data(), x.data(), n, c);
    EXPECT_TRUE(bytes_equal(as.data(), aa.data(), as.size())) << "acc_col_sum c=" << c;
    as = acc0;
    aa = acc0;
    const auto g = test_values(static_cast<size_t>(n * c), 13);
    S.acc_col_sum_mul(as.data(), g.data(), x.data(), n, c);
    A.acc_col_sum_mul(aa.data(), g.data(), x.data(), n, c);
    EXPECT_TRUE(bytes_equal(as.data(), aa.data(), as.size()))
        << "acc_col_sum_mul c=" << c;
    std::vector<float> dxs(static_cast<size_t>(n * c), 0.25f), dxa(dxs);
    const auto s1 = test_values(static_cast<size_t>(c), 14);
    S.acc_scaled_rowvec(dxs.data(), g.data(), v.data(), s1.data(), n, c);
    A.acc_scaled_rowvec(dxa.data(), g.data(), v.data(), s1.data(), n, c);
    EXPECT_TRUE(bytes_equal(dxs.data(), dxa.data(), dxs.size()))
        << "acc_scaled_rowvec c=" << c;
  }
}

TEST(SimdBitExact, LaneReductions) {
  PCSS_REQUIRE_AVX2_TABLE();
  for (const std::int64_t n64 : tail_sizes()) {
    const size_t n = static_cast<size_t>(n64);
    const auto a = test_values(n, 15), b = test_values(n, 16);
    const double sum_s = S.reduce_sum_f64(a.data(), n);
    const double sum_a = A.reduce_sum_f64(a.data(), n);
    EXPECT_EQ(std::memcmp(&sum_s, &sum_a, sizeof(double)), 0) << "reduce_sum_f64 n=" << n;
    const float max_s = S.reduce_max(a.data(), n);
    const float max_a = A.reduce_max(a.data(), n);
    EXPECT_TRUE(bytes_equal(&max_s, &max_a, 1)) << "reduce_max n=" << n;
    const float dot_s = S.dot(a.data(), b.data(), n);
    const float dot_a = A.dot(a.data(), b.data(), n);
    EXPECT_TRUE(bytes_equal(&dot_s, &dot_a, 1)) << "dot n=" << n;
  }
  for (const std::int64_t c : tail_sizes()) {
    const std::int64_t n = 5;
    const auto x = test_values(static_cast<size_t>(n * c), 17);
    std::vector<float> ys(static_cast<size_t>(n)), ya(ys);
    S.row_sum(x.data(), ys.data(), n, c);
    A.row_sum(x.data(), ya.data(), n, c);
    EXPECT_TRUE(bytes_equal(ys.data(), ya.data(), ys.size())) << "row_sum c=" << c;
  }
}

TEST(SimdBitExact, SoftmaxFamily) {
  PCSS_REQUIRE_AVX2_TABLE();
  for (const std::int64_t c : tail_sizes()) {
    const std::int64_t n = 6;
    const auto x = test_values(static_cast<size_t>(n * c), 18);
    const auto g = test_values(static_cast<size_t>(n * c), 19);
    std::vector<float> ys(static_cast<size_t>(n * c)), ya(ys);
    S.log_softmax_rows(x.data(), ys.data(), n, c);
    A.log_softmax_rows(x.data(), ya.data(), n, c);
    EXPECT_TRUE(bytes_equal(ys.data(), ya.data(), ys.size()))
        << "log_softmax_rows c=" << c;
    std::vector<float> dxs(static_cast<size_t>(n * c), 0.5f), dxa(dxs);
    S.acc_log_softmax_bw(dxs.data(), g.data(), ys.data(), n, c);
    A.acc_log_softmax_bw(dxa.data(), g.data(), ya.data(), n, c);
    EXPECT_TRUE(bytes_equal(dxs.data(), dxa.data(), dxs.size()))
        << "acc_log_softmax_bw c=" << c;
    // Segment softmax over 3 groups of 2 rows, c channels.
    const std::int64_t nseg = 3, k = 2;
    const auto sx = test_values(static_cast<size_t>(nseg * k * c), 20);
    const auto sg = test_values(static_cast<size_t>(nseg * k * c), 21);
    std::vector<float> sys(sx.size()), sya(sx.size());
    S.segment_softmax(sx.data(), sys.data(), nseg, k, c);
    A.segment_softmax(sx.data(), sya.data(), nseg, k, c);
    EXPECT_TRUE(bytes_equal(sys.data(), sya.data(), sys.size()))
        << "segment_softmax c=" << c;
    std::vector<float> sds(sx.size(), 0.1f), sda(sds);
    S.acc_segment_softmax_bw(sds.data(), sg.data(), sys.data(), nseg, k, c);
    A.acc_segment_softmax_bw(sda.data(), sg.data(), sya.data(), nseg, k, c);
    EXPECT_TRUE(bytes_equal(sds.data(), sda.data(), sds.size()))
        << "acc_segment_softmax_bw c=" << c;
  }
}

TEST(SimdBitExact, FusedModelBlocks) {
  PCSS_REQUIRE_AVX2_TABLE();
  for (const std::int64_t c : tail_sizes()) {
    const std::int64_t n = 6;
    const auto x = test_values(static_cast<size_t>(n * c), 22);
    const auto g = test_values(static_cast<size_t>(n * c), 23);
    auto gamma = test_values(static_cast<size_t>(c), 24);
    const auto beta = test_values(static_cast<size_t>(c), 25);
    const auto mean = test_values(static_cast<size_t>(c), 26);
    auto inv_std = test_values(static_cast<size_t>(c), 27);
    for (auto& v : inv_std) v = 0.5f + (v > 0 ? v : -v);  // positive scales
    std::vector<float> ys(static_cast<size_t>(n * c)), ya(ys);
    std::vector<float> hs(ys), ha(ys);
    S.bn_affine(x.data(), gamma.data(), beta.data(), mean.data(), inv_std.data(),
                ys.data(), hs.data(), n, c);
    A.bn_affine(x.data(), gamma.data(), beta.data(), mean.data(), inv_std.data(),
                ya.data(), ha.data(), n, c);
    EXPECT_TRUE(bytes_equal(ys.data(), ya.data(), ys.size())) << "bn_affine y c=" << c;
    EXPECT_TRUE(bytes_equal(hs.data(), ha.data(), hs.size())) << "bn_affine xhat c=" << c;
    S.bn_relu_eval(x.data(), gamma.data(), beta.data(), mean.data(), inv_std.data(),
                   ys.data(), n, c);
    A.bn_relu_eval(x.data(), gamma.data(), beta.data(), mean.data(), inv_std.data(),
                   ya.data(), n, c);
    EXPECT_TRUE(bytes_equal(ys.data(), ya.data(), ys.size())) << "bn_relu_eval c=" << c;
    // Backward: all-grads and dx-only variants.
    std::vector<float> dxs(static_cast<size_t>(n * c), 0.1f), dxa(dxs);
    std::vector<float> dgs(static_cast<size_t>(c), 0.2f), dga(dgs);
    std::vector<float> dbs(static_cast<size_t>(c), 0.3f), dba(dbs);
    S.acc_bn_relu_eval_bw(dxs.data(), dgs.data(), dbs.data(), g.data(), ys.data(),
                          x.data(), gamma.data(), mean.data(), inv_std.data(), n, c);
    A.acc_bn_relu_eval_bw(dxa.data(), dga.data(), dba.data(), g.data(), ya.data(),
                          x.data(), gamma.data(), mean.data(), inv_std.data(), n, c);
    EXPECT_TRUE(bytes_equal(dxs.data(), dxa.data(), dxs.size())) << "bnre_bw dx c=" << c;
    EXPECT_TRUE(bytes_equal(dgs.data(), dga.data(), dgs.size())) << "bnre_bw dg c=" << c;
    EXPECT_TRUE(bytes_equal(dbs.data(), dba.data(), dbs.size())) << "bnre_bw db c=" << c;
    std::fill(dxs.begin(), dxs.end(), 0.1f);
    dxa = dxs;
    S.acc_bn_relu_eval_bw(dxs.data(), nullptr, nullptr, g.data(), ys.data(), x.data(),
                          gamma.data(), mean.data(), inv_std.data(), n, c);
    A.acc_bn_relu_eval_bw(dxa.data(), nullptr, nullptr, g.data(), ya.data(), x.data(),
                          gamma.data(), mean.data(), inv_std.data(), n, c);
    EXPECT_TRUE(bytes_equal(dxs.data(), dxa.data(), dxs.size()))
        << "bnre_bw dx-only c=" << c;
  }
}

// ---------------------------------------------------------------------------
// Compare-select kernels on special values. Their AVX2 bodies are written
// with intrinsics (compare, select the factor, multiply); these inputs
// catch a body that bit-ANDs the operand with the mask instead (+0.0
// where g * 0.0f gives -0.0, 0 where inf * 0.0f gives NaN) and a compare
// whose NaN behaviour differs from C `>`.
// ---------------------------------------------------------------------------

/// -0.0, +0.0, subnormals, +-inf, quiet and signaling NaN and two
/// ordinary values. A multiply quiets a signaling NaN and a select does
/// not, so it tells `a > 0 ? a : a * slope` from a compare that is true
/// on NaN.
const std::vector<float>& special_values() {
  static const std::vector<float> values = {
      -0.0f,
      0.0f,
      std::numeric_limits<float>::denorm_min(),
      -std::numeric_limits<float>::denorm_min(),
      1e-39f,  // subnormal
      std::numeric_limits<float>::infinity(),
      -std::numeric_limits<float>::infinity(),
      std::numeric_limits<float>::quiet_NaN(),
      std::numeric_limits<float>::signaling_NaN(),
      1.5f,
      -2.5f};
  return values;
}

/// Element i of a sequence that pairs every special value with every
/// other one: first[i] cycles fastest, second[i] advances every cycle.
float special_first(size_t i) {
  const auto& s = special_values();
  return s[i % s.size()];
}
float special_second(size_t i) {
  const auto& s = special_values();
  return s[(i / s.size()) % s.size()];
}

TEST(SimdBitExact, CompareSelectSpecialValues) {
  PCSS_REQUIRE_AVX2_TABLE();
  for (const std::int64_t n64 : tail_sizes()) {
    const size_t n = static_cast<size_t>(n64);
    std::vector<float> g(n), ref(n);
    for (size_t i = 0; i < n; ++i) {
      g[i] = special_first(i);
      ref[i] = special_second(i);
    }
    // -0.0 accumulators: y + (-0.0) keeps the sign only when the product
    // really is -0.0, so a +0.0 from a masked-out operand shows.
    auto run = [&](auto&& fs, auto&& fa, const char* name) {
      std::vector<float> ys(n, -0.0f), ya(n, -0.0f);
      fs(ys.data());
      fa(ya.data());
      EXPECT_TRUE(bytes_equal(ys.data(), ya.data(), n)) << name << " n=" << n;
    };
    run([&](float* y) { S.acc_relu_mask(y, g.data(), ref.data(), n); },
        [&](float* y) { A.acc_relu_mask(y, g.data(), ref.data(), n); }, "acc_relu_mask");
  }
}

TEST(SimdBitExact, BnReluBackwardSpecialValues) {
  PCSS_REQUIRE_AVX2_TABLE();
  for (const std::int64_t c : tail_sizes()) {
    const std::int64_t n = 6, special_row = 2;
    const size_t nc = static_cast<size_t>(n * c);
    // The mask reference (forward output) is special everywhere; the
    // gradient only in one row, so each dgamma/dbeta column chain meets
    // at most one NaN and the result does not hinge on which operand's
    // NaN payload an add keeps.
    auto g = test_values(nc, 30);
    std::vector<float> y(nc);
    for (size_t i = 0; i < nc; ++i) y[i] = special_first(i);
    for (std::int64_t j = 0; j < c; ++j) {
      g[static_cast<size_t>(special_row * c + j)] = special_first(static_cast<size_t>(j));
      y[static_cast<size_t>(special_row * c + j)] = special_second(static_cast<size_t>(j));
    }
    const auto x = test_values(nc, 31);
    const auto gamma = test_values(static_cast<size_t>(c), 32);
    const auto mean = test_values(static_cast<size_t>(c), 33);
    auto inv_std = test_values(static_cast<size_t>(c), 34);
    for (auto& v : inv_std) v = 0.5f + (v > 0 ? v : -v);
    std::vector<float> dxs(nc, -0.0f), dxa(dxs);
    std::vector<float> dgs(static_cast<size_t>(c), 0.2f), dga(dgs);
    std::vector<float> dbs(static_cast<size_t>(c), -0.0f), dba(dbs);
    S.acc_bn_relu_eval_bw(dxs.data(), dgs.data(), dbs.data(), g.data(), y.data(), x.data(),
                          gamma.data(), mean.data(), inv_std.data(), n, c);
    A.acc_bn_relu_eval_bw(dxa.data(), dga.data(), dba.data(), g.data(), y.data(), x.data(),
                          gamma.data(), mean.data(), inv_std.data(), n, c);
    EXPECT_TRUE(bytes_equal(dxs.data(), dxa.data(), nc)) << "bnre_bw dx c=" << c;
    EXPECT_TRUE(bytes_equal(dgs.data(), dga.data(), dgs.size())) << "bnre_bw dg c=" << c;
    EXPECT_TRUE(bytes_equal(dbs.data(), dba.data(), dbs.size())) << "bnre_bw db c=" << c;
    std::fill(dxs.begin(), dxs.end(), -0.0f);
    dxa = dxs;
    S.acc_bn_relu_eval_bw(dxs.data(), nullptr, nullptr, g.data(), y.data(), x.data(),
                          gamma.data(), mean.data(), inv_std.data(), n, c);
    A.acc_bn_relu_eval_bw(dxa.data(), nullptr, nullptr, g.data(), y.data(), x.data(),
                          gamma.data(), mean.data(), inv_std.data(), n, c);
    EXPECT_TRUE(bytes_equal(dxs.data(), dxa.data(), nc)) << "bnre_bw dx-only c=" << c;
  }
}

// ---------------------------------------------------------------------------
// The in-source exp and the attentive-pooling kernels built on it
// ---------------------------------------------------------------------------

/// |got - ref| in units of the float spacing at ref (ref a normal float).
double ulp_error(float got, double ref) {
  int exponent = 0;
  std::frexp(ref, &exponent);  // ref = m * 2^exponent, m in [0.5, 1)
  return std::abs(static_cast<double>(got) - ref) / std::ldexp(1.0, exponent - 24);
}

/// The tables present in this binary: scalar, and AVX2 when available.
std::vector<const simd::Kernels*> available_tables() {
  std::vector<const simd::Kernels*> tables{&simd::scalar_kernels()};
  if (simd::avx2_kernels() != nullptr) tables.push_back(simd::avx2_kernels());
  return tables;
}

TEST(SimdExp, WithinOneUlpOfDoubleExpOnNonPositiveRange) {
  // Every 997th float of [-87, 0] (over a million arguments, every
  // exponent of the range), against exp in double.
  std::vector<float> x;
  for (std::uint32_t bits = 0x80000000u; bits <= std::bit_cast<std::uint32_t>(-87.0f);
       bits += 997) {
    x.push_back(std::bit_cast<float>(bits));
  }
  x.push_back(-87.0f);
  for (const simd::Kernels* table : available_tables()) {
    std::vector<float> y(x.size());
    table->ew_exp_nonpos(x.data(), y.data(), x.size());
    double worst = 0.0;
    float worst_x = 0.0f;
    for (size_t i = 0; i < x.size(); ++i) {
      const double err = ulp_error(y[i], std::exp(static_cast<double>(x[i])));
      if (err > worst) {
        worst = err;
        worst_x = x[i];
      }
    }
    EXPECT_LE(worst, 1.0) << table->name << ": worst at x = " << worst_x;
  }
}

TEST(SimdExp, ExactAtZeroClampedBelowAndNanPropagates) {
  const float inf = std::numeric_limits<float>::infinity();
  const float lo = std::log(std::numeric_limits<float>::min());  // ln(2^-126)
  const std::vector<float> x = {0.0f,  -0.0f, -std::numeric_limits<float>::denorm_min(),
                                lo,    -87.5f, -100.0f,
                                -1e30f, -inf,  std::numeric_limits<float>::quiet_NaN(),
                                std::numeric_limits<float>::signaling_NaN()};
  for (const simd::Kernels* table : available_tables()) {
    std::vector<float> y(x.size());
    table->ew_exp_nonpos(x.data(), y.data(), x.size());
    EXPECT_EQ(y[0], 1.0f) << table->name;
    EXPECT_EQ(y[1], 1.0f) << table->name;
    EXPECT_EQ(y[2], 1.0f) << table->name;
    // The clamp: every argument at or below ln(2^-126) gives the same
    // smallest-normal-sized value, positive and within 1 ulp of exp(lo).
    EXPECT_LE(ulp_error(y[3], std::exp(static_cast<double>(lo))), 1.0) << table->name;
    for (size_t i = 4; i < 8; ++i) {
      EXPECT_EQ(y[i], y[3]) << table->name << " x = " << x[i];
      EXPECT_GT(y[i], 0.0f) << table->name << " x = " << x[i];
    }
    EXPECT_TRUE(std::isnan(y[8])) << table->name;
    EXPECT_TRUE(std::isnan(y[9])) << table->name;
  }
}

/// Channel widths of the attentive-pooling and neighbor_linear rows: one
/// lane, a partial vector, one vector, one vector plus a tail, and the
/// widths RandLA-Net runs.
const std::vector<std::int64_t>& pool_widths() {
  static const std::vector<std::int64_t> widths = {1, 7, 8, 9, 32, 64};
  return widths;
}

TEST(SimdBitExact, ExpKernel) {
  PCSS_REQUIRE_AVX2_TABLE();
  for (const std::int64_t n64 : tail_sizes()) {
    const size_t n = static_cast<size_t>(n64);
    auto x = test_values(n, 40);
    for (size_t i = 0; i < n; ++i) {
      x[i] = -std::abs(x[i]) * 8.0f;  // the kernel's domain, down to -1024
      if (i % 5 == 3) x[i] = special_first(i) > 0.0f ? -special_first(i) : special_first(i);
    }
    std::vector<float> ys(n), ya(n);
    S.ew_exp_nonpos(x.data(), ys.data(), n);
    A.ew_exp_nonpos(x.data(), ya.data(), n);
    EXPECT_TRUE(bytes_equal(ys.data(), ya.data(), n)) << "ew_exp_nonpos n=" << n;
  }
}

TEST(SimdBitExact, AttentivePool) {
  PCSS_REQUIRE_AVX2_TABLE();
  for (const std::int64_t k : {1, 3, 12}) {
    for (const std::int64_t c : pool_widths()) {
      // Groups 0-1 ordinary; group 2 carries one special score per
      // channel, group 3 one special feature, group 4 a special dout: each
      // (group, channel) chain meets at most one special value, so the
      // result does not hinge on which NaN payload an operation keeps.
      const std::int64_t n = 5;
      const size_t rows = static_cast<size_t>(n * k * c);
      auto g = test_values(rows, 41);
      auto s = test_values(rows, 42);
      auto dout = test_values(static_cast<size_t>(n * c), 43);
      for (std::int64_t j = 0; j < c; ++j) {
        const std::int64_t r = j % k;
        s[static_cast<size_t>((2 * k + r) * c + j)] = special_first(static_cast<size_t>(j));
        g[static_cast<size_t>((3 * k + r) * c + j)] = special_first(static_cast<size_t>(j));
        dout[static_cast<size_t>(4 * c + j)] = special_first(static_cast<size_t>(j));
      }
      std::vector<float> att_s(rows), att_a(rows);
      std::vector<float> out_s(static_cast<size_t>(n * c)), out_a(out_s);
      S.attentive_pool(g.data(), s.data(), att_s.data(), out_s.data(), n, k, c);
      A.attentive_pool(g.data(), s.data(), att_a.data(), out_a.data(), n, k, c);
      EXPECT_TRUE(bytes_equal(att_s.data(), att_a.data(), rows)) << "att k=" << k << " c=" << c;
      EXPECT_TRUE(bytes_equal(out_s.data(), out_a.data(), out_s.size()))
          << "out k=" << k << " c=" << c;
      // Backward: both grads, dg only, ds only.
      for (const int which : {0, 1, 2}) {
        std::vector<float> dgs(rows, 0.25f), dga(dgs), dss(rows, -0.5f), dsa(dss);
        float* dg_s = which == 2 ? nullptr : dgs.data();
        float* dg_a = which == 2 ? nullptr : dga.data();
        float* ds_s = which == 1 ? nullptr : dss.data();
        float* ds_a = which == 1 ? nullptr : dsa.data();
        S.acc_attentive_pool_bw(dg_s, ds_s, dout.data(), g.data(), att_s.data(), n, k, c);
        A.acc_attentive_pool_bw(dg_a, ds_a, dout.data(), g.data(), att_s.data(), n, k, c);
        EXPECT_TRUE(bytes_equal(dgs.data(), dga.data(), rows))
            << "dg k=" << k << " c=" << c << " case " << which;
        EXPECT_TRUE(bytes_equal(dss.data(), dsa.data(), rows))
            << "ds k=" << k << " c=" << c << " case " << which;
      }
    }
  }
}

TEST(SimdBitExact, NeighborLinearAcrossIsas) {
  if (simd::avx2_kernels() == nullptr) GTEST_SKIP() << "AVX2 unavailable here";
  IsaGuard guard;
  const float inf = std::numeric_limits<float>::infinity();
  for (const std::int64_t c : pool_widths()) {
    // x [E, c], h [N, c + 1], w [2c + 1, c]. Specials without NaN inputs
    // (so every NaN is the one default NaN an invalid operation makes):
    // one row of x and one row of h carry +-inf, -0.0, a subnormal and a
    // huge value, and the special x row gathers an ordinary h row.
    const std::int64_t e = 12, nh = 5, ch = c + 1;
    std::vector<std::int64_t> idx(static_cast<size_t>(e));
    for (std::int64_t r = 0; r < e; ++r) idx[static_cast<size_t>(r)] = (r * 3 + 1) % nh;
    const std::vector<float> specials = {inf, -inf, -0.0f, 1e-39f, 3e38f};
    auto run = [&](simd::Isa isa) {
      simd::force(isa);
      auto xv = test_values(static_cast<size_t>(e * c), 44);
      auto hv = test_values(static_cast<size_t>(nh * ch), 45);
      for (std::int64_t t = 0; t < c; ++t) {
        xv[static_cast<size_t>(2 * c + t)] = specials[static_cast<size_t>(t) % specials.size()];
      }
      for (std::int64_t t = 0; t < ch; ++t) {
        hv[static_cast<size_t>(3 * ch + t)] = specials[static_cast<size_t>(t) % specials.size()];
      }
      Tensor x = Tensor::from_data({e, c}, xv);
      Tensor h = Tensor::from_data({nh, ch}, hv);
      Tensor w = Tensor::from_data({c + ch, c}, test_values(static_cast<size_t>((c + ch) * c), 46));
      Tensor b = Tensor::from_data({c}, test_values(static_cast<size_t>(c), 47));
      for (Tensor* t : {&x, &h, &w, &b}) t->set_requires_grad(true);
      Tensor y = ops::neighbor_linear(x, h, w, b, idx);
      const Tensor gw = Tensor::from_data({e, c}, test_values(static_cast<size_t>(e * c), 48));
      ops::sum(ops::mul(y, gw)).backward();
      std::vector<float> out(y.data(), y.data() + y.numel());
      for (const Tensor* t : {&x, &h, &w, &b}) {
        out.insert(out.end(), t->grad().begin(), t->grad().end());
      }
      return out;
    };
    ASSERT_EQ(idx[2], 2);  // the special x row gathers an ordinary h row
    const auto scalar_out = run(simd::Isa::kScalar);
    const auto avx2_out = run(simd::Isa::kAvx2);
    ASSERT_EQ(scalar_out.size(), avx2_out.size());
    EXPECT_TRUE(bytes_equal(scalar_out.data(), avx2_out.data(), scalar_out.size()))
        << "neighbor_linear c=" << c;
  }
}

/// The pre-kernel segment_max loop (j outer, r ascending, strict `>`).
void segment_max_reference(const float* x, float* out, std::int64_t* arg, std::int64_t n,
                           std::int64_t k, std::int64_t c) {
  for (std::int64_t i = 0; i < n; ++i) {
    for (std::int64_t j = 0; j < c; ++j) {
      float best = x[(i * k) * c + j];
      std::int64_t best_r = 0;
      for (std::int64_t r = 1; r < k; ++r) {
        const float v = x[(i * k + r) * c + j];
        if (v > best) {
          best = v;
          best_r = r;
        }
      }
      out[i * c + j] = best;
      arg[i * c + j] = best_r;
    }
  }
}

TEST(SimdBitExact, SegmentMax) {
  PCSS_REQUIRE_AVX2_TABLE();
  const float nan = std::numeric_limits<float>::quiet_NaN();
  for (const std::int64_t k : {1, 3, 12}) {
    for (const std::int64_t c : tail_sizes()) {
      // Groups: 0 random, 1 all rows equal (r = 0 must win), 2 the max
      // appears at r = 1 and again at the last row (r = 1 must win),
      // 3 NaN at r = 0 in even columns and mid-group in odd columns,
      // 4 -0.0 at r = 0 then +0.0 (not greater: -0.0 stays, arg 0).
      const std::int64_t n = 5;
      auto x = test_values(static_cast<size_t>(n * k * c), 35 + static_cast<std::uint64_t>(k));
      auto at = [&](std::int64_t i, std::int64_t r, std::int64_t j) -> float& {
        return x[static_cast<size_t>((i * k + r) * c + j)];
      };
      for (std::int64_t j = 0; j < c; ++j) {
        for (std::int64_t r = 0; r < k; ++r) at(1, r, j) = at(1, 0, j);
        if (k > 1) {
          at(2, 1, j) = 1000.0f;
          at(2, k - 1, j) = 1000.0f;
        }
        at(3, j % 2 == 0 ? 0 : k / 2, j) = nan;
        for (std::int64_t r = 0; r < k; ++r) at(4, r, j) = r == 0 ? -0.0f : 0.0f;
      }
      const size_t nc = static_cast<size_t>(n * c);
      std::vector<float> vr(nc), vs(nc), va(nc);
      std::vector<std::int64_t> ar(nc), as(nc, -1), aa(nc, -1);
      segment_max_reference(x.data(), vr.data(), ar.data(), n, k, c);
      S.segment_max(x.data(), vs.data(), as.data(), n, k, c);
      A.segment_max(x.data(), va.data(), aa.data(), n, k, c);
      EXPECT_TRUE(bytes_equal(vr.data(), vs.data(), nc)) << "scalar k=" << k << " c=" << c;
      EXPECT_TRUE(bytes_equal(vr.data(), va.data(), nc)) << "avx2 k=" << k << " c=" << c;
      EXPECT_EQ(ar, as) << "scalar arg k=" << k << " c=" << c;
      EXPECT_EQ(ar, aa) << "avx2 arg k=" << k << " c=" << c;
      if (k > 1) {
        EXPECT_EQ(ar[static_cast<size_t>(1 * c)], 0) << "tie: first r wins";
        EXPECT_EQ(ar[static_cast<size_t>(2 * c)], 1) << "repeated max: first r wins";
      }
    }
  }
}

TEST(SimdBitExact, EdgeConvMax) {
  PCSS_REQUIRE_AVX2_TABLE();
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float inf = std::numeric_limits<float>::infinity();
  for (const std::int64_t k : {1, 3, 12}) {
    for (const std::int64_t c : tail_sizes()) {
      const std::int64_t n = 5;
      const size_t nc = static_cast<size_t>(n * c);
      auto p = test_values(nc, 60 + static_cast<std::uint64_t>(k));
      const auto q = test_values(nc, 61);
      const auto bias = test_values(static_cast<size_t>(c), 62);
      const auto gamma = test_values(static_cast<size_t>(c), 63);
      const auto beta = test_values(static_cast<size_t>(c), 64);
      const auto mean = test_values(static_cast<size_t>(c), 65);
      auto inv_std = test_values(static_cast<size_t>(c), 66);
      for (auto& v : inv_std) v = 0.5f + (v > 0 ? v : -v);
      // Point 1 is non-finite (its messages all clamp to 0 or saturate);
      // every center repeats a neighbor, so every group has a tie.
      for (std::int64_t j = 0; j < c; ++j) p[static_cast<size_t>(c + j)] = j % 2 ? nan : -inf;
      std::vector<std::int64_t> idx(static_cast<size_t>(n * k));
      for (size_t e = 0; e < idx.size(); ++e) idx[e] = static_cast<std::int64_t>((e * 7 + 3) % n);
      for (std::int64_t i = 0; i < n && k > 2; ++i) idx[i * k + 2] = idx[i * k];
      for (const bool with_bias : {true, false}) {
        // The chain: gather-add, bias, bn_relu_eval, segment_max.
        std::vector<float> edge(static_cast<size_t>(n * k * c));
        for (std::int64_t e = 0; e < n * k; ++e) {
          for (std::int64_t j = 0; j < c; ++j) {
            edge[e * c + j] = p[(e / k) * c + j] + q[idx[e] * c + j];
          }
        }
        if (with_bias) S.add_rowvec(edge.data(), bias.data(), edge.data(), n * k, c);
        S.bn_relu_eval(edge.data(), gamma.data(), beta.data(), mean.data(), inv_std.data(),
                       edge.data(), n * k, c);
        std::vector<float> vr(nc);
        std::vector<std::int64_t> ar(nc);
        segment_max_reference(edge.data(), vr.data(), ar.data(), n, k, c);
        const float* b = with_bias ? bias.data() : nullptr;
        std::vector<float> vs(nc), va(nc), as(nc, -1.0f), aa(nc, -1.0f);
        S.edge_conv_max(p.data(), q.data(), b, idx.data(), gamma.data(), beta.data(),
                        mean.data(), inv_std.data(), vs.data(), as.data(), n, k, c);
        A.edge_conv_max(p.data(), q.data(), b, idx.data(), gamma.data(), beta.data(),
                        mean.data(), inv_std.data(), va.data(), aa.data(), n, k, c);
        const std::string where = "k=" + std::to_string(k) + " c=" + std::to_string(c) +
                                  " bias=" + std::to_string(with_bias);
        EXPECT_TRUE(bytes_equal(vr.data(), vs.data(), nc)) << "scalar " << where;
        EXPECT_TRUE(bytes_equal(vs.data(), va.data(), nc)) << "avx2 " << where;
        EXPECT_TRUE(bytes_equal(as.data(), aa.data(), nc)) << "avx2 arg " << where;
        for (size_t e = 0; e < nc; ++e) {
          ASSERT_EQ(static_cast<float>(ar[e]), as[e]) << "scalar arg " << where;
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Whole-model and whole-experiment determinism across the dispatch paths
// ---------------------------------------------------------------------------

TEST(SimdBitExact, MlpForwardBackwardAcrossIsas) {
  if (simd::avx2_kernels() == nullptr) GTEST_SKIP() << "AVX2 unavailable here";
  IsaGuard guard;
  auto run = [](simd::Isa isa) {
    simd::force(isa);
    Rng rng(97);
    pcss::tensor::nn::Mlp mlp({9, 33, 17, 13}, rng);
    Tensor x = Tensor::uniform({21, 9}, rng, -1.0f, 1.0f);
    x.set_requires_grad(true);
    Tensor logits = mlp.forward(x, /*training=*/false);
    Tensor probs = ops::log_softmax_rows(logits);
    Tensor loss = ops::scale(ops::sum(probs), 1.0f / static_cast<float>(probs.numel()));
    loss.backward();
    std::vector<float> out(logits.data(), logits.data() + logits.numel());
    out.insert(out.end(), x.grad().begin(), x.grad().end());
    out.push_back(loss.item());
    return out;
  };
  const auto scalar_out = run(simd::Isa::kScalar);
  const auto avx2_out = run(simd::Isa::kAvx2);
  ASSERT_EQ(scalar_out.size(), avx2_out.size());
  EXPECT_TRUE(bytes_equal(scalar_out.data(), avx2_out.data(), scalar_out.size()))
      << "MLP forward+backward must be bit-identical across dispatch paths";
}

/// Tiny untrained model provider (mirrors the runner tests' fixture).
class TinyProvider : public pcss::runner::ModelProvider {
 public:
  TinyProvider() {
    pcss::models::ResGCNConfig config;
    config.num_classes = pcss::data::kIndoorNumClasses;
    config.channels = 8;
    config.blocks = 1;
    Rng init(31);
    model_ = std::make_shared<pcss::models::ResGCNSeg>(config, init);
  }
  std::shared_ptr<pcss::runner::SegmentationModel> model(pcss::runner::ModelId) override {
    return model_;
  }
  std::string model_fingerprint(pcss::runner::ModelId) override {
    return "tiny-weights-v1";
  }
  std::vector<pcss::runner::PointCloud> scenes(pcss::runner::Dataset, int count,
                                               std::uint64_t seed) override {
    pcss::data::IndoorSceneGenerator gen({.num_points = 96});
    Rng rng(seed);
    std::vector<pcss::runner::PointCloud> out;
    for (int i = 0; i < count; ++i) out.push_back(gen.generate(rng));
    return out;
  }

 private:
  std::shared_ptr<pcss::runner::SegmentationModel> model_;
};

pcss::runner::ExperimentSpec tiny_spec() {
  pcss::runner::ExperimentSpec spec;
  spec.name = "simd-identity";
  spec.title = "dispatch-path identity fixture";
  spec.models = {pcss::runner::ModelId::kResGCNIndoor};
  spec.scene_seed = 777;
  pcss::runner::AttackVariant bounded;
  bounded.label = "bounded";
  bounded.config.norm = pcss::core::AttackNorm::kBounded;
  bounded.config.field = pcss::core::AttackField::kColor;
  spec.variants.push_back(bounded);
  return spec;
}

pcss::runner::RunOptions tiny_options() {
  pcss::runner::RunOptions options;
  options.scale.scenes = 2;
  options.scale.pgd_steps = 3;
  options.scale.cw_steps = 3;
  options.fast = true;
  options.num_threads = 1;
  options.shard_size = 2;
  return options;
}

TEST(SimdBitExact, RunnerDocumentBytesAndWarmCacheAcrossIsas) {
  if (simd::avx2_kernels() == nullptr) GTEST_SKIP() << "AVX2 unavailable here";
  IsaGuard guard;
  const pcss::testing::TempDir tmp;
  const std::string root = tmp.path();

  TinyProvider provider;
  const auto spec = tiny_spec();
  const auto options = tiny_options();

  // Fresh stores: the document bytes must not depend on the dispatch path.
  simd::force(simd::Isa::kScalar);
  pcss::runner::ResultStore scalar_store(root + "/scalar");
  const auto scalar_run = pcss::runner::run_spec(spec, provider, scalar_store, options);
  simd::force(simd::Isa::kAvx2);
  pcss::runner::ResultStore avx2_store(root + "/avx2");
  const auto avx2_run = pcss::runner::run_spec(spec, provider, avx2_store, options);
  EXPECT_GT(scalar_run.attack_steps, 0);
  EXPECT_EQ(scalar_run.json, avx2_run.json)
      << "result documents must be byte-identical under scalar and avx2";

  // Warm store: a store written under scalar must be a 100% cache hit
  // when read back under avx2 (zero attack steps executed).
  const auto warm = pcss::runner::run_spec(spec, provider, scalar_store, options);
  EXPECT_EQ(warm.attack_steps, 0)
      << "avx2 rerun over a scalar-warmed store must be a pure cache hit";
  EXPECT_EQ(warm.json, scalar_run.json);
}

// ---------------------------------------------------------------------------
// Pool alignment contract
// ---------------------------------------------------------------------------

bool aligned32(const float* p) {
  return reinterpret_cast<std::uintptr_t>(p) % 32 == 0;
}

TEST(PoolAlignment, FreshAndRecycledBuffersAre32ByteAligned) {
  namespace pool = pcss::tensor::pool;
  for (size_t n : {1ul, 7ul, 63ul, 64ul, 65ul, 1000ul, 5000ul}) {
    FloatBuffer buf = pool::acquire(n);
    ASSERT_TRUE(aligned32(buf.data())) << "fresh buffer n=" << n;
    pool::release(std::move(buf));
    FloatBuffer recycled = pool::acquire(n);
    EXPECT_TRUE(aligned32(recycled.data())) << "recycled buffer n=" << n;
    pool::release(std::move(recycled));
  }
}

TEST(PoolAlignment, TensorStorageIs32ByteAligned) {
  Tensor z = Tensor::zeros({17, 3});
  EXPECT_TRUE(aligned32(z.data()));
  Tensor d = Tensor::from_data({5}, {1, 2, 3, 4, 5});
  EXPECT_TRUE(aligned32(d.data()));
  d.set_requires_grad(true);
  Tensor loss = ops::sum(ops::square(d));
  loss.backward();
  EXPECT_TRUE(aligned32(d.grad().data()));
}

}  // namespace
