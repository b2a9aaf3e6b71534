// Buffer-pool and autograd-lifetime contract tests: size-class reuse,
// zeroed grad buffers despite recycling, graph release inside backward(),
// steady-state (flat) pool counters across a long attack-style loop, and
// no cross-thread aliasing under concurrent graph construction.
#include <gtest/gtest.h>

#include <memory>
#include <thread>
#include <vector>

#include "pcss/tensor/ops.h"
#include "pcss/tensor/pool.h"
#include "pcss/tensor/tensor.h"

namespace ops = pcss::tensor::ops;
namespace pool = pcss::tensor::pool;
using pcss::tensor::Rng;
using pcss::tensor::Tensor;
using pcss::tensor::TensorImpl;

namespace {

// The steady-state property is reached within a handful of steps; the
// long loop exists to catch slow drift. Under ThreadSanitizer (~20x
// slowdown; the tsan preset defines PCSS_TSAN) a shorter loop checks the
// same invariant without dominating the CI job's wall-clock.
#if defined(PCSS_TSAN) || defined(__SANITIZE_THREAD__)
constexpr int kSteadyStateSteps = 100;
#else
constexpr int kSteadyStateSteps = 1000;
#endif

TEST(BufferPool, SizeClassReuse) {
  pool::trim();
  pool::reset_stats();
  {
    pcss::tensor::FloatBuffer a = pool::acquire(100);
    EXPECT_EQ(a.size(), 100u);
    EXPECT_GE(a.capacity(), 128u) << "buffers are padded to their size class";
    pool::release(std::move(a));
  }
  EXPECT_EQ(pool::stats().releases, 1u);
  EXPECT_EQ(pool::stats().cached_buffers, 1u);
  // A different size in the same class (65..128 floats) reuses the buffer.
  pcss::tensor::FloatBuffer b = pool::acquire(80);
  EXPECT_EQ(b.size(), 80u);
  EXPECT_EQ(pool::stats().hits, 1u);
  EXPECT_EQ(pool::stats().cached_buffers, 0u);
  pool::release(std::move(b));
}

TEST(BufferPool, GradBuffersComeBackZeroed) {
  // Dirty the pool with nonzero grad buffers...
  {
    Tensor x = Tensor::full({64}, 2.0f);
    x.set_requires_grad(true);
    ops::sum(ops::mul(x, x)).backward();
    EXPECT_NE(x.grad()[0], 0.0f);
  }  // x dies; its (nonzero) grad buffer returns to the pool
  // ...then verify a recycled grad buffer reads zero before any backward.
  Tensor z = Tensor::full({64}, 1.0f);
  z.set_requires_grad(true);
  for (float g : z.grad_ref()) EXPECT_EQ(g, 0.0f);
}

TEST(BufferPool, BackwardReleasesGraphEarly) {
  Tensor x = Tensor::from_data({4}, {1, 2, 3, 4});
  x.set_requires_grad(true);
  Tensor y = ops::scale(x, 2.0f);
  Tensor loss = ops::sum(y);
  std::weak_ptr<TensorImpl> intermediate = y.impl();
  y = Tensor();  // only the graph keeps the scale node alive now
  EXPECT_FALSE(intermediate.expired());
  loss.backward();
  EXPECT_TRUE(intermediate.expired())
      << "backward() must drop graph edges so intermediates die immediately";
  EXPECT_FLOAT_EQ(x.grad()[0], 2.0f);
  // Externally-held nodes keep their value but stop pinning the subgraph.
  Tensor held = ops::scale(x, 3.0f);
  Tensor root = ops::sum(held);
  root.backward();
  EXPECT_FLOAT_EQ(held.at(1), 6.0f);
  EXPECT_TRUE(held.impl()->parents.empty());
  EXPECT_EQ(held.impl()->op, pcss::tensor::Op::kNone);
}

/// One attack-style step: fresh delta leaf, forward-ish chain, scalar
/// loss, backward. Mirrors the allocation pattern of the engine loop.
void attack_like_step(const Tensor& weights) {
  Tensor delta = Tensor::zeros({96, 3});
  delta.set_requires_grad(true);
  Tensor h = ops::matmul(delta, weights);           // [96, 8]
  h = ops::relu(h);
  Tensor pooled = ops::segment_max(h, 4);           // [24, 8]
  Tensor loss = ops::sum(ops::square(pooled));
  loss.backward();
  ASSERT_FALSE(delta.grad().empty());
}

TEST(BufferPool, SteadyStateFlatAcrossStepLoop) {
  Rng rng(7);
  Tensor weights = Tensor::randn({3, 8}, rng);
  weights.set_requires_grad(true);
  for (int i = 0; i < 10; ++i) attack_like_step(weights);  // warm the pool
  weights.zero_grad();
  const pool::Stats warm = pool::stats();
  pool::reset_stats();
  for (int i = 0; i < kSteadyStateSteps; ++i) attack_like_step(weights);
  const pool::Stats after = pool::stats();
  EXPECT_EQ(after.cached_buffers, warm.cached_buffers)
      << "pool must not grow once the step loop reaches steady state";
  EXPECT_EQ(after.cached_floats, warm.cached_floats);
  EXPECT_EQ(after.hits, after.acquires)
      << "every steady-state acquisition must be served from the free lists";
  EXPECT_EQ(after.discards, 0u);
}

TEST(BufferPool, SlotStatsTrackPerThreadCountersMonotonically) {
  // This thread's slot is live and its monotonic counters advance by the
  // work done between two snapshots — the delta contract the executor's
  // .perf.json sidecar relies on.
  pool::release(pool::acquire(64));  // ensure this thread has a slot
  const std::vector<pool::SlotStats> before = pool::slot_stats();
  ASSERT_FALSE(before.empty());
  {
    pcss::tensor::FloatBuffer a = pool::acquire(64);
    pool::release(std::move(a));
    pcss::tensor::FloatBuffer b = pool::acquire(64);  // same class: a hit
    pool::release(std::move(b));
  }
  const std::vector<pool::SlotStats> after = pool::slot_stats();
  ASSERT_GE(after.size(), before.size()) << "slots never disappear, only go not-live";
  std::uint64_t d_acquires = 0, d_hits = 0, d_releases = 0;
  bool any_live = false;
  for (std::size_t i = 0; i < after.size(); ++i) {
    const pool::SlotStats base = i < before.size() ? before[i] : pool::SlotStats{};
    EXPECT_GE(after[i].acquires, base.acquires) << "slot counters are monotonic";
    EXPECT_GE(after[i].hits, base.hits);
    d_acquires += after[i].acquires - base.acquires;
    d_hits += after[i].hits - base.hits;
    d_releases += after[i].releases - base.releases;
    any_live = any_live || after[i].live;
  }
  EXPECT_TRUE(any_live) << "the calling thread's slot must be live";
  EXPECT_GE(d_acquires, 2u);
  EXPECT_GE(d_hits, 1u);
  EXPECT_GE(d_releases, 2u);
}

TEST(BufferPool, NoCrossThreadAliasing) {
  // Reference result computed single-threaded.
  auto chain = [](std::uint64_t seed) {
    Rng rng(seed);
    Tensor x = Tensor::uniform({32, 4}, rng, -1.0f, 1.0f);
    x.set_requires_grad(true);
    Tensor w = Tensor::uniform({4, 4}, rng, -1.0f, 1.0f);
    for (int i = 0; i < 50; ++i) {
      Tensor loss = ops::sum(ops::square(ops::relu(ops::matmul(x, w))));
      loss.backward();
    }
    return x.grad();
  };
  const pcss::tensor::FloatBuffer ref1 = chain(11);
  const pcss::tensor::FloatBuffer ref2 = chain(22);
  pcss::tensor::FloatBuffer got1, got2;
  // Each worker hammers its own thread-local pool; if buffers ever
  // aliased across threads the accumulated gradients would diverge.
  // Raw threads on purpose: the test needs bare OS threads, not the
  // WorkerPool whose pool-reuse behaviour is the thing under test.
  std::thread t1([&] { got1 = chain(11); });  // pcss-lint: allow(C001)
  std::thread t2([&] { got2 = chain(22); });  // pcss-lint: allow(C001)
  t1.join();
  t2.join();
  EXPECT_EQ(got1, ref1);
  EXPECT_EQ(got2, ref2);
}

}  // namespace
