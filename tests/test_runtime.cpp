// Runtime-layer tests: concurrent submits are bit-identical to sequential
// runs (values AND cycle counts — the simulations are deterministic and
// self-contained), the plan cache counts hits/misses and evicts LRU-first,
// errors propagate through futures, and the pool-backed parallel_for is
// correct and deadlock-free even when nested inside a pool job.
#include <gtest/gtest.h>

#include <atomic>
#include <vector>

#include "common/parallel.hpp"
#include "common/random.hpp"
#include "host/context.hpp"
#include "host/runtime.hpp"
#include "telemetry/export.hpp"
#include "telemetry/json.hpp"
#include "telemetry/session.hpp"

using namespace xd;
using host::Context;
using host::ContextConfig;
using host::OpDesc;
using host::Outcome;
using host::Placement;
using host::Runtime;

namespace {

struct GemvJob {
  std::vector<double> a;
  std::vector<double> x;
  std::size_t n;
};

std::vector<GemvJob> make_gemv_jobs(std::size_t count, std::size_t n) {
  std::vector<GemvJob> jobs;
  for (std::size_t j = 0; j < count; ++j) {
    Rng rng(100 + j);  // distinct data per job
    jobs.push_back({rng.matrix(n, n), rng.vector(n), n});
  }
  return jobs;
}

}  // namespace

TEST(Runtime, ConcurrentSubmitsBitIdenticalToSequential) {
  const auto jobs = make_gemv_jobs(8, 96);

  // Sequential reference: one op at a time on the calling thread.
  Runtime seq({});
  std::vector<Outcome> expect;
  for (const auto& j : jobs) {
    expect.push_back(seq.run(OpDesc::gemv(j.a, j.n, j.n, j.x)));
  }

  // Concurrent: all eight in flight on the shared pool at once.
  Runtime rt({});
  std::vector<std::future<Outcome>> futs;
  for (const auto& j : jobs) {
    futs.push_back(rt.submit(OpDesc::gemv(j.a, j.n, j.n, j.x)));
  }

  for (std::size_t j = 0; j < jobs.size(); ++j) {
    const Outcome got = futs[j].get();
    ASSERT_EQ(got.values.size(), expect[j].values.size());
    for (std::size_t i = 0; i < got.values.size(); ++i) {
      // Bit-identical, not approximately equal.
      EXPECT_EQ(got.values[i], expect[j].values[i]) << "job " << j << " y[" << i
                                                    << "]";
    }
    EXPECT_EQ(got.report.cycles, expect[j].report.cycles) << "job " << j;
    EXPECT_EQ(got.report.flops, expect[j].report.flops) << "job " << j;
    EXPECT_EQ(got.report.stall_cycles, expect[j].report.stall_cycles)
        << "job " << j;
  }

  const auto stats = rt.stats();
  EXPECT_EQ(stats.submitted, 8u);
  EXPECT_EQ(stats.completed, 8u);
  EXPECT_EQ(stats.failed, 0u);
}

TEST(Runtime, RunBatchPreservesOrderAndMatchesRun) {
  Rng rng(5);
  const auto u = rng.vector(64);
  const auto v = rng.vector(64);
  const auto w = rng.vector(64);

  Runtime rt({});
  const auto outs =
      rt.run_batch({OpDesc::dot(u, v), OpDesc::dot(u, w), OpDesc::dot(v, w)});
  ASSERT_EQ(outs.size(), 3u);
  EXPECT_EQ(outs[0].values.at(0), rt.run(OpDesc::dot(u, v)).values.at(0));
  EXPECT_EQ(outs[1].values.at(0), rt.run(OpDesc::dot(u, w)).values.at(0));
  EXPECT_EQ(outs[2].values.at(0), rt.run(OpDesc::dot(v, w)).values.at(0));
}

TEST(Runtime, PlanCacheCountsHitsAndMisses) {
  Rng rng(6);
  const auto a = rng.matrix(64, 64);
  const auto x = rng.vector(64);

  Runtime rt({});
  const auto& cache = rt.plan_cache();
  EXPECT_EQ(cache.size(), 0u);

  rt.run(OpDesc::gemv(a, 64, 64, x));
  EXPECT_EQ(cache.misses(), 1u);
  EXPECT_EQ(cache.hits(), 0u);
  EXPECT_EQ(cache.size(), 1u);

  rt.run(OpDesc::gemv(a, 64, 64, x));  // same key -> hit
  EXPECT_EQ(cache.misses(), 1u);
  EXPECT_EQ(cache.hits(), 1u);

  rt.run(OpDesc::gemv(a, 64, 64, x, Placement::Dram));  // placement keys
  EXPECT_EQ(cache.misses(), 2u);
  EXPECT_EQ(cache.size(), 2u);
}

TEST(Runtime, PlanCacheEvictsLeastRecentlyUsed) {
  ContextConfig cfg;
  cfg.plan_cache_capacity = 2;
  Runtime rt(cfg);
  const auto& cache = rt.plan_cache();
  EXPECT_EQ(cache.capacity(), 2u);

  Rng rng(7);
  const auto a64 = rng.matrix(64, 64), x64 = rng.vector(64);
  const auto a96 = rng.matrix(96, 96), x96 = rng.vector(96);
  const auto a128 = rng.matrix(128, 128), x128 = rng.vector(128);

  rt.run(OpDesc::gemv(a64, 64, 64, x64));    // miss: {64}
  rt.run(OpDesc::gemv(a96, 96, 96, x96));    // miss: {96, 64}
  rt.run(OpDesc::gemv(a64, 64, 64, x64));    // hit:  {64, 96}
  EXPECT_EQ(cache.misses(), 2u);
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.evictions(), 0u);

  rt.run(OpDesc::gemv(a128, 128, 128, x128));  // miss, evicts LRU (96)
  EXPECT_EQ(cache.misses(), 3u);
  EXPECT_EQ(cache.evictions(), 1u);
  EXPECT_EQ(cache.size(), 2u);

  rt.run(OpDesc::gemv(a64, 64, 64, x64));  // still cached — 96 was evicted
  EXPECT_EQ(cache.hits(), 2u);
  rt.run(OpDesc::gemv(a96, 96, 96, x96));  // gone: miss again
  EXPECT_EQ(cache.misses(), 4u);
}

// Malformed descriptors — zero shapes, overflowing shape products,
// structurally broken sparse matrices — must surface as ConfigError through
// run() AND through submit() futures, never as a crash or an engine walk
// past the operands.
namespace {

void expect_config_error_both_paths(Runtime& rt, const OpDesc& desc) {
  EXPECT_THROW(rt.run(desc), ConfigError);
  auto fut = rt.submit(desc);
  EXPECT_THROW(fut.get(), ConfigError);
}

}  // namespace

TEST(Runtime, ZeroShapesAreConfigErrors) {
  Runtime rt({});
  const std::vector<double> empty;
  expect_config_error_both_paths(rt, OpDesc::dot(empty, empty));

  Rng rng(11);
  const auto x = rng.vector(8);
  const std::vector<double> no_rows;  // 0 x 8 matrix
  expect_config_error_both_paths(rt, OpDesc::gemv(no_rows, 0, 8, x));

  expect_config_error_both_paths(rt, OpDesc::gemm_array(empty, empty, 0));

  const auto stats = rt.stats();
  EXPECT_EQ(stats.completed, 0u);
  EXPECT_EQ(stats.failed, 6u);
}

TEST(Runtime, OverflowingShapeProductsAreConfigErrors) {
  Runtime rt({});
  const std::vector<double> empty;
  const std::vector<double> x2{1.0, 2.0};

  // rows * cols wraps size_t to 0 == a.size(): the naive equality check
  // would pass and the engine would walk 2^63 rows of nothing.
  OpDesc wide = OpDesc::gemv(empty, 0, 2, x2);
  wide.rows = std::size_t{1} << 63;
  expect_config_error_both_paths(rt, wide);

  // n * n wraps to 0 on 64-bit for n = 2^32.
  OpDesc huge = OpDesc::gemm(empty, empty, 0);
  huge.n = std::size_t{1} << 32;
  expect_config_error_both_paths(rt, huge);
}

TEST(Runtime, MismatchedSparseStructureIsConfigError) {
  Rng rng(12);
  blas2::CrsMatrix m;
  m.rows = 2;
  m.cols = 2;
  m.row_ptr = {0, 1, 2};
  m.col_idx = {0, 1};
  m.values = {1.0, 2.0};
  const auto x = rng.vector(2);

  Runtime rt({});
  EXPECT_NO_THROW(rt.run(OpDesc::spmxv(m, x)));  // honest matrix is fine

  m.col_idx[0] = 5;  // out-of-range column
  expect_config_error_both_paths(rt, OpDesc::spmxv(m, x));
  m.col_idx[0] = 0;

  m.row_ptr.pop_back();  // rows+1 invariant broken
  expect_config_error_both_paths(rt, OpDesc::spmxv(m, x));
  m.row_ptr = {0, 1, 2};

  // Descriptor shape diverging from the matrix (stale desc after resize).
  OpDesc stale = OpDesc::spmxv(m, x);
  stale.rows = 3;
  expect_config_error_both_paths(rt, stale);
}

TEST(Runtime, PlanCacheConcurrentDistinctShapes) {
  // Eviction racing lookup: capacity 2, four distinct shapes hammered from
  // every pool worker at once. Outcomes must stay bit-identical to the
  // sequential reference, the cache must respect its capacity, and every
  // lookup must be counted exactly once as a hit or a miss.
  ContextConfig cfg;
  cfg.plan_cache_capacity = 2;

  const std::size_t shapes[] = {16, 24, 32, 40};
  std::vector<GemvJob> work;
  for (std::size_t j = 0; j < 4; ++j) {
    Rng rng(200 + j);
    work.push_back({rng.matrix(shapes[j], shapes[j]), rng.vector(shapes[j]),
                    shapes[j]});
  }

  Runtime seq(cfg);
  std::vector<Outcome> expect;
  for (const auto& w : work) {
    expect.push_back(seq.run(OpDesc::gemv(w.a, w.n, w.n, w.x)));
  }

  Runtime rt(cfg);
  constexpr std::size_t kThreads = 8, kRounds = 5;
  std::vector<std::future<Outcome>> futs;
  for (std::size_t t = 0; t < kThreads; ++t) {
    for (std::size_t r = 0; r < kRounds; ++r) {
      for (const auto& w : work) {
        futs.push_back(rt.submit(OpDesc::gemv(w.a, w.n, w.n, w.x)));
      }
    }
  }

  for (std::size_t i = 0; i < futs.size(); ++i) {
    const Outcome got = futs[i].get();
    const Outcome& want = expect[i % work.size()];
    ASSERT_EQ(got.values.size(), want.values.size());
    for (std::size_t v = 0; v < got.values.size(); ++v) {
      ASSERT_EQ(got.values[v], want.values[v]) << "job " << i;
    }
    ASSERT_EQ(got.report.cycles, want.report.cycles) << "job " << i;
  }

  const auto& cache = rt.plan_cache();
  EXPECT_LE(cache.size(), 2u);
  EXPECT_EQ(cache.hits() + cache.misses(), kThreads * kRounds * work.size());
  const auto stats = rt.stats();
  EXPECT_EQ(stats.completed, kThreads * kRounds * work.size());
  EXPECT_EQ(stats.failed, 0u);
}

TEST(Runtime, ConfigErrorPropagatesThroughFuture) {
  Rng rng(8);
  const auto a = rng.matrix(32, 32);
  const auto x_bad = rng.vector(16);  // wrong length for a 32-col A

  Runtime rt({});
  auto fut = rt.submit(OpDesc::gemv(a, 32, 32, x_bad));
  EXPECT_THROW(fut.get(), ConfigError);

  // Plan-level failure (no SRAM panel edge tiles n=6 with the default m=8)
  // takes the same path.
  const auto small_a = rng.matrix(6, 6);
  const auto small_b = rng.matrix(6, 6);
  auto fut2 = rt.submit(OpDesc::gemm(small_a, small_b, 6));
  EXPECT_THROW(fut2.get(), ConfigError);

  const auto stats = rt.stats();
  EXPECT_EQ(stats.failed, 2u);
  EXPECT_EQ(stats.completed, 0u);
}

TEST(Runtime, FailedBatchStillSettlesEveryJob) {
  Rng rng(9);
  const auto u = rng.vector(32);
  const auto v = rng.vector(32);
  const auto bad = rng.vector(31);

  Runtime rt({});
  EXPECT_THROW(rt.run_batch({OpDesc::dot(u, v), OpDesc::dot(u, bad)}),
               ConfigError);
  const auto stats = rt.stats();
  EXPECT_EQ(stats.submitted, 2u);
  EXPECT_EQ(stats.completed + stats.failed, 2u);
  EXPECT_EQ(stats.failed, 1u);
}

// ---- concurrent telemetry --------------------------------------------------
// Submitted jobs used to run with telemetry detached; they now record into
// thread-local shards merged into the shared session. These tests hold the
// new contract: full recording under concurrency, without perturbing
// outcomes.

TEST(RuntimeTelemetry, ConcurrentSubmitsRecordFullTelemetry) {
  const auto jobs = make_gemv_jobs(8, 96);

  telemetry::Session tel;
  ContextConfig cfg;
  cfg.telemetry = &tel;
  Runtime rt(cfg);

  // Detached reference for outcome bit-identity (telemetry-neutrality).
  Runtime detached({});

  std::vector<std::future<Outcome>> futs, futs_ref;
  for (const auto& j : jobs) {
    futs.push_back(rt.submit(OpDesc::gemv(j.a, j.n, j.n, j.x)));
    futs_ref.push_back(detached.submit(OpDesc::gemv(j.a, j.n, j.n, j.x)));
  }
  u64 total_cycles = 0;
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    const Outcome got = futs[j].get();
    const Outcome want = futs_ref[j].get();
    ASSERT_EQ(got.values.size(), want.values.size());
    for (std::size_t i = 0; i < got.values.size(); ++i) {
      ASSERT_EQ(got.values[i], want.values[i]) << "job " << j;
    }
    ASSERT_EQ(got.report.cycles, want.report.cycles) << "job " << j;
    total_cycles += got.report.cycles;
  }

  // Engine metrics and spans from every job landed in the session.
  EXPECT_TRUE(tel.metrics().contains("fpu.issue"));
  EXPECT_EQ(tel.spans().total_cycles("compute"), total_cycles);

  // Latency attribution histograms carry one sample per op and export
  // percentiles.
  const telemetry::Metric* e2e = tel.metrics().find("host.runtime.e2e");
  ASSERT_NE(e2e, nullptr);
  EXPECT_EQ(e2e->dist.count(), jobs.size());
  EXPECT_GT(telemetry::MetricsRegistry::percentile(*e2e, 0.95), 0.0);
  const telemetry::Metric* qw = tel.metrics().find("host.runtime.queue_wait");
  ASSERT_NE(qw, nullptr);
  EXPECT_EQ(qw->dist.count(), jobs.size());

  // After all futures settled, the sampled gauges must read drained.
  EXPECT_DOUBLE_EQ(tel.metrics().find("host.runtime.queue_depth")->value, 0.0);
  EXPECT_DOUBLE_EQ(tel.metrics().find("host.runtime.in_flight")->value, 0.0);

  // Every op left a flight record, and the exports stay valid JSON.
  EXPECT_EQ(tel.flight().total(), jobs.size());
  EXPECT_EQ(tel.flight().errors(), 0u);
  EXPECT_TRUE(telemetry::json_validate(telemetry::flight_to_json(tel.flight())));
  EXPECT_TRUE(telemetry::json_validate(telemetry::metrics_to_json(tel.metrics())));
  EXPECT_TRUE(telemetry::json_validate(telemetry::chrome_trace_json(tel, 200.0)));
}

TEST(RuntimeTelemetry, ConcurrentCountersMatchSequentialRecording) {
  // Order-independent telemetry (counters, histogram counts, span totals)
  // must come out identical whether the ops ran sequentially through run()
  // or concurrently through submit().
  const auto jobs = make_gemv_jobs(6, 64);

  telemetry::Session seq_tel;
  ContextConfig seq_cfg;
  seq_cfg.telemetry = &seq_tel;
  Runtime seq(seq_cfg);
  for (const auto& j : jobs) seq.run(OpDesc::gemv(j.a, j.n, j.n, j.x));

  telemetry::Session con_tel;
  ContextConfig con_cfg;
  con_cfg.telemetry = &con_tel;
  Runtime con(con_cfg);
  std::vector<std::future<Outcome>> futs;
  for (const auto& j : jobs) {
    futs.push_back(con.submit(OpDesc::gemv(j.a, j.n, j.n, j.x)));
  }
  for (auto& f : futs) f.get();

  con_tel.metrics().for_each([&](const std::string& name,
                                 const telemetry::Metric& m) {
    if (name.rfind("host.runtime.", 0) == 0) return;  // wall-clock metrics
    const telemetry::Metric* s = seq_tel.metrics().find(name);
    ASSERT_NE(s, nullptr) << name;
    if (m.kind == telemetry::MetricKind::Counter) {
      EXPECT_EQ(m.count, s->count) << name;
    } else if (m.kind == telemetry::MetricKind::Histogram) {
      EXPECT_EQ(m.dist.count(), s->dist.count()) << name;
      EXPECT_EQ(m.dist.min(), s->dist.min()) << name;
      EXPECT_EQ(m.dist.max(), s->dist.max()) << name;
    }
  });
  EXPECT_EQ(con_tel.spans().total_cycles("compute"),
            seq_tel.spans().total_cycles("compute"));
  EXPECT_EQ(con_tel.spans().spans().size(), seq_tel.spans().spans().size());
}

TEST(RuntimeTelemetry, RunStampsTraceContextLifecycle) {
  Rng rng(21);
  const auto a = rng.matrix(48, 48);
  const auto x = rng.vector(48);

  telemetry::Session tel;
  ContextConfig cfg;
  cfg.telemetry = &tel;
  Runtime rt(cfg);
  const Outcome out = rt.run(OpDesc::gemv(a, 48, 48, x));

  const auto snap = tel.flight().snapshot();
  ASSERT_EQ(snap.size(), 1u);
  const telemetry::TraceContext& tc = snap.front();
  EXPECT_STREQ(tc.kind, "gemv");
  EXPECT_EQ(tc.lane, 0u);  // synchronous path records on the caller lane
  EXPECT_EQ(tc.dequeue_ns, tc.submit_ns);  // no queue wait on run()
  EXPECT_GE(tc.plan_ns, tc.submit_ns);
  EXPECT_GE(tc.exec_ns, tc.plan_ns);
  EXPECT_GE(tc.complete_ns, tc.exec_ns);
  EXPECT_EQ(tc.cycles, out.report.cycles);
  EXPECT_FALSE(tc.failed);
}

TEST(RuntimeTelemetry, FailuresLandInTheFlightRecorder) {
  Rng rng(22);
  const auto a = rng.matrix(32, 32);
  const auto x_bad = rng.vector(16);

  telemetry::Session tel;
  ContextConfig cfg;
  cfg.telemetry = &tel;
  Runtime rt(cfg);

  EXPECT_THROW(rt.run(OpDesc::gemv(a, 32, 32, x_bad)), ConfigError);
  auto fut = rt.submit(OpDesc::gemv(a, 32, 32, x_bad));
  EXPECT_THROW(fut.get(), ConfigError);

  EXPECT_EQ(tel.flight().total(), 2u);
  EXPECT_EQ(tel.flight().errors(), 2u);
  for (const auto& tc : tel.flight().snapshot()) {
    EXPECT_TRUE(tc.failed);
    EXPECT_FALSE(tc.error.empty());
    EXPECT_GT(tc.complete_ns, 0u);
  }
  // The failed shard was discarded, not merged: no spans recorded.
  EXPECT_TRUE(tel.spans().empty());
}

TEST(RuntimeTelemetry, FlightRingBoundsRetainedHistory) {
  Rng rng(23);
  const auto u = rng.vector(32);
  const auto v = rng.vector(32);

  telemetry::Session tel(/*trace_capacity=*/4096, /*flight_capacity=*/4);
  ContextConfig cfg;
  cfg.telemetry = &tel;
  Runtime rt(cfg);
  for (int i = 0; i < 7; ++i) rt.run(OpDesc::dot(u, v));

  EXPECT_EQ(tel.flight().size(), 4u);
  EXPECT_EQ(tel.flight().total(), 7u);
  const auto snap = tel.flight().snapshot();
  ASSERT_EQ(snap.size(), 4u);
  for (std::size_t i = 1; i < snap.size(); ++i) {
    EXPECT_GT(snap[i].op_id, snap[i - 1].op_id);  // oldest-first, in order
  }
}

TEST(Runtime, ContextFacadeSharesTheRuntime) {
  Rng rng(10);
  const auto u = rng.vector(128);
  const auto v = rng.vector(128);

  Context ctx;
  const auto direct = ctx.dot(u, v);
  const auto via_rt = ctx.runtime().run(OpDesc::dot(u, v));
  EXPECT_EQ(direct.value, via_rt.values.at(0));
  EXPECT_EQ(direct.report.cycles, via_rt.report.cycles);
  // The facade and the runtime share one plan cache.
  EXPECT_GE(ctx.runtime().plan_cache().hits(), 1u);
}

TEST(Runtime, EngineRequestIsADesignOfItsKind) {
  // Every op name is a (kind, request) pair and round-trips; the aliases
  // name the non-default designs.
  for (const char* name : {"dot", "dot_batch", "gemv", "gemv_auto", "spmxv",
                           "gemm", "gemm_array", "gemm_multi"}) {
    host::OpKind kind;
    host::EngineRequest engine;
    ASSERT_TRUE(host::op_from_name(name, kind, engine)) << name;
    EXPECT_STREQ(host::op_name(kind, engine), name);
  }
  EXPECT_STREQ(host::op_name(host::OpKind::Gemv, host::EngineRequest::Column),
               "gemv");

  // A request the kind has no design for is refused before any plan.
  Rng rng(11);
  const auto a = rng.matrix(8, 8);
  const auto x = rng.vector(8);
  Runtime rt(ContextConfig{});
  OpDesc dot = OpDesc::dot(x, x);
  dot.engine = host::EngineRequest::Array;
  EXPECT_THROW(rt.run(dot), ConfigError);
  OpDesc gemv = OpDesc::gemv(a, 8, 8, x);
  gemv.engine = host::EngineRequest::Multi;
  EXPECT_THROW(rt.run(gemv), ConfigError);
  OpDesc gemm = OpDesc::gemm(a, a, 8);
  gemm.engine = host::EngineRequest::Blocked;
  EXPECT_THROW(rt.run(gemm), ConfigError);
  EXPECT_EQ(rt.plan_cache().size(), 0u);
}

TEST(ParallelFor, CoversRangeExactlyOnce) {
  for (std::size_t n : {0u, 1u, 7u, 64u, 1000u}) {
    std::vector<std::atomic<int>> hits(n);
    parallel_for(0, n, [&](std::size_t i) {
      hits[i].fetch_add(1, std::memory_order_relaxed);
    });
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_EQ(hits[i].load(), 1) << "i=" << i << " n=" << n;
    }
  }
}

TEST(ParallelFor, RespectsWorkerCountAndOffsets) {
  std::vector<int> out(100, 0);
  parallel_for(10, 60, [&](std::size_t i) { out[i] = static_cast<int>(i); },
               3);
  for (std::size_t i = 0; i < 100; ++i) {
    EXPECT_EQ(out[i], (i >= 10 && i < 60) ? static_cast<int>(i) : 0);
  }
}

TEST(ParallelFor, NestedInsidePoolJobDoesNotDeadlock) {
  // Saturate the pool with jobs that themselves call parallel_for: the
  // caller-participates design means each inner loop can always make
  // progress on its own thread even with every worker busy.
  ThreadPool& pool = ThreadPool::shared();
  const std::size_t jobs = 2 * pool.size() + 2;
  std::vector<std::future<long>> futs;
  for (std::size_t j = 0; j < jobs; ++j) {
    futs.push_back(pool.submit([] {
      std::atomic<long> sum{0};
      parallel_for(0, 1000, [&](std::size_t i) {
        sum.fetch_add(static_cast<long>(i), std::memory_order_relaxed);
      });
      return sum.load();
    }));
  }
  for (auto& f : futs) EXPECT_EQ(f.get(), 999L * 1000L / 2);
}

// ---- small-op executor: pinned plans, slab state, batch fast path ----------

namespace {

/// Full bit-exact outcome equality: every value AND the timing report.
void expect_outcome_eq(const Outcome& got, const Outcome& want,
                       const std::string& what) {
  ASSERT_EQ(got.values.size(), want.values.size()) << what;
  for (std::size_t i = 0; i < got.values.size(); ++i) {
    EXPECT_EQ(got.values[i], want.values[i]) << what << " values[" << i << "]";
  }
  EXPECT_EQ(got.report.cycles, want.report.cycles) << what;
  EXPECT_EQ(got.report.stall_cycles, want.report.stall_cycles) << what;
  EXPECT_EQ(got.report.flops, want.report.flops) << what;
}

}  // namespace

TEST(Runtime, PinnedPlanBitIdenticalToLruPath) {
  Rng rng(21);
  const auto u = rng.vector(48), v = rng.vector(48);
  const auto a = rng.matrix(24, 24);
  const auto x = rng.vector(24);

  Runtime rt({});
  const Outcome dref = rt.run(OpDesc::dot(u, v));
  const Outcome gref = rt.run(OpDesc::gemv(a, 24, 24, x));

  const host::PlanHandle hd = rt.pin_plan(OpDesc::dot(u, v));
  const host::PlanHandle hg = rt.pin_plan(OpDesc::gemv(a, 24, 24, x));
  ASSERT_TRUE(hd.valid());
  ASSERT_TRUE(hg.valid());

  expect_outcome_eq(rt.run(OpDesc::dot(u, v), hd), dref, "pinned dot run");
  expect_outcome_eq(rt.submit(OpDesc::dot(u, v), hd).get(), dref,
                    "pinned dot submit");
  expect_outcome_eq(rt.run(OpDesc::gemv(a, 24, 24, x), hg), gref,
                    "pinned gemv run");
  // A handle for the wrong shape is detected, not trusted: the mismatch
  // falls back to the ordinary cache probe and still computes the right op.
  expect_outcome_eq(rt.run(OpDesc::dot(u, v), hg), dref, "mismatched handle");
  // A default-constructed (invalid) handle behaves like no handle at all.
  expect_outcome_eq(rt.run(OpDesc::dot(u, v), host::PlanHandle{}), dref,
                    "invalid handle");
}

TEST(Runtime, PinnedPlansExemptFromEviction) {
  ContextConfig cfg;
  cfg.plan_cache_capacity = 2;
  Runtime rt(cfg);
  const auto& cache = rt.plan_cache();

  Rng rng(22);
  const auto a16 = rng.matrix(16, 16);
  const auto x16 = rng.vector(16);

  rt.run(OpDesc::gemv(a16, 16, 16, x16));  // builds an LRU entry
  EXPECT_EQ(cache.size(), 1u);
  const host::PlanHandle h = rt.pin_plan(OpDesc::gemv(a16, 16, 16, x16));
  ASSERT_TRUE(h.valid());
  // Pinning promotes the existing LRU entry rather than rebuilding it.
  EXPECT_EQ(cache.pinned_count(), 1u);
  EXPECT_EQ(cache.size(), 0u);

  // Churn far past the LRU capacity: the pinned plan must survive.
  for (std::size_t n : {24, 32, 40, 48, 56, 64}) {
    Rng r(100 + n);
    const auto a = r.matrix(n, n);
    const auto xx = r.vector(n);
    rt.run(OpDesc::gemv(a, n, n, xx));
  }
  EXPECT_LE(cache.size(), 2u);
  EXPECT_EQ(cache.pinned_count(), 1u);

  const u64 h0 = cache.hits();
  rt.run(OpDesc::gemv(a16, 16, 16, x16));  // pinned probe counts as a hit
  EXPECT_EQ(cache.hits(), h0 + 1);

  rt.pin_plan(OpDesc::gemv(a16, 16, 16, x16));  // idempotent
  EXPECT_EQ(cache.pinned_count(), 1u);
}

TEST(Runtime, PinnedCountPublishedAsGauge) {
  telemetry::Session tel;
  ContextConfig cfg;
  cfg.telemetry = &tel;
  Runtime rt(cfg);

  Rng rng(26);
  const auto u = rng.vector(32), v = rng.vector(32);
  rt.pin_plan(OpDesc::dot(u, v));
  rt.run(OpDesc::dot(u, v));  // run publishes the host.plan.* gauges

  auto lock = tel.lock();
  const telemetry::Metric* m = tel.metrics().find("host.plan.pinned");
  ASSERT_NE(m, nullptr);
  EXPECT_EQ(m->value, 1.0);
}

TEST(Runtime, RunBatchFastPathMatchesPerOpRuns) {
  Rng rng(23);
  // Long same-shape runs (the staged fast path) with distinct data per op,
  // plus a shape switch and a trailing singleton — every outcome must be
  // bit-identical to a sequential per-op run, cycles included.
  std::vector<std::vector<double>> us, vs, xs;
  for (int i = 0; i < 12; ++i) {
    us.push_back(rng.vector(40));
    vs.push_back(rng.vector(40));
  }
  const auto a = rng.matrix(20, 20);
  for (int i = 0; i < 6; ++i) xs.push_back(rng.vector(20));

  std::vector<OpDesc> descs;
  for (int i = 0; i < 12; ++i) descs.push_back(OpDesc::dot(us[i], vs[i]));
  for (int i = 0; i < 6; ++i) descs.push_back(OpDesc::gemv(a, 20, 20, xs[i]));
  descs.push_back(OpDesc::dot(us[0], vs[0]));

  Runtime rt({});
  Runtime seq({});
  const auto outs = rt.run_batch(descs);
  ASSERT_EQ(outs.size(), descs.size());
  for (std::size_t i = 0; i < descs.size(); ++i) {
    expect_outcome_eq(outs[i], seq.run(descs[i]), cat("batch[", i, "]"));
  }
}

TEST(Runtime, RunBatchFastPathPropagatesMidGroupErrors) {
  Rng rng(24);
  const auto u = rng.vector(32), v = rng.vector(32);
  const auto bad = rng.vector(16);  // wrong length, same PlanKey as dot(u,v)

  Runtime rt({});
  EXPECT_THROW(
      rt.run_batch({OpDesc::dot(u, v), OpDesc::dot(u, bad), OpDesc::dot(u, v)}),
      ConfigError);
  // Every job settled: the two good ops completed, the bad one failed.
  const auto stats = rt.stats();
  EXPECT_EQ(stats.completed, 2u);
  EXPECT_EQ(stats.failed, 1u);
}

TEST(Runtime, TinySubmitStormAcrossShapesWithTinyCache) {
  // The small-op soak the executor was rebuilt for: 10k tiny submits across
  // four shapes through a capacity-2 plan cache, two shapes pinned, so the
  // two unpinned shapes continuously evict each other while pinned handles
  // bypass the churn. Every single future must be bit-identical (values and
  // cycles) to a sequential reference run.
  ContextConfig cfg;
  cfg.plan_cache_capacity = 2;
  Runtime rt(cfg);

  Rng rng(25);
  const auto u = rng.vector(24), v = rng.vector(24);
  const auto u2 = rng.vector(48), v2 = rng.vector(48);
  const auto a = rng.matrix(12, 12);
  const auto x = rng.vector(12);
  const auto a2 = rng.matrix(16, 16);
  const auto x2 = rng.vector(16);
  const OpDesc shapes[4] = {OpDesc::dot(u, v), OpDesc::dot(u2, v2),
                            OpDesc::gemv(a, 12, 12, x),
                            OpDesc::gemv(a2, 16, 16, x2)};
  const host::PlanHandle pins[2] = {rt.pin_plan(shapes[0]),
                                    rt.pin_plan(shapes[2])};

  Runtime seq({});
  Outcome want[4];
  for (int s = 0; s < 4; ++s) want[s] = seq.run(shapes[s]);

  const auto pool_work0 =
      ThreadPool::shared().local_pops() + ThreadPool::shared().steals();

  constexpr int kOps = 10000;
  std::vector<std::future<Outcome>> futs;
  futs.reserve(kOps);
  for (int i = 0; i < kOps; ++i) {
    const int s = i & 3;
    if (s == 0) {
      futs.push_back(rt.submit(shapes[0], pins[0]));
    } else if (s == 2) {
      futs.push_back(rt.submit(shapes[2], pins[1]));
    } else {
      futs.push_back(rt.submit(shapes[s]));
    }
  }

  int value_mismatches = 0, cycle_mismatches = 0;
  for (int i = 0; i < kOps; ++i) {
    const Outcome got = futs[i].get();
    const Outcome& ref = want[i & 3];
    if (got.values != ref.values) ++value_mismatches;
    if (got.report.cycles != ref.report.cycles) ++cycle_mismatches;
  }
  EXPECT_EQ(value_mismatches, 0);
  EXPECT_EQ(cycle_mismatches, 0);
  EXPECT_EQ(rt.stats().completed, static_cast<u64>(kOps));
  EXPECT_EQ(rt.stats().failed, 0u);
  EXPECT_EQ(rt.plan_cache().pinned_count(), 2u);
  // Every op was executed off a worker deque (locally popped or stolen).
  const auto pool_work1 =
      ThreadPool::shared().local_pops() + ThreadPool::shared().steals();
  EXPECT_GE(pool_work1 - pool_work0, static_cast<unsigned long long>(kOps));
}
