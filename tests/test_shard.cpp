// Shard-scheduler tests (host/shard.hpp, docs/sharding.md): the determinism
// contract — GEMM values bit-identical to single-device execution at every
// l, GEMV bit-identical at l = 1 and reproducible at every l, l = 1 costing
// exactly the single-device run — plus model == sim at the multi-FPGA
// level: plan() runs model::shard_timeline on the modeled GEMM panel
// cycles, run() runs it on the engines' observed cycles, and the two
// makespans must agree cycle-for-cycle. The link word totals must account
// for every word the store-and-forward legs moved.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <vector>

#include "common/random.hpp"
#include "fp/softfloat.hpp"
#include "host/context.hpp"
#include "host/runtime.hpp"
#include "host/shard.hpp"
#include "model/perf_model.hpp"

using namespace xd;
using host::ContextConfig;
using host::OpDesc;
using host::Outcome;
using host::Placement;
using host::Runtime;
using host::ShardOutcome;
using host::ShardScheduler;

namespace {

/// 3 chassis x 2 nodes: six FPGAs, so l = 3 and l = 6 cross chassis
/// boundaries while l = 2 stays on one chassis's RocketIO chain.
machine::SystemConfig small_system() {
  machine::SystemConfig sys;
  sys.chassis_count = 3;
  sys.chassis.nodes = 2;
  return sys;
}

bool bits_equal(double a, double b) {
  return fp::to_bits(a) == fp::to_bits(b);
}

void expect_bitwise(const std::vector<double>& want,
                    const std::vector<double>& got, const char* what) {
  ASSERT_EQ(want.size(), got.size()) << what;
  for (std::size_t i = 0; i < want.size(); ++i) {
    ASSERT_TRUE(bits_equal(want[i], got[i]))
        << what << ": values[" << i << "] " << got[i] << " != " << want[i];
  }
}

}  // namespace

// ---- row partition --------------------------------------------------------

TEST(ShardModel, RowPartitionIsContiguousBalancedAndComplete) {
  for (std::size_t rows : {1u, 2u, 5u, 6u, 7u, 48u, 193u}) {
    for (unsigned l = 1; l <= std::min<std::size_t>(rows, 8); ++l) {
      std::size_t sum = 0;
      for (unsigned i = 0; i < l; ++i) {
        EXPECT_EQ(model::shard_row0(rows, l, i), sum);
        const std::size_t ri = model::shard_rows(rows, l, i);
        EXPECT_GE(ri, rows / l);
        EXPECT_LE(ri, rows / l + 1);
        sum += ri;
      }
      EXPECT_EQ(sum, rows);
    }
  }
}

TEST(ShardModel, GemmModelAtL1IsThePanelModel) {
  // One shard moves nothing: its makespan is its engine run.
  model::ShardLoad load;
  load.scatter_words = 48.0 * 48 + 48.0 * 48;
  load.engine_cycles = model::mm_hier_panel_cycles(48, 48, 8, 1, 48, 1.0);
  load.gather_words = 48.0 * 48;
  const model::ShardTimeline tl =
      model::shard_timeline(model::ShardChain{2, 1.5, 1.5, 3.0}, {load});
  EXPECT_EQ(tl.makespan, load.engine_cycles);
  EXPECT_EQ(tl.spans.at(0).scatter_ready, 0u);
  EXPECT_EQ(tl.spans.at(0).done, load.engine_cycles);
  EXPECT_EQ(tl.link_words, 0.0);
  EXPECT_EQ(tl.interchassis_words, 0.0);
}

TEST(ShardModel, TimelineSerializesLegsOnEachLink) {
  // Three shards on 2-node chassis: hop 0 is intra-chassis, hop 1 crosses.
  const model::ShardChain chain{2, /*fwd=*/2.0, /*bwd=*/1.0, /*xlink=*/4.0};
  const std::vector<model::ShardLoad> shards = {
      {10.0, 5, 4.0}, {8.0, 3, 6.0}, {12.0, 1, 2.0}};
  const model::ShardTimeline tl = model::shard_timeline(chain, shards);
  ASSERT_EQ(tl.spans.size(), 3u);
  // Shard 1's scatter holds hop 0's forward link for ceil(8/2) = 4 cycles;
  // shard 2's then waits for it (4 + 6), and crosses hop 1 in 3 more.
  EXPECT_EQ(tl.spans[0].scatter_ready, 0u);
  EXPECT_EQ(tl.spans[1].scatter_ready, 4u);
  EXPECT_EQ(tl.spans[2].scatter_ready, 13u);
  // Gathers: shard 1 leaves at 7 and takes 6 on hop 0's backward link;
  // shard 2 leaves at 14, crosses hop 1 in 1 and hop 0 in 2.
  EXPECT_EQ(tl.spans[0].done, 5u);
  EXPECT_EQ(tl.spans[1].done, 13u);
  EXPECT_EQ(tl.spans[2].done, 17u);
  EXPECT_EQ(tl.makespan, 17u);
  EXPECT_EQ(tl.link_words, 8.0 + 12.0 + 6.0 + 2.0);
  EXPECT_EQ(tl.interchassis_words, 12.0 + 2.0);
}

// ---- GEMM -----------------------------------------------------------------

TEST(ShardGemm, BitIdenticalToSingleDeviceAtEveryL) {
  const std::size_t n = 48;
  Rng rng(7);
  const auto a = rng.matrix(n, n);
  const auto b = rng.matrix(n, n);

  ContextConfig cfg;
  Runtime rt(cfg);
  const Outcome base = rt.run(OpDesc::gemm(a, b, n));

  for (unsigned l = 1; l <= 6; ++l) {
    ShardScheduler sched(rt, small_system());
    const ShardOutcome out = sched.run(OpDesc::gemm(a, b, n), l);
    EXPECT_EQ(out.plan.l, l);
    expect_bitwise(base.values, out.values, "sharded GEMM");
  }
}

TEST(ShardGemm, BitIdenticalWithNansAndInfinities) {
  // Extreme values: sharding must not change any element's accumulation
  // order, so NaN payloads and inf - inf outcomes reproduce exactly.
  const std::size_t n = 8;
  Rng rng(11);
  auto a = rng.matrix(n, n);
  auto b = rng.matrix(n, n);
  a[3] = std::numeric_limits<double>::quiet_NaN();
  a[10] = std::numeric_limits<double>::infinity();
  a[17] = -std::numeric_limits<double>::infinity();
  b[5] = std::numeric_limits<double>::infinity();
  b[12] = 0.0;

  ContextConfig cfg;
  Runtime rt(cfg);
  const Outcome base = rt.run(OpDesc::gemm(a, b, n));
  for (unsigned l : {2u, 3u, 6u}) {
    ShardScheduler sched(rt, small_system());
    expect_bitwise(base.values, sched.run(OpDesc::gemm(a, b, n), l).values,
                   "extreme-value sharded GEMM");
  }
}

TEST(ShardGemm, L1CostsExactlyTheSingleDeviceRun) {
  const std::size_t n = 32;
  Rng rng(3);
  const auto a = rng.matrix(n, n);
  const auto b = rng.matrix(n, n);
  ContextConfig cfg;
  Runtime rt(cfg);
  const Outcome base = rt.run(OpDesc::gemm(a, b, n));

  ShardScheduler sched(rt, small_system());
  const ShardOutcome out = sched.run(OpDesc::gemm(a, b, n), 1);
  EXPECT_EQ(out.report.cycles, base.report.cycles);
  EXPECT_EQ(out.report.staging_cycles, 0u);
  EXPECT_EQ(out.link_words, 0.0);
  EXPECT_EQ(out.interchassis_words, 0.0);
}

TEST(ShardGemm, SimulationMatchesAnalyticModelCycleForCycle) {
  // Modeled panel cycles (plan) against observed engine cycles (run), both
  // through model::shard_timeline: the makespans must be equal for every
  // shard count, so the panel model is exact and the legs are shared.
  const std::size_t n = 48;
  Rng rng(5);
  const auto a = rng.matrix(n, n);
  const auto b = rng.matrix(n, n);
  ContextConfig cfg;
  Runtime rt(cfg);
  for (unsigned l = 1; l <= 6; ++l) {
    ShardScheduler sched(rt, small_system());
    const ShardOutcome out = sched.run(OpDesc::gemm(a, b, n), l);
    EXPECT_EQ(out.report.cycles, out.plan.model_cycles) << "l=" << l;
  }
}

TEST(ShardGemm, LinkCountersAccountForEveryLegWord) {
  // Store-and-forward conservation: shard i's scatter panel (its A rows
  // plus all of B) crosses i hops, its result panel crosses i hops back, and
  // every hop counts the whole panel.
  const std::size_t n = 24;
  Rng rng(13);
  const auto a = rng.matrix(n, n);
  const auto b = rng.matrix(n, n);
  ContextConfig cfg;
  Runtime rt(cfg);
  for (unsigned l : {2u, 4u, 6u}) {
    ShardScheduler sched(rt, small_system());
    const ShardOutcome out = sched.run(OpDesc::gemm(a, b, n), l);
    double want = 0.0;
    for (unsigned i = 1; i < l; ++i) {
      const std::size_t rows_i = model::shard_rows(n, l, i);
      want += static_cast<double>(i) *
              static_cast<double>(rows_i * n + n * n + rows_i * n);
    }
    EXPECT_EQ(out.link_words + out.interchassis_words, want) << "l=" << l;
  }
}

TEST(ShardGemm, InterChassisTrafficOnlyWhenTheChainCrossesAChassis) {
  const std::size_t n = 24;
  Rng rng(17);
  const auto a = rng.matrix(n, n);
  const auto b = rng.matrix(n, n);
  ContextConfig cfg;
  Runtime rt(cfg);

  // l = 2 on a 2-node chassis: both shards share one chassis.
  ShardScheduler two(rt, small_system());
  const ShardOutcome on_chassis = two.run(OpDesc::gemm(a, b, n), 2);
  EXPECT_GT(on_chassis.link_words, 0.0);
  EXPECT_EQ(on_chassis.interchassis_words, 0.0);

  // l = 6 over 3 chassis of 2: hops 1->2 and 3->4 cross chassis.
  ShardScheduler six(rt, small_system());
  const ShardOutcome crossing = six.run(OpDesc::gemm(a, b, n), 6);
  EXPECT_GT(crossing.interchassis_words, 0.0);

  // The same six shards on one 6-node chassis never leave its RocketIO.
  machine::SystemConfig wide;
  wide.chassis_count = 1;
  wide.chassis.nodes = 6;
  ShardScheduler flat(rt, wide);
  const ShardOutcome local = flat.run(OpDesc::gemm(a, b, n), 6);
  EXPECT_GT(local.link_words, 0.0);
  EXPECT_EQ(local.interchassis_words, 0.0);
  expect_bitwise(crossing.values, local.values, "topology-independent values");
}

// ---- GEMV -----------------------------------------------------------------

TEST(ShardGemv, L1IsBitIdenticalAndCostsTheSingleDeviceRun) {
  const std::size_t rows = 48, cols = 40;
  Rng rng(23);
  const auto a = rng.matrix(rows, cols);
  const auto x = rng.vector(cols);
  ContextConfig cfg;
  Runtime rt(cfg);
  const Outcome base = rt.run(OpDesc::gemv(a, rows, cols, x));

  ShardScheduler sched(rt, small_system());
  const ShardOutcome out = sched.run(OpDesc::gemv(a, rows, cols, x), 1);
  expect_bitwise(base.values, out.values, "l=1 GEMV");
  EXPECT_EQ(out.report.cycles, base.report.cycles);
}

TEST(ShardGemv, ShardedValuesMatchTheSingleDeviceRunNumerically) {
  // At l > 1 the reduction circuit pairs each row's chunk sums in an order
  // that depends on which other rows share Buf_red (see host/shard.hpp), so
  // the comparison is numerical, not bitwise.
  const std::size_t rows = 47, cols = 88;
  Rng rng(29);
  const auto a = rng.matrix(rows, cols);
  const auto x = rng.vector(cols);
  ContextConfig cfg;
  Runtime rt(cfg);
  const Outcome base = rt.run(OpDesc::gemv(a, rows, cols, x));

  for (unsigned l : {2u, 3u, 6u}) {
    ShardScheduler sched(rt, small_system());
    const ShardOutcome out = sched.run(OpDesc::gemv(a, rows, cols, x), l);
    ASSERT_EQ(out.values.size(), base.values.size());
    for (std::size_t i = 0; i < base.values.size(); ++i) {
      EXPECT_NEAR(out.values[i], base.values[i],
                  1e-12 * std::max(1.0, std::fabs(base.values[i])))
          << "l=" << l << " row " << i;
    }
  }
}

TEST(ShardGemv, RerunsAreBitIdenticalWithIdenticalTimelines) {
  const std::size_t rows = 31, cols = 64;
  Rng rng(31);
  const auto a = rng.matrix(rows, cols);
  const auto x = rng.vector(cols);
  ContextConfig cfg;
  Runtime rt(cfg);

  for (unsigned l : {2u, 6u}) {
    ShardScheduler first(rt, small_system());
    const ShardOutcome one = first.run(OpDesc::gemv(a, rows, cols, x), l);
    ShardScheduler second(rt, small_system());
    const ShardOutcome two = second.run(OpDesc::gemv(a, rows, cols, x), l);
    expect_bitwise(one.values, two.values, "rerun values");
    EXPECT_EQ(one.report.cycles, two.report.cycles);
    for (unsigned s = 0; s < l; ++s) {
      EXPECT_EQ(one.plan.pieces[s].done, two.plan.pieces[s].done);
      EXPECT_EQ(one.plan.pieces[s].scatter_ready,
                two.plan.pieces[s].scatter_ready);
      EXPECT_EQ(one.shards[s].report.cycles, two.shards[s].report.cycles);
    }
  }
}

// ---- planning -------------------------------------------------------------

TEST(ShardPlan, AutoChoiceScoresEveryFeasibleLAndPicksTheModeledBest) {
  const std::size_t n = 48;
  Rng rng(37);
  const auto a = rng.matrix(n, n);
  const auto b = rng.matrix(n, n);
  ContextConfig cfg;
  Runtime rt(cfg);
  ShardScheduler sched(rt, small_system());
  const host::ShardPlan sp = sched.plan(OpDesc::gemm(a, b, n));

  ASSERT_EQ(sp.candidates.size(), 6u);  // min(6 FPGAs, 48 rows)
  u64 best = sp.candidates.front().model_cycles;
  for (const auto& c : sp.candidates) best = std::min(best, c.model_cycles);
  EXPECT_EQ(sp.model_cycles, best);
  for (const auto& c : sp.candidates) {
    if (c.l == sp.l) {
      EXPECT_EQ(c.model_cycles, sp.model_cycles);
    }
    // Ties go to the smaller l: every strictly smaller candidate is slower.
    if (c.l < sp.l) {
      EXPECT_GT(c.model_cycles, sp.model_cycles);
    }
  }

  ASSERT_EQ(sp.pieces.size(), sp.l);
  for (unsigned i = 0; i < sp.l; ++i) {
    EXPECT_EQ(sp.pieces[i].chassis, i / 2);
    EXPECT_EQ(sp.pieces[i].node, i % 2);
  }
}

TEST(ShardPlan, MaxLIsBoundedByRowsAndByTheMachine) {
  Rng rng(41);
  ContextConfig cfg;
  Runtime rt(cfg);

  // 4 rows on a 6-FPGA machine: rows bound.
  const auto a4 = rng.matrix(4, 32);
  const auto x4 = rng.vector(32);
  ShardScheduler sched(rt, small_system());
  EXPECT_EQ(sched.plan(OpDesc::gemv(a4, 4, 32, x4)).candidates.size(), 4u);
  EXPECT_THROW(sched.plan(OpDesc::gemv(a4, 4, 32, x4), 5), ConfigError);

  // 48 rows on a 2-FPGA machine: machine bound.
  machine::SystemConfig tiny;
  tiny.chassis_count = 1;
  tiny.chassis.nodes = 2;
  const auto a48 = rng.matrix(48, 32);
  const auto x48 = rng.vector(32);
  ShardScheduler small(rt, tiny);
  EXPECT_EQ(small.plan(OpDesc::gemv(a48, 48, 32, x48)).candidates.size(), 2u);
  EXPECT_THROW(small.plan(OpDesc::gemv(a48, 48, 32, x48), 3), ConfigError);
}

TEST(ShardPlan, RejectsUnshardableDescriptors) {
  Rng rng(43);
  ContextConfig cfg;
  Runtime rt(cfg);
  ShardScheduler sched(rt, small_system());

  const auto a = rng.matrix(16, 16);
  const auto x = rng.vector(16);
  // DRAM placement: the scatter legs are the staging.
  EXPECT_THROW(
      sched.plan(OpDesc::gemv(a, 16, 16, x, Placement::Dram)), ConfigError);
  // Column GEMV: the rows/k hazard bound breaks under row splitting.
  EXPECT_THROW(sched.plan(OpDesc::gemv(a, 16, 16, x, Placement::Sram,
                                       host::GemvArch::Column)),
               ConfigError);
  // Only the default designs split: no blocked GEMV, no array or
  // multi-FPGA GEMM.
  EXPECT_THROW(sched.plan(OpDesc::gemv_auto(a, 16, 16, x)), ConfigError);
  EXPECT_THROW(sched.plan(OpDesc::gemm_array(a, a, 16)), ConfigError);
  EXPECT_THROW(sched.plan(OpDesc::gemm_multi(a, a, 16)), ConfigError);
  // Only GEMM and GEMV shard.
  EXPECT_THROW(sched.plan(OpDesc::dot(x, x)), ConfigError);
  // Panel GEMM descriptors are derived by the scheduler, not passed in.
  EXPECT_THROW(sched.plan(OpDesc::gemm_panel(a, 16, a, 16)), ConfigError);

  // Degenerate machine shapes are rejected at construction.
  machine::SystemConfig broken;
  broken.chassis_count = 0;
  EXPECT_THROW(ShardScheduler bad(rt, broken), ConfigError);
}
