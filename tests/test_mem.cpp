// Memory-hierarchy model tests: capacities, port discipline, bandwidth
// throttling and DMA staging times.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "blas2/mxv_tree.hpp"
#include "blas3/mm_hier.hpp"
#include "machine/device.hpp"
#include "machine/system.hpp"
#include "mem/bram.hpp"
#include "mem/channel.hpp"
#include "mem/dma.hpp"
#include "mem/dram.hpp"
#include "mem/hierarchy.hpp"
#include "mem/memory.hpp"
#include "mem/sram_bank.hpp"
#include "model/perf_model.hpp"

using namespace xd;
using mem::Channel;
using mem::DmaEngine;
using mem::Dram;
using mem::SramBank;
using mem::WordMemory;

TEST(WordMemory, ReadWriteAndBounds) {
  WordMemory m(16, "t");
  m.write(3, 77);
  EXPECT_EQ(m.read(3), 77u);
  EXPECT_THROW(m.read(16), SimError);
  EXPECT_THROW(m.write(100, 0), SimError);
  EXPECT_EQ(m.words_read(), 1u);
  EXPECT_EQ(m.words_written(), 1u);
}

TEST(WordMemory, BulkLoadDumpNotCounted) {
  WordMemory m(8, "t");
  m.load(2, {1, 2, 3});
  EXPECT_EQ(m.dump(2, 3), (std::vector<u64>{1, 2, 3}));
  EXPECT_EQ(m.total_traffic_words(), 0u);  // host-side init is free
  EXPECT_THROW(m.load(7, {1, 2}), ConfigError);
  EXPECT_THROW(m.dump(7, 2), ConfigError);
}

TEST(Channel, SustainedRateEnforced) {
  Channel c(0.5, "t");  // one word every two cycles
  int transferred = 0;
  for (int cyc = 0; cyc < 100; ++cyc) {
    c.tick();
    if (c.can_transfer(1.0)) {
      c.transfer(1.0);
      ++transferred;
    }
  }
  EXPECT_EQ(transferred, 50);
  EXPECT_NEAR(c.utilization(), 1.0, 1e-9);
}

TEST(Channel, CreditDoesNotBankUnbounded) {
  Channel c(1.0, "t");  // burst cap defaults to rate + 2
  for (int cyc = 0; cyc < 100; ++cyc) c.tick();
  EXPECT_TRUE(c.can_transfer(3.0));
  EXPECT_FALSE(c.can_transfer(3.5));  // idle bandwidth is not banked
}

TEST(Channel, OverSubscriptionThrows) {
  Channel c(1.0, "t");
  c.tick();
  c.transfer(1.0);
  EXPECT_THROW(c.transfer(1.0), SimError);
}

TEST(Channel, WordsPerCycleConversion) {
  // 5.9 GB/s at 164 MHz ~= 4.497 words/cycle (the Table 4 GEMV numbers).
  const double wpc = Channel::words_per_cycle_for(5.9e9, 164e6);
  EXPECT_NEAR(wpc, 5.9e9 / (8.0 * 164e6), 1e-12);
  Channel c(wpc, "t");
  for (int cyc = 0; cyc < 1000; ++cyc) {
    c.tick();
    while (c.can_transfer(1.0)) c.transfer(1.0);
  }
  EXPECT_NEAR(c.achieved_bytes_per_s(164e6), 5.9e9, 0.01e9);
}

// ---- greedy drain vs the shard leg formula --------------------------------
// model::shard_timeline costs a store-and-forward leg of w words at
// ceil(w / rate) cycles (model::shard_leg_cycles). These tests pin how a
// Channel drained greedily, one whole word per credit, compares.

namespace {

/// Ticks `ch` until `words` whole words have crossed, moving each word as
/// soon as its credit is there.
u64 drain_ticks(Channel& ch, std::size_t words) {
  std::size_t moved = 0;
  u64 ticks = 0;
  while (moved < words) {
    ch.tick();
    ++ticks;
    while (moved < words && ch.can_transfer(1.0)) {
      ch.transfer(1.0);
      ++moved;
    }
  }
  return ticks;
}

/// Small counts plus the panel sizes the shard tests move (rows * n + n^2
/// scatter panels, rows * n gather panels).
std::vector<std::size_t> leg_words() {
  std::vector<std::size_t> w;
  for (std::size_t i = 1; i <= 64; ++i) w.push_back(i);
  for (std::size_t i : {432u, 576u, 768u, 1000u, 2688u, 2736u, 2880u, 3072u})
    w.push_back(i);
  return w;
}

/// RocketIO and RapidArray rates at the GEMM (mm-hier) and GEMV (tree)
/// engine clocks, the links and clocks the shard tests plan on.
std::vector<double> shard_link_rates() {
  const machine::SystemConfig sys;
  std::vector<double> rates;
  for (double mhz : {blas3::MmHierConfig{}.clock_mhz,
                     blas2::MxvTreeConfig{}.clock_mhz}) {
    rates.push_back(
        Channel::words_per_cycle_for(sys.chassis.link_bytes_per_s, mhz * 1e6));
    rates.push_back(Channel::words_per_cycle_for(sys.interchassis_bytes_per_s,
                                                 mhz * 1e6));
  }
  return rates;
}

/// Leaves `ch` holding the fractional credit of `ticks` greedy cycles:
/// below one word.
void leave_leftover_credit(Channel& ch, int ticks) {
  for (int t = 0; t < ticks; ++t) {
    ch.tick();
    while (ch.can_transfer(1.0)) ch.transfer(1.0);
  }
}

}  // namespace

TEST(ChannelLeg, GreedyDrainAtShardLinkRatesTakesExactlyTheLegFormula) {
  for (double rate : shard_link_rates()) {
    for (std::size_t w : leg_words()) {
      Channel ch(rate, "leg");
      EXPECT_EQ(drain_ticks(ch, w),
                model::shard_leg_cycles(static_cast<double>(w), rate))
          << "rate " << rate << ", " << w << " words";
    }
  }
}

TEST(ChannelLeg, LeftoverCreditShortensALegByAtMostItsWorth) {
  // Credit c < 1 word carried in from earlier traffic can only help: the
  // leg ends between ceil((w - 1) / rate) and ceil(w / rate) ticks, so a
  // leg floored at the formula costs exactly the formula.
  std::vector<double> rates = shard_link_rates();
  for (double r : {0.1, 0.3, 1.0 / 3.0, 0.7, 0.99, 1.1, 1.7, 2.5, 2.9})
    rates.push_back(r);
  for (double rate : rates) {
    for (int warm = 1; warm <= 5; ++warm) {
      for (std::size_t w : leg_words()) {
        Channel ch(rate, "leg");
        leave_leftover_credit(ch, warm);
        const u64 ticks = drain_ticks(ch, w);
        const double dw = static_cast<double>(w);
        EXPECT_LE(ticks, model::shard_leg_cycles(dw, rate))
            << "rate " << rate << ", warm " << warm << ", " << w << " words";
        EXPECT_GE(ticks, model::shard_leg_cycles(dw - 1.0, rate))
            << "rate " << rate << ", warm " << warm << ", " << w << " words";
      }
    }
  }
}

TEST(ChannelLeg, AwkwardFractionalRatesDriftAtMostOneTickFromZeroCredit) {
  // From zero credit the channel's repeated `credit += rate` can land a
  // rounding step below a whole word where the exact sum reaches it, so at
  // rates such as 0.1 or 1.7 a leg may take one tick more than the formula
  // — never fewer, never two more.
  for (double rate : {0.1, 0.3, 1.0 / 3.0, 0.7, 0.99, 1.1, 1.7, 2.5, 2.9}) {
    for (std::size_t w : leg_words()) {
      Channel ch(rate, "leg");
      const u64 ticks = drain_ticks(ch, w);
      const u64 formula = model::shard_leg_cycles(static_cast<double>(w), rate);
      EXPECT_GE(ticks, formula) << "rate " << rate << ", " << w << " words";
      EXPECT_LE(ticks, formula + 1) << "rate " << rate << ", " << w << " words";
    }
  }
}

TEST(SramBank, OnePortEachPerCycle) {
  SramBank b(64, "t");
  b.tick();
  b.write(0, 5);
  EXPECT_THROW(b.write(1, 6), SimError);  // one write port
  EXPECT_EQ(b.read(0), 5u);
  EXPECT_THROW(b.read(1), SimError);  // one read port
  b.tick();  // ports reopen
  EXPECT_NO_THROW(b.read(0));
  EXPECT_NO_THROW(b.write(1, 7));
}

TEST(SramBank, PeakBandwidthIsTwoWordsPerCycle) {
  SramBank b(64, "t");
  for (int cyc = 0; cyc < 100; ++cyc) {
    b.tick();
    b.read(0);
    b.write(1, 0);
  }
  EXPECT_NEAR(b.achieved_bytes_per_s(130e6), SramBank::peak_bytes_per_s(130e6),
              1.0);
  EXPECT_NEAR(SramBank::peak_bytes_per_s(130e6), 2.08e9, 0.01e9);
}

TEST(Dram, LinkThrottlesAccesses) {
  Dram d(128, 0.25, "t");  // one word every four cycles
  int reads = 0;
  for (int cyc = 0; cyc < 100; ++cyc) {
    d.tick();
    if (d.can_read()) {
      d.read(0);
      ++reads;
    }
  }
  EXPECT_EQ(reads, 25);
}

TEST(Dma, StagingTimeMatchesBandwidth) {
  // Stage 1024 words over a 0.99 words/cycle link (Table 4's GEMV staging):
  // ~1034 cycles expected.
  WordMemory src(2048, "src");
  WordMemory dst(2048, "dst");
  for (std::size_t i = 0; i < 1024; ++i) src.load(i, {i * 3 + 1});
  Channel link(0.99, "link");
  DmaEngine dma(link, /*port_cap=*/4);
  dma.start(src, 0, dst, 0, 1024);
  u64 cycles = 0;
  while (dma.active()) {
    link.tick();
    dma.tick();
    ++cycles;
    ASSERT_LT(cycles, 10'000u);
  }
  EXPECT_NEAR(static_cast<double>(cycles), 1024.0 / 0.99, 8.0);
  EXPECT_EQ(dst.dump(0, 1024), src.dump(0, 1024));
}

TEST(Dma, PortCapLimitsBurst) {
  WordMemory src(64, "src");
  WordMemory dst(64, "dst");
  Channel link(16.0, "fat-link");  // faster than the ports
  DmaEngine dma(link, /*port_cap=*/4);
  dma.start(src, 0, dst, 0, 32);
  u64 cycles = 0;
  while (dma.active()) {
    link.tick();
    dma.tick();
    ++cycles;
  }
  EXPECT_EQ(cycles, 8u);  // 32 words / 4 per cycle
}

TEST(Dma, CountersResetPerTransfer) {
  // Regression: start() used to keep the previous transfer's moved_ and
  // busy_cycles_, so a reused engine reported cumulative totals and the
  // second transfer's words_moved() never matched its size.
  WordMemory src(64, "src");
  WordMemory dst(64, "dst");
  Channel link(4.0, "link");
  DmaEngine dma(link);
  for (int pass = 0; pass < 2; ++pass) {
    dma.start(src, 0, dst, 0, 32);
    u64 cycles = 0;
    while (dma.active()) {
      link.tick();
      dma.tick();
      ++cycles;
    }
    EXPECT_EQ(dma.words_moved(), 32u) << "pass " << pass;
    EXPECT_EQ(dma.busy_cycles(), cycles) << "pass " << pass;
  }
}

TEST(Dma, OverlappingForwardCopyGetsMemmoveSemantics) {
  // Regression: a same-memory transfer whose destination starts inside the
  // source range (dst > src) used to re-read already-written words — the
  // word-by-word forward copy smeared src[0..3] across the whole range.
  WordMemory m(64, "m");
  for (std::size_t i = 0; i < 16; ++i) m.load(i, {100 + i});
  Channel link(2.0, "link");  // slow link: the overlap spans many cycles
  DmaEngine dma(link);
  dma.start(m, 0, m, 4, 16);  // shift [0, 16) up by 4
  while (dma.active()) {
    link.tick();
    dma.tick();
  }
  for (std::size_t i = 0; i < 16; ++i) {
    EXPECT_EQ(m.read(4 + i), 100 + i) << "offset " << i;
  }
  EXPECT_EQ(dma.words_moved(), 16u);
}

TEST(Dma, OverlapShiftDownStaysForward) {
  // dst < src overlap is safe front-to-back; make sure the reverse path
  // does not kick in and corrupt it.
  WordMemory m(64, "m");
  for (std::size_t i = 0; i < 16; ++i) m.load(4 + i, {200 + i});
  Channel link(3.0, "link");
  DmaEngine dma(link);
  dma.start(m, 4, m, 0, 16);  // shift [4, 20) down by 4
  while (dma.active()) {
    link.tick();
    dma.tick();
  }
  for (std::size_t i = 0; i < 16; ++i) {
    EXPECT_EQ(m.read(i), 200 + i) << "offset " << i;
  }
}

TEST(Hierarchy, Table1Constants) {
  const auto cray = mem::cray_xd1();
  EXPECT_EQ(cray.level(mem::Level::A).name, "BRAM");
  EXPECT_NEAR(cray.level(mem::Level::A).bytes, 522.0 * 1024, 1.0);
  EXPECT_NEAR(cray.level(mem::Level::A).bytes_per_s, 209e9, 1e6);
  EXPECT_NEAR(cray.level(mem::Level::B).bytes, 16.0 * 1024 * 1024, 1.0);
  EXPECT_NEAR(cray.level(mem::Level::B).bytes_per_s, 12.8e9, 1e6);
  EXPECT_NEAR(cray.level(mem::Level::C).bytes, 8.0 * 1024 * 1024 * 1024, 1.0);
  EXPECT_NEAR(cray.level(mem::Level::C).bytes_per_s, 3.2e9, 1e6);

  const auto src = mem::src_mapstation();
  EXPECT_NEAR(src.level(mem::Level::B).bytes, 24.0 * 1024 * 1024, 1.0);
  EXPECT_NEAR(src.level(mem::Level::C).bytes_per_s, 1.4e9, 1e6);
}

TEST(BramBudget, AllocateReleaseAndCapacity) {
  mem::BramBudget b(1000, "test");
  b.allocate("x", 600);
  EXPECT_EQ(b.used_words(), 600u);
  EXPECT_TRUE(b.fits(400));
  EXPECT_FALSE(b.fits(401));
  EXPECT_THROW(b.allocate("y", 401), ConfigError);
  EXPECT_TRUE(b.try_allocate("y", 400));
  EXPECT_FALSE(b.try_allocate("z", 1));
  b.release("x");
  EXPECT_EQ(b.free_words(), 600u);
  EXPECT_THROW(b.release("x"), ConfigError);
  EXPECT_THROW(b.allocate("y", 1), ConfigError);  // duplicate name
}

TEST(BramBudget, MaxSquareBlockEdgeMatchesFig9Choice) {
  // XC2VP50: ~4 Mb BRAM = 65536 words; the largest m with 2 m^2 <= capacity
  // is 181, and the paper picks the power-of-two m = 128 below it.
  mem::BramBudget b(machine::xc2vp50());
  EXPECT_EQ(b.capacity_words(), 65536u);
  EXPECT_EQ(b.max_square_block_edge(), 181u);
  EXPECT_GE(b.max_square_block_edge(), 128u);
}

TEST(BramBudget, ReportListsRegions) {
  mem::BramBudget b(100, "dev");
  b.allocate("alpha", 10);
  b.allocate("beta", 20);
  const auto rep = b.report();
  EXPECT_NE(rep.find("alpha: 10"), std::string::npos);
  EXPECT_NE(rep.find("beta: 20"), std::string::npos);
  EXPECT_NE(rep.find("30/100"), std::string::npos);
}
