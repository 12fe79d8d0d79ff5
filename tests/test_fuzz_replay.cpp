// Golden replay of the differential-fuzz corpus plus harness self-tests:
// the corpus cases must keep passing every invariant, the case serializer
// must round-trip, generation must be deterministic per (seed, index), and
// the shrinker must keep reproducing the same invariant it started from.
#include <gtest/gtest.h>

#include <cmath>

#include "testing/fuzz.hpp"

using namespace xd;
using namespace xd::testing;

#ifndef XD_CORPUS_FILE
#define XD_CORPUS_FILE "tests/corpus/regressions.fz"
#endif

TEST(FuzzReplay, CorpusPassesEveryInvariant) {
  std::vector<std::string> lines;
  const auto sum = replay_corpus(XD_CORPUS_FILE,
                                 [&](const std::string& s) { lines.push_back(s); });
  EXPECT_GT(sum.cases_run, 0u) << "corpus file missing or empty";
  EXPECT_EQ(sum.failures, 0u) << (lines.empty() ? "" : lines.front());
}

TEST(FuzzReplay, SeededSweepIsClean) {
  FuzzOptions opts;
  opts.seed = 2005;
  opts.ops = 60;
  opts.log = [](const std::string&) {};
  EXPECT_EQ(run_fuzz(opts).failures, 0u);

  opts.seed = 42;
  opts.ops = 40;
  EXPECT_EQ(run_fuzz(opts).failures, 0u);
}

// The hand-minimized boundary regressions, pinned in code as well as in the
// corpus so a corpus edit cannot silently drop them.
TEST(FuzzReplay, HandMinimizedRegressions) {
  const char* lines[] = {
      "xdfuzz1 kind=dot err=zero_shape vseed=1",       // empty vector dot
      "xdfuzz1 kind=gemv rows=1 cols=64 vseed=1",      // 1 x N
      "xdfuzz1 kind=gemv rows=64 cols=1 vseed=1",      // N x 1
      "xdfuzz1 kind=gemm_array n=8 vseed=1 mm_k=1 mm_m=8",  // single-PE MM
      "xdfuzz1 kind=spmxv rows=8 cols=8 vseed=1",      // all-zero sparse
  };
  for (const char* line : lines) {
    const auto fail = check_case(FuzzCase::from_line(line));
    EXPECT_FALSE(fail.has_value())
        << line << " -> [" << fail->invariant << "] " << fail->detail;
  }
}

TEST(FuzzCaseIo, LineRoundTripsEveryField) {
  for (u64 i = 0; i < 200; ++i) {
    const FuzzCase fc = generate_case(7, i);
    const FuzzCase back = FuzzCase::from_line(fc.to_line());
    EXPECT_EQ(back.to_line(), fc.to_line());
    EXPECT_EQ(back.kind, fc.kind);
    EXPECT_EQ(back.placement, fc.placement);
    EXPECT_EQ(back.engine, fc.engine);
    EXPECT_EQ(back.mode, fc.mode);
    EXPECT_EQ(back.sabotage, fc.sabotage);
    EXPECT_EQ(back.rows, fc.rows);
    EXPECT_EQ(back.cols, fc.cols);
    EXPECT_EQ(back.n, fc.n);
    EXPECT_EQ(back.batch, fc.batch);
    EXPECT_EQ(back.nnz_per_row, fc.nnz_per_row);
    EXPECT_EQ(back.vseed, fc.vseed);
    EXPECT_EQ(back.dot_k, fc.dot_k);
    EXPECT_EQ(back.gemv_k, fc.gemv_k);
    EXPECT_EQ(back.mm_k, fc.mm_k);
    EXPECT_EQ(back.mm_m, fc.mm_m);
    EXPECT_EQ(back.mm_b, fc.mm_b);
    EXPECT_EQ(back.mm_l, fc.mm_l);
  }
}

TEST(FuzzCaseIo, MalformedLinesThrow) {
  EXPECT_THROW(FuzzCase::from_line("kind=dot cols=4"), ConfigError);  // no header
  EXPECT_THROW(FuzzCase::from_line("xdfuzz1 cols=4"), ConfigError);   // no kind
  EXPECT_THROW(FuzzCase::from_line("xdfuzz1 kind=quux"), ConfigError);
  EXPECT_THROW(FuzzCase::from_line("xdfuzz1 kind=dot cols=abc"), ConfigError);
  EXPECT_THROW(FuzzCase::from_line("xdfuzz1 kind=dot frob=1"), ConfigError);
}

TEST(FuzzGenerate, DeterministicPerSeedAndIndex) {
  for (u64 i = 0; i < 100; ++i) {
    EXPECT_EQ(generate_case(11, i).to_line(), generate_case(11, i).to_line());
  }
  // Different seeds decorrelate: at least some of the first 20 cases differ.
  int differing = 0;
  for (u64 i = 0; i < 20; ++i) {
    if (generate_case(1, i).to_line() != generate_case(2, i).to_line()) {
      ++differing;
    }
  }
  EXPECT_GT(differing, 10);
}

TEST(FuzzGenerate, MaterializedCasesAreHonestUnlessSabotaged) {
  // Every non-sabotaged generated case must pass validation: OpDesc::validate
  // for single-op kinds, GraphDesc::validate for graph kinds (whose node
  // descs legitimately carry null edge-fed slots). Solver kinds have no
  // descriptor and are skipped.
  for (u64 i = 0; i < 150; ++i) {
    const FuzzCase fc = generate_case(13, i);
    if (fc.kind == FuzzKind::JacobiBatch || fc.kind == FuzzKind::Cg) continue;
    CaseData data;
    materialize(fc, data);
    if (fc.sabotage == Sabotage::None) {
      if (fc.kind == FuzzKind::Graph) {
        EXPECT_NO_THROW(data.graph.validate()) << fc.to_line();
      } else {
        EXPECT_NO_THROW(data.desc.validate()) << fc.to_line();
      }
    }
  }
}

TEST(FuzzValues, ExactModeDrawsNonzeroSmallIntegers) {
  Rng rng(99);
  for (int i = 0; i < 1000; ++i) {
    const double v = draw_value(rng, ValueMode::Exact);
    EXPECT_NE(v, 0.0);
    EXPECT_LE(std::fabs(v), 32.0);
    EXPECT_EQ(v, std::nearbyint(v)) << "Exact mode must draw integers";
  }
}

TEST(FuzzShrink, KeepsFailingTheSameInvariant) {
  // A case the harness genuinely rejects: the column GEMV's RAW-hazard
  // constraint (ceil(rows/k) >= adder stages) fails without being marked
  // expect_error, so check_case reports unexpected-exception.
  const FuzzCase failing =
      FuzzCase::from_line("xdfuzz1 kind=gemv rows=6 cols=40 arch=col vseed=9");
  const auto fail = check_case(failing);
  ASSERT_TRUE(fail.has_value());

  const ShrinkResult res = shrink_case(failing, *fail);
  EXPECT_GT(res.steps, 0);
  EXPECT_EQ(res.failure.invariant, fail->invariant);
  EXPECT_LE(res.minimal.rows, failing.rows);
  EXPECT_LE(res.minimal.cols, failing.cols);
  // The shrunk case must still reproduce on its own.
  const auto again = check_case(res.minimal);
  ASSERT_TRUE(again.has_value());
  EXPECT_EQ(again->invariant, fail->invariant);
}
