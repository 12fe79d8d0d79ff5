// Differential fuzz harness: seeded case generation, the metamorphic
// invariant checker, failure shrinking, and corpus replay.
//
// The checker runs each case through the full plan/execute runtime and
// verifies, in order:
//   oracle          engine values == naive softfloat oracle (bitwise in
//                   Exact mode, magnitude-scaled tolerance in Uniform mode)
//   plan-cache      a cache-hit rerun is bit-identical (values AND cycles)
//                   to the cold-miss run, and a fresh runtime reproduces it
//   concurrency     submit() and a 3-way run_batch() are bit-identical to
//                   the sequential run, including cycle counts
//   backend-equivalence  rerunning under the other fp backend (softfloat vs
//                   conformance-verified native FPU) is bit-identical —
//                   values AND cycle counts — for every op and solver kind;
//                   skipped only on hosts whose FPU fails conformance
//   telemetry       a run with a live Session produces identical numerics
//                   and all four exporters emit valid JSON
//   size-monotone   cycles do not decrease when the problem grows (checked
//                   by running a halved sibling of the same case)
//   pe-monotone     cycles do not increase when the GEMV PE count doubles
//                   (bandwidth scales with k on that design), guarded to
//                   streaming-dominated shapes where the model guarantees it
//   error-path      sabotaged cases throw ConfigError through run(),
//                   submit() futures and run_batch() — never a crash or
//                   SimError; a corrupted design knob is refused when the
//                   Runtime, a Context or a plan is built from it
//   solver          jacobi_dense_batch == per-rhs jacobi_dense bitwise;
//                   cg_dense is deterministic, converges, and its reported
//                   residual matches an independent recomputation
//   graph-fused-*   a fused DAG run (run_graph) reproduces per-node
//                   single-op execution bit for bit — values and engine
//                   compute cycles — with the staging gap exactly equal to
//                   the reported per-node savings; checked under both fp
//                   backends, through the graph plan cache, and through
//                   submit_graph()
//
// A failing case is shrunk to a minimal reproducing FuzzCase (greedy
// candidate descent on a strictly decreasing size measure) and appended to
// a corpus file that tools/xdblas_fuzz and tests/test_fuzz_replay.cpp
// replay as a golden-regression suite.
#pragma once

#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "testing/case.hpp"

namespace xd::testing {

struct CheckFailure {
  std::string invariant;  ///< which check tripped (e.g. "oracle", "plan-cache")
  std::string detail;     ///< human-readable specifics
};

/// Run every applicable invariant for one case. Returns std::nullopt when
/// all pass. Exceptions other than the expected ConfigError paths are
/// converted into failures (invariant "unexpected-exception").
std::optional<CheckFailure> check_case(const FuzzCase& fc);

/// Deterministic case for (master seed, index): the same pair always yields
/// the same FuzzCase, independent of any other index.
FuzzCase generate_case(u64 seed, u64 index);

/// Greedily minimize a failing case: repeatedly adopt any strictly smaller
/// candidate that still fails (any invariant). Returns the minimal case and
/// its failure.
struct ShrinkResult {
  FuzzCase minimal;
  CheckFailure failure;
  int steps = 0;  ///< adopted reductions
};
ShrinkResult shrink_case(const FuzzCase& failing, const CheckFailure& failure);

// ---- corpus ---------------------------------------------------------------

/// Parse a corpus file: '#' comments and blank lines skipped, one FuzzCase
/// per remaining line. Throws ConfigError (with line number) on bad input.
std::vector<FuzzCase> load_corpus(const std::string& path);

/// Append one case (with a provenance comment) to a corpus file.
void append_corpus(const std::string& path, const FuzzCase& fc,
                   const std::string& comment);

// ---- drivers --------------------------------------------------------------

struct FuzzOptions {
  u64 seed = 2005;
  u64 ops = 500;            ///< cases to generate (ignored if time_budget_ms)
  u64 time_budget_ms = 0;   ///< stop generating after this wall-clock budget
  std::string corpus_out;   ///< append shrunk failures here (empty: don't)
  u64 max_failures = 5;     ///< stop after this many distinct failures
  bool verbose = false;
  /// Progress/diagnostic sink (default: stdout via std::printf).
  std::function<void(const std::string&)> log;
};

struct FuzzSummary {
  u64 cases_run = 0;
  u64 failures = 0;
  std::vector<std::string> failure_lines;  ///< shrunk corpus lines
};

/// Generate-and-check loop. Deterministic for a fixed seed when
/// time_budget_ms is 0.
FuzzSummary run_fuzz(const FuzzOptions& opts);

/// Replay every case in a corpus file; returns the number of failures and
/// logs each one.
FuzzSummary replay_corpus(const std::string& path,
                          std::function<void(const std::string&)> log = {});

}  // namespace xd::testing
