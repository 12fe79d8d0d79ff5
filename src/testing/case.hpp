// Differential-testing case layer: one FuzzCase fully describes one
// randomized scenario — what operation to run, at what shapes, on which
// machine configuration, with which operand values — as a pure value type
// that serializes to a single corpus line and replays deterministically.
//
// The split from the generator/checker (fuzz.hpp) matters: a corpus entry
// must replay years later without the generator that produced it, so the
// line format encodes everything (shapes, placement, engine request, machine
// knobs, value mode, value seed, expected-failure marker) and materialize()
// rebuilds the operand data from the value seed alone.
#pragma once

#include <cstddef>
#include <deque>
#include <string>
#include <string_view>

#include "blas2/spmxv.hpp"
#include "common/random.hpp"
#include "host/graph.hpp"
#include "host/op.hpp"

namespace xd::testing {

/// Everything the fuzzer can exercise: the five OpDesc kinds (with their
/// engine requests in FuzzCase::engine), the two solver drivers (which run
/// *through* the runtime but are checked with solver-level invariants),
/// fused op graphs (small DAGs over the fusable
/// kinds, checked fused-vs-unfused), and sharded multi-FPGA execution
/// (a GEMM or tree GEMV re-run through host::ShardScheduler at l in
/// {1, 2, 3, 6}, checked bit-identical to the single-device run).
enum class FuzzKind {
  Dot,
  DotBatch,
  Gemv,
  Spmxv,
  Gemm,
  JacobiBatch,
  Cg,
  Graph,
  Sharded,
};

/// The corpus name of (kind, request). The op kinds use the host op names,
/// aliases included (gemv_auto, gemm_array, gemm_multi); a column GEMV is
/// "gemv" plus an arch=col token.
const char* fuzz_kind_name(
    FuzzKind kind, host::EngineRequest engine = host::EngineRequest::Default);
bool fuzz_kind_from_name(std::string_view name, FuzzKind& kind,
                         host::EngineRequest& engine);

/// Shape of a FuzzKind::Graph case. The two named forms mirror the fused
/// chains the solvers actually run (CG's GEMV->DOT step, Jacobi's shared-A
/// sweep); Random draws an arbitrary 2-4 node DAG over dot/gemv/spmxv with
/// edges from any length-n producer into any length-n slot.
enum class GraphForm { Random, CgStep, JacobiSweep };

const char* graph_form_name(GraphForm form);
bool graph_form_from_name(std::string_view name, GraphForm& out);

/// How operand values are drawn. The mode decides which oracle comparison
/// is sound (see docs/testing.md):
///  - Exact: nonzero integers in [-32, 32]. Every product and every partial
///    sum the engines can form is an exact integer far below 2^53, so *any*
///    association order yields identical bits — the naive softfloat oracle
///    is bit-exact by construction and the harness compares bitwise.
///  - Uniform: doubles in [-1, 1); the engines' reduction reassociates, so
///    the oracle comparison uses a magnitude-scaled tolerance.
///  - Extreme: subnormals, huge magnitudes, zeros, infinities and NaNs.
///    Associativity breaks down entirely (inf - inf, double rounding), so
///    only the value-independent invariants (determinism, concurrency,
///    plan-cache, telemetry, timing) are checked.
enum class ValueMode { Exact, Uniform, Extreme };

const char* value_mode_name(ValueMode mode);
bool value_mode_from_name(std::string_view name, ValueMode& out);

/// Ways an intentionally malformed case is broken. Every sabotage must
/// surface as ConfigError — through run(), submit() futures and run_batch()
/// — never as a crash, hang, or SimError. A DesignKnob sabotage is refused
/// where the configuration enters, before any of them can be reached.
enum class Sabotage {
  None,
  OperandLength,   ///< an operand vector shorter than the declared shape
  ZeroShape,       ///< rows/cols/n/batch of zero
  OverflowShape,   ///< rows*cols (or n*n) wraps size_t
  SparseStructure, ///< corrupted CRS (row_ptr/col_idx inconsistencies)
  Indivisible,     ///< GEMM n incompatible with the configured m/b tiling
  DesignKnob,      ///< one engine knob zero, not dividing, or absurdly large
};

const char* sabotage_name(Sabotage s);
bool sabotage_from_name(std::string_view name, Sabotage& out);

struct FuzzCase {
  FuzzKind kind = FuzzKind::Dot;
  host::Placement placement = host::Placement::Sram;
  host::EngineRequest engine = host::EngineRequest::Default;
  ValueMode mode = ValueMode::Exact;
  Sabotage sabotage = Sabotage::None;

  GraphForm gform = GraphForm::Random;  ///< FuzzKind::Graph chain shape

  std::size_t rows = 0;   ///< GEMV/SpMXV/solvers
  std::size_t cols = 0;   ///< dot length; GEMV/SpMXV cols
  std::size_t n = 0;      ///< GEMM edge; solver system size; Graph vector len
  std::size_t batch = 0;  ///< DotBatch pairs; JacobiBatch rhs; Graph nodes
  std::size_t nnz_per_row = 0;  ///< SpMXV target nonzeros per row

  u64 vseed = 1;  ///< seed for operand value/structure generation

  /// Override of ContextConfig::sram_capacity_words (0 keeps the default).
  /// Lets tiny graph cases exercise the planner's capacity-fallback path
  /// without multi-second shapes.
  std::size_t sram_cap = 0;

  // Machine-configuration overrides; 0 keeps the ContextConfig default.
  unsigned dot_k = 0;
  unsigned gemv_k = 0;
  unsigned mm_k = 0;
  unsigned mm_m = 0;
  std::size_t mm_b = 0;
  unsigned mm_l = 0;

  bool expect_error() const { return sabotage != Sabotage::None; }

  /// The machine configuration this case runs against. mm_adder_stages is
  /// clamped to the m^2/k accumulation-slot bound so every generated PE
  /// geometry is constructible. A DesignKnob sabotage then corrupts one of
  /// the kind's knobs, chosen by the value seed.
  host::ContextConfig config() const;

  /// One corpus line: `xdfuzz1 kind=... [key=value ...]`. Defaulted fields
  /// are omitted; parse() accepts the keys in any order.
  std::string to_line() const;

  /// Parse a to_line() string; throws ConfigError with the offending token
  /// on malformed input.
  static FuzzCase from_line(const std::string& line);
};

/// Materialized operands for one case. OpDesc points into this struct's own
/// vectors, so the struct is pinned: no copies, no moves.
struct CaseData {
  std::vector<double> a, b, x;
  std::vector<std::vector<double>> us, vs;
  blas2::CrsMatrix sparse;
  std::vector<std::vector<double>> rhs;  ///< solver right-hand sides
  host::OpDesc desc;                     ///< unset for solver/graph kinds
  host::GraphDesc graph;                 ///< set for FuzzKind::Graph
  /// Graph operand storage: a deque keeps every vector's address stable as
  /// more operands are drawn, so node OpDescs can point into it.
  std::deque<std::vector<double>> pool;

  CaseData() = default;
  CaseData(const CaseData&) = delete;
  CaseData& operator=(const CaseData&) = delete;
};

/// Deterministically rebuild the operand data (and the OpDesc for op kinds)
/// from the case's value seed. Sabotaged cases produce the corrupted
/// operands their sabotage describes.
void materialize(const FuzzCase& fc, CaseData& data);

/// One value in the given mode (exposed for tests).
double draw_value(Rng& rng, ValueMode mode);

}  // namespace xd::testing
