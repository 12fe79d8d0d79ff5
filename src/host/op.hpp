// Unified operation / outcome layer for the host runtime.
//
// Every operation the library implements is described by one OpDesc and
// produces one Outcome. An OpDesc names one of five semantic kinds (dot,
// dot-batch, GEMV, SpMXV, GEMM), its shapes and placement, and an engine
// request: which of the kind's designs to run (tree, column or blocked
// GEMV; hierarchical, array or multi-FPGA GEMM). The engine is a plan
// choice, not a kind. The op names gemv_auto, gemm_array and gemm_multi are
// aliases of (Gemv, Blocked), (Gemm, Array) and (Gemm, Multi).
//
// The engines keep their native outcome structs; the to_outcome() overloads
// adapt them into the unified type and the thin as_*() accessors convert
// back, so the Context facade preserves its return types exactly.
//
// OpDesc does not own its operands: the caller keeps the vectors alive
// until the operation's Outcome (or future) has been consumed. The
// factories below are the supported way to build descriptors.
#pragma once

#include <cstddef>
#include <string_view>
#include <vector>

#include "blas1/dot_engine.hpp"
#include "blas2/mxv_tree.hpp"
#include "blas2/spmxv.hpp"
#include "blas3/mm_array.hpp"
#include "blas3/mm_hier.hpp"
#include "blas3/mm_multi.hpp"
#include "host/config.hpp"

namespace xd::host {

enum class OpKind {
  Dot,       ///< u . v (Level 1)
  DotBatch,  ///< batched dot products, one reduction set each
  Gemv,      ///< y = A x (Level 2)
  Spmxv,     ///< sparse y = A x (CRS, tree design)
  Gemm,      ///< C = A B (Level 3)
};

/// The op name of (kind, request): the alias for a blocked GEMV or an
/// array/multi GEMM, else the kind's own name ("dot", "dot_batch", "gemv",
/// "spmxv", "gemm"; a column GEMV is "gemv").
const char* op_name(OpKind kind, EngineRequest engine = EngineRequest::Default);
const char* engine_request_name(EngineRequest engine);
const char* placement_name(Placement p);

/// x * y with an overflow check (throws ConfigError): a wrapped rows * cols
/// can equal a tiny operand's size and pass a naive equality test, after
/// which the engine indexes far past the operand's end.
std::size_t shape_product(std::size_t x, std::size_t y, const char* what);

// Parse hooks for the serialized descriptor form (the fuzz corpus, the CLI
// tune command). Return false on an unknown name. op_from_name accepts the
// five kind names and the three aliases.
bool op_from_name(std::string_view name, OpKind& kind, EngineRequest& engine);
bool placement_from_name(std::string_view name, Placement& out);
bool gemv_arch_from_name(std::string_view name, GemvArch& out);

/// Result of a single dot product.
struct DotResult {
  double value = 0.0;
  PerfReport report;
};

/// The one outcome type every engine run is adapted into. `values` holds
/// the numeric payload (the dot results, y, or row-major C); op-specific
/// extras keep their engine-native meaning and are defaulted elsewhere.
struct Outcome {
  std::vector<double> values;
  PerfReport report;

  // Multi-FPGA GEMM extras (see blas3::MmMultiOutcome).
  std::vector<blas3::FpgaStats> per_fpga;
  double dram_words = 0.0;
  double link_words = 0.0;

  // Hierarchical GEMM model extras (see blas3::MmHierOutcome).
  double required_dram_words_per_cycle = 0.0;
  double required_link_words_per_cycle = 0.0;
  double required_sram_words_per_cycle = 0.0;
  double sram_panel_words = 0.0;

  // Thin per-op accessors: today's return types, rebuilt from the unified
  // fields. The &&-qualified ones move the payload out.
  DotResult as_dot() const;
  blas1::DotOutcome as_dot_batch() &&;
  blas2::MxvOutcome as_mxv() &&;
  blas3::MmOutcome as_mm() &&;
  blas3::MmHierOutcome as_mm_hier() &&;
  blas3::MmMultiOutcome as_mm_multi() &&;
};

// Adapters: the engines' native outcomes -> the unified Outcome.
Outcome to_outcome(blas1::DotOutcome&& o);
Outcome to_outcome(blas2::MxvOutcome&& o);
Outcome to_outcome(blas3::MmOutcome&& o);
Outcome to_outcome(blas3::MmHierOutcome&& o);
Outcome to_outcome(blas3::MmMultiOutcome&& o);

/// One operation, fully described. Build with the factories; shapes live
/// here (they key the plan cache), operands stay caller-owned.
struct OpDesc {
  OpKind kind = OpKind::Dot;
  Placement placement = Placement::Sram;
  EngineRequest engine = EngineRequest::Default;  ///< which of kind's designs
  std::size_t rows = 0;  ///< GEMV: rows of A; Gemm: panel rows (0 = square)
  std::size_t cols = 0;  ///< dot: n; GEMV: cols of A
  std::size_t n = 0;     ///< GEMM: matrix edge
  std::size_t batch = 0; ///< DotBatch: number of pairs

  const std::vector<double>* a = nullptr;  ///< matrix A (or dot operand u)
  const std::vector<double>* b = nullptr;  ///< matrix B (or dot operand v)
  const std::vector<double>* x = nullptr;  ///< vector operand
  const blas2::CrsMatrix* sparse = nullptr;
  const std::vector<std::vector<double>>* us = nullptr;
  const std::vector<std::vector<double>>* vs = nullptr;

  static OpDesc dot(const std::vector<double>& u, const std::vector<double>& v,
                    Placement src = Placement::Sram);
  static OpDesc dot_batch(const std::vector<std::vector<double>>& us,
                          const std::vector<std::vector<double>>& vs);
  static OpDesc gemv(const std::vector<double>& a, std::size_t rows,
                     std::size_t cols, const std::vector<double>& x,
                     Placement src = Placement::Sram,
                     GemvArch arch = GemvArch::Tree);
  /// GEMV with the blocked fallback (Sec 4.2, last paragraph) when x does
  /// not fit on chip: (Gemv, Blocked).
  static OpDesc gemv_auto(const std::vector<double>& a, std::size_t rows,
                          std::size_t cols, const std::vector<double>& x);
  static OpDesc spmxv(const blas2::CrsMatrix& a, const std::vector<double>& x);
  static OpDesc gemm(const std::vector<double>& a, const std::vector<double>& b,
                     std::size_t n);
  /// Row-panel GEMM: C = A B where A is rows x n and B is n x n. This is
  /// the sub-op shape the shard scheduler dispatches (hierarchical engine
  /// only); rows == 0 is reserved to mean "square" on a plain gemm().
  static OpDesc gemm_panel(const std::vector<double>& a, std::size_t rows,
                           const std::vector<double>& b, std::size_t n);
  /// (Gemm, Array) and (Gemm, Multi): the Sec 5.1 array and the Sec 5.2
  /// multi-FPGA chain.
  static OpDesc gemm_array(const std::vector<double>& a,
                           const std::vector<double>& b, std::size_t n);
  static OpDesc gemm_multi(const std::vector<double>& a,
                           const std::vector<double>& b, std::size_t n);

  /// Check the engine request against the kind and the operand
  /// pointers/sizes against the declared shapes; throws ConfigError on a
  /// mismatch, on a shape product that overflows size_t
  /// (a wrapped rows*cols could otherwise alias a tiny operand and send the
  /// engine out of bounds), or on a structurally invalid sparse matrix.
  /// Runs before any plan is built.
  void validate() const;
};

}  // namespace xd::host
