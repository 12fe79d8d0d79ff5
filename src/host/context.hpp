// xdblas public API.
//
// A Context binds the BLAS engines to a machine description (device, clocks,
// memory bandwidths — by default one Cray XD1 node as measured in the paper)
// and exposes the three operations the library implements:
//
//   xd::host::Context ctx;                       // one XD1 node
//   auto d = ctx.dot(u, v);                       // Level 1
//   auto y = ctx.gemv(a, n, n, x);                // Level 2 (tree design)
//   auto c = ctx.gemm(a, b, n);                   // Level 3 (PE array + SRAM)
//
// Every call returns the numeric result together with a PerfReport (cycles,
// seconds at the design's post-P&R clock, sustained MFLOPS, achieved
// bandwidths) — the same columns the paper's Tables 3/4 report.
//
// Source placement matters for the I/O-bound operations: Placement::Sram
// streams operands from the FPGA's SRAM banks; Placement::Dram prepends the
// DRAM->SRAM staging phase over the RapidArray link, reproducing the
// 8.0 ms / 1.6 ms split of Table 4.
//
// Context is a thin synchronous facade over host::Runtime: each call builds
// (or fetches from the plan cache) an immutable Plan, runs the engine on the
// calling thread, and converts the unified Outcome back to the per-op type.
// For batched / concurrent execution use runtime() directly:
//
//   auto fut = ctx.runtime().submit(host::OpDesc::gemv(a, n, n, x));
//   auto out = fut.get();                         // Outcome or exception
#pragma once

#include <cstddef>
#include <memory>
#include <vector>

#include "host/config.hpp"
#include "host/op.hpp"
#include "host/runtime.hpp"
#include "machine/area.hpp"
#include "mem/bram.hpp"
#include "mem/hierarchy.hpp"

namespace xd::host {

class Context {
 public:
  Context() : Context(ContextConfig{}) {}
  explicit Context(const ContextConfig& cfg);

  /// Level 1 BLAS: u . v.
  DotResult dot(const std::vector<double>& u, const std::vector<double>& v,
                Placement src = Placement::Sram) const;

  /// Batched dot products (one reduction set each, back to back).
  blas1::DotOutcome dot_batch(const std::vector<std::vector<double>>& us,
                              const std::vector<std::vector<double>>& vs) const;

  /// Level 2 BLAS: y = A x (row-major A, rows x cols).
  blas2::MxvOutcome gemv(const std::vector<double>& a, std::size_t rows,
                         std::size_t cols, const std::vector<double>& x,
                         Placement src = Placement::Sram,
                         GemvArch arch = GemvArch::Tree) const;

  /// Level 3 BLAS: C = A B (row-major, n x n). If n is not a multiple of the
  /// configured SRAM panel edge, the largest compatible edge is chosen
  /// automatically (see choose_panel_edge); n must still be a multiple of m.
  blas3::MmHierOutcome gemm(const std::vector<double>& a,
                            const std::vector<double>& b, std::size_t n) const;

  /// Largest SRAM panel edge <= mm_b that tiles the given n (throws
  /// ConfigError if none exists — use the compat layer's padding then).
  std::size_t choose_panel_edge(std::size_t n) const;

  /// Cycle-accurate single-FPGA GEMM (the Sec 5.1 array without SRAM
  /// blocking); n must be a multiple of m.
  blas3::MmOutcome gemm_array(const std::vector<double>& a,
                              const std::vector<double>& b, std::size_t n) const;

  /// Cycle-accurate multi-FPGA GEMM pipeline (block-event simulation of the
  /// Sec 5.2 chain across mm_l FPGAs); n must be a multiple of b.
  blas3::MmMultiOutcome gemm_multi(const std::vector<double>& a,
                                   const std::vector<double>& b,
                                   std::size_t n) const;

  /// Sparse matrix-vector multiply (CRS) on the tree architecture — the
  /// paper's SpMXV extension ([32], Sec 7). x must fit on chip.
  blas2::MxvOutcome spmxv(const blas2::CrsMatrix& a,
                          const std::vector<double>& x) const;

  /// GEMV with automatic fallback to the blocked variant (Sec 4.2, last
  /// paragraph) when x does not fit the device's on-chip memory alongside
  /// the design's buffers.
  blas2::MxvOutcome gemv_auto(const std::vector<double>& a, std::size_t rows,
                              std::size_t cols,
                              const std::vector<double>& x) const;

  /// BRAM floorplan of the GEMV design for a cols-wide x; throws ConfigError
  /// if the design cannot be built on the configured device.
  mem::BramBudget gemv_bram_plan(std::size_t cols) const;
  /// BRAM floorplan of the GEMM array (2 m^2 block stores + B registers).
  mem::BramBudget gemm_bram_plan() const;
  /// Words of x the GEMV design can keep on-chip next to its buffers.
  std::size_t gemv_onchip_x_capacity() const;

  /// The plan/execute runtime behind this context: submit(OpDesc) for
  /// concurrent jobs, run_batch() for fan-out/wait, plan_cache() for the
  /// memoized plans. Shared worker pool, per-context plan cache.
  Runtime& runtime() const { return *runtime_; }

  const ContextConfig& config() const { return cfg_; }
  const machine::AreaModel& area_model() const { return area_; }

  /// Post-P&R characteristics of the configured designs (Tables 3 / 4).
  machine::DesignArea dot_design_area() const;
  machine::DesignArea gemv_design_area() const;
  machine::DesignArea gemm_design_area() const;

 private:
  ContextConfig cfg_;
  machine::AreaModel area_;
  std::unique_ptr<Runtime> runtime_;
};

}  // namespace xd::host
