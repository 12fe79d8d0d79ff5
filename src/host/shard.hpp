// Sharded multi-FPGA execution (Sec 6.4 made runnable; docs/sharding.md).
//
// One large GEMM/GEMV is split into l row-panel sub-ops, mapped onto the
// FPGA chain of a machine::SystemConfig (prefix placement: global nodes
// 0..l-1, walking each chassis's RocketIO chain and the inter-chassis
// RapidArray links in order), planned through the existing plan layer,
// executed concurrently on the shared work-stealing pool, and reduced in a
// fixed deterministic order. The scatter of operand panels to their nodes
// and the gather of result panels back to node 0 are explicit
// store-and-forward transfer legs on model::shard_timeline, so the reduced
// cycle count and the link word totals include the communication the
// projections of model/projections.cpp only estimate.
//
// Determinism contract (pinned by tests/test_shard.cpp and the fuzz
// harness's Sharded invariant):
//   - Values, GEMM: bit-identical to single-device execution for every l.
//     The hierarchical engine accumulates each C element over the full
//     inner dimension in ascending index order, so a row panel computes
//     exactly the rows it would in the whole problem.
//   - Values, GEMV: bit-identical at l = 1 (the sub-op IS the original op)
//     and wherever the association order cannot change the bits (integer
//     operands). At l > 1 the Sec 3 reduction circuit pairs a row's chunk
//     sums in an order that depends on which other rows share Buf_red and
//     on fold-path adder contention, so splitting the row set reassociates
//     the sums: results agree with single-device execution to the same
//     magnitude-scaled tolerance the testing oracle uses, not bitwise.
//   - Reproducibility: for every kind, mode and l, rerunning a sharded op
//     yields bit-identical values and identical per-shard timelines.
//   - Cycles: the reduced count is a deterministic function of (shapes, l,
//     machine config) — identical across reruns and across concurrent /
//     sequential shard execution. At l = 1 it equals single-device
//     execution exactly (no transfer legs).
//   - Model: plan() and run() share one timeline (model::shard_timeline);
//     plan() feeds it the modeled panel cycles, run() the observed engine
//     cycles. For GEMM the panel model is exact under the fixed tune
//     policy, so run()'s cycles equal plan().model_cycles cycle-for-cycle,
//     the engines' model == sim check lifted to the chain. GEMV engines
//     carry pipeline-tail cycles the closed-form gemv_model_cycles omits,
//     so their shard model is ranking-grade, not exact.
//
// Clock domains: link rates are converted to words per cycle of the op's
// engine clock (mem::Channel::words_per_cycle_for), so link legs and engine
// cycles share one domain (the same convention MmHierConfig uses for its
// own link rates).
#pragma once

#include <cstddef>
#include <vector>

#include "host/op.hpp"
#include "host/runtime.hpp"
#include "machine/system.hpp"
#include "model/perf_model.hpp"

namespace xd::host {

/// One shard: its placement on the chain and its slice of the timeline.
struct ShardPiece {
  unsigned index = 0;    ///< shard number == global chain position
  unsigned chassis = 0;  ///< chassis holding the node
  unsigned node = 0;     ///< node index within the chassis
  std::size_t row0 = 0;  ///< first row of the panel
  std::size_t rows = 0;  ///< rows in the panel
  u64 scatter_ready = 0; ///< cycle the operand panel has fully arrived
  u64 engine_cycles = 0; ///< modeled (plan) / observed (run) engine cycles
  u64 done = 0;          ///< cycle the result panel is back at node 0
};

/// One l the planner considered, with its modeled total cycles.
struct ShardCandidate {
  unsigned l = 1;
  u64 model_cycles = 0;
};

/// The placement/split decision for one descriptor. Like a host::Plan it is
/// value-independent: it depends only on shapes, the machine configuration
/// and the tune policy.
struct ShardPlan {
  OpKind kind = OpKind::Gemm;
  std::size_t rows = 0;  ///< rows being split (GEMM: n)
  std::size_t n = 0;     ///< GEMM edge / GEMV cols
  unsigned l = 1;        ///< chosen shard count
  double clock_mhz = 0.0;            ///< engine clock the link rates use
  std::vector<ShardPiece> pieces;    ///< l entries, ascending index
  std::vector<ShardCandidate> candidates;  ///< every l the tuner scored
  u64 model_cycles = 0;  ///< analytic total for the chosen l
};

/// A sharded run: the reduced result plus the per-shard evidence.
struct ShardOutcome {
  std::vector<double> values;  ///< reduced row-major C (or y), ascending rows
  PerfReport report;           ///< cycles = sharded makespan at node 0
  std::vector<Outcome> shards; ///< per-shard engine outcomes, ascending
  ShardPlan plan;              ///< with observed per-piece timeline filled in
  double link_words = 0.0;         ///< words moved over intra-chassis links
  double interchassis_words = 0.0; ///< words moved over inter-chassis links
};

/// Splits one GEMM/GEMV across the FPGAs of a machine::SystemConfig. Supported
/// descriptors: square OpKind::Gemm and OpKind::Gemv with the default design
/// (hierarchical GEMM, tree GEMV: the column architecture's rows/k >=
/// adder-depth hazard bound breaks under row splitting), both with
/// Placement::Sram — for a sharded op the scatter legs ARE the staging.
/// Thread-compatible: one scheduler may be used from one thread at a time;
/// shard execution itself fans out on the runtime's pool.
class ShardScheduler {
 public:
  /// `sys` describes the installation topology (chassis count, nodes per
  /// chassis, link bandwidths); link rates are taken at each op's engine
  /// clock, not the node clock.
  explicit ShardScheduler(Runtime& rt, machine::SystemConfig sys = {});

  /// Choose l (forced_l == 0: smallest modeled-fastest l among
  /// 1..min(total FPGAs, rows)) and lay out the shards. The returned pieces
  /// carry the modeled timeline that scored the chosen l.
  ShardPlan plan(const OpDesc& desc, unsigned forced_l = 0);

  /// Plan, scatter, execute concurrently, gather, reduce.
  ShardOutcome run(const OpDesc& desc, unsigned forced_l = 0);

  const machine::SystemConfig& system_config() const { return sys_; }
  Runtime& runtime() { return rt_; }

 private:
  struct EngineParams;  // resolved per-shard plan facts (clock, k, ...)

  EngineParams resolve_engine(const OpDesc& desc, std::size_t shard_rows);
  /// The chain's link rates in words per cycle of a `clock_mhz` engine.
  model::ShardChain chain_at(double clock_mhz) const;

  Runtime& rt_;
  machine::SystemConfig sys_;
};

}  // namespace xd::host
