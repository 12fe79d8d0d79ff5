// Design-space autotuner (the selection layer Tables 3/4 and Figs 9/11/12
// exist to motivate): given an op kind, engine request, shape, and machine
// configuration, enumerate the legal candidate designs (engine family x k x
// m x l x panel edge), prune them against the machine::AreaModel
// slice/BRAM/bank budgets, rank the survivors with the src/model analytic
// latency formulas, and pick the winner as the plan's design.
//
// Every plan runs one design, a TuneCandidate. Under TunePolicy::Fixed it is
// the configured candidate (ContextConfig's k/m/l/b for the op kind and the
// requested design); under Model/Probe it is tune_op's winner.
// design_config() emits either one with the ContextConfig clocks and
// bandwidths, so a tuned plan that lands on the configured design is
// bit-identical (values AND cycles) to the fixed plan by construction — the
// property the fuzz harness pins. Ranking alone uses each candidate's
// post-P&R clock from the area model.
//
// Near-ties (within cfg.tune_tie_fraction of the best modeled latency) are
// broken by slice count, then by a cycle-accuracy preference — reproducing
// the paper's own choice of the k = 2 dot design over the ~1% faster k = 4,
// and of the cycle-accurate array/multi engines over the analytic
// hierarchical model when the formulas agree.
//
// TunePolicy::Probe additionally reruns the top-N survivors through short
// deterministic simulator probes on a shrunken common shape and picks the
// winner from the probed subset.
#pragma once

#include <string>
#include <vector>

#include "host/plan.hpp"
#include "machine/area.hpp"

namespace xd::host {

/// Which engine family a candidate resolves to.
enum class TuneFamily {
  Dot,       ///< blas1::DotEngine
  GemvTree,  ///< blas2::MxvTreeEngine (Sec 4.2 arch 1)
  GemvCol,   ///< blas2::MxvColEngine (Sec 4.2 arch 2)
  Spmxv,     ///< blas2::SpmxvEngine
  MmArray,   ///< blas3::MmArrayEngine (Sec 5.1, operands resident in SRAM)
  MmHier,    ///< blas3::MmHierEngine (Sec 5.2, b x b SRAM panels)
  MmMulti,   ///< blas3::MmMultiEngine (Sec 5.2, block-event multi-FPGA)
};

const char* tune_family_name(TuneFamily f);

const char* tune_policy_name(TunePolicy p);
bool tune_policy_from_name(std::string_view name, TunePolicy& out);

struct TuneCandidate {
  TuneFamily family = TuneFamily::Dot;
  unsigned k = 1;      ///< lanes / PEs
  unsigned m = 0;      ///< GEMM on-chip block edge (0 for level 1/2)
  unsigned l = 1;      ///< FPGAs
  std::size_t b = 0;   ///< GEMM SRAM panel edge (0 for level 1/2)

  machine::DesignArea area{};  ///< modeled slices + post-P&R clock
  u64 bram_words = 0;        ///< modeled on-chip storage requirement
  double required_words_per_cycle = 0.0;   ///< external bandwidth need
  double available_words_per_cycle = 0.0;  ///< what the machine can supply

  bool feasible = false;
  std::string why_not{};  ///< empty when feasible

  u64 model_cycles = 0;      ///< analytic latency (bandwidth-throttled)
  double model_seconds = 0;  ///< at the area model's clock for this design
  u64 probe_cycles = 0;      ///< short-probe simulation (Probe policy only)
  double probe_seconds = 0;

  bool chosen = false;

  /// Human label, e.g. "mm-hier l=2 k=8 m=8 b=1024".
  std::string name() const;
};

struct TuneResult {
  /// Feasible candidates sorted fastest-first (model order), then the
  /// infeasible ones in enumeration order with their pruning reason.
  std::vector<TuneCandidate> ranked;
  std::size_t considered = 0;
  std::size_t feasible = 0;
  std::size_t pruned = 0;   ///< infeasible (area/BRAM/bank/hazard/capacity)
  std::size_t probed = 0;
  u64 probe_cycles = 0;     ///< total simulation cycles spent probing
  int winner_index = -1;

  const TuneCandidate* winner() const {
    return winner_index >= 0 ? &ranked[static_cast<std::size_t>(winner_index)]
                             : nullptr;
  }
};

/// Enumerate, prune, rank (and for TunePolicy::Probe, probe) the candidate
/// designs for one plan key. Pure function of (cfg, key): deterministic, no
/// shared state, so concurrent plan builds can tune independently.
TuneResult tune_op(const ContextConfig& cfg, const PlanKey& key);

/// The design a plan for `key` runs. Under TunePolicy::Fixed it is the
/// configured candidate, built with no area or feasibility check, so fixed
/// plans accept exactly the shapes the configuration can tile. Under
/// Model/Probe it is tune_op's winner, and `summary` records the search.
/// Throws ConfigError when no tuned candidate survives pruning, or when no
/// panel edge tiles a fixed GEMM.
TuneCandidate choose_design(const ContextConfig& cfg, const PlanKey& key,
                            TuneSummary& summary);

/// The engine configuration of one design: its k/m/l/b with the
/// ContextConfig clocks, pipeline depths and bandwidths. The only place an
/// EngineConfig is built, for fixed plans, tuned plans and probes alike.
EngineConfig design_config(const ContextConfig& cfg, const TuneCandidate& c);

/// build_plan under the tuner: a key asking for TunePolicy::Fixed is built
/// under TunePolicy::Model. Throws ConfigError when no candidate survives
/// pruning.
Plan build_tuned_plan(const ContextConfig& cfg, const PlanKey& key);

/// The value-affecting parameters of an engine configuration as a short
/// string ("gemv-tree k=4", "mm-hier l=1 k=8 m=8 b=512"). Two plans with
/// equal signatures compute bit-identical values (and, with equal staging,
/// identical cycles) — the comparison key of the tuned-vs-fixed fuzz
/// invariant and of Plan::TuneSummary::chosen.
std::string engine_signature(const EngineConfig& engine);

}  // namespace xd::host
