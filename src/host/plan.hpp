// Plan layer: everything about an operation that depends only on
// (op kind, shapes, placement, engine request) and the machine configuration
// — not on the operand values — computed once and memoized.
//
// build_plan is one path for every TunePolicy. It chooses the design (the
// configured candidate under TunePolicy::Fixed, the tuner's winner
// otherwise; host/tuner.hpp), emits its engine configuration (clock,
// words/cycle, pipeline depths) through the one function that builds
// engine configs, and then applies the machine side: the DRAM staging cost
// for Placement::Dram (the same per-slot decomposition graph plans use) and
// the on-chip x capacity check of the blocked GEMV and SpMXV. Building one runs all shape
// validation that does not need the operand data, so a cached hit skips
// validation, configuration and floorplanning entirely.
//
// PlanCache is a bounded, mutex-guarded LRU keyed by PlanKey; it is shared
// by the synchronous facade and the concurrent runtime, and publishes
// hit/miss/eviction counts as the host.plan.* gauges.
#pragma once

#include <atomic>
#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <variant>

#include "blas2/mxv_col.hpp"
#include "fp/backend.hpp"
#include "host/graph.hpp"
#include "host/op.hpp"
#include "mem/bram.hpp"

namespace xd::host {

/// The memoization key: every input of plan construction besides the
/// machine configuration (one cache belongs to one configuration). The
/// active fp backend is part of the key: timing never depends on it, but a
/// plan cached under one backend must not satisfy a lookup made under a
/// ScopedBackend override, or a backend-equivalence rerun would silently
/// reuse state from the other arm of the comparison.
struct PlanKey {
  OpKind kind = OpKind::Dot;
  std::size_t rows = 0;
  std::size_t cols = 0;
  std::size_t n = 0;
  std::size_t batch = 0;
  Placement placement = Placement::Sram;
  EngineRequest engine = EngineRequest::Default;
  fp::BackendKind backend = fp::BackendKind::Soft;
  /// The tune policy is part of the key: a tuned plan may resolve to a
  /// different design than the fixed one for the same descriptor, so
  /// a cache shared across policies (e.g. by tests or the fuzz harness
  /// flipping cfg.tune) must never satisfy one policy's lookup with the
  /// other's plan.
  TunePolicy tune = TunePolicy::Fixed;

  bool operator==(const PlanKey&) const = default;

  static PlanKey from(const OpDesc& desc, TunePolicy tune = TunePolicy::Fixed) {
    return PlanKey{desc.kind,  desc.rows,      desc.cols, desc.n,
                   desc.batch, desc.placement, desc.engine,
                   fp::active_backend().kind, tune};
  }
};

struct PlanKeyHash {
  std::size_t operator()(const PlanKey& k) const;
};

/// One engine configuration, whichever the op resolved to. Stored with a
/// null telemetry pointer; the runtime patches the session in on the copy
/// it hands to the engine.
using EngineConfig =
    std::variant<blas1::DotConfig, blas2::MxvTreeConfig, blas2::MxvColConfig,
                 blas2::SpmxvConfig, blas3::MmArrayConfig, blas3::MmHierConfig,
                 blas3::MmMultiConfig>;

/// What the tuner did while building a plan (host.tuner.* telemetry).
struct TuneSummary {
  bool tuned = false;        ///< plan built under Model/Probe policy
  u64 candidates = 0;        ///< designs enumerated
  u64 pruned = 0;            ///< rejected by area/BRAM/bank/hazard budgets
  u64 probed = 0;            ///< candidates validated by simulator probes
  u64 probe_cycles = 0;      ///< total simulated probe cycles
  std::string chosen;        ///< engine_signature() of the winner
};

struct Plan {
  PlanKey key;
  EngineConfig engine;
  u64 staging_cycles = 0;        ///< prepended for Placement::Dram
  double dram_words = 0.0;       ///< words staged across the DRAM link
  std::size_t panel_edge = 0;    ///< GEMM: chosen SRAM panel edge b
  std::size_t onchip_capacity = 0;  ///< GEMV: words of x that fit on chip
  bool blocked_gemv = false;     ///< blocked GEMV request whose x is too big
  TuneSummary tune;              ///< empty/default under TunePolicy::Fixed
};

// ---- configuration-derived helpers hoisted out of Context ------------------

/// Largest SRAM panel edge <= mm_b that tiles the given n (throws
/// ConfigError if none exists — use the compat layer's padding then).
std::size_t choose_panel_edge(const ContextConfig& cfg, std::size_t n);

/// BRAM floorplan of the GEMV design for a cols-wide x; throws ConfigError
/// if the design cannot be built on the configured device.
mem::BramBudget gemv_bram_plan(const ContextConfig& cfg, std::size_t cols);

/// BRAM floorplan of the GEMM array (2 m^2 block stores + B registers).
mem::BramBudget gemm_bram_plan(const ContextConfig& cfg);

/// Words of x the GEMV design can keep on-chip next to its buffers.
std::size_t gemv_onchip_x_capacity(const ContextConfig& cfg);

/// Fixed BRAM words of the reduction-circuit designs besides x: the two
/// alpha^2 reduction buffers and the small staging FIFOs.
u64 reduction_buffer_words(unsigned adder_stages);

/// Build the immutable plan for one key, under any tune policy. All
/// validation and configuration that the shapes allow happens here, once per
/// distinct key, after ContextConfig::validate().
Plan build_plan(const ContextConfig& cfg, const PlanKey& key);

// ---- graph plans -----------------------------------------------------------

/// Per-node staging budget inside a graph plan. `unfused_*` is exactly what
/// the node's single-op Plan would pay (per-op execution); `fused_*` is
/// what it pays inside its chain, after SRAM forwarding skipped edge-fed
/// operand stagings, chain-shared externals were staged once, and
/// non-kept, fully-forwarded results dropped their writeback. Cycles are in
/// the node's own staging clock domain (== its engine clock).
struct NodeStaging {
  u64 fused_cycles = 0;
  double fused_words = 0.0;
  u64 unfused_cycles = 0;
  double unfused_words = 0.0;
};

/// The planned execution of a GraphDesc: one single-op Plan per node (built
/// directly, NOT through the single-op LRU — graph planning must not evict
/// hot single-op entries or dilute their hit-rate telemetry), the
/// deterministic topological order, the chain partition, and the staging
/// deltas fusion buys. Value-independent: two graphs with equal
/// signature() get byte-identical plans.
struct GraphPlan {
  std::string signature;
  std::vector<std::shared_ptr<const Plan>> node_plans;  ///< per node index
  std::vector<std::size_t> order;    ///< topological execution order
  std::vector<NodeStaging> staging;  ///< per node index
  std::vector<bool> edge_fused;      ///< per edge: forwarded on-chip
  std::vector<int> chain_of;         ///< chain id per node index
  std::size_t chains = 0;
  u64 fused_edges = 0;
  u64 shared_operands = 0;  ///< external stagings skipped by chain sharing
  /// Per-op-minus-fused staging, summed across nodes; each node's term is
  /// in that node's own clock domain (the runtime normalizes when it
  /// aggregates into a GraphOutcome).
  u64 staging_saved_cycles = 0;
  double staging_saved_words = 0.0;
};

/// Partition the DAG into fusable chains and derive each node's fused
/// staging budget under the tuner's SRAM model (cfg.sram_banks /
/// cfg.sram_capacity_words): a forwarded intermediate needs a
/// double-buffered bank (2*words <= capacity/banks), a chain's resident
/// set (retained shared operands + live forwarding buffers) must fit total
/// capacity, and any edge that does not fit falls back to full DRAM
/// staging. Validates the graph; throws ConfigError.
GraphPlan build_graph_plan(const ContextConfig& cfg, const GraphDesc& g);

class PlanCache {
 public:
  explicit PlanCache(std::size_t capacity = 64)
      : capacity_(capacity == 0 ? 1 : capacity) {}

  /// Return the cached plan for `key`, building (and possibly evicting the
  /// least recently used entry) on a miss. Thread-safe.
  std::shared_ptr<const Plan> get_or_build(const ContextConfig& cfg,
                                           const PlanKey& key);

  /// Like get_or_build, but the entry is promoted out of the LRU into the
  /// pinned set: it can never be evicted and does not consume LRU capacity.
  /// Hot paths hold the returned pointer and skip the probe entirely;
  /// lookups that do go through get_or_build still find pinned entries
  /// first (counted as hits). Pinning the same key twice is idempotent.
  std::shared_ptr<const Plan> pin(const ContextConfig& cfg, const PlanKey& key);

  /// Return the cached graph plan for `g`, keyed by backend + tune policy +
  /// GraphDesc::signature(). Graph entries live in their own LRU with their
  /// own hit/miss/eviction counters and the same capacity budget, so graph
  /// traffic never evicts single-op plans or skews host.plan.{hits,misses}.
  std::shared_ptr<const GraphPlan> get_or_build_graph(const ContextConfig& cfg,
                                                      const GraphDesc& g);

  std::size_t capacity() const { return capacity_; }
  std::size_t size() const;        ///< LRU entries only (excludes pinned)
  std::size_t pinned_count() const;
  std::size_t graph_size() const;
  u64 hits() const { return hits_.load(std::memory_order_relaxed); }
  u64 misses() const { return misses_.load(std::memory_order_relaxed); }
  u64 evictions() const { return evictions_.load(std::memory_order_relaxed); }
  u64 graph_hits() const { return graph_hits_.load(std::memory_order_relaxed); }
  u64 graph_misses() const {
    return graph_misses_.load(std::memory_order_relaxed);
  }
  u64 graph_evictions() const {
    return graph_evictions_.load(std::memory_order_relaxed);
  }

  /// Set the host.plan.* gauges from the current counters (publish-at-end
  /// idiom; idempotent, unlike counter adds).
  void publish(telemetry::Session& tel) const;

 private:
  std::size_t capacity_;
  mutable std::mutex mu_;
  /// Front = most recently used; map entries point into the list.
  std::list<PlanKey> lru_;
  struct Entry {
    std::shared_ptr<const Plan> plan;
    std::list<PlanKey>::iterator pos;
  };
  std::unordered_map<PlanKey, Entry, PlanKeyHash> map_;
  /// Pinned plans: outside the LRU, never evicted, found before the LRU on
  /// lookup. Small by construction (one entry per explicitly pinned shape).
  std::unordered_map<PlanKey, std::shared_ptr<const Plan>, PlanKeyHash> pinned_;
  /// Graph plans: a separate LRU keyed by the graph cache key string.
  std::list<std::string> graph_lru_;
  struct GraphEntry {
    std::shared_ptr<const GraphPlan> plan;
    std::list<std::string>::iterator pos;
  };
  std::unordered_map<std::string, GraphEntry> graph_map_;
  std::atomic<u64> hits_{0};
  std::atomic<u64> misses_{0};
  std::atomic<u64> evictions_{0};
  std::atomic<u64> graph_hits_{0};
  std::atomic<u64> graph_misses_{0};
  std::atomic<u64> graph_evictions_{0};
  // Aggregated tuner activity across plan builds (host.tuner.* gauges).
  std::atomic<u64> tuned_plans_{0};
  std::atomic<u64> tune_candidates_{0};
  std::atomic<u64> tune_pruned_{0};
  std::atomic<u64> tune_probes_{0};
  std::atomic<u64> tune_probe_cycles_{0};
};

}  // namespace xd::host
