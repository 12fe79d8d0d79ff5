#include "host/plan.hpp"

#include <array>
#include <cmath>

#include "host/tuner.hpp"
#include "telemetry/session.hpp"

namespace xd::host {

namespace {

/// Cycles to stage `words` across a link of `wpc` words/cycle (DRAM<->SRAM
/// DMA; the FPGA design is idle during staging, per the Table 4 methodology).
u64 staging_cycles_for(double words, double wpc) {
  return words > 0.0 ? static_cast<u64>(std::ceil(words / wpc)) : 0;
}

/// Per-slot DRAM staging decomposition of one op, the only derivation of
/// staging: a Dram dot stages both operand vectors (2*cols at the dot
/// clock), a Dram gemv streams A and writes y back (rows*cols + rows at the
/// gemv clock) with x assumed SRAM-resident, whichever GEMV design runs, and
/// every other kind stages nothing today. A single-op plan pays one ceil
/// over the total; a graph chain drops the slots fusion forwards or shares.
struct StagedWords {
  double in[3] = {0.0, 0.0, 0.0};  ///< indexed by OperandSlot
  double out = 0.0;                ///< result writeback
  double wpc = 0.0;                ///< staging link words/cycle (op clock)
  double total() const { return in[0] + in[1] + in[2] + out; }
};

StagedWords staged_words_for(const ContextConfig& cfg, const PlanKey& key) {
  StagedWords w;
  if (key.placement != Placement::Dram) return w;
  switch (key.kind) {
    case OpKind::Dot:
      // The staging link is the same RapidArray DMA path the GEMV design
      // measures; cycles are counted at the dot design's clock.
      w.in[0] = static_cast<double>(key.cols);
      w.in[1] = static_cast<double>(key.cols);
      w.wpc = words_per_cycle(cfg.gemv_dram_bytes_per_s, cfg.dot_clock_mhz);
      break;
    case OpKind::Gemv:
      // Table 4: 6.4 of the 8.0 ms GEMV latency is this data movement.
      w.in[0] = static_cast<double>(key.rows) * static_cast<double>(key.cols);
      w.out = static_cast<double>(key.rows);
      w.wpc = words_per_cycle(cfg.gemv_dram_bytes_per_s, cfg.gemv_clock_mhz);
      break;
    default:
      break;  // no DRAM staging modeled for the other kinds
  }
  return w;
}

void hash_combine(std::size_t& seed, std::size_t v) {
  seed ^= v + 0x9e3779b97f4a7c15ull + (seed << 6) + (seed >> 2);
}

}  // namespace

std::size_t PlanKeyHash::operator()(const PlanKey& k) const {
  std::size_t seed = static_cast<std::size_t>(k.kind);
  hash_combine(seed, k.rows);
  hash_combine(seed, k.cols);
  hash_combine(seed, k.n);
  hash_combine(seed, k.batch);
  hash_combine(seed, static_cast<std::size_t>(k.placement));
  hash_combine(seed, static_cast<std::size_t>(k.engine));
  hash_combine(seed, static_cast<std::size_t>(k.backend));
  hash_combine(seed, static_cast<std::size_t>(k.tune));
  return seed;
}

std::size_t choose_panel_edge(const ContextConfig& cfg, std::size_t n) {
  // Largest SRAM panel edge <= the configured one that tiles both the m x m
  // on-chip blocks and the problem (and gives each FPGA a block column).
  const std::size_t min_b = static_cast<std::size_t>(cfg.mm_m) * cfg.mm_l;
  for (std::size_t b = std::min(cfg.mm_b, n); b >= min_b; b -= cfg.mm_m) {
    if (b % cfg.mm_m == 0 && n % b == 0) return b;
  }
  throw ConfigError(cat("no SRAM panel edge tiles n=", n, " with m=", cfg.mm_m,
                        ", l=", cfg.mm_l,
                        " (pad the matrices or use the compat layer)"));
}

u64 reduction_buffer_words(unsigned adder_stages) {
  return 2ull * adder_stages * adder_stages + 128;
}

mem::BramBudget gemv_bram_plan(const ContextConfig& cfg, std::size_t cols) {
  mem::BramBudget plan(cfg.device);
  plan.allocate("reduction buffers (2 alpha^2) + staging FIFOs",
                reduction_buffer_words(cfg.adder_stages));
  plan.allocate("x storage", cols);
  return plan;
}

mem::BramBudget gemm_bram_plan(const ContextConfig& cfg) {
  mem::BramBudget plan(cfg.device);
  plan.allocate("C' block store (m^2)", static_cast<u64>(cfg.mm_m) * cfg.mm_m);
  plan.allocate("C block store (m^2)", static_cast<u64>(cfg.mm_m) * cfg.mm_m);
  plan.allocate("B registers (2m)", 2ull * cfg.mm_m);
  return plan;
}

std::size_t gemv_onchip_x_capacity(const ContextConfig& cfg) {
  const u64 cap = cfg.device.bram_words();
  const u64 fixed = reduction_buffer_words(cfg.adder_stages);
  return cap > fixed ? static_cast<std::size_t>(cap - fixed) : 0;
}

void ContextConfig::validate() const {
  // The message is built only on failure: this runs on every plan build.
  const auto check = [](bool ok, const auto&... msg) {
    if (!ok) throw ConfigError(cat(msg...));
  };
  // A lane needs at least one slice: no design is wider than the device.
  for (const auto& [name, k] :
       {std::pair{"dot_k", dot_k}, {"gemv_k", gemv_k}, {"mm_k", mm_k}}) {
    check(k >= 1 && k <= device.slices, name, " = ", k,
          ": a design has 1 to ", device.slices, " lanes");
  }
  check(mm_m >= 1 && mm_m % mm_k == 0, "mm_m = ", mm_m,
        " must be a positive multiple of mm_k = ", mm_k);
  // The C and C' block stores plus the B registers (gemm_bram_plan).
  check(2ull * mm_m * mm_m + 2ull * mm_m <= device.bram_words(), "mm_m = ",
        mm_m, ": the block stores exceed the device's ", device.bram_words(),
        " BRAM words");
  check(mm_l >= 1 && mm_b >= static_cast<std::size_t>(mm_m) * mm_l,
        "mm_b = ", mm_b, ", mm_l = ", mm_l,
        ": need l >= 1 and b >= m * l (an m = ", mm_m,
        " block column per FPGA)");
  for (const auto& [name, v] :
       {std::pair{"dot_clock_mhz", dot_clock_mhz},
        {"gemv_clock_mhz", gemv_clock_mhz},
        {"mm_clock_mhz", mm_clock_mhz},
        {"dot_mem_bytes_per_s", dot_mem_bytes_per_s},
        {"gemv_sram_bytes_per_s", gemv_sram_bytes_per_s},
        {"gemv_dram_bytes_per_s", gemv_dram_bytes_per_s},
        {"mm_dram_bytes_per_s", mm_dram_bytes_per_s},
        {"mm_link_bytes_per_s", mm_link_bytes_per_s}}) {
    check(std::isfinite(v) && v > 0.0, name, " = ", v,
          " must be finite and positive");
  }
}

Plan build_plan(const ContextConfig& cfg, const PlanKey& key) {
  cfg.validate();
  Plan plan;
  plan.key = key;
  const TuneCandidate design = choose_design(cfg, key, plan.tune);
  plan.engine = design_config(cfg, design);
  plan.panel_edge = design.b;
  if (plan.tune.tuned) plan.tune.chosen = engine_signature(plan.engine);

  // The machine side, whichever design runs: the DRAM link and the on-chip
  // x store belong to the machine. A blocked GEMV streams x through that
  // store in panels when it does not fit; SpMXV has no blocked form.
  const StagedWords staged = staged_words_for(cfg, key);
  plan.dram_words = staged.total();
  plan.staging_cycles = staging_cycles_for(plan.dram_words, staged.wpc);
  if (key.engine == EngineRequest::Blocked) {
    plan.onchip_capacity = gemv_onchip_x_capacity(cfg);
    require(plan.onchip_capacity > 0,
            "device has no on-chip memory left for x");
    plan.blocked_gemv = key.cols > plan.onchip_capacity;
  } else if (key.kind == OpKind::Spmxv) {
    plan.onchip_capacity = gemv_onchip_x_capacity(cfg);
    require(key.cols <= plan.onchip_capacity,
            "SpMXV: x does not fit the device's on-chip memory");
  }
  return plan;
}

// ---- graph plans -----------------------------------------------------------

namespace {

/// Resident words an operand slot pins when a chain retains it for reuse.
double slot_words(const OpDesc& d, OperandSlot s) {
  return static_cast<double>(op_slot_len(d, s));
}

}  // namespace

GraphPlan build_graph_plan(const ContextConfig& cfg, const GraphDesc& g) {
  g.validate();

  GraphPlan gp;
  gp.signature = g.signature();
  gp.order = g.topo_order();
  gp.node_plans.reserve(g.nodes.size());
  for (const auto& node : g.nodes)
    gp.node_plans.push_back(std::make_shared<const Plan>(
        build_plan(cfg, PlanKey::from(node.desc, cfg.tune))));

  const double capacity = static_cast<double>(cfg.sram_capacity_words);
  const double bank_words =
      capacity / static_cast<double>(cfg.sram_banks ? cfg.sram_banks : 1);

  // Chain partition, greedy in topological order. A chain is a set of
  // nodes executed back-to-back on the fabric with a shared SRAM resident
  // set: retained external operands (staged once for the whole chain) and
  // double-buffered forwarding banks for fused edges.
  struct ChainState {
    double resident = 0.0;
    std::unordered_map<const void*, double> retained;  ///< operand -> words
  };
  std::vector<ChainState> chains;
  gp.chain_of.assign(g.nodes.size(), -1);
  gp.edge_fused.assign(g.edges.size(), false);

  std::vector<StagedWords> words(g.nodes.size());
  for (std::size_t i = 0; i < g.nodes.size(); ++i)
    words[i] = staged_words_for(cfg, gp.node_plans[i]->key);
  // in_skipped[v][slot]: the staging of that operand is not paid (edge
  // forwarded it, or an earlier chain member staged the same vector).
  std::vector<std::array<bool, 3>> in_skipped(g.nodes.size(),
                                              {false, false, false});

  for (std::size_t v : gp.order) {
    const OpDesc& d = g.nodes[v].desc;

    // 1) Try to join a producer's chain across a fusable edge: the
    // intermediate must fit a double-buffered forwarding bank and the
    // chain's resident set must absorb it. First eligible edge (in edge
    // order) wins; determinism over optimality at this scale.
    int chain = -1;
    for (std::size_t ei = 0; ei < g.edges.size(); ++ei) {
      const GraphEdge& e = g.edges[ei];
      if (e.to != v) continue;
      const int cu = gp.chain_of[e.from];
      if (cu < 0) continue;
      const double w = static_cast<double>(op_output_len(g.nodes[e.from].desc));
      if (2.0 * w > bank_words) continue;  // fallback: DRAM staging
      if (chains[static_cast<std::size_t>(cu)].resident + 2.0 * w > capacity)
        continue;
      chain = cu;
      break;
    }

    // 2) Otherwise join a chain that already retains one of this node's
    // DRAM-staged external operands (the Jacobi sweep: many GEMVs sharing
    // one A matrix, no edges between them).
    if (chain < 0) {
      for (std::size_t ci = 0; ci < chains.size() && chain < 0; ++ci) {
        for (OperandSlot s :
             {OperandSlot::A, OperandSlot::B, OperandSlot::X}) {
          const auto* p = slot_operand(d, s);
          if (!p || words[v].in[static_cast<std::size_t>(s)] <= 0.0) continue;
          if (chains[ci].retained.count(p)) {
            chain = static_cast<int>(ci);
            break;
          }
        }
      }
    }

    if (chain < 0) {
      chains.emplace_back();
      chain = static_cast<int>(chains.size()) - 1;
    }
    ChainState& cs = chains[static_cast<std::size_t>(chain)];
    gp.chain_of[v] = chain;

    // Fuse every in-edge whose producer sits in this chain and whose
    // forwarding buffer fits; the rest fall back to DRAM staging.
    for (std::size_t ei = 0; ei < g.edges.size(); ++ei) {
      const GraphEdge& e = g.edges[ei];
      if (e.to != v || gp.chain_of[e.from] != chain) continue;
      const double w = static_cast<double>(op_output_len(g.nodes[e.from].desc));
      if (2.0 * w > bank_words || cs.resident + 2.0 * w > capacity) continue;
      gp.edge_fused[ei] = true;
      ++gp.fused_edges;
      cs.resident += 2.0 * w;
      in_skipped[v][static_cast<std::size_t>(e.slot)] = true;
    }

    // Retain this node's external vector operands for chain reuse when they
    // fit (a retained operand that a later member would have re-staged is
    // the shared-staging win; x-type operands are SRAM-resident by the
    // single-op model and retaining them lets e.g. a CG dot reuse p for
    // free). Operands that do not fit are streamed, not retained: no
    // sharing for them — that is the capacity-fallback path.
    for (OperandSlot s : {OperandSlot::A, OperandSlot::B, OperandSlot::X}) {
      const auto* p = slot_operand(d, s);
      if (!p || op_slot_len(d, s) == 0) continue;
      const auto it = cs.retained.find(p);
      if (it != cs.retained.end()) {
        if (words[v].in[static_cast<std::size_t>(s)] > 0.0 &&
            !in_skipped[v][static_cast<std::size_t>(s)]) {
          in_skipped[v][static_cast<std::size_t>(s)] = true;
          ++gp.shared_operands;
        }
        continue;
      }
      const double w = slot_words(d, s);
      if (cs.resident + w <= capacity) {
        cs.retained.emplace(p, w);
        cs.resident += w;
      }
    }
  }
  gp.chains = chains.size();

  // A non-kept result whose every consumer edge is fused never leaves the
  // fabric: its DRAM writeback is skipped. (keep=true results still pay
  // the writeback even when also forwarded — the host asked for them.)
  std::vector<bool> skip_out(g.nodes.size(), false);
  for (std::size_t i = 0; i < g.nodes.size(); ++i) {
    if (g.nodes[i].keep || words[i].out <= 0.0) continue;
    bool all_fused = true;
    for (std::size_t ei = 0; ei < g.edges.size(); ++ei)
      if (g.edges[ei].from == i && !gp.edge_fused[ei]) all_fused = false;
    skip_out[i] = all_fused;
  }

  // Per-node staging budgets: unfused is the node's single-op plan.
  gp.staging.resize(g.nodes.size());
  for (std::size_t i = 0; i < g.nodes.size(); ++i) {
    NodeStaging& st = gp.staging[i];
    const StagedWords& w = words[i];
    st.unfused_words = gp.node_plans[i]->dram_words;
    st.unfused_cycles = gp.node_plans[i]->staging_cycles;
    double fused = 0.0;
    for (std::size_t s = 0; s < 3; ++s)
      if (!in_skipped[i][s]) fused += w.in[s];
    if (!skip_out[i]) fused += w.out;
    st.fused_words = fused;
    st.fused_cycles = staging_cycles_for(fused, w.wpc);
    gp.staging_saved_cycles += st.unfused_cycles - st.fused_cycles;
    gp.staging_saved_words += st.unfused_words - st.fused_words;
  }
  return gp;
}

std::shared_ptr<const Plan> PlanCache::get_or_build(const ContextConfig& cfg,
                                                    const PlanKey& key) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!pinned_.empty()) {
      const auto pit = pinned_.find(key);
      if (pit != pinned_.end()) {
        hits_.fetch_add(1, std::memory_order_relaxed);
        return pit->second;
      }
    }
    const auto it = map_.find(key);
    if (it != map_.end()) {
      hits_.fetch_add(1, std::memory_order_relaxed);
      lru_.splice(lru_.begin(), lru_, it->second.pos);  // refresh recency
      return it->second.plan;
    }
  }

  // Build outside the lock: plan construction can throw (ConfigError) and,
  // for GEMM, walks the panel-edge search — no reason to serialize that.
  auto plan = std::make_shared<const Plan>(build_plan(cfg, key));

  std::lock_guard<std::mutex> lock(mu_);
  if (!pinned_.empty()) {
    const auto pit = pinned_.find(key);
    if (pit != pinned_.end()) {
      hits_.fetch_add(1, std::memory_order_relaxed);
      return pit->second;
    }
  }
  const auto it = map_.find(key);
  if (it != map_.end()) {
    // Another thread built the same plan first; adopt theirs (plans for one
    // key are identical by construction).
    hits_.fetch_add(1, std::memory_order_relaxed);
    lru_.splice(lru_.begin(), lru_, it->second.pos);
    return it->second.plan;
  }
  misses_.fetch_add(1, std::memory_order_relaxed);
  if (plan->tune.tuned) {
    tuned_plans_.fetch_add(1, std::memory_order_relaxed);
    tune_candidates_.fetch_add(plan->tune.candidates, std::memory_order_relaxed);
    tune_pruned_.fetch_add(plan->tune.pruned, std::memory_order_relaxed);
    tune_probes_.fetch_add(plan->tune.probed, std::memory_order_relaxed);
    tune_probe_cycles_.fetch_add(plan->tune.probe_cycles,
                                 std::memory_order_relaxed);
  }
  lru_.push_front(key);
  map_[key] = Entry{plan, lru_.begin()};
  while (map_.size() > capacity_) {
    map_.erase(lru_.back());
    lru_.pop_back();
    evictions_.fetch_add(1, std::memory_order_relaxed);
  }
  return plan;
}

std::shared_ptr<const Plan> PlanCache::pin(const ContextConfig& cfg,
                                           const PlanKey& key) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    const auto pit = pinned_.find(key);
    if (pit != pinned_.end()) {
      hits_.fetch_add(1, std::memory_order_relaxed);
      return pit->second;
    }
    // Promote an existing LRU entry: the plan moves out of the eviction
    // order, freeing its LRU slot.
    const auto it = map_.find(key);
    if (it != map_.end()) {
      hits_.fetch_add(1, std::memory_order_relaxed);
      auto plan = it->second.plan;
      lru_.erase(it->second.pos);
      map_.erase(it);
      pinned_.emplace(key, plan);
      return plan;
    }
  }

  auto plan = std::make_shared<const Plan>(build_plan(cfg, key));

  std::lock_guard<std::mutex> lock(mu_);
  const auto pit = pinned_.find(key);
  if (pit != pinned_.end()) {
    hits_.fetch_add(1, std::memory_order_relaxed);
    return pit->second;
  }
  misses_.fetch_add(1, std::memory_order_relaxed);
  const auto it = map_.find(key);
  if (it != map_.end()) {
    // Raced with a get_or_build miss: adopt the LRU's plan and promote it.
    auto existing = it->second.plan;
    lru_.erase(it->second.pos);
    map_.erase(it);
    pinned_.emplace(key, existing);
    return existing;
  }
  pinned_.emplace(key, plan);
  return plan;
}

std::shared_ptr<const GraphPlan> PlanCache::get_or_build_graph(
    const ContextConfig& cfg, const GraphDesc& g) {
  // Backend and tune policy key the entry for the same reasons they key
  // PlanKey; the signature covers everything structural about the graph.
  const std::string key =
      cat(static_cast<int>(fp::active_backend().kind), ':',
          static_cast<int>(cfg.tune), '|', g.signature());
  {
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = graph_map_.find(key);
    if (it != graph_map_.end()) {
      graph_hits_.fetch_add(1, std::memory_order_relaxed);
      graph_lru_.splice(graph_lru_.begin(), graph_lru_, it->second.pos);
      return it->second.plan;
    }
  }

  auto plan = std::make_shared<const GraphPlan>(build_graph_plan(cfg, g));

  std::lock_guard<std::mutex> lock(mu_);
  const auto it = graph_map_.find(key);
  if (it != graph_map_.end()) {
    graph_hits_.fetch_add(1, std::memory_order_relaxed);
    graph_lru_.splice(graph_lru_.begin(), graph_lru_, it->second.pos);
    return it->second.plan;
  }
  graph_misses_.fetch_add(1, std::memory_order_relaxed);
  graph_lru_.push_front(key);
  graph_map_[key] = GraphEntry{plan, graph_lru_.begin()};
  while (graph_map_.size() > capacity_) {
    graph_map_.erase(graph_lru_.back());
    graph_lru_.pop_back();
    graph_evictions_.fetch_add(1, std::memory_order_relaxed);
  }
  return plan;
}

std::size_t PlanCache::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return map_.size();
}

std::size_t PlanCache::pinned_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return pinned_.size();
}

std::size_t PlanCache::graph_size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return graph_map_.size();
}

void PlanCache::publish(telemetry::Session& tel) const {
  tel.gauge("host.plan.hits").set(static_cast<double>(hits()));
  tel.gauge("host.plan.misses").set(static_cast<double>(misses()));
  tel.gauge("host.plan.evictions").set(static_cast<double>(evictions()));
  tel.gauge("host.plan.size").set(static_cast<double>(size()));
  tel.gauge("host.plan.capacity").set(static_cast<double>(capacity()));
  tel.gauge("host.plan.pinned").set(static_cast<double>(pinned_count()));
  // Graph-plan entries are accounted separately: host.plan.{hits,misses}
  // stay a pure single-op hit-rate, undiluted by graph keys.
  tel.gauge("host.plan.graphs").set(static_cast<double>(graph_size()));
  tel.gauge("host.plan.graph_hits").set(static_cast<double>(graph_hits()));
  tel.gauge("host.plan.graph_misses").set(static_cast<double>(graph_misses()));
  tel.gauge("host.plan.graph_evictions")
      .set(static_cast<double>(graph_evictions()));
  // Tuner activity (zero under TunePolicy::Fixed): how many plans went
  // through design selection, how much of the candidate space the area model
  // pruned, and what the probe runs cost in simulated cycles.
  const auto load = [](const std::atomic<u64>& a) {
    return static_cast<double>(a.load(std::memory_order_relaxed));
  };
  tel.gauge("host.tuner.plans").set(load(tuned_plans_));
  tel.gauge("host.tuner.candidates").set(load(tune_candidates_));
  tel.gauge("host.tuner.pruned_area").set(load(tune_pruned_));
  tel.gauge("host.tuner.probes").set(load(tune_probes_));
  tel.gauge("host.tuner.probe_cycles").set(load(tune_probe_cycles_));
}

}  // namespace xd::host
