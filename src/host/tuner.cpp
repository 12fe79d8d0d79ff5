#include "host/tuner.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "blas1/dot_engine.hpp"
#include "blas2/mxv_col.hpp"
#include "blas2/mxv_tree.hpp"
#include "blas2/spmxv.hpp"
#include "blas3/mm_array.hpp"
#include "blas3/mm_hier.hpp"
#include "blas3/mm_multi.hpp"
#include "common/random.hpp"
#include "model/perf_model.hpp"

namespace xd::host {

namespace {

/// Cycle-accuracy preference for tie-breaks after latency and area: the
/// simulated engines (array, multi, the level-1/2 designs) rank ahead of the
/// analytic hierarchical model when the formulas cannot separate them.
unsigned family_preference(TuneFamily f) {
  switch (f) {
    case TuneFamily::MmHier: return 2;
    case TuneFamily::MmMulti: return 1;
    default: return 0;
  }
}

/// Pipeline/reduction drain after the streaming phase of the tree designs.
u64 tree_tail_cycles(unsigned k, unsigned adder_stages, unsigned mult_stages) {
  const u64 tree = static_cast<u64>(k > 1 ? log2_ceil(k) : 0) * adder_stages;
  const u64 reduction =
      static_cast<u64>(log2_ceil(adder_stages) + 1) * adder_stages;
  return mult_stages + tree + reduction;
}

void finish_candidate(TuneCandidate& c, const ContextConfig& cfg, u64 cycles) {
  c.model_cycles = cycles;
  c.model_seconds = static_cast<double>(cycles) / (c.area.clock_mhz * 1e6);
  if (c.area.slices > cfg.device.slices) {
    c.feasible = false;
    if (c.why_not.empty()) {
      c.why_not = cat(c.area.slices, " slices > device's ", cfg.device.slices);
    }
  }
  if (c.feasible && c.bram_words > cfg.device.bram_words()) {
    c.feasible = false;
    c.why_not = cat(c.bram_words, " BRAM words > device's ",
                    cfg.device.bram_words());
  }
}

/// Bandwidth throttle: scale the compute-bound latency when the design needs
/// more external words/cycle than the machine supplies (Sec 5's I/O-vs-
/// compute crossover).
u64 throttled(double cycles, double required, double available) {
  const double scale =
      available > 0.0 ? std::max(1.0, required / available) : 1.0;
  return static_cast<u64>(std::ceil(cycles * scale));
}

// ---- candidate enumeration per op family -----------------------------------

void add_dot(std::vector<TuneCandidate>& out, const ContextConfig& cfg,
             const machine::AreaModel& area, std::size_t n) {
  for (unsigned k : {1u, 2u, 4u, 8u, 16u, 32u}) {
    TuneCandidate c;
    c.family = TuneFamily::Dot;
    c.k = k;
    c.area = area.dot_design(k);
    c.bram_words = reduction_buffer_words(cfg.adder_stages);
    const double wpc = words_per_cycle(cfg.dot_mem_bytes_per_s,
                                       c.area.clock_mhz);
    c.required_words_per_cycle = 2.0 * k;  // both vectors stream, no reuse
    c.available_words_per_cycle = wpc;
    c.feasible = true;
    // Streaming is the max of the compute-bound n/k and the I/O-bound 2n/wpc
    // (dot is I/O bound the moment 2k exceeds the link rate, Table 3).
    const u64 stream = std::max(ceil_div(n, k),
                                static_cast<u64>(std::ceil(2.0 * n / wpc)));
    finish_candidate(
        c, cfg,
        stream + tree_tail_cycles(k, cfg.adder_stages, cfg.multiplier_stages));
    out.push_back(std::move(c));
  }
}

void add_gemv_tree(std::vector<TuneCandidate>& out, const ContextConfig& cfg,
                   const machine::AreaModel& area, std::size_t rows,
                   std::size_t cols, std::size_t resident_x_words) {
  for (unsigned k : {1u, 2u, 4u, 8u, 16u}) {
    TuneCandidate c;
    c.family = TuneFamily::GemvTree;
    c.k = k;
    c.area = area.mxv_design_xd1(k);
    // x sits next to the reduction buffers (Sec 4.2 arch 1). A blocked GEMV
    // request charges only the resident panel, not the whole vector.
    c.bram_words = reduction_buffer_words(cfg.adder_stages) + resident_x_words;
    c.required_words_per_cycle = k;  // one word of A per lane per cycle
    c.available_words_per_cycle = std::min<double>(k, cfg.sram_banks);
    c.feasible = k <= cfg.sram_banks;
    if (!c.feasible) {
      c.why_not = cat("needs ", k, " SRAM banks, machine has ",
                      cfg.sram_banks);
    }
    const u64 stream = static_cast<u64>(rows) * ceil_div(cols, k);
    finish_candidate(
        c, cfg,
        stream + tree_tail_cycles(k, cfg.adder_stages, cfg.multiplier_stages));
    out.push_back(std::move(c));
  }
}

void add_gemv_col(std::vector<TuneCandidate>& out, const ContextConfig& cfg,
                  const machine::AreaModel& area, std::size_t rows,
                  std::size_t cols) {
  for (unsigned k : {1u, 2u, 3u, 4u, 6u, 8u}) {
    TuneCandidate c;
    c.family = TuneFamily::GemvCol;
    c.k = k;
    const machine::DesignArea standalone = area.mxv_col_design(k);
    c.area = machine::DesignArea{
        standalone.slices + area.xd1_interface_slices(), 164.0};
    // Interleaved accumulation needs y resident per lane, no reduction
    // circuit buffers.
    c.bram_words = rows + 128;
    c.required_words_per_cycle = k + 1.0;  // k of A plus the broadcast x
    c.available_words_per_cycle = cfg.sram_banks;
    c.feasible = true;
    if (k + 1 > cfg.sram_banks) {
      c.feasible = false;
      c.why_not = cat("needs ", k + 1, " SRAM banks, machine has ",
                      cfg.sram_banks);
    } else if (ceil_div(rows, k) < cfg.adder_stages) {
      c.feasible = false;
      c.why_not = cat("hazard: ceil(rows/k) = ", ceil_div(rows, k), " < ",
                      cfg.adder_stages, " adder stages");
    }
    const u64 stream = static_cast<u64>(cols) * ceil_div(rows, k);
    finish_candidate(c, cfg,
                     stream + cfg.multiplier_stages + cfg.adder_stages);
    out.push_back(std::move(c));
  }
}

void add_spmxv(std::vector<TuneCandidate>& out, const ContextConfig& cfg,
               const machine::AreaModel& area, std::size_t rows,
               std::size_t cols) {
  for (unsigned k : {1u, 2u, 4u, 8u}) {
    TuneCandidate c;
    c.family = TuneFamily::Spmxv;
    c.k = k;
    c.area = area.mxv_design_xd1(k);
    c.bram_words = reduction_buffer_words(cfg.adder_stages) + cols;
    // Value + index pairs: k/2 CRS elements per cycle occupy k banks.
    c.required_words_per_cycle = k;
    c.available_words_per_cycle = cfg.sram_banks;
    c.feasible = k <= cfg.sram_banks;
    if (!c.feasible) {
      c.why_not = cat("needs ", k, " SRAM banks, machine has ",
                      cfg.sram_banks);
    }
    // nnz is unknown at plan time; the dense element count is a uniform
    // scale factor across k, so the ranking is density-independent.
    const u64 elements = static_cast<u64>(rows) * std::max<std::size_t>(cols, 1);
    const u64 stream = ceil_div(2 * elements, k);
    finish_candidate(
        c, cfg,
        stream + tree_tail_cycles(k, cfg.adder_stages, cfg.multiplier_stages));
    out.push_back(std::move(c));
  }
}

/// Largest SRAM panel edge for (m, l): a multiple of m covering every FPGA
/// (b >= m*l), tiling n, with the two b x b panels fitting the SRAM level.
std::size_t tuned_panel_edge(const ContextConfig& cfg, std::size_t n,
                             unsigned m, unsigned l) {
  const std::size_t min_b = static_cast<std::size_t>(m) * l;
  std::size_t cap = static_cast<std::size_t>(
      std::sqrt(static_cast<double>(cfg.sram_capacity_words) / 2.0));
  cap = std::min(cap, n);
  for (std::size_t b = cap - cap % m; b >= min_b && b > 0; b -= m) {
    if (n % b == 0) return b;
  }
  return 0;
}

void add_gemm(std::vector<TuneCandidate>& out, const ContextConfig& cfg,
              const machine::AreaModel& area, std::size_t n, bool array_family,
              bool hier_family, bool multi_family, unsigned multi_min_l = 2) {
  const unsigned max_pes = area.max_mm_pes(cfg.device, true);
  const unsigned max_l = std::max(1u, cfg.mm_l);
  for (unsigned l = 1; l <= max_l; ++l) {
    for (unsigned k : {1u, 2u, 4u, 8u, 10u}) {
      // Block edges: the configured one plus power-of-two multiples of k,
      // deduplicated; m must be a multiple of k (PE stripe ownership).
      std::vector<unsigned> ms = {cfg.mm_m, k, 2 * k, 4 * k, 8 * k};
      std::sort(ms.begin(), ms.end());
      ms.erase(std::unique(ms.begin(), ms.end()), ms.end());
      for (unsigned m : ms) {
        if (m < k || m % k != 0) continue;
        struct FamilyPlan {
          TuneFamily family;
          std::size_t b;
        };
        std::vector<FamilyPlan> fams;
        if (array_family && l == 1) fams.push_back({TuneFamily::MmArray, 0});
        if (hier_family) {
          fams.push_back({TuneFamily::MmHier, tuned_panel_edge(cfg, n, m, l)});
        }
        if (multi_family && l >= multi_min_l) {
          fams.push_back({TuneFamily::MmMulti, tuned_panel_edge(cfg, n, m, l)});
        }
        for (const auto& fam : fams) {
          TuneCandidate c;
          c.family = fam.family;
          c.k = k;
          c.m = m;
          c.l = l;
          c.b = fam.b;
          c.area = area.mm_design_xd1(k);
          c.bram_words = 2ull * m * m + 2ull * m;
          c.feasible = true;
          if (k > max_pes) {
            c.feasible = false;
            c.why_not = cat("place & route fails beyond ", max_pes,
                            " PEs with the XD1 interface");
          } else if (static_cast<u64>(m) * m / k < cfg.mm_adder_stages) {
            c.feasible = false;
            c.why_not = cat("accumulation hazard: m^2/k = ",
                            static_cast<u64>(m) * m / k, " < ",
                            cfg.mm_adder_stages, " adder stages");
          } else if (n == 0) {
            c.feasible = false;
            c.why_not = "empty problem";
          }
          double latency = 0.0;
          if (c.family == TuneFamily::MmArray) {
            const auto point = model::gemm_sc05(n, k, m);
            latency = point.latency_cycles;
            c.required_words_per_cycle = point.words_per_cycle;
            c.available_words_per_cycle = cfg.sram_banks;
            if (c.feasible && n % m != 0) {
              c.feasible = false;
              c.why_not = cat("n = ", n, " is not a multiple of m = ", m);
            }
            // Sec 5.1 keeps all three matrices resident in SRAM; past that
            // the hierarchical design is the only option (the n = 2048
            // array-vs-hier decision).
            if (c.feasible && 3.0 * static_cast<double>(n) * n >
                                  static_cast<double>(cfg.sram_capacity_words)) {
              c.feasible = false;
              c.why_not = cat("3n^2 = ", 3 * n * n, " words exceed the ",
                              cfg.sram_capacity_words, "-word SRAM");
            }
          } else {
            if (c.feasible && c.b == 0) {
              c.feasible = false;
              c.why_not = cat("no SRAM panel edge tiles n = ", n,
                              " with m = ", m, ", l = ", l);
            }
            const auto point = model::gemm_hier_multi(
                n, k, l, m, c.b ? c.b : static_cast<std::size_t>(m) * l);
            latency = point.latency_cycles;
            c.required_words_per_cycle = point.words_per_cycle;
            c.available_words_per_cycle =
                words_per_cycle(cfg.mm_dram_bytes_per_s, c.area.clock_mhz);
          }
          finish_candidate(c, cfg,
                           throttled(latency, c.required_words_per_cycle,
                                     c.available_words_per_cycle));
          out.push_back(std::move(c));
        }
      }
    }
  }
}

// ---- probes ----------------------------------------------------------------

/// Deterministic operand values for probe runs; values never affect timing,
/// the fixed seed just keeps the whole tuner a pure function.
constexpr u64 kProbeSeed = 2005;

/// Probe candidate `c` on the common shape; the panel designs run at the
/// reduced panel edge `probe_b`.
u64 run_probe(const ContextConfig& cfg, TuneCandidate c, std::size_t rows,
              std::size_t cols, std::size_t n, std::size_t probe_b) {
  Rng rng(kProbeSeed);
  if (c.family == TuneFamily::MmHier || c.family == TuneFamily::MmMulti) {
    c.b = probe_b;
  }
  const EngineConfig ec = design_config(cfg, c);
  switch (c.family) {
    case TuneFamily::Dot: {
      blas1::DotEngine engine(std::get<blas1::DotConfig>(ec));
      return engine.run({rng.vector(cols)}, {rng.vector(cols)}).report.cycles;
    }
    case TuneFamily::GemvTree: {
      blas2::MxvTreeEngine engine(std::get<blas2::MxvTreeConfig>(ec));
      return engine.run(rng.matrix(rows, cols), rows, cols, rng.vector(cols))
          .report.cycles;
    }
    case TuneFamily::GemvCol: {
      blas2::MxvColEngine engine(std::get<blas2::MxvColConfig>(ec));
      return engine.run(rng.matrix(rows, cols), rows, cols, rng.vector(cols))
          .report.cycles;
    }
    case TuneFamily::Spmxv: {
      blas2::SpmxvEngine engine(std::get<blas2::SpmxvConfig>(ec));
      const auto sparse = blas2::make_uniform_sparse(
          rows, cols, std::min<std::size_t>(cols, 8), 7);
      return engine.run(sparse, rng.vector(cols)).report.cycles;
    }
    case TuneFamily::MmArray: {
      blas3::MmArrayEngine engine(std::get<blas3::MmArrayConfig>(ec));
      return engine.run(rng.matrix(n, n), rng.matrix(n, n), n).report.cycles;
    }
    case TuneFamily::MmHier: {
      blas3::MmHierEngine engine(std::get<blas3::MmHierConfig>(ec));
      return engine.run(rng.matrix(n, n), rng.matrix(n, n), n).report.cycles;
    }
    case TuneFamily::MmMulti: {
      blas3::MmMultiEngine engine(std::get<blas3::MmMultiConfig>(ec));
      return engine.run(rng.matrix(n, n), rng.matrix(n, n), n).report.cycles;
    }
  }
  return 0;
}

/// Probe the top-N feasible candidates on one shrunken common shape and
/// return the winner among them. Every probed candidate sees the same
/// shape, so the comparison is fair; the shape preserves each candidate's
/// feasibility constraints (hazard rows, block divisibility).
void probe_top(TuneResult& tr, const ContextConfig& cfg, const PlanKey& key) {
  std::vector<std::size_t> top;
  for (std::size_t i = 0; i < tr.ranked.size() && top.size() < cfg.tune_probe_top;
       ++i) {
    if (tr.ranked[i].feasible) top.push_back(i);
  }
  if (top.size() < 2) return;  // nothing to separate

  // Common probe shape. GEMM candidates use a reduced panel edge b_p = m*l
  // and an edge n_p divisible by every probed candidate's m and b_p.
  std::size_t rows = std::min<std::size_t>(std::max<std::size_t>(key.rows, 1), 256);
  std::size_t cols = std::min<std::size_t>(std::max<std::size_t>(key.cols, 1), 256);
  if (key.kind == OpKind::Dot || key.kind == OpKind::DotBatch) {
    cols = std::min<std::size_t>(std::max<std::size_t>(key.cols, 1), 2048);
  }
  std::size_t lcm = 1;
  for (std::size_t i : top) {
    const TuneCandidate& c = tr.ranked[i];
    if (c.m == 0) continue;
    const std::size_t unit = static_cast<std::size_t>(c.m) *
                             (c.family == TuneFamily::MmArray ? 1 : c.l);
    lcm = std::lcm(lcm, unit);
  }
  if (lcm > 128) return;  // probe would not be short; keep the model ranking
  const std::size_t n = std::max<std::size_t>(lcm, lcm * (64 / lcm));

  for (std::size_t i : top) {
    TuneCandidate& c = tr.ranked[i];
    // A probe must not shrink below the column design's hazard bound.
    std::size_t probe_rows = rows;
    if (c.family == TuneFamily::GemvCol) {
      const std::size_t need =
          static_cast<std::size_t>(cfg.adder_stages - 1) * c.k + 1;
      probe_rows = std::min(std::max(rows, need), std::max<std::size_t>(key.rows, 1));
    }
    const std::size_t probe_b = static_cast<std::size_t>(c.m) * c.l;
    c.probe_cycles = run_probe(cfg, c, probe_rows, cols, n, probe_b);
    c.probe_seconds =
        static_cast<double>(c.probe_cycles) / (c.area.clock_mhz * 1e6);
    tr.probe_cycles += c.probe_cycles;
    ++tr.probed;
  }

  // Re-pick the winner from the probed subset with the same tie rules.
  double best = tr.ranked[top.front()].probe_seconds;
  for (std::size_t i : top) best = std::min(best, tr.ranked[i].probe_seconds);
  std::size_t win = top.front();
  for (std::size_t i : top) {
    const TuneCandidate& c = tr.ranked[i];
    if (c.probe_seconds > best * (1.0 + cfg.tune_tie_fraction)) continue;
    const TuneCandidate& w = tr.ranked[win];
    const bool w_in_band =
        w.probe_seconds <= best * (1.0 + cfg.tune_tie_fraction);
    if (!w_in_band || c.area.slices < w.area.slices ||
        (c.area.slices == w.area.slices &&
         family_preference(c.family) < family_preference(w.family))) {
      win = i;
    }
  }
  tr.ranked[static_cast<std::size_t>(tr.winner_index)].chosen = false;
  tr.winner_index = static_cast<int>(win);
  tr.ranked[win].chosen = true;
}

/// The configured design for `key`: ContextConfig's parameters for the op
/// kind and engine request. A hierarchical GEMM whose n the configured panel
/// edge does not tile takes the largest edge that does.
TuneCandidate configured_candidate(const ContextConfig& cfg,
                                   const PlanKey& key) {
  switch (key.kind) {
    case OpKind::Dot:
    case OpKind::DotBatch:
      return {.family = TuneFamily::Dot, .k = cfg.dot_k};
    case OpKind::Gemv:
      return {.family = key.engine == EngineRequest::Column
                            ? TuneFamily::GemvCol
                            : TuneFamily::GemvTree,
              .k = cfg.gemv_k};
    case OpKind::Spmxv:
      return {.family = TuneFamily::Spmxv, .k = cfg.gemv_k};
    case OpKind::Gemm:
      if (key.engine == EngineRequest::Array) {
        return {.family = TuneFamily::MmArray, .k = cfg.mm_k, .m = cfg.mm_m};
      }
      if (key.engine == EngineRequest::Multi) {
        return {.family = TuneFamily::MmMulti,
                .k = cfg.mm_k,
                .m = cfg.mm_m,
                .l = cfg.mm_l,
                .b = cfg.mm_b};
      }
      return {.family = TuneFamily::MmHier,
              .k = cfg.mm_k,
              .m = cfg.mm_m,
              .l = cfg.mm_l,
              .b = key.n % cfg.mm_b == 0 ? cfg.mm_b
                                         : choose_panel_edge(cfg, key.n)};
  }
  return {};
}

}  // namespace

const char* tune_family_name(TuneFamily f) {
  switch (f) {
    case TuneFamily::Dot: return "dot";
    case TuneFamily::GemvTree: return "gemv-tree";
    case TuneFamily::GemvCol: return "gemv-col";
    case TuneFamily::Spmxv: return "spmxv";
    case TuneFamily::MmArray: return "mm-array";
    case TuneFamily::MmHier: return "mm-hier";
    case TuneFamily::MmMulti: return "mm-multi";
  }
  return "unknown";
}

const char* tune_policy_name(TunePolicy p) {
  switch (p) {
    case TunePolicy::Fixed: return "fixed";
    case TunePolicy::Model: return "model";
    case TunePolicy::Probe: return "probe";
  }
  return "unknown";
}

bool tune_policy_from_name(std::string_view name, TunePolicy& out) {
  for (const TunePolicy p :
       {TunePolicy::Fixed, TunePolicy::Model, TunePolicy::Probe}) {
    if (name == tune_policy_name(p)) {
      out = p;
      return true;
    }
  }
  return false;
}

std::string TuneCandidate::name() const {
  std::string s = tune_family_name(family);
  if (l > 1 || family == TuneFamily::MmHier || family == TuneFamily::MmMulti) {
    s += cat(" l=", l);
  }
  s += cat(" k=", k);
  if (m > 0) s += cat(" m=", m);
  if (b > 0) s += cat(" b=", b);
  return s;
}

TuneResult tune_op(const ContextConfig& cfg, const PlanKey& key) {
  const machine::AreaModel area;
  TuneResult tr;

  switch (key.kind) {
    case OpKind::Dot:
      add_dot(tr.ranked, cfg, area, key.cols);
      break;
    case OpKind::DotBatch:
      // Per-pair lengths are unknown at plan time; a nominal streaming
      // length ranks the candidates (the order is length-independent once
      // streaming dominates the drain tails).
      add_dot(tr.ranked, cfg, area, 4096);
      break;
    case OpKind::Gemv:
      if (key.engine == EngineRequest::Blocked) {
        // The blocked-x fallback requires the tree design's reduction
        // circuit. When x exceeds the on-chip capacity the plan blocks it
        // into resident panels, so only the panel is charged to BRAM — a
        // full-cols charge would prune every design for exactly the shapes
        // the fallback exists to serve.
        add_gemv_tree(tr.ranked, cfg, area, key.rows, key.cols,
                      std::min(key.cols, gemv_onchip_x_capacity(cfg)));
      } else {
        // Both Sec 4.2 architectures compete; the requested one stays the
        // fixed-policy choice.
        add_gemv_tree(tr.ranked, cfg, area, key.rows, key.cols, key.cols);
        add_gemv_col(tr.ranked, cfg, area, key.rows, key.cols);
      }
      break;
    case OpKind::Spmxv:
      add_spmxv(tr.ranked, cfg, area, key.rows, key.cols);
      break;
    case OpKind::Gemm: {
      // An array or multi request tunes within that family; a multi request
      // works at any l, including l = 1 (the fixed path builds that too).
      // The default request lets all three compete, except that row-panel
      // keys (rows != 0, the shard scheduler's sub-ops) stay hierarchical:
      // the cycle-accurate array and multi-FPGA engines are square-only.
      const bool open = key.engine == EngineRequest::Default;
      const bool square = key.rows == 0;
      add_gemm(tr.ranked, cfg, area, key.n,
               key.engine == EngineRequest::Array || (open && square), open,
               key.engine == EngineRequest::Multi || (open && square),
               key.engine == EngineRequest::Multi ? 1 : 2);
      break;
    }
  }

  tr.considered = tr.ranked.size();
  // Feasible candidates first, fastest first; area then cycle-accuracy
  // preference as deterministic secondary keys. Infeasible candidates sink
  // to the bottom in enumeration order (stable sort).
  std::stable_sort(tr.ranked.begin(), tr.ranked.end(),
                   [](const TuneCandidate& a, const TuneCandidate& b) {
                     if (a.feasible != b.feasible) return a.feasible;
                     if (!a.feasible) return false;
                     if (a.model_seconds != b.model_seconds) {
                       return a.model_seconds < b.model_seconds;
                     }
                     if (a.area.slices != b.area.slices) {
                       return a.area.slices < b.area.slices;
                     }
                     return family_preference(a.family) <
                            family_preference(b.family);
                   });
  for (const TuneCandidate& c : tr.ranked) {
    if (c.feasible) {
      ++tr.feasible;
    } else {
      ++tr.pruned;
    }
  }
  if (tr.feasible == 0) return tr;

  // Winner: fastest by the model, with near-ties (the paper's k = 2 dot vs
  // k = 4 case) resolved toward fewer slices, then cycle accuracy.
  const double best = tr.ranked.front().model_seconds;
  std::size_t win = 0;
  for (std::size_t i = 1; i < tr.feasible; ++i) {
    const TuneCandidate& c = tr.ranked[i];
    if (c.model_seconds > best * (1.0 + cfg.tune_tie_fraction)) break;
    const TuneCandidate& w = tr.ranked[win];
    if (c.area.slices < w.area.slices ||
        (c.area.slices == w.area.slices &&
         family_preference(c.family) < family_preference(w.family))) {
      win = i;
    }
  }
  tr.winner_index = static_cast<int>(win);
  tr.ranked[win].chosen = true;

  if (key.tune == TunePolicy::Probe) probe_top(tr, cfg, key);
  return tr;
}

EngineConfig design_config(const ContextConfig& cfg, const TuneCandidate& c) {
  switch (c.family) {
    case TuneFamily::Dot: {
      blas1::DotConfig dc;
      dc.k = c.k;
      dc.adder_stages = cfg.adder_stages;
      dc.multiplier_stages = cfg.multiplier_stages;
      dc.mem_words_per_cycle =
          words_per_cycle(cfg.dot_mem_bytes_per_s, cfg.dot_clock_mhz);
      dc.clock_mhz = cfg.dot_clock_mhz;
      return dc;
    }
    case TuneFamily::GemvTree: {
      blas2::MxvTreeConfig tc;
      tc.k = c.k;
      tc.adder_stages = cfg.adder_stages;
      tc.multiplier_stages = cfg.multiplier_stages;
      tc.mem_words_per_cycle = static_cast<double>(c.k);  // 1 word/bank
      tc.clock_mhz = cfg.gemv_clock_mhz;
      return tc;
    }
    case TuneFamily::GemvCol: {
      blas2::MxvColConfig cc;
      cc.k = c.k;
      cc.adder_stages = cfg.adder_stages;
      cc.multiplier_stages = cfg.multiplier_stages;
      cc.mem_words_per_cycle = static_cast<double>(c.k) + 1.0;  // A + x
      cc.clock_mhz = cfg.gemv_clock_mhz;
      return cc;
    }
    case TuneFamily::Spmxv: {
      blas2::SpmxvConfig sc;
      sc.k = c.k;
      sc.adder_stages = cfg.adder_stages;
      sc.multiplier_stages = cfg.multiplier_stages;
      // Value + index pairs: two SRAM banks feed one CRS element per cycle
      // pair.
      sc.mem_elements_per_cycle = static_cast<double>(c.k) / 2.0;
      sc.clock_mhz = cfg.gemv_clock_mhz;
      return sc;
    }
    case TuneFamily::MmArray: {
      blas3::MmArrayConfig mc;
      mc.k = c.k;
      mc.m = c.m;
      mc.adder_stages = cfg.mm_adder_stages;
      mc.multiplier_stages = cfg.multiplier_stages;
      mc.mem_words_per_cycle = 4.0;  // four SRAM banks feed the array
      mc.clock_mhz = cfg.mm_clock_mhz;
      return mc;
    }
    case TuneFamily::MmHier: {
      blas3::MmHierConfig hc;
      hc.l = c.l;
      hc.k = c.k;
      hc.m = c.m;
      hc.b = c.b;
      hc.adder_stages = cfg.mm_adder_stages;
      hc.multiplier_stages = cfg.multiplier_stages;
      hc.clock_mhz = cfg.mm_clock_mhz;
      hc.dram_words_per_cycle =
          words_per_cycle(cfg.mm_dram_bytes_per_s, cfg.mm_clock_mhz);
      hc.link_words_per_cycle =
          words_per_cycle(cfg.mm_link_bytes_per_s, cfg.mm_clock_mhz);
      return hc;
    }
    case TuneFamily::MmMulti: {
      blas3::MmMultiConfig mc;
      mc.l = c.l;
      mc.k = c.k;
      mc.m = c.m;
      mc.b = c.b;
      mc.clock_mhz = cfg.mm_clock_mhz;
      mc.dram_words_per_cycle =
          words_per_cycle(cfg.mm_dram_bytes_per_s, cfg.mm_clock_mhz);
      mc.link_words_per_cycle =
          words_per_cycle(cfg.mm_link_bytes_per_s, cfg.mm_clock_mhz);
      return mc;
    }
  }
  return blas1::DotConfig{};
}

TuneCandidate choose_design(const ContextConfig& cfg, const PlanKey& key,
                            TuneSummary& summary) {
  if (key.tune == TunePolicy::Fixed) return configured_candidate(cfg, key);

  const TuneResult tr = tune_op(cfg, key);
  const TuneCandidate* win = tr.winner();
  if (!win) {
    std::string reasons;
    for (const TuneCandidate& c : tr.ranked) {
      reasons += cat("\n  ", c.name(), ": ", c.why_not);
    }
    throw ConfigError(cat("tuner: no feasible design for ",
                          op_name(key.kind, key.engine), reasons));
  }
  summary.tuned = true;
  summary.candidates = tr.considered;
  summary.pruned = tr.pruned;
  summary.probed = tr.probed;
  summary.probe_cycles = tr.probe_cycles;
  return *win;
}

Plan build_tuned_plan(const ContextConfig& cfg, const PlanKey& key) {
  PlanKey tuned = key;
  if (tuned.tune == TunePolicy::Fixed) tuned.tune = TunePolicy::Model;
  return build_plan(cfg, tuned);
}

std::string engine_signature(const EngineConfig& engine) {
  struct Visitor {
    std::string operator()(const blas1::DotConfig& c) const {
      return cat("dot k=", c.k);
    }
    std::string operator()(const blas2::MxvTreeConfig& c) const {
      return cat("gemv-tree k=", c.k);
    }
    std::string operator()(const blas2::MxvColConfig& c) const {
      return cat("gemv-col k=", c.k);
    }
    std::string operator()(const blas2::SpmxvConfig& c) const {
      return cat("spmxv k=", c.k);
    }
    std::string operator()(const blas3::MmArrayConfig& c) const {
      return cat("mm-array k=", c.k, " m=", c.m);
    }
    std::string operator()(const blas3::MmHierConfig& c) const {
      return cat("mm-hier l=", c.l, " k=", c.k, " m=", c.m, " b=", c.b);
    }
    std::string operator()(const blas3::MmMultiConfig& c) const {
      return cat("mm-multi l=", c.l, " k=", c.k, " m=", c.m, " b=", c.b);
    }
  };
  return std::visit(Visitor{}, engine);
}

}  // namespace xd::host
