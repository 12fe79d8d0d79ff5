#include "host/shard.hpp"

#include <algorithm>
#include <utility>

#include "fp/backend.hpp"

namespace xd::host {

namespace {

/// The words one shard of `rows` rows moves: its A rows plus the shared
/// operand (B for GEMM, x for GEMV) out, its rows of C (or y) back.
model::ShardLoad transfer_load(const OpDesc& desc, std::size_t rows) {
  model::ShardLoad load;
  if (desc.kind == OpKind::Gemm) {
    load.scatter_words = static_cast<double>(rows * desc.n + desc.n * desc.n);
    load.gather_words = static_cast<double>(rows * desc.n);
  } else {
    load.scatter_words = static_cast<double>(rows * desc.cols + desc.cols);
    load.gather_words = static_cast<double>(rows);
  }
  return load;
}

}  // namespace

struct ShardScheduler::EngineParams {
  double clock_mhz = 0.0;
  unsigned k = 1;
  // GEMM (hierarchical engine) only:
  unsigned engine_l = 1;
  std::size_t b = 512;
  double engine_wpc = 0.0;
};

ShardScheduler::ShardScheduler(Runtime& rt, machine::SystemConfig sys)
    : rt_(rt), sys_(std::move(sys)) {
  require(sys_.chassis_count >= 1, "shard: needs at least one chassis");
  require(sys_.chassis.nodes >= 1, "shard: needs at least one node");
}

ShardScheduler::EngineParams ShardScheduler::resolve_engine(
    const OpDesc& desc, std::size_t shard_rows) {
  // Resolve through the plan layer — the same cache, tuner policy and
  // engine derivation every other execution path uses, so the shard model
  // can never drift from what the runtime will actually run.
  PlanKey key;
  key.kind = desc.kind;
  key.placement = desc.placement;
  key.arch = desc.arch;
  key.backend = fp::active_backend().kind;
  key.tune = rt_.config().tune;
  if (desc.kind == OpKind::Gemm) {
    key.rows = shard_rows;  // row-panel form, even at l = 1
    key.n = desc.n;
  } else {
    key.rows = shard_rows;
    key.cols = desc.cols;
  }
  const std::shared_ptr<const Plan> plan =
      rt_.plan_cache().get_or_build(rt_.config(), key);

  EngineParams ep;
  if (const auto* hc = std::get_if<blas3::MmHierConfig>(&plan->engine)) {
    ep.clock_mhz = hc->clock_mhz;
    ep.k = hc->k;
    ep.engine_l = hc->l;
    ep.b = hc->b;
    ep.engine_wpc =
        std::min(hc->dram_words_per_cycle, hc->link_words_per_cycle);
  } else if (const auto* tc = std::get_if<blas2::MxvTreeConfig>(&plan->engine)) {
    ep.clock_mhz = tc->clock_mhz;
    ep.k = tc->k;
  } else if (const auto* cc = std::get_if<blas2::MxvColConfig>(&plan->engine)) {
    ep.clock_mhz = cc->clock_mhz;
    ep.k = cc->k;
  } else {
    require(false, "shard: plan resolved to an unshardable engine");
  }
  return ep;
}

model::ShardChain ShardScheduler::chain_at(double clock_mhz) const {
  const double clock_hz = clock_mhz * 1e6;
  model::ShardChain chain;
  chain.nodes_per_chassis = sys_.chassis.nodes;
  chain.fwd_wpc =
      mem::Channel::words_per_cycle_for(sys_.chassis.link_bytes_per_s, clock_hz);
  chain.bwd_wpc = chain.fwd_wpc;
  chain.xlink_wpc = mem::Channel::words_per_cycle_for(
      sys_.interchassis_bytes_per_s, clock_hz);
  return chain;
}

ShardPlan ShardScheduler::plan(const OpDesc& desc, unsigned forced_l) {
  desc.validate();
  require(desc.kind == OpKind::Gemm || desc.kind == OpKind::Gemv,
          "shard: only GEMM and GEMV can be sharded");
  require(desc.placement == Placement::Sram,
          "shard: sharded ops take Placement::Sram — the scatter legs are "
          "the staging");
  if (desc.kind == OpKind::Gemm) {
    require(desc.rows == 0, "shard: pass the square descriptor; the "
                            "scheduler derives the row panels");
  } else {
    require(desc.arch == GemvArch::Tree,
            "shard: sharded GEMV needs the tree architecture (the column "
            "design's rows/k hazard bound breaks under row splitting)");
  }

  const std::size_t rows = desc.kind == OpKind::Gemm ? desc.n : desc.rows;
  const unsigned total = sys_.chassis_count * sys_.chassis.nodes;
  const unsigned max_l =
      static_cast<unsigned>(std::min<std::size_t>(total, rows));
  require(max_l >= 1, "shard: nothing to split");
  require(forced_l <= max_l,
          cat("shard: l = ", forced_l, " exceeds ", max_l,
              " (min of machine FPGAs and rows)"));

  ShardPlan sp;
  sp.kind = desc.kind;
  sp.rows = rows;
  sp.n = desc.kind == OpKind::Gemm ? desc.n : desc.cols;

  // Joint choice of l and engine design: every candidate l re-resolves the
  // shard-0 panel through the plan layer (whose tuner picks the engine for
  // that panel shape) and is scored with the full scatter/compute/gather
  // timeline. Ties go to the smaller l — fewer FPGAs, same cycles.
  std::vector<model::ShardLoad> best_loads;
  model::ShardTimeline best;
  for (unsigned l = 1; l <= max_l; ++l) {
    if (forced_l != 0 && l != forced_l) continue;
    const EngineParams ep = resolve_engine(desc, model::shard_rows(rows, l, 0));
    std::vector<model::ShardLoad> loads(l);
    for (unsigned i = 0; i < l; ++i) {
      const std::size_t r = model::shard_rows(rows, l, i);
      loads[i] = transfer_load(desc, r);
      loads[i].engine_cycles =
          desc.kind == OpKind::Gemm
              ? model::mm_hier_panel_cycles(r, desc.n, ep.k, ep.engine_l,
                                            ep.b, ep.engine_wpc)
              : model::gemv_model_cycles(r, desc.cols, ep.k);
    }
    model::ShardTimeline tl = model::shard_timeline(chain_at(ep.clock_mhz), loads);
    sp.candidates.push_back(ShardCandidate{l, tl.makespan});
    if (sp.candidates.size() == 1 || tl.makespan < best.makespan) {
      sp.l = l;
      sp.clock_mhz = ep.clock_mhz;
      best_loads = std::move(loads);
      best = std::move(tl);
    }
  }
  sp.model_cycles = best.makespan;

  for (unsigned i = 0; i < sp.l; ++i) {
    ShardPiece piece;
    piece.index = i;
    piece.chassis = i / sys_.chassis.nodes;
    piece.node = i % sys_.chassis.nodes;
    piece.row0 = model::shard_row0(rows, sp.l, i);
    piece.rows = model::shard_rows(rows, sp.l, i);
    piece.scatter_ready = best.spans[i].scatter_ready;
    piece.engine_cycles = best_loads[i].engine_cycles;
    piece.done = best.spans[i].done;
    sp.pieces.push_back(piece);
  }
  return sp;
}

ShardOutcome ShardScheduler::run(const OpDesc& desc, unsigned forced_l) {
  ShardOutcome out;
  out.plan = plan(desc, forced_l);
  const unsigned l = out.plan.l;
  const std::size_t inner = desc.kind == OpKind::Gemm ? desc.n : desc.cols;

  // Slice the operand rows each shard owns (contiguous in the row-major
  // operand). The slices must outlive the futures; they live here.
  std::vector<std::vector<double>> panels(l);
  std::vector<OpDesc> subs(l);
  for (unsigned i = 0; i < l; ++i) {
    const ShardPiece& p = out.plan.pieces[i];
    const double* base = desc.a->data() + p.row0 * inner;
    panels[i].assign(base, base + p.rows * inner);
    subs[i] = desc.kind == OpKind::Gemm
                  ? OpDesc::gemm_panel(panels[i], p.rows, *desc.b, desc.n)
                  : OpDesc::gemv(panels[i], p.rows, desc.cols, *desc.x,
                                 Placement::Sram, GemvArch::Tree);
  }

  // Execute every shard concurrently on the runtime's pool. Engines are
  // deterministic, so concurrent execution is bit-identical to sequential;
  // futures are consumed in ascending shard order.
  std::vector<std::future<Outcome>> futures;
  futures.reserve(l);
  for (unsigned i = 0; i < l; ++i) futures.push_back(rt_.submit(subs[i]));
  out.shards.reserve(l);
  for (unsigned i = 0; i < l; ++i) out.shards.push_back(futures[i].get());

  // The planned scatter and gather legs around the observed engine cycles.
  std::vector<model::ShardLoad> loads(l);
  for (unsigned i = 0; i < l; ++i) {
    loads[i] = transfer_load(desc, out.plan.pieces[i].rows);
    loads[i].engine_cycles = out.shards[i].report.cycles;
  }
  const model::ShardTimeline tl =
      model::shard_timeline(chain_at(out.plan.clock_mhz), loads);
  for (unsigned i = 0; i < l; ++i) {
    out.plan.pieces[i].scatter_ready = tl.spans[i].scatter_ready;
    out.plan.pieces[i].engine_cycles = loads[i].engine_cycles;
    out.plan.pieces[i].done = tl.spans[i].done;
  }
  out.link_words = tl.link_words;
  out.interchassis_words = tl.interchassis_words;

  // Reduce in fixed deterministic order: ascending shard index, which is
  // ascending row blocks — a pure concatenation, so the reduced values are
  // bit-identical to single-device execution by construction.
  out.values.reserve(out.plan.rows *
                     (desc.kind == OpKind::Gemm ? desc.n : 1));
  u64 flops = 0;
  u64 max_engine = 0;
  for (const Outcome& s : out.shards) {
    out.values.insert(out.values.end(), s.values.begin(), s.values.end());
    flops += s.report.flops;
    max_engine = std::max(max_engine, s.report.cycles);
  }

  out.report.design =
      cat("shard l=", l, " over ", sys_.chassis_count, " chassis [",
          out.shards.front().report.design, "]");
  out.report.cycles = tl.makespan;
  out.report.compute_cycles = max_engine;
  // The communication overhang beyond the slowest engine: scatter the
  // engines could not hide plus the serialized gather tail.
  out.report.staging_cycles = tl.makespan - max_engine;
  out.report.flops = flops;
  out.report.clock_mhz = out.plan.clock_mhz;
  return out;
}

}  // namespace xd::host
