#include "testing/fuzz.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <initializer_list>

#include "fp/backend.hpp"
#include "fp/softfloat.hpp"
#include "host/context.hpp"
#include "host/shard.hpp"
#include "host/tuner.hpp"
#include "solver/cg.hpp"
#include "solver/jacobi.hpp"
#include "telemetry/export.hpp"
#include "telemetry/json.hpp"
#include "telemetry/session.hpp"
#include "testing/oracle.hpp"

namespace xd::testing {

namespace {

using host::Outcome;
using host::Runtime;

bool is_solver(FuzzKind k) {
  return k == FuzzKind::JacobiBatch || k == FuzzKind::Cg;
}

/// The backend-equivalence invariant needs a host whose native FPU passes
/// conformance; on one that does not (x87, FTZ, non-RNE), there is nothing
/// to cross-check and the invariant is skipped. Evaluated once.
bool native_is_conformant() {
  static const bool ok = fp::run_conformance(fp::native_backend()).passed;
  return ok;
}

/// The backend to cross-check the current run against.
fp::BackendKind other_backend() {
  return fp::active_backend().kind == fp::BackendKind::Soft
             ? fp::BackendKind::Native
             : fp::BackendKind::Soft;
}

bool bits_equal(double a, double b) {
  return fp::to_bits(a) == fp::to_bits(b);
}

/// Full bitwise comparison of two outcomes: values, cycle counts, flops,
/// stalls, staging. Returns an explanation of the first difference.
std::optional<std::string> outcome_diff(const Outcome& want,
                                        const Outcome& got) {
  if (want.values.size() != got.values.size()) {
    return cat("value count ", got.values.size(), " != ", want.values.size());
  }
  for (std::size_t i = 0; i < want.values.size(); ++i) {
    if (!bits_equal(want.values[i], got.values[i])) {
      return cat("values[", i, "] ", got.values[i], " != ", want.values[i],
                 " (bits 0x", std::hex, fp::to_bits(got.values[i]), " vs 0x",
                 fp::to_bits(want.values[i]), ")");
    }
  }
  if (want.report.cycles != got.report.cycles) {
    return cat("cycles ", got.report.cycles, " != ", want.report.cycles);
  }
  if (want.report.flops != got.report.flops) {
    return cat("flops ", got.report.flops, " != ", want.report.flops);
  }
  if (want.report.stall_cycles != got.report.stall_cycles) {
    return cat("stalls ", got.report.stall_cycles,
               " != ", want.report.stall_cycles);
  }
  if (want.report.staging_cycles != got.report.staging_cycles) {
    return cat("staging ", got.report.staging_cycles,
               " != ", want.report.staging_cycles);
  }
  return std::nullopt;
}

std::optional<CheckFailure> check_error_paths(const FuzzCase& fc,
                                              CaseData& data) {
  const host::ContextConfig cfg = fc.config();
  std::optional<Runtime> rt;
  std::vector<std::pair<const char*, std::function<void()>>> attempts;
  if (fc.sabotage == Sabotage::DesignKnob) {
    // A corrupted knob is refused where the configuration enters: no
    // Runtime (or Context) exists to run(), submit() or run_batch() on, and
    // no plan is built from it under either policy.
    attempts = {
        {"Runtime", [&] { Runtime bad(cfg); }},
        {"build_plan",
         [&] { host::build_plan(cfg, host::PlanKey::from(data.desc)); }},
        {"tuned build_plan", [&] {
           host::build_plan(
               cfg, host::PlanKey::from(data.desc, host::TunePolicy::Model));
         }}};
  } else {
    rt.emplace(cfg);
    attempts = {{"run()", [&] { rt->run(data.desc); }},
                {"submit()", [&] { rt->submit(data.desc).get(); }},
                {"run_batch()", [&] { rt->run_batch({data.desc}); }}};
  }
  for (const auto& [where, attempt] : attempts) {
    try {
      attempt();
      return CheckFailure{"error-path",
                          cat(where, " accepted a malformed case (",
                              sabotage_name(fc.sabotage), ")")};
    } catch (const ConfigError&) {
      // expected
    } catch (const std::exception& e) {
      return CheckFailure{"error-path",
                          cat(where, " threw non-ConfigError: ", e.what())};
    }
  }

  if (rt && (rt->stats().failed != 3 || rt->stats().completed != 0)) {
    return CheckFailure{"error-path",
                        cat("runtime stats after three failures: failed=",
                            rt->stats().failed,
                            " completed=", rt->stats().completed)};
  }
  return std::nullopt;
}

OracleVec oracle_for(const FuzzCase& fc, const CaseData& data) {
  switch (fc.kind) {
    case FuzzKind::Dot:
      return oracle_dot({data.a}, {data.b});
    case FuzzKind::DotBatch:
      return oracle_dot(data.us, data.vs);
    case FuzzKind::Gemv:
      return oracle_gemv(data.a, data.desc.rows, data.desc.cols, data.x);
    case FuzzKind::Spmxv:
      return oracle_spmxv(data.sparse, data.x);
    case FuzzKind::Gemm:
      return oracle_gemm(data.a, data.b, data.desc.n);
    default:
      return {};
  }
}

std::optional<CheckFailure> check_oracle(const FuzzCase& fc,
                                         const CaseData& data,
                                         const Outcome& base) {
  const OracleVec want = oracle_for(fc, data);
  if (want.values.size() != base.values.size()) {
    return CheckFailure{"oracle", cat("result count ", base.values.size(),
                                      " != oracle's ", want.values.size())};
  }
  for (std::size_t i = 0; i < want.values.size(); ++i) {
    if (fc.mode == ValueMode::Exact) {
      if (!bits_equal(want.values[i], base.values[i])) {
        return CheckFailure{
            "oracle", cat("exact-mode values[", i, "]: engine ",
                          base.values[i], " != oracle ", want.values[i],
                          " (bits 0x", std::hex,
                          fp::to_bits(base.values[i]), " vs 0x",
                          fp::to_bits(want.values[i]), ")")};
      }
    } else {
      const double tol = oracle_tolerance(want.mag[i]);
      const double diff = std::fabs(base.values[i] - want.values[i]);
      if (!(diff <= tol)) {
        return CheckFailure{"oracle",
                            cat("values[", i, "]: engine ", base.values[i],
                                " vs oracle ", want.values[i], ", |diff| ",
                                diff, " > tol ", tol)};
      }
    }
  }
  return std::nullopt;
}

/// A same-configuration sibling with a strictly smaller problem, for the
/// cycles-monotone-in-size invariant. Only shapes whose timing is a
/// deterministic function of the shape qualify (not SpMXV's random
/// structure, not DotBatch's random pair lengths).
std::optional<FuzzCase> size_sibling(const FuzzCase& fc) {
  FuzzCase sib = fc;
  switch (fc.kind) {
    case FuzzKind::Dot:
      if (fc.cols < 2) return std::nullopt;
      sib.cols = fc.cols / 2;
      return sib;
    case FuzzKind::Gemv:
      if (fc.engine != host::EngineRequest::Default) return std::nullopt;
      if (fc.rows < 2) return std::nullopt;
      sib.rows = fc.rows / 2;
      return sib;
    case FuzzKind::Gemm: {
      const host::ContextConfig cfg = fc.config();
      const std::size_t half = fc.n / 2;
      if (half == 0 || half % cfg.mm_m != 0) return std::nullopt;
      if (fc.engine == host::EngineRequest::Multi && half % cfg.mm_b != 0) {
        return std::nullopt;
      }
      if (fc.engine == host::EngineRequest::Default && fc.mm_b &&
          half % fc.mm_b != 0) {
        // Keep the panel edge valid by halving it alongside n when it was
        // pinned to n; otherwise let choose_panel_edge re-derive it.
        if (fc.mm_b == fc.n) {
          sib.mm_b = half;
        } else {
          return std::nullopt;
        }
      }
      sib.n = half;
      return sib;
    }
    default:
      return std::nullopt;
  }
}

u64 run_cycles(const FuzzCase& fc) {
  CaseData data;
  materialize(fc, data);
  Runtime rt(fc.config());
  return rt.run(data.desc).report.cycles;
}

std::optional<CheckFailure> check_op(const FuzzCase& fc, CaseData& data) {
  const host::ContextConfig cfg = fc.config();

  Runtime rt(cfg);
  const Outcome base = rt.run(data.desc);  // cold: plan-cache miss

  // Plan-cache hit must reproduce the cold miss exactly.
  const Outcome warm = rt.run(data.desc);
  if (rt.plan_cache().hits() == 0) {
    return CheckFailure{"plan-cache", "second run did not hit the plan cache"};
  }
  if (auto d = outcome_diff(base, warm)) {
    return CheckFailure{"plan-cache", cat("cache-hit rerun differs: ", *d)};
  }

  // A fresh runtime (fresh cache, same configuration) must reproduce it too.
  Runtime fresh(cfg);
  if (auto d = outcome_diff(base, fresh.run(data.desc))) {
    return CheckFailure{"determinism", cat("fresh runtime differs: ", *d)};
  }

  // submit() (worker pool, telemetry detached) == run().
  if (auto d = outcome_diff(base, rt.submit(data.desc).get())) {
    return CheckFailure{"concurrency", cat("submit() differs from run(): ", *d)};
  }

  // Pinned-plan fast path == LRU path, bit-identical including cycles and
  // stalls: a PlanHandle only skips the per-op cache probe, it must never
  // change what executes.
  {
    const host::PlanHandle pinned = rt.pin_plan(data.desc);
    if (auto d = outcome_diff(base, rt.run(data.desc, pinned))) {
      return CheckFailure{"pinned-plan", cat("pinned run() differs: ", *d)};
    }
    if (auto d = outcome_diff(base, rt.submit(data.desc, pinned).get())) {
      return CheckFailure{"pinned-plan", cat("pinned submit() differs: ", *d)};
    }
  }

  // Three concurrent copies == three sequential runs (they are all the same
  // deterministic simulation).
  const auto outs = rt.run_batch({data.desc, data.desc, data.desc});
  for (std::size_t i = 0; i < outs.size(); ++i) {
    if (auto d = outcome_diff(base, outs[i])) {
      return CheckFailure{"concurrency",
                          cat("run_batch()[", i, "] differs: ", *d)};
    }
  }

  // Backend equivalence: the exact same case, rerun with the other
  // arithmetic backend, must reproduce every value bit AND every cycle
  // count — the native fast path is an implementation detail, never an
  // observable one. This holds in every value mode, including Extreme
  // (NaN payloads, inf - inf, subnormals), because that is precisely where
  // the native pre-filters earn their keep.
  if (native_is_conformant()) {
    fp::ScopedBackend swap(other_backend());
    Runtime rt_other(cfg);
    if (auto d = outcome_diff(base, rt_other.run(data.desc))) {
      return CheckFailure{
          "backend-equivalence",
          cat(backend_name(fp::active_backend().kind), " backend differs: ", *d)};
    }
  }

  // Tuned-vs-fixed equivalence: rerunning the case under TunePolicy::Model
  // must pick a buildable design and never change what the op computes.
  // When the tuner lands on the same design as the fixed configuration
  // (equal engine signatures) the entire outcome — values, cycles, stalls,
  // staging — must be bit-identical. When it picks a different design, the
  // result shape must still match, the values must match bitwise in Exact
  // mode (integer-valued operands make every summation order exact), and
  // they must stay within the oracle tolerance in Uniform mode. Extreme
  // mode makes no cross-design value promise (NaN payloads and inf - inf
  // are association-sensitive), so only the shape is pinned there.
  {
    host::ContextConfig tuned_cfg = cfg;
    tuned_cfg.tune = host::TunePolicy::Model;
    try {
      const host::Plan fixed_plan =
          host::build_plan(cfg, host::PlanKey::from(data.desc));
      const host::Plan tuned_plan = host::build_plan(
          tuned_cfg, host::PlanKey::from(data.desc, host::TunePolicy::Model));
      Runtime rt_tuned(tuned_cfg);
      const Outcome tuned = rt_tuned.run(data.desc);
      const std::string fixed_sig = host::engine_signature(fixed_plan.engine);
      const std::string tuned_sig = host::engine_signature(tuned_plan.engine);
      if (fixed_sig == tuned_sig) {
        if (auto d = outcome_diff(base, tuned)) {
          return CheckFailure{"tuned-equivalence",
                              cat("same design (", tuned_sig,
                                  ") but tuned run differs: ", *d)};
        }
      } else {
        if (tuned.values.size() != base.values.size()) {
          return CheckFailure{
              "tuned-equivalence",
              cat("tuned design ", tuned_sig, " returned ",
                  tuned.values.size(), " values, fixed ", fixed_sig,
                  " returned ", base.values.size())};
        }
        if (fc.mode == ValueMode::Exact) {
          for (std::size_t i = 0; i < base.values.size(); ++i) {
            if (!bits_equal(base.values[i], tuned.values[i])) {
              return CheckFailure{
                  "tuned-equivalence",
                  cat("exact-mode values[", i, "]: tuned ", tuned_sig, " gave ",
                      tuned.values[i], ", fixed ", fixed_sig, " gave ",
                      base.values[i])};
            }
          }
        } else if (fc.mode == ValueMode::Uniform) {
          if (auto f = check_oracle(fc, data, tuned)) {
            return CheckFailure{"tuned-equivalence",
                                cat("tuned design ", tuned_sig,
                                    " misses the oracle: ", f->detail)};
          }
        }
      }
    } catch (const ConfigError& e) {
      return CheckFailure{
          "tuned-equivalence",
          cat("tuner found no buildable design for a case the fixed "
              "configuration accepts: ",
              e.what())};
    }
  }

  // Differential oracle.
  if (fc.mode != ValueMode::Extreme) {
    if (auto f = check_oracle(fc, data, base)) return f;
  }

  // A live telemetry session must not perturb numerics or timing, and every
  // exporter must emit valid JSON even for degenerate shapes.
  {
    telemetry::Session tel;
    tel.trace().set_enabled(true);
    host::ContextConfig tcfg = cfg;
    tcfg.telemetry = &tel;
    Runtime rt_tel(tcfg);
    const Outcome tout = rt_tel.run(data.desc);
    if (auto d = outcome_diff(base, tout)) {
      return CheckFailure{"telemetry", cat("live session changed the run: ", *d)};
    }
    const struct {
      const char* what;
      std::string text;
    } exports[] = {
        {"metrics", telemetry::metrics_to_json(tel.metrics())},
        {"spans", telemetry::spans_to_json(tel.spans())},
        {"trace", telemetry::chrome_trace_json(tel, tout.report.clock_mhz)},
        {"report", telemetry::report_to_json(tout.report)},
    };
    for (const auto& e : exports) {
      std::string err;
      if (!telemetry::json_validate(e.text, &err)) {
        return CheckFailure{"telemetry-json",
                            cat(e.what, " export is invalid JSON: ", err)};
      }
    }

    // Concurrent neutrality: worker-pool submission with the session
    // attached records through thread-local shards and the merge path, and
    // must still reproduce the detached run bit for bit — values, cycles,
    // stalls, everything.
    if (auto d = outcome_diff(base, rt_tel.submit(data.desc).get())) {
      return CheckFailure{
          "telemetry-concurrent",
          cat("attached submit() differs from detached run(): ", *d)};
    }
    const auto touts = rt_tel.run_batch({data.desc, data.desc});
    for (std::size_t i = 0; i < touts.size(); ++i) {
      if (auto d = outcome_diff(base, touts[i])) {
        return CheckFailure{
            "telemetry-concurrent",
            cat("attached run_batch()[", i, "] differs: ", *d)};
      }
    }
    // Those submissions also landed in the flight recorder; its export must
    // be strict JSON like every other sink.
    {
      std::string err;
      const std::string fj = telemetry::flight_to_json(tel.flight());
      if (!telemetry::json_validate(fj, &err)) {
        return CheckFailure{"telemetry-json",
                            cat("flight export is invalid JSON: ", err)};
      }
      if (tel.flight().total() < 3) {
        return CheckFailure{
            "telemetry-concurrent",
            cat("flight recorder saw ", tel.flight().total(),
                " completions, expected at least 3 (1 submit + 2 batch)")};
      }
    }
  }

  // Cycle count monotone in problem size.
  if (const auto sib = size_sibling(fc)) {
    const u64 small = run_cycles(*sib);
    if (small > base.report.cycles) {
      return CheckFailure{
          "size-monotone",
          cat("halved problem took ", small, " cycles > ", base.report.cycles,
              " (sibling: ", sib->to_line(), ")")};
    }
  }

  // Cycle count non-increasing in PE count, where the model guarantees it:
  // the tree GEMV streams k words/cycle (one per SRAM bank), so doubling k
  // doubles bandwidth and compute together. Guarded to streaming-dominated
  // shapes — for tiny matrices the constant pipeline/reduction tail
  // (~2*alpha^2 cycles) dominates and the model makes no promise.
  if (fc.kind == FuzzKind::Gemv && fc.engine == host::EngineRequest::Default) {
    const unsigned k = fc.gemv_k ? fc.gemv_k : 4;
    if (k <= 8 && fc.rows * fc.cols >= 8192) {
      FuzzCase wide = fc;
      wide.gemv_k = 2 * k;
      const u64 wide_cycles = run_cycles(wide);
      if (wide_cycles > base.report.cycles) {
        return CheckFailure{
            "pe-monotone",
            cat("k=", 2 * k, " took ", wide_cycles, " cycles > k=", k, "'s ",
                base.report.cycles, " on ", fc.rows, "x", fc.cols)};
      }
    }
  }

  return std::nullopt;
}

/// FuzzKind::Sharded invariant: the case's GEMM/GEMV re-run through the
/// ShardScheduler at l in {1, 2, 3, 6} (on a 3-chassis x 2-node system, so
/// l = 3 and l = 6 cross chassis boundaries).
///
/// Value comparison against the single-device run is scoped by what the
/// engine's association order guarantees (the same doctrine as the oracle,
/// see ValueMode in case.hpp):
///  - GEMM: bitwise in every mode. The hierarchical engine accumulates each
///    C element over the full inner dimension in ascending order, so a row
///    panel computes exactly the element it would in the whole problem.
///  - GEMV at l = 1: bitwise in every mode — the sub-op IS the original op.
///  - GEMV at l > 1: the Sec 3 reduction circuit pairs a row's partial
///    chunk sums in an order that depends on which other rows share
///    Buf_red and on fold-path adder contention, so splitting the row set
///    reassociates. Bitwise only in Exact mode (integer sums are
///    association-independent); Uniform compares against the naive oracle
///    with the magnitude-scaled tolerance; Extreme skips value comparison.
/// In every mode and at every l the sharded run itself must be
/// reproducible: rerunning yields bit-identical values AND identical
/// per-shard cycles/timelines. l = 1 must cost exactly the single-device
/// run (no transfer legs), and for GEMM the timeline of the observed engine
/// cycles must land on the planned model cycle-for-cycle.
std::optional<CheckFailure> check_sharded(const FuzzCase& fc, CaseData& data) {
  Runtime rt(fc.config());
  const Outcome base = rt.run(data.desc);

  machine::SystemConfig sys;
  sys.chassis_count = 3;
  sys.chassis.nodes = 2;

  const bool is_gemm = fc.n > 0;
  const std::size_t rows = is_gemm ? fc.n : fc.rows;
  const OracleVec want =
      !is_gemm && fc.mode == ValueMode::Uniform
          ? oracle_gemv(data.a, data.desc.rows, data.desc.cols, data.x)
          : OracleVec{};
  for (const unsigned l : {1u, 2u, 3u, 6u}) {
    if (l > rows) continue;
    host::ShardScheduler sched(rt, sys);
    const host::ShardOutcome out = sched.run(data.desc, l);

    if (out.values.size() != base.values.size()) {
      return CheckFailure{"shard-identity",
                          cat("l=", l, ": ", out.values.size(),
                              " values != single-device ",
                              base.values.size())};
    }
    if (is_gemm || l == 1 || fc.mode == ValueMode::Exact) {
      for (std::size_t i = 0; i < base.values.size(); ++i) {
        if (!bits_equal(out.values[i], base.values[i])) {
          return CheckFailure{
              "shard-identity",
              cat("l=", l, " values[", i, "] ", out.values[i],
                  " != ", base.values[i], " (bits 0x", std::hex,
                  fp::to_bits(out.values[i]), " vs 0x",
                  fp::to_bits(base.values[i]), ")")};
        }
      }
    } else if (fc.mode == ValueMode::Uniform) {
      for (std::size_t i = 0; i < want.values.size(); ++i) {
        const double tol = oracle_tolerance(want.mag[i]);
        const double diff = std::fabs(out.values[i] - want.values[i]);
        if (!(diff <= tol)) {
          return CheckFailure{"shard-identity",
                              cat("l=", l, " values[", i, "]: sharded ",
                                  out.values[i], " vs oracle ",
                                  want.values[i], ", |diff| ", diff, " > tol ",
                                  tol)};
        }
      }
    }

    if (l == 1 && out.report.cycles != base.report.cycles) {
      return CheckFailure{"shard-l1",
                          cat("l=1 took ", out.report.cycles,
                              " cycles != single-device ",
                              base.report.cycles)};
    }
    if (fc.n > 0 && out.report.cycles != out.plan.model_cycles) {
      return CheckFailure{"shard-model",
                          cat("l=", l, " simulated ", out.report.cycles,
                              " cycles != modeled ", out.plan.model_cycles)};
    }

    // Rerun through a fresh scheduler: the reduced cycle count and every
    // per-shard timeline entry must be independent of pool scheduling.
    host::ShardScheduler again(rt, sys);
    const host::ShardOutcome rep = again.run(data.desc, l);
    if (rep.report.cycles != out.report.cycles) {
      return CheckFailure{"shard-determinism",
                          cat("l=", l, " rerun took ", rep.report.cycles,
                              " cycles != ", out.report.cycles)};
    }
    for (std::size_t i = 0; i < base.values.size(); ++i) {
      if (!bits_equal(rep.values[i], out.values[i])) {
        return CheckFailure{"shard-determinism",
                            cat("l=", l, " rerun values[", i, "] differ")};
      }
    }
    for (unsigned s = 0; s < l; ++s) {
      if (rep.plan.pieces[s].done != out.plan.pieces[s].done ||
          rep.shards[s].report.cycles != out.shards[s].report.cycles) {
        return CheckFailure{
            "shard-determinism",
            cat("l=", l, " shard ", s, " timeline differs across reruns")};
      }
    }
  }
  return std::nullopt;
}

std::optional<CheckFailure> check_solver(const FuzzCase& fc) {
  CaseData data;
  materialize(fc, data);
  host::Context ctx(fc.config());
  const solver::SolveOptions opts;

  if (fc.kind == FuzzKind::JacobiBatch) {
    const auto many = solver::jacobi_dense_batch(ctx, data.a, fc.n, data.rhs, opts);
    if (many.size() != data.rhs.size()) {
      return CheckFailure{"solver-batch", cat("batch returned ", many.size(),
                                              " results for ", data.rhs.size(),
                                              " systems")};
    }
    for (std::size_t i = 0; i < data.rhs.size(); ++i) {
      const auto one = solver::jacobi_dense(ctx, data.a, fc.n, data.rhs[i], opts);
      if (one.iterations != many[i].iterations ||
          one.fpga_cycles != many[i].fpga_cycles ||
          one.converged != many[i].converged) {
        return CheckFailure{
            "solver-batch",
            cat("system ", i, ": batch (iters=", many[i].iterations,
                ", cycles=", many[i].fpga_cycles, ") != single (iters=",
                one.iterations, ", cycles=", one.fpga_cycles, ")")};
      }
      for (std::size_t j = 0; j < fc.n; ++j) {
        if (!bits_equal(one.x[j], many[i].x[j])) {
          return CheckFailure{"solver-batch",
                              cat("system ", i, " x[", j, "]: batch ",
                                  many[i].x[j], " != single ", one.x[j])};
        }
      }
    }
    // Backend equivalence for the solver path: identical iterates, cycle
    // counts and solution bits under the other arithmetic backend.
    if (native_is_conformant()) {
      fp::ScopedBackend swap(other_backend());
      host::Context ctx2(fc.config());
      const auto many2 =
          solver::jacobi_dense_batch(ctx2, data.a, fc.n, data.rhs, opts);
      for (std::size_t i = 0; i < many.size(); ++i) {
        if (many2[i].iterations != many[i].iterations ||
            many2[i].fpga_cycles != many[i].fpga_cycles) {
          return CheckFailure{
              "backend-equivalence",
              cat("jacobi system ", i, ": other backend iters=",
                  many2[i].iterations, "/cycles=", many2[i].fpga_cycles,
                  " != ", many[i].iterations, "/", many[i].fpga_cycles)};
        }
        for (std::size_t j = 0; j < fc.n; ++j) {
          if (!bits_equal(many2[i].x[j], many[i].x[j])) {
            return CheckFailure{"backend-equivalence",
                                cat("jacobi system ", i, " x[", j,
                                    "] differs across backends")};
          }
        }
      }
    }
    return std::nullopt;
  }

  // CG: deterministic, converges on the generated SPD system, and its
  // reported residual agrees with an independent recomputation.
  const auto r1 = solver::cg_dense(ctx, data.a, fc.n, data.b, opts);
  const auto r2 = solver::cg_dense(ctx, data.a, fc.n, data.b, opts);
  if (r1.iterations != r2.iterations || r1.fpga_cycles != r2.fpga_cycles) {
    return CheckFailure{"solver-determinism",
                        cat("reruns differ: iters ", r1.iterations, "/",
                            r2.iterations, ", cycles ", r1.fpga_cycles, "/",
                            r2.fpga_cycles)};
  }
  for (std::size_t j = 0; j < fc.n; ++j) {
    if (!bits_equal(r1.x[j], r2.x[j])) {
      return CheckFailure{"solver-determinism",
                          cat("reruns differ at x[", j, "]")};
    }
  }
  if (native_is_conformant()) {
    fp::ScopedBackend swap(other_backend());
    host::Context ctx2(fc.config());
    const auto r3 = solver::cg_dense(ctx2, data.a, fc.n, data.b, opts);
    if (r3.iterations != r1.iterations || r3.fpga_cycles != r1.fpga_cycles) {
      return CheckFailure{"backend-equivalence",
                          cat("cg: other backend iters=", r3.iterations,
                              "/cycles=", r3.fpga_cycles, " != ",
                              r1.iterations, "/", r1.fpga_cycles)};
    }
    for (std::size_t j = 0; j < fc.n; ++j) {
      if (!bits_equal(r3.x[j], r1.x[j])) {
        return CheckFailure{
            "backend-equivalence",
            cat("cg x[", j, "] differs across backends")};
      }
    }
  }
  if (!r1.converged) {
    return CheckFailure{"solver-convergence",
                        cat("CG failed to converge on a diagonally dominant "
                            "SPD system (n=", fc.n, ", residual ",
                            r1.residual_norm, ")")};
  }
  double res2 = 0.0;
  for (std::size_t i = 0; i < fc.n; ++i) {
    double row = data.b[i];
    for (std::size_t j = 0; j < fc.n; ++j) {
      row -= data.a[i * fc.n + j] * r1.x[j];
    }
    res2 += row * row;
  }
  const double recomputed = std::sqrt(res2);
  if (recomputed > 1e-6) {
    return CheckFailure{"solver-residual",
                        cat("recomputed ||b - A x|| = ", recomputed,
                            " but solver reported ", r1.residual_norm)};
  }
  return std::nullopt;
}

/// Full comparison of two graph outcomes: every node outcome bitwise, plus
/// the aggregate report and the fusion accounting.
std::optional<std::string> graph_diff(const host::GraphOutcome& want,
                                      const host::GraphOutcome& got) {
  if (want.nodes.size() != got.nodes.size()) {
    return cat("node count ", got.nodes.size(), " != ", want.nodes.size());
  }
  for (std::size_t i = 0; i < want.nodes.size(); ++i) {
    if (auto d = outcome_diff(want.nodes[i], got.nodes[i])) {
      return cat("node ", i, ": ", *d);
    }
  }
  if (want.report.cycles != got.report.cycles) {
    return cat("aggregate cycles ", got.report.cycles,
               " != ", want.report.cycles);
  }
  if (want.fused_edges != got.fused_edges ||
      want.shared_operands != got.shared_operands ||
      want.staging_saved_cycles != got.staging_saved_cycles) {
    return cat("fusion accounting (edges/shared/saved) ", got.fused_edges, "/",
               got.shared_operands, "/", got.staging_saved_cycles, " != ",
               want.fused_edges, "/", want.shared_operands, "/",
               want.staging_saved_cycles);
  }
  return std::nullopt;
}

std::optional<CheckFailure> check_graph(const FuzzCase& fc, CaseData& data) {
  const host::ContextConfig cfg = fc.config();

  Runtime rt(cfg);
  const host::GraphOutcome base = rt.run_graph(data.graph);
  if (base.nodes.size() != data.graph.nodes.size()) {
    return CheckFailure{"graph-shape",
                        cat("run_graph returned ", base.nodes.size(),
                            " outcomes for ", data.graph.nodes.size(),
                            " nodes")};
  }

  // The core fusion contract: replaying every node as a stand-alone op —
  // with edge-fed slots resolved to the fused producer results — must
  // reproduce the fused values bit for bit and the engine compute cycle
  // for cycle; only the staging accounting may differ, and that difference
  // must be exactly the per-node savings the graph reported.
  Runtime single(cfg);
  for (std::size_t i = 0; i < data.graph.nodes.size(); ++i) {
    host::OpDesc d = data.graph.nodes[i].desc;
    for (const auto& e : data.graph.edges) {
      if (e.to != i) continue;
      const std::vector<double>* src = &base.nodes[e.from].values;
      switch (e.slot) {
        case host::OperandSlot::A: d.a = src; break;
        case host::OperandSlot::B: d.b = src; break;
        case host::OperandSlot::X: d.x = src; break;
      }
    }
    const Outcome lone = single.run(d);
    const Outcome& fused = base.nodes[i];
    if (lone.values.size() != fused.values.size()) {
      return CheckFailure{"graph-fused-values",
                          cat("node ", i, ": fused returned ",
                              fused.values.size(), " values, unfused ",
                              lone.values.size())};
    }
    for (std::size_t j = 0; j < lone.values.size(); ++j) {
      if (!bits_equal(lone.values[j], fused.values[j])) {
        return CheckFailure{
            "graph-fused-values",
            cat("node ", i, " values[", j, "]: fused ", fused.values[j],
                " != unfused ", lone.values[j], " (bits 0x", std::hex,
                fp::to_bits(fused.values[j]), " vs 0x",
                fp::to_bits(lone.values[j]), ")")};
      }
    }
    const u64 fused_compute = fused.report.cycles - fused.report.staging_cycles;
    const u64 lone_compute = lone.report.cycles - lone.report.staging_cycles;
    if (fused_compute != lone_compute ||
        fused.report.flops != lone.report.flops ||
        fused.report.stall_cycles != lone.report.stall_cycles) {
      return CheckFailure{
          "graph-fused-compute",
          cat("node ", i, ": fused compute/flops/stalls ", fused_compute, "/",
              fused.report.flops, "/", fused.report.stall_cycles,
              " != unfused ", lone_compute, "/", lone.report.flops, "/",
              lone.report.stall_cycles)};
    }
    if (lone.report.staging_cycles < fused.report.staging_cycles) {
      return CheckFailure{"graph-staging",
                          cat("node ", i, ": fused staging ",
                              fused.report.staging_cycles,
                              " exceeds unfused ", lone.report.staging_cycles)};
    }
    const u64 saved = lone.report.staging_cycles - fused.report.staging_cycles;
    if (saved != base.node_staging_saved[i]) {
      return CheckFailure{
          "graph-staging",
          cat("node ", i, ": actual staging gap ", saved,
              " != reported node_staging_saved ", base.node_staging_saved[i])};
    }
    if (fc.placement == host::Placement::Sram &&
        (fused.report.staging_cycles != 0 || saved != 0)) {
      return CheckFailure{"graph-staging",
                          cat("node ", i, ": SRAM placement staged ",
                              fused.report.staging_cycles, " cycles (saved ",
                              saved, ")")};
    }
  }

  // Graph-plan-cache hit must reproduce the cold miss exactly.
  const host::GraphOutcome warm = rt.run_graph(data.graph);
  if (rt.plan_cache().graph_hits() == 0) {
    return CheckFailure{"graph-plan-cache",
                        "second run did not hit the graph plan cache"};
  }
  if (auto d = graph_diff(base, warm)) {
    return CheckFailure{"graph-plan-cache", cat("cache-hit rerun differs: ", *d)};
  }

  // A fresh runtime must reproduce it, and submit_graph() == run_graph().
  Runtime fresh(cfg);
  if (auto d = graph_diff(base, fresh.run_graph(data.graph))) {
    return CheckFailure{"graph-determinism", cat("fresh runtime differs: ", *d)};
  }
  if (auto d = graph_diff(base, rt.submit_graph(data.graph).get())) {
    return CheckFailure{"graph-concurrency",
                        cat("submit_graph() differs from run_graph(): ", *d)};
  }

  // Backend equivalence: fused execution under the other arithmetic backend
  // is bit-identical — values AND cycles — for every node.
  if (native_is_conformant()) {
    fp::ScopedBackend swap(other_backend());
    Runtime rt_other(cfg);
    if (auto d = graph_diff(base, rt_other.run_graph(data.graph))) {
      return CheckFailure{
          "backend-equivalence",
          cat(backend_name(fp::active_backend().kind), " backend differs: ", *d)};
    }
  }

  // A live telemetry session must not perturb the graph run, and the
  // exporters must stay valid JSON with graph phases recorded.
  {
    telemetry::Session tel;
    host::ContextConfig tcfg = cfg;
    tcfg.telemetry = &tel;
    Runtime rt_tel(tcfg);
    if (auto d = graph_diff(base, rt_tel.run_graph(data.graph))) {
      return CheckFailure{"telemetry",
                          cat("live session changed the graph run: ", *d)};
    }
    if (auto d = graph_diff(base, rt_tel.submit_graph(data.graph).get())) {
      return CheckFailure{
          "telemetry-concurrent",
          cat("attached submit_graph() differs: ", *d)};
    }
    const struct {
      const char* what;
      std::string text;
    } exports[] = {
        {"metrics", telemetry::metrics_to_json(tel.metrics())},
        {"report", telemetry::report_to_json(base.report)},
    };
    for (const auto& e : exports) {
      std::string err;
      if (!telemetry::json_validate(e.text, &err)) {
        return CheckFailure{"telemetry-json",
                            cat(e.what, " export is invalid JSON: ", err)};
      }
    }
  }

  return std::nullopt;
}

// ---- generation ------------------------------------------------------------

u64 splitmix64(u64 x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

std::size_t pick_len(Rng& rng) {
  const u64 r = rng.uniform_int(1, 100);
  if (r <= 25) return static_cast<std::size_t>(rng.uniform_int(1, 4));
  if (r <= 45) return static_cast<std::size_t>(rng.uniform_int(12, 17));
  if (r <= 85) return static_cast<std::size_t>(rng.uniform_int(5, 256));
  if (r <= 95) return static_cast<std::size_t>(rng.uniform_int(257, 2048));
  return static_cast<std::size_t>(rng.uniform_int(2049, 8192));
}

ValueMode pick_mode(Rng& rng) {
  const u64 r = rng.uniform_int(1, 100);
  if (r <= 50) return ValueMode::Exact;
  if (r <= 85) return ValueMode::Uniform;
  return ValueMode::Extreme;
}

Sabotage pick_sabotage(Rng& rng, std::initializer_list<Sabotage> applicable) {
  const auto idx = rng.uniform_int(0, applicable.size() - 1);
  return applicable.begin()[idx];
}

}  // namespace

FuzzCase generate_case(u64 seed, u64 index) {
  Rng rng(splitmix64(seed ^ splitmix64(index)));
  FuzzCase fc;
  fc.vseed = rng.next_u64() | 1;

  using host::EngineRequest;
  const u64 kind_roll = rng.uniform_int(1, 100);
  if (kind_roll <= 16) fc.kind = FuzzKind::Dot;
  else if (kind_roll <= 24) fc.kind = FuzzKind::DotBatch;
  else if (kind_roll <= 48) fc.kind = FuzzKind::Gemv;
  else if (kind_roll <= 62) fc.kind = FuzzKind::Spmxv;
  else if (kind_roll <= 86) fc.kind = FuzzKind::Gemm;
  else if (kind_roll <= 92) fc.kind = FuzzKind::JacobiBatch;
  else if (kind_roll <= 95) fc.kind = FuzzKind::Graph;
  else if (kind_roll <= 98) fc.kind = FuzzKind::Sharded;
  else fc.kind = FuzzKind::Cg;
  if (kind_roll > 42 && kind_roll <= 48) fc.engine = EngineRequest::Blocked;
  if (kind_roll > 72 && kind_roll <= 80) fc.engine = EngineRequest::Array;
  if (kind_roll > 80 && kind_roll <= 86) fc.engine = EngineRequest::Multi;

  fc.mode = is_solver(fc.kind) ? ValueMode::Uniform : pick_mode(rng);
  const bool sabotaged = !is_solver(fc.kind) && rng.uniform_int(1, 100) <= 12;

  switch (fc.kind) {
    case FuzzKind::Dot: {
      fc.cols = pick_len(rng);
      const unsigned ks[] = {0, 1, 4, 8};
      fc.dot_k = ks[rng.uniform_int(0, 3)];
      if (rng.uniform_int(1, 100) <= 30) fc.placement = host::Placement::Dram;
      if (sabotaged) {
        fc.sabotage = pick_sabotage(rng, {Sabotage::OperandLength,
                                          Sabotage::ZeroShape,
                                          Sabotage::DesignKnob});
      }
      break;
    }
    case FuzzKind::DotBatch: {
      fc.batch = static_cast<std::size_t>(rng.uniform_int(1, 6));
      if (sabotaged) {
        fc.sabotage = pick_sabotage(rng, {Sabotage::OperandLength,
                                          Sabotage::ZeroShape,
                                          Sabotage::DesignKnob});
      }
      break;
    }
    case FuzzKind::Gemv: {
      if (fc.engine == EngineRequest::Blocked) {
        fc.rows = static_cast<std::size_t>(rng.uniform_int(1, 3));
        // ~20% of cases push x past the on-chip capacity (65016 words on
        // the default XC2VP50) to exercise the blocked fallback.
        fc.cols = rng.uniform_int(1, 100) <= 20
                      ? static_cast<std::size_t>(rng.uniform_int(65017, 68000))
                      : static_cast<std::size_t>(rng.uniform_int(8, 4096));
      } else {
        const unsigned ks[] = {0, 1, 2, 8};
        fc.gemv_k = ks[rng.uniform_int(0, 3)];
        const unsigned k_eff = fc.gemv_k ? fc.gemv_k : 4;
        fc.rows = static_cast<std::size_t>(rng.uniform_int(1, 192));
        fc.cols = static_cast<std::size_t>(rng.uniform_int(1, 128));
        if (rng.uniform_int(1, 100) <= 25) {
          // The column design re-reads each y intermediate every
          // ceil(rows/k) cycles; keep that above the adder depth.
          fc.engine = EngineRequest::Column;
          fc.rows = std::max<std::size_t>(
              fc.rows, 14ull * k_eff + rng.uniform_int(0, 24));
        }
        if (rng.uniform_int(1, 100) <= 30) fc.placement = host::Placement::Dram;
      }
      if (sabotaged) {
        fc.sabotage =
            pick_sabotage(rng, {Sabotage::OperandLength, Sabotage::ZeroShape,
                                Sabotage::OverflowShape, Sabotage::DesignKnob});
      }
      break;
    }
    case FuzzKind::Spmxv: {
      fc.rows = static_cast<std::size_t>(rng.uniform_int(1, 96));
      fc.cols = static_cast<std::size_t>(rng.uniform_int(1, 96));
      fc.nnz_per_row = static_cast<std::size_t>(
          rng.uniform_int(0, std::min<u64>(fc.cols, 8)));
      const unsigned ks[] = {0, 1, 2, 8};
      fc.gemv_k = ks[rng.uniform_int(0, 3)];
      if (sabotaged) {
        fc.sabotage =
            pick_sabotage(rng, {Sabotage::OperandLength, Sabotage::ZeroShape,
                                Sabotage::SparseStructure,
                                Sabotage::DesignKnob});
      }
      break;
    }
    case FuzzKind::Gemm: {
      const bool multi = fc.engine == EngineRequest::Multi;
      const unsigned ms[] = {2, 4, 8};
      unsigned m = ms[rng.uniform_int(0, 2)];
      unsigned l = 1;
      if (multi) {
        m = rng.uniform_int(0, 1) ? 4 : 8;
        l = static_cast<unsigned>(rng.uniform_int(1, 3));
      }
      const unsigned kchoices[] = {1, m / 2, m};
      const unsigned k = std::max(1u, kchoices[rng.uniform_int(0, 2)]);
      fc.mm_m = m;
      fc.mm_k = k;
      fc.mm_l = l;
      if (multi) {
        fc.mm_b = static_cast<std::size_t>(m) * l *
                  static_cast<std::size_t>(rng.uniform_int(1, 2));
        fc.n = fc.mm_b * static_cast<std::size_t>(rng.uniform_int(1, 2));
      } else {
        fc.n = static_cast<std::size_t>(m) *
               static_cast<std::size_t>(rng.uniform_int(1, 6));
        // Panel edge: the whole problem, or single m-blocks.
        fc.mm_b = rng.uniform_int(0, 1) ? fc.n : m;
      }
      if (sabotaged) {
        fc.sabotage = pick_sabotage(
            rng, {Sabotage::OperandLength, Sabotage::ZeroShape,
                  Sabotage::OverflowShape, Sabotage::Indivisible,
                  Sabotage::DesignKnob});
      }
      break;
    }
    case FuzzKind::JacobiBatch:
      fc.n = static_cast<std::size_t>(rng.uniform_int(4, 40));
      fc.batch = static_cast<std::size_t>(rng.uniform_int(2, 4));
      break;
    case FuzzKind::Cg:
      fc.n = static_cast<std::size_t>(rng.uniform_int(4, 32));
      break;
    case FuzzKind::Graph: {
      fc.n = static_cast<std::size_t>(rng.uniform_int(4, 96));
      fc.batch = static_cast<std::size_t>(rng.uniform_int(2, 4));
      const u64 form = rng.uniform_int(1, 100);
      if (form <= 50) fc.gform = GraphForm::Random;
      else if (form <= 80) fc.gform = GraphForm::CgStep;
      else fc.gform = GraphForm::JacobiSweep;
      // Fusion only has staging to recover under DRAM placement, so weight
      // it heavily; the Sram cases pin the zero-staging parity instead.
      if (rng.uniform_int(1, 100) <= 65) fc.placement = host::Placement::Dram;
      const unsigned gks[] = {0, 1, 2, 8};
      fc.gemv_k = gks[rng.uniform_int(0, 3)];
      const unsigned dks[] = {0, 1, 4, 8};
      fc.dot_k = dks[rng.uniform_int(0, 3)];
      // ~25%: shrink the SRAM so chain operands cannot stay resident and
      // the planner's per-edge DRAM-staging fallback triggers.
      if (rng.uniform_int(1, 100) <= 25) {
        fc.sram_cap = static_cast<std::size_t>(rng.uniform_int(8, 4 * fc.n));
      }
      break;
    }
    case FuzzKind::Sharded: {
      // Never sabotaged: the invariant is bit-identity of a well-formed op
      // across shard counts, not error handling. n > 0 selects GEMM.
      if (rng.uniform_int(0, 1)) {
        const unsigned ms[] = {2, 4, 8};
        const unsigned m = ms[rng.uniform_int(0, 2)];
        const unsigned kchoices[] = {1, m / 2, m};
        fc.mm_m = m;
        fc.mm_k = std::max(1u, kchoices[rng.uniform_int(0, 2)]);
        fc.n = static_cast<std::size_t>(m) *
               static_cast<std::size_t>(rng.uniform_int(2, 6));
        fc.mm_b = rng.uniform_int(0, 1) ? fc.n : m;
      } else {
        const unsigned ks[] = {0, 1, 2, 8};
        fc.gemv_k = ks[rng.uniform_int(0, 3)];
        fc.rows = static_cast<std::size_t>(rng.uniform_int(6, 192));
        fc.cols = static_cast<std::size_t>(rng.uniform_int(1, 128));
      }
      break;
    }
  }
  return fc;
}

std::optional<CheckFailure> check_case(const FuzzCase& fc) {
  try {
    if (is_solver(fc.kind)) return check_solver(fc);
    CaseData data;
    materialize(fc, data);
    if (fc.kind == FuzzKind::Graph) return check_graph(fc, data);
    if (fc.kind == FuzzKind::Sharded) return check_sharded(fc, data);
    if (fc.expect_error()) return check_error_paths(fc, data);
    return check_op(fc, data);
  } catch (const std::exception& e) {
    return CheckFailure{"unexpected-exception", e.what()};
  }
}

// ---- shrinking -------------------------------------------------------------

namespace {

/// Strictly decreasing under every adopted reduction, so the greedy descent
/// terminates.
u64 shrink_measure(const FuzzCase& fc) {
  u64 m = fc.rows + fc.cols + fc.n + fc.batch + fc.nnz_per_row;
  if (fc.placement != host::Placement::Sram) ++m;
  if (fc.engine == host::EngineRequest::Column) ++m;
  m += static_cast<u64>(fc.mode);
  m += (fc.dot_k ? 1 : 0) + (fc.gemv_k ? 1 : 0) + (fc.mm_k ? 1 : 0) +
       (fc.mm_m ? 1 : 0) + (fc.mm_b ? 1 : 0) + (fc.mm_l ? 1 : 0);
  if (fc.sram_cap) ++m;
  if (fc.vseed != 1) ++m;
  return m;
}

std::vector<FuzzCase> shrink_candidates(const FuzzCase& fc) {
  std::vector<FuzzCase> out;
  const auto push = [&](FuzzCase c) {
    if (shrink_measure(c) < shrink_measure(fc)) out.push_back(c);
  };

  for (std::size_t FuzzCase::*field :
       {&FuzzCase::rows, &FuzzCase::cols, &FuzzCase::n, &FuzzCase::batch,
        &FuzzCase::nnz_per_row}) {
    if (fc.*field > 1) {
      FuzzCase c = fc;
      c.*field = fc.*field / 2;
      if (field == &FuzzCase::n && fc.mm_b == fc.n) c.mm_b = c.n;
      push(c);
      c = fc;
      c.*field = 1;
      if (field == &FuzzCase::n && fc.mm_b == fc.n) c.mm_b = 1;
      push(c);
    }
  }
  if (fc.placement != host::Placement::Sram) {
    FuzzCase c = fc;
    c.placement = host::Placement::Sram;
    push(c);
  }
  if (fc.engine == host::EngineRequest::Column) {
    FuzzCase c = fc;
    c.engine = host::EngineRequest::Default;
    push(c);
  }
  if (fc.mode == ValueMode::Extreme) {
    FuzzCase c = fc;
    c.mode = ValueMode::Uniform;
    push(c);
    c.mode = ValueMode::Exact;
    push(c);
  } else if (fc.mode == ValueMode::Uniform) {
    FuzzCase c = fc;
    c.mode = ValueMode::Exact;
    push(c);
  }
  for (unsigned FuzzCase::*knob :
       {&FuzzCase::dot_k, &FuzzCase::gemv_k, &FuzzCase::mm_k, &FuzzCase::mm_m,
        &FuzzCase::mm_l}) {
    if (fc.*knob) {
      FuzzCase c = fc;
      c.*knob = 0;
      push(c);
    }
  }
  if (fc.mm_b) {
    FuzzCase c = fc;
    c.mm_b = 0;
    push(c);
  }
  if (fc.sram_cap) {
    FuzzCase c = fc;
    c.sram_cap = 0;
    push(c);
  }
  if (fc.vseed != 1) {
    FuzzCase c = fc;
    c.vseed = 1;
    push(c);
  }
  return out;
}

}  // namespace

ShrinkResult shrink_case(const FuzzCase& failing, const CheckFailure& failure) {
  ShrinkResult res{failing, failure, 0};
  // Adopt only candidates that fail the SAME invariant: a smaller case that
  // merely fails differently (e.g. became structurally invalid) is a new
  // artifact, not a smaller reproduction of this bug.
  bool progressed = true;
  while (progressed && res.steps < 200) {
    progressed = false;
    for (const FuzzCase& cand : shrink_candidates(res.minimal)) {
      const auto f = check_case(cand);
      if (f && f->invariant == res.failure.invariant) {
        res.minimal = cand;
        res.failure = *f;
        ++res.steps;
        progressed = true;
        break;
      }
    }
  }
  return res;
}

// ---- corpus ----------------------------------------------------------------

std::vector<FuzzCase> load_corpus(const std::string& path) {
  std::ifstream in(path);
  require(static_cast<bool>(in), cat("cannot open corpus file '", path, "'"));
  std::vector<FuzzCase> cases;
  std::string line;
  std::size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    const auto first = line.find_first_not_of(" \t\r");
    if (first == std::string::npos || line[first] == '#') continue;
    try {
      cases.push_back(FuzzCase::from_line(line.substr(first)));
    } catch (const ConfigError& e) {
      throw ConfigError(cat(path, ":", line_no, ": ", e.what()));
    }
  }
  return cases;
}

void append_corpus(const std::string& path, const FuzzCase& fc,
                   const std::string& comment) {
  std::ofstream out(path, std::ios::app);
  require(static_cast<bool>(out), cat("cannot append to corpus '", path, "'"));
  if (!comment.empty()) out << "# " << comment << "\n";
  out << fc.to_line() << "\n";
}

// ---- drivers ---------------------------------------------------------------

namespace {

std::function<void(const std::string&)> default_log(
    const std::function<void(const std::string&)>& log) {
  if (log) return log;
  return [](const std::string& s) { std::printf("%s\n", s.c_str()); };
}

}  // namespace

FuzzSummary run_fuzz(const FuzzOptions& opts) {
  const auto log = default_log(opts.log);
  const auto start = std::chrono::steady_clock::now();
  FuzzSummary sum;

  for (u64 i = 0;; ++i) {
    if (opts.time_budget_ms) {
      const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
                               std::chrono::steady_clock::now() - start)
                               .count();
      if (elapsed >= static_cast<long long>(opts.time_budget_ms)) break;
    } else if (i >= opts.ops) {
      break;
    }

    const FuzzCase fc = generate_case(opts.seed, i);
    if (opts.verbose) log(cat("case ", i, ": ", fc.to_line()));
    const auto fail = check_case(fc);
    ++sum.cases_run;
    if (!fail) continue;

    ++sum.failures;
    log(cat("FAIL [", fail->invariant, "] case ", i, ": ", fail->detail));
    log(cat("  original: ", fc.to_line()));
    const ShrinkResult shrunk = shrink_case(fc, *fail);
    log(cat("  shrunk (", shrunk.steps, " steps): ", shrunk.minimal.to_line()));
    log(cat("  shrunk failure: ", shrunk.failure.detail));
    sum.failure_lines.push_back(shrunk.minimal.to_line());
    if (!opts.corpus_out.empty()) {
      append_corpus(opts.corpus_out, shrunk.minimal,
                    cat("seed=", opts.seed, " case=", i, " [",
                        shrunk.failure.invariant, "] ", shrunk.failure.detail));
      log(cat("  appended to ", opts.corpus_out));
    }
    if (sum.failures >= opts.max_failures) {
      log(cat("stopping after ", sum.failures, " failures"));
      break;
    }
  }

  log(cat("fuzz: ", sum.cases_run, " cases, ", sum.failures,
          " failures (seed ", opts.seed, ")"));
  return sum;
}

FuzzSummary replay_corpus(const std::string& path,
                          std::function<void(const std::string&)> log) {
  const auto out = default_log(log);
  FuzzSummary sum;
  for (const FuzzCase& fc : load_corpus(path)) {
    const auto fail = check_case(fc);
    ++sum.cases_run;
    if (fail) {
      ++sum.failures;
      out(cat("FAIL [", fail->invariant, "] ", fc.to_line(), ": ",
              fail->detail));
      sum.failure_lines.push_back(fc.to_line());
    }
  }
  out(cat("replay: ", sum.cases_run, " cases, ", sum.failures, " failures (",
          path, ")"));
  return sum;
}

}  // namespace xd::testing
