// Layer probes of the traced run. Each probe times calls into one module's
// public functions on fixed seeded inputs — the same inputs on every
// workload — and reports the median of a few repetitions, so a change to
// one layer shows in that layer's number whichever workload is traced.
#include <future>

#include "bench.hpp"
#include "common/random.hpp"
#include "common/thread_pool.hpp"
#include "fp/backend.hpp"
#include "host/shard.hpp"
#include "serve/proto.hpp"

namespace xdbench {

using namespace xd;
using host::OpDesc;
using host::Outcome;
using host::Runtime;

namespace {

double ms_since(u64 t0) { return static_cast<double>(now_ns() - t0) / 1e6; }

/// serve: codec and digest cost per request line, on the hot serve shapes.
void probe_serve(u64 seed, Metrics& m) {
  const char* shapes[] = {"dot --n 32", "dot --n 256", "gemv --n 16", "gemv --n 64",
                          "spmxv --n 128 --nnz-per-row 8", "gemm --n 32"};
  std::vector<std::string> lines;
  for (int i = 0; i < 64; ++i) lines.push_back(cat(shapes[i % 6], " --seed ", seed + i));
  host::ContextConfig base;
  Runtime rt(base);
  std::vector<serve::Request> reqs(lines.size());
  std::vector<Outcome> outs;
  for (std::size_t i = 0; i < lines.size(); ++i) {
    serve::parse_record(lines[i], i + 1, base, reqs[i]);
    outs.push_back(rt.run(reqs[i].desc));
  }
  const double n = static_cast<double>(lines.size());
  m.set("serve.parse_us", median_of(5, [&] {
          SpanScope span("serve::parse_record");
          const u64 t0 = now_ns();
          for (std::size_t i = 0; i < lines.size(); ++i) {
            serve::Request req;
            serve::parse_record(lines[i], i + 1, base, req);
          }
          return ms_since(t0) * 1e3 / n;
        }), "us");
  std::size_t sink = 0;
  m.set("serve.encode_us", median_of(5, [&] {
          SpanScope span("serve::outcome_record");
          const u64 t0 = now_ns();
          for (int r = 0; r < 16; ++r) {
            for (std::size_t i = 0; i < lines.size(); ++i) {
              sink += serve::outcome_record(reqs[i], outs[i]).size();
            }
          }
          return ms_since(t0) * 1e3 / (16 * n);
        }), "us");
  u64 h = 0;
  m.set("serve.digest_us", median_of(5, [&] {
          SpanScope span("serve::values_fnv");
          const u64 t0 = now_ns();
          for (int r = 0; r < 64; ++r) {
            for (const auto& o : outs) h += serve::values_fnv(o.values);
          }
          return ms_since(t0) * 1e3 / (64 * n);
        }), "us");
  if (sink == 0 || h == 0) throw ConfigError("serve probe: empty records or digests");
}

/// host.runtime / common.thread_pool: per-op overheads on a tiny dot.
void probe_runtime(u64 seed, Metrics& m) {
  Rng rng(seed);
  const auto u = rng.vector(32), v = rng.vector(32);
  const OpDesc dot = OpDesc::dot(u, v);
  Runtime rt({});
  const host::PlanHandle h = rt.pin_plan(dot);
  constexpr int kCalls = 20000;
  const double run_ns = median_of(5, [&] {
    SpanScope span("Runtime::run(pinned)");
    const u64 t0 = now_ns();
    for (int i = 0; i < kCalls; ++i) rt.run(dot, h);
    return static_cast<double>(now_ns() - t0) / kCalls;
  });
  m.set("runtime.run_pinned_ns", run_ns, "ns");
  // One op at a time, so submit->ready is the pool round trip plus the run.
  const double submit_ns = median_of(5, [&] {
    SpanScope span("Runtime::submit(pinned).get");
    const u64 t0 = now_ns();
    for (int i = 0; i < kCalls / 4; ++i) rt.submit(dot, h).get();
    return static_cast<double>(now_ns() - t0) / (kCalls / 4);
  });
  m.set("runtime.submit_overhead_ns", submit_ns - run_ns, "ns");
  ThreadPool& pool = ThreadPool::shared();
  m.set("pool.submit_noop_ns", median_of(5, [&] {
          SpanScope span("ThreadPool::submit(noop)");
          constexpr std::size_t kOps = 40000, kWindow = 4096;
          std::vector<std::future<int>> futs;
          futs.reserve(kWindow);
          const u64 t0 = now_ns();
          for (std::size_t i = 0; i < kOps; ++i) {
            futs.push_back(pool.submit([] { return 1; }));
            if (futs.size() == kWindow) {
              for (auto& f : futs) f.get();
              futs.clear();
            }
          }
          for (auto& f : futs) f.get();
          return static_cast<double>(now_ns() - t0) / kOps;
        }), "ns");
}

/// host.plan: building one plan for a shape never seen before.
void probe_plan(u64 seed, Metrics& m) {
  Rng rng(seed);
  const auto u = rng.vector(256), v = rng.vector(256);
  const auto a = rng.matrix(64, 64), x = rng.vector(64);
  const auto g = rng.matrix(64, 64);
  const OpDesc descs[] = {OpDesc::dot(u, v), OpDesc::gemv(a, 64, 64, x),
                          OpDesc::gemm(g, g, 64)};
  std::vector<double> us;
  for (int r = 0; r < 5; ++r) {
    for (const OpDesc& d : descs) {
      Runtime fresh({});
      SpanScope span("Runtime::pin_plan(miss)");
      const u64 t0 = now_ns();
      fresh.pin_plan(d);
      us.push_back(ms_since(t0) * 1e3);
    }
  }
  m.set("plan.miss_build_us", median(us), "us");
}

/// blas1/2/3 + fp: one Runtime::run per kind at the blas-large sizes.
void probe_blas(u64 seed, Metrics& m) {
  Rng rng(seed);
  Runtime rt({});
  const auto u = rng.vector(65536), v = rng.vector(65536);
  const auto ga = rng.matrix(256, 256), gb = rng.matrix(256, 256);
  const auto va = rng.matrix(1024, 1024), vx = rng.vector(1024);
  const auto sp = blas2::make_uniform_sparse(16384, 16384, 16, seed);
  const auto sx = rng.vector(16384);
  auto time_run = [&](const char* span_name, const OpDesc& d) {
    rt.run(d);  // plan built outside the timing
    return median_of(3, [&] {
      SpanScope span(span_name);
      const u64 t0 = now_ns();
      rt.run(d);
      return ms_since(t0);
    });
  };
  m.set("blas1.dot_ms", time_run("Runtime::run(dot)", OpDesc::dot(u, v)), "ms");
  m.set("blas2.gemv_ms", time_run("Runtime::run(gemv)", OpDesc::gemv(va, 1024, 1024, vx)), "ms");
  m.set("blas2.spmxv_ms", time_run("Runtime::run(spmxv)", OpDesc::spmxv(sp, sx)), "ms");
  m.set("blas3.gemm_ms", time_run("Runtime::run(gemm)", OpDesc::gemm(ga, gb, 256)), "ms");
  m.set("fp.backend_native",
        fp::backend_selection().backend->kind == fp::BackendKind::Native ? 1.0 : 0.0, "bool");
}

/// host.graph: one DRAM-placed CG step (A p, then p . Ap) fused through
/// run_graph against the same two ops run one by one.
void probe_graph(u64 seed, Metrics& m) {
  constexpr std::size_t n = 512;
  Rng rng(seed);
  const auto a = rng.matrix(n, n), p = rng.vector(n);
  Runtime rt({});
  host::GraphDesc g;
  g.nodes.push_back({"ap", OpDesc::gemv(a, n, n, p, host::Placement::Dram), true});
  host::GraphNode pap{"pap", OpDesc::dot(p, p, host::Placement::Dram), true};
  pap.desc.b = nullptr;  // fed by the edge from ap
  g.nodes.push_back(pap);
  g.edges.push_back({0, 1, host::OperandSlot::B});
  rt.run_graph(g);
  m.set("graph.fused_ms", median_of(3, [&] {
          SpanScope span("Runtime::run_graph(cg-step)");
          const u64 t0 = now_ns();
          rt.run_graph(g);
          return ms_since(t0);
        }), "ms");
  m.set("graph.unfused_ms", median_of(3, [&] {
          SpanScope span("Runtime::run x2 (cg-step)");
          const u64 t0 = now_ns();
          const Outcome ap = rt.run(OpDesc::gemv(a, n, n, p, host::Placement::Dram));
          rt.run(OpDesc::dot(p, ap.values, host::Placement::Dram));
          return ms_since(t0);
        }), "ms");
}

/// machine / host.shard: the steps of one sharded GEMM n=96 at l=3 on the
/// 3-chassis x 2-node chain, timed apart and together.
void probe_shard(u64 seed, Metrics& m) {
  constexpr std::size_t n = 96;
  constexpr unsigned l = 3;
  Rng rng(seed);
  const auto a = rng.matrix(n, n), b = rng.matrix(n, n);
  const OpDesc gemm = OpDesc::gemm(a, b, n);
  machine::SystemConfig sys;
  sys.chassis_count = 3;
  sys.chassis.nodes = 2;
  Runtime rt({});
  host::ShardScheduler sched(rt, sys);
  const host::ShardPlan plan = sched.plan(gemm, l);
  machine::SystemConfig at_clock = sys;
  at_clock.chassis.node.clock_mhz = plan.clock_mhz;
  m.set("machine.system_build_ms", median_of(3, [&] {
          SpanScope span("machine::System(build+destroy)");
          const u64 t0 = now_ns();
          { machine::System system(at_clock); }
          return ms_since(t0);
        }), "ms");
  m.set("shard.plan_us", median_of(5, [&] {
          SpanScope span("ShardScheduler::plan");
          const u64 t0 = now_ns();
          sched.plan(gemm, l);
          return ms_since(t0) * 1e3;
        }), "us");
  std::vector<std::vector<double>> panels(l);
  std::vector<OpDesc> subs;
  for (unsigned i = 0; i < l; ++i) {
    const host::ShardPiece& p = plan.pieces[i];
    panels[i].assign(a.begin() + static_cast<std::ptrdiff_t>(p.row0 * n),
                     a.begin() + static_cast<std::ptrdiff_t>((p.row0 + p.rows) * n));
    subs.push_back(OpDesc::gemm_panel(panels[i], p.rows, b, n));
  }
  m.set("shard.panel_exec_ms", median_of(3, [&] {
          SpanScope span("Runtime::submit(panels)");
          const u64 t0 = now_ns();
          std::vector<std::future<Outcome>> futs;
          for (const auto& d : subs) futs.push_back(rt.submit(d));
          for (auto& f : futs) f.get();
          return ms_since(t0);
        }), "ms");
  m.set("shard.run_ms", median_of(3, [&] {
          SpanScope span("ShardScheduler::run(probe)");
          const u64 t0 = now_ns();
          sched.run(gemm, l);
          return ms_since(t0);
        }), "ms");
}

}  // namespace

void run_layer_probes(u64 seed, Metrics& m) {
  probe_serve(seed, m);
  probe_runtime(seed, m);
  probe_plan(seed, m);
  probe_blas(seed, m);
  probe_graph(seed, m);
  probe_shard(seed, m);
}

}  // namespace xdbench
