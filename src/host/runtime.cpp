#include "host/runtime.hpp"

#include <chrono>

#include "blas2/blocking.hpp"
#include "telemetry/session.hpp"

namespace xd::host {

namespace {

/// Patch the execution session into a copy of the planned engine config.
template <typename Cfg>
Cfg with_telemetry(const Cfg& planned, telemetry::Session* tel) {
  Cfg cfg = planned;
  cfg.telemetry = tel;
  return cfg;
}

/// Monotonic wall-clock nanoseconds for TraceContext lifecycle stamps.
u64 now_ns() {
  return static_cast<u64>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                              std::chrono::steady_clock::now().time_since_epoch())
                              .count());
}

/// Process-wide op sequence: op ids stay unique and submission-ordered even
/// across Runtime instances (the CLI builds one Runtime per batch line, yet
/// their flight records must interleave coherently).
std::atomic<u64> g_op_seq{0};

/// First line of an exception message, for compact flight-recorder records.
std::string first_line(const char* what) {
  std::string s(what ? what : "");
  const auto nl = s.find('\n');
  return nl == std::string::npos ? s : s.substr(0, nl);
}

/// Close a failed op's trace context (the first line of its error, when it
/// has one) and land it in the session's flight recorder.
void record_failure(telemetry::Session& tel, telemetry::TraceContext& tc,
                    const std::exception_ptr& err) {
  tc.complete_ns = now_ns();
  tc.failed = true;
  try {
    std::rethrow_exception(err);
  } catch (const std::exception& e) {
    tc.error = first_line(e.what());
  } catch (...) {
  }
  tel.flight().record(tc);
}

/// Everything a submitted op carries from the caller to the worker. Carved
/// from a recycled slab so the steady-state submit path allocates only the
/// packaged task's shared state: the submission lambda captures two
/// pointers and fits MoveFunc's inline storage.
struct OpState {
  OpDesc desc;
  std::shared_ptr<const Plan> pinned;  ///< null unless submitted via handle
  telemetry::Session* tel = nullptr;
  bool trace_on = false;
  u64 op_id = 0;
  u64 submit_ns = 0;
};

using OpStatePtr = std::unique_ptr<OpState>;

/// Per-worker slab of recycled OpStates with a mutex-guarded global
/// spillover. Acquire prefers the calling thread's local free list; a
/// worker releases into its own list and overflows into the global one,
/// which is where a dedicated submitter thread (serve daemon, benchmarks)
/// refills from — states circulate instead of being reallocated per op.
/// Both lists own their states, so whatever is parked in them at thread or
/// process exit is freed with them.
class OpSlab {
 public:
  static OpStatePtr acquire() {
    auto& loc = local();
    if (!loc.empty()) return pop(loc);
    {
      std::lock_guard<std::mutex> lock(mu());
      if (!global().empty()) return pop(global());
    }
    return std::make_unique<OpState>();
  }

  static void release(OpStatePtr s) {
    // Drop the operand views and the plan reference now: the caller's
    // vectors (and a pinned plan's cache slot) must not be kept reachable
    // by an idle slab entry.
    s->desc = OpDesc{};
    s->pinned.reset();
    auto& loc = local();
    if (loc.size() < kLocalCap) {
      loc.push_back(std::move(s));
      return;
    }
    std::lock_guard<std::mutex> lock(mu());
    if (global().size() < kGlobalCap) global().push_back(std::move(s));
  }

 private:
  static constexpr std::size_t kLocalCap = 32;
  static constexpr std::size_t kGlobalCap = 1024;
  static OpStatePtr pop(std::vector<OpStatePtr>& list) {
    OpStatePtr s = std::move(list.back());
    list.pop_back();
    return s;
  }
  static std::vector<OpStatePtr>& local() {
    static thread_local std::vector<OpStatePtr> l;
    return l;
  }
  static std::mutex& mu() {
    static std::mutex m;
    return m;
  }
  static std::vector<OpStatePtr>& global() {
    static std::vector<OpStatePtr> g;
    return g;
  }
};

/// Returns the op state to the slab on every exit path of a worker lambda.
struct SlabReturn {
  OpStatePtr& st;
  ~SlabReturn() { OpSlab::release(std::move(st)); }
};

}  // namespace

Runtime::Runtime(const ContextConfig& cfg, ThreadPool* pool)
    : cfg_(cfg),
      pool_(pool ? pool : &ThreadPool::shared()),
      cache_(cfg.plan_cache_capacity) {
  cfg_.validate();
}

Outcome Runtime::execute(const OpDesc& desc, telemetry::Session* tel,
                         telemetry::TraceContext* tc, const Plan* pinned) {
  desc.validate();
  // A pinned plan short-circuits the cache probe, but only when it matches
  // the descriptor's key exactly — a ScopedBackend override or a handle
  // reused across shapes falls back to the normal lookup, so a pinned
  // execution is always bit-identical to an LRU-path one.
  const PlanKey key = PlanKey::from(desc, cfg_.tune);
  std::shared_ptr<const Plan> resolved;
  const Plan* plan = pinned;
  if (!plan || !(plan->key == key)) {
    resolved = cache_.get_or_build(cfg_, key);
    plan = resolved.get();
  }
  if (tc) tc->plan_ns = now_ns();

  // Staging happens (and is recorded) before the engine runs, so the
  // "staging" span precedes the engine's "compute" span on the timeline.
  if (plan->staging_cycles > 0 && tel) {
    tel->phase("staging", plan->staging_cycles);
    tel->gauge(cat("mem.dram.", op_name(desc.kind), ".words"))
        .set(plan->dram_words);
  }

  if (tc) tc->exec_ns = now_ns();
  Outcome out = run_engine(*plan, desc, tel);

  if (plan->staging_cycles > 0) {
    out.report.staging_cycles = plan->staging_cycles;
    out.report.cycles += plan->staging_cycles;
    out.report.dram_words = plan->dram_words;
  }
  if (tc) tc->cycles = out.report.cycles;
  return out;
}

Outcome Runtime::run_engine(const Plan& plan, const OpDesc& desc,
                            telemetry::Session* tel) {
  // What runs is what the plan resolved to, not what the descriptor asked
  // for: the tuner may cross designs (a tree GEMV request can plan onto the
  // column design, a default GEMM onto the array or the multi-FPGA chain).
  // The descriptor only supplies the operands.
  struct Run {
    const Plan& plan;
    const OpDesc& d;
    telemetry::Session* tel;

    Outcome operator()(const blas1::DotConfig& c) const {
      blas1::DotEngine engine(with_telemetry(c, tel));
      // A single pair takes the pair overload: no per-op batch-vector wrap.
      return to_outcome(d.kind == OpKind::DotBatch
                            ? engine.run(*d.us, *d.vs)
                            : engine.run_pair(*d.a, *d.b));
    }
    Outcome operator()(const blas2::MxvTreeConfig& c) const {
      if (plan.blocked_gemv) {
        return to_outcome(blas2::run_blocked_gemv_tree(
            with_telemetry(c, tel), plan.onchip_capacity, *d.a, d.rows, d.cols,
            *d.x));
      }
      blas2::MxvTreeEngine engine(with_telemetry(c, tel));
      return to_outcome(engine.run(*d.a, d.rows, d.cols, *d.x));
    }
    Outcome operator()(const blas2::MxvColConfig& c) const {
      blas2::MxvColEngine engine(with_telemetry(c, tel));
      return to_outcome(engine.run(*d.a, d.rows, d.cols, *d.x));
    }
    Outcome operator()(const blas2::SpmxvConfig& c) const {
      blas2::SpmxvEngine engine(with_telemetry(c, tel));
      return to_outcome(engine.run(*d.sparse, *d.x));
    }
    Outcome operator()(const blas3::MmArrayConfig& c) const {
      blas3::MmArrayEngine engine(with_telemetry(c, tel));
      return to_outcome(engine.run(*d.a, *d.b, d.n));
    }
    Outcome operator()(const blas3::MmHierConfig& c) const {
      blas3::MmHierEngine engine(with_telemetry(c, tel));
      // rows != 0 marks the shard scheduler's row-panel form (validate()
      // guarantees it only reaches the hierarchical engine).
      return to_outcome(d.rows != 0 ? engine.run_panel(*d.a, d.rows, *d.b, d.n)
                                    : engine.run(*d.a, *d.b, d.n));
    }
    Outcome operator()(const blas3::MmMultiConfig& c) const {
      blas3::MmMultiEngine engine(with_telemetry(c, tel));
      return to_outcome(engine.run(*d.a, *d.b, d.n));
    }
  };
  return std::visit(Run{plan, desc, tel}, plan.engine);
}

GraphOutcome Runtime::execute_graph(const GraphDesc& g,
                                    telemetry::Session* tel,
                                    telemetry::TraceContext* tc) {
  g.validate();
  const auto plan = cache_.get_or_build_graph(cfg_, g);
  if (tc) tc->plan_ns = now_ns();
  if (tc) tc->exec_ns = now_ns();

  GraphOutcome go;
  go.nodes.resize(g.nodes.size());

  // Nodes run in the planned topological order; an edge-fed operand slot is
  // patched to the producer's already-computed value vector. Within a fused
  // chain that models SRAM forwarding; across chains it models the DRAM
  // round trip — either way the values are identical, only the staging
  // cycle accounting differs (the bit-identity invariant the fuzz harness
  // holds fused execution to).
  for (const std::size_t idx : plan->order) {
    OpDesc d = g.nodes[idx].desc;
    for (const auto& e : g.edges) {
      if (e.to != idx) continue;
      slot_operand(d, e.slot) = &go.nodes[e.from].values;
    }
    d.validate();

    const NodeStaging& st = plan->staging[idx];
    if (st.fused_cycles > 0 && tel) {
      tel->phase("staging", st.fused_cycles);
      tel->gauge(cat("mem.dram.", op_name(d.kind), ".words"))
          .set(st.fused_words);
    }
    Outcome out = run_engine(*plan->node_plans[idx], d, tel);
    if (st.fused_cycles > 0 || st.unfused_cycles > 0) {
      out.report.staging_cycles = st.fused_cycles;
      out.report.cycles += st.fused_cycles;
      out.report.dram_words = st.fused_words;
    }
    go.nodes[idx] = std::move(out);
  }

  // Aggregate report, normalized into node 0's clock domain the same way
  // solver::cg absorbs dot-clock cycles into the GEMV clock.
  const double ref_clock = go.nodes[0].report.clock_mhz;
  const auto normalize = [&](u64 cycles, double clock) -> u64 {
    if (clock <= 0.0 || ref_clock <= 0.0 || clock == ref_clock) return cycles;
    return static_cast<u64>(static_cast<double>(cycles) * ref_clock / clock);
  };
  go.report.design = cat("graph[", g.nodes.size(), " nodes]");
  go.report.clock_mhz = ref_clock;
  go.node_staging_saved.resize(go.nodes.size());
  for (std::size_t i = 0; i < go.nodes.size(); ++i) {
    const PerfReport& r = go.nodes[i].report;
    go.report.cycles += normalize(r.cycles, r.clock_mhz);
    go.report.compute_cycles += normalize(r.compute_cycles, r.clock_mhz);
    go.report.staging_cycles += normalize(r.staging_cycles, r.clock_mhz);
    go.report.stall_cycles += normalize(r.stall_cycles, r.clock_mhz);
    go.report.flops += r.flops;
    go.report.sram_words += r.sram_words;
    go.report.dram_words += r.dram_words;
    const NodeStaging& st = plan->staging[i];
    go.node_staging_saved[i] = st.unfused_cycles - st.fused_cycles;
    go.staging_saved_cycles +=
        normalize(st.unfused_cycles - st.fused_cycles, r.clock_mhz);
    go.staging_saved_words += st.unfused_words - st.fused_words;
  }
  go.fused_edges = plan->fused_edges;
  go.shared_operands = plan->shared_operands;
  if (tc) tc->cycles = go.report.cycles;
  return go;
}

void Runtime::observe_latency(telemetry::Session& tel,
                              const telemetry::TraceContext& tc) const {
  // Histograms are in microseconds: the sketch's log-linear buckets resolve
  // sub-microsecond detail poorly anyway, and us keeps exports readable.
  constexpr double kUs = 1e-3;
  tel.histogram("host.runtime.queue_wait")
      .observe(static_cast<double>(tc.queue_wait_ns()) * kUs);
  tel.histogram("host.runtime.exec")
      .observe(static_cast<double>(tc.complete_ns - tc.exec_ns) * kUs);
  tel.histogram("host.runtime.e2e")
      .observe(static_cast<double>(tc.e2e_ns()) * kUs);
}

Outcome Runtime::run(const OpDesc& desc) { return run_impl(desc, nullptr); }

Outcome Runtime::run(const OpDesc& desc, const PlanHandle& plan) {
  return run_impl(desc, plan.plan_.get());
}

PlanHandle Runtime::pin_plan(const OpDesc& desc) {
  desc.validate();
  return PlanHandle(cache_.pin(cfg_, PlanKey::from(desc, cfg_.tune)));
}

template <typename Exec>
auto Runtime::run_sync(const char* kind, Exec&& exec) {
  telemetry::Session* tel = cfg_.telemetry;
  telemetry::TraceContext tc;
  try {
    if (!tel) {
      // No session: nothing to record, keep the path free of clock reads.
      auto out = exec(nullptr, nullptr);
      completed_.fetch_add(1, std::memory_order_relaxed);
      return out;
    }
    tc.op_id = g_op_seq.fetch_add(1, std::memory_order_relaxed);
    tc.kind = kind;
    tc.lane = 0;
    tc.submit_ns = tc.dequeue_ns = now_ns();  // synchronous: no queue wait
    decltype(exec(tel, &tc)) out;
    {
      // Hold the session lock for the whole op so the synchronous path
      // records directly (bit-identical to single-threaded telemetry) even
      // while pool workers are merging shards into the same session.
      // Engines only ever parallel_for with caller participation, so no
      // pool task is awaited while the lock is held.
      auto lock = tel->lock();
      out = exec(tel, &tc);
      tc.complete_ns = now_ns();
      completed_.fetch_add(1, std::memory_order_relaxed);
      observe_latency(*tel, tc);
      publish(*tel);
    }
    tel->flight().record(tc);
    return out;
  } catch (...) {
    failed_.fetch_add(1, std::memory_order_relaxed);
    if (tel) record_failure(*tel, tc, std::current_exception());
    throw;
  }
}

template <typename Exec>
auto Runtime::run_on_worker(const char* kind, telemetry::Session* tel,
                            bool trace_on, u64 op_id, u64 submit_ns,
                            Exec&& exec) {
  queued_.fetch_sub(1, std::memory_order_relaxed);
  in_flight_.fetch_add(1, std::memory_order_relaxed);

  telemetry::TraceContext tc;
  tc.op_id = op_id;
  tc.kind = kind;
  const int worker = ThreadPool::current_worker_id();
  tc.lane = worker < 0 ? 0 : static_cast<unsigned>(worker) + 1;
  tc.submit_ns = submit_ns;
  tc.dequeue_ns = now_ns();

  try {
    if (!tel) {
      auto out = exec(nullptr, nullptr);
      completed_.fetch_add(1, std::memory_order_relaxed);
      in_flight_.fetch_sub(1, std::memory_order_relaxed);
      return out;
    }
    // Record into a thread-local shard session — no sharing, no lock —
    // then fold it into the shared session at completion. The shard is
    // reused across jobs on this worker; its small trace ring only matters
    // when the main session's tracing is enabled.
    static thread_local telemetry::Session shard(/*trace_capacity=*/512,
                                                 /*flight_capacity=*/1);
    shard.reset_for_reuse();
    shard.trace().set_enabled(trace_on);
    auto out = exec(&shard, &tc);
    tc.complete_ns = now_ns();
    completed_.fetch_add(1, std::memory_order_relaxed);
    in_flight_.fetch_sub(1, std::memory_order_relaxed);
    {
      auto lock = tel->lock();
      tel->merge_unlocked(shard, tc.lane);
      observe_latency(*tel, tc);
      publish(*tel);
    }
    tel->flight().record(tc);
    return out;
  } catch (...) {
    failed_.fetch_add(1, std::memory_order_relaxed);
    in_flight_.fetch_sub(1, std::memory_order_relaxed);
    // The shard may hold open spans / partial metrics from the aborted op;
    // it is discarded (cleared at the next job), never merged.
    if (tel) record_failure(*tel, tc, std::current_exception());
    throw;
  }
}

Outcome Runtime::run_impl(const OpDesc& desc, const Plan* pinned) {
  return run_sync(op_name(desc.kind, desc.engine),
                  [&](telemetry::Session* tel, telemetry::TraceContext* tc) {
                    return execute(desc, tel, tc, pinned);
                  });
}

Outcome Runtime::async_op(const OpDesc& desc, const Plan* pinned,
                          telemetry::Session* tel, bool trace_on, u64 op_id,
                          u64 submit_ns) {
  return run_on_worker(
      op_name(desc.kind, desc.engine), tel, trace_on, op_id, submit_ns,
      [&](telemetry::Session* shard, telemetry::TraceContext* tc) {
        return execute(desc, shard, tc, pinned);
      });
}

std::future<Outcome> Runtime::submit(const OpDesc& desc) {
  return submit_impl(desc, nullptr);
}

std::future<Outcome> Runtime::submit(const OpDesc& desc,
                                     const PlanHandle& plan) {
  return submit_impl(desc, plan.plan_);
}

std::future<Outcome> Runtime::submit_impl(const OpDesc& desc,
                                          std::shared_ptr<const Plan> pinned) {
  submitted_.fetch_add(1, std::memory_order_relaxed);
  queued_.fetch_add(1, std::memory_order_relaxed);

  // Everything the worker needs travels in a recycled slab state; the
  // lambda captures two pointers, so the whole task fits the pool's
  // single-allocation packaged task.
  OpStatePtr st = OpSlab::acquire();
  st->desc = desc;
  st->pinned = std::move(pinned);
  st->tel = cfg_.telemetry;
  st->trace_on = st->tel && st->tel->trace().enabled();
  st->op_id = g_op_seq.fetch_add(1, std::memory_order_relaxed);
  st->submit_ns = now_ns();

  return pool_->submit([this, st = std::move(st)]() mutable -> Outcome {
    SlabReturn ret{st};
    return async_op(st->desc, st->pinned.get(), st->tel, st->trace_on,
                    st->op_id, st->submit_ns);
  });
}

std::vector<Outcome> Runtime::run_batch(const std::vector<OpDesc>& descs) {
  if (descs.empty()) return {};
  telemetry::Session* tel = cfg_.telemetry;
  const bool trace_on = tel && tel->trace().enabled();

  // Same-shape fast path: a run of consecutive descriptors with one
  // PlanKey is staged as a single pooled job that resolves the plan once
  // and executes the ops back to back. Each op keeps its own Outcome,
  // telemetry shard merge, trace context and flight-recorder entry, so the
  // results are indistinguishable from per-op submission. Runs are capped
  // so one huge uniform batch still spreads across workers.
  constexpr std::size_t kGroupCap = 64;
  struct Slice {
    std::vector<Outcome> outs;
    std::vector<std::exception_ptr> errs;  ///< parallel to outs; null = ok
  };
  std::vector<std::future<Slice>> futures;
  std::size_t i = 0;
  while (i < descs.size()) {
    const PlanKey key = PlanKey::from(descs[i], cfg_.tune);
    std::size_t j = i + 1;
    while (j < descs.size() && j - i < kGroupCap &&
           PlanKey::from(descs[j], cfg_.tune) == key) {
      ++j;
    }
    const std::size_t n = j - i;
    submitted_.fetch_add(n, std::memory_order_relaxed);
    queued_.fetch_add(n, std::memory_order_relaxed);
    std::vector<u64> ids(n);
    for (auto& id : ids) id = g_op_seq.fetch_add(1, std::memory_order_relaxed);
    const u64 submit_ns = now_ns();
    const OpDesc* first = descs.data() + i;
    futures.push_back(pool_->submit(
        [this, first, n, key, tel, trace_on, ids = std::move(ids),
         submit_ns]() -> Slice {
          Slice s;
          s.outs.resize(n);
          s.errs.assign(n, nullptr);
          // One plan resolution for the whole run. If the build fails (or a
          // backend override invalidates the key), each op falls back to its
          // own probe inside execute(), surfacing per-op exceptions exactly
          // as per-op submission would.
          std::shared_ptr<const Plan> plan;
          try {
            plan = cache_.get_or_build(cfg_, key);
          } catch (...) {
            plan = nullptr;
          }
          for (std::size_t t = 0; t < n; ++t) {
            try {
              s.outs[t] = async_op(first[t], plan.get(), tel, trace_on,
                                   ids[t], submit_ns);
            } catch (...) {
              s.errs[t] = std::current_exception();
            }
          }
          return s;
        }));
    i = j;
  }

  // Settle every job before surfacing the first failure, so no future is
  // abandoned with its operands possibly going out of scope at the caller.
  std::vector<Outcome> outs;
  outs.reserve(descs.size());
  std::exception_ptr first_error;
  for (auto& f : futures) {
    try {
      Slice s = f.get();
      for (std::size_t t = 0; t < s.outs.size(); ++t) {
        if (s.errs[t]) {
          if (!first_error) first_error = s.errs[t];
        } else {
          outs.push_back(std::move(s.outs[t]));
        }
      }
    } catch (...) {
      // A group job itself never throws, but a dying pool can drop it.
      if (!first_error) first_error = std::current_exception();
    }
  }
  if (first_error) std::rethrow_exception(first_error);
  return outs;
}

GraphOutcome Runtime::run_graph(const GraphDesc& g) {
  return run_sync("graph",
                  [&](telemetry::Session* tel, telemetry::TraceContext* tc) {
                    return execute_graph(g, tel, tc);
                  });
}

std::future<GraphOutcome> Runtime::submit_graph(const GraphDesc& g) {
  submitted_.fetch_add(1, std::memory_order_relaxed);
  queued_.fetch_add(1, std::memory_order_relaxed);

  telemetry::Session* tel = cfg_.telemetry;
  const bool trace_on = tel && tel->trace().enabled();
  const u64 op_id = g_op_seq.fetch_add(1, std::memory_order_relaxed);
  const u64 submit_ns = now_ns();
  // No submit-side gauge write: the queue_depth gauge is refreshed by
  // publish() at every completion, and taking the session lock here
  // serialized producers against the workers' shard merges.

  return pool_->submit(
      [this, g, tel, trace_on, op_id, submit_ns]() -> GraphOutcome {
        return run_on_worker(
            "graph", tel, trace_on, op_id, submit_ns,
            [&](telemetry::Session* shard, telemetry::TraceContext* tc) {
              return execute_graph(g, shard, tc);
            });
      });
}

RuntimeStats Runtime::stats() const {
  RuntimeStats s;
  s.submitted = submitted_.load(std::memory_order_relaxed);
  s.completed = completed_.load(std::memory_order_relaxed);
  s.failed = failed_.load(std::memory_order_relaxed);
  s.queued = queued_.load(std::memory_order_relaxed);
  s.in_flight = in_flight_.load(std::memory_order_relaxed);
  return s;
}

void Runtime::publish(telemetry::Session& tel) const {
  const RuntimeStats s = stats();
  tel.gauge("host.runtime.submitted").set(static_cast<double>(s.submitted));
  tel.gauge("host.runtime.completed").set(static_cast<double>(s.completed));
  tel.gauge("host.runtime.failed").set(static_cast<double>(s.failed));
  tel.gauge("host.runtime.workers").set(static_cast<double>(workers()));
  tel.gauge("host.runtime.queue_depth").set(static_cast<double>(s.queued));
  tel.gauge("host.runtime.in_flight").set(static_cast<double>(s.in_flight));
  // Which arithmetic backend runs the engines, and the evidence behind the
  // choice: 'native' reflects the live dispatch table (including ScopedBackend
  // overrides), the other two describe the process-wide startup selection.
  const fp::BackendSelection& sel = fp::backend_selection();
  tel.gauge("fp.backend.native")
      .set(fp::active_backend().kind == fp::BackendKind::Native ? 1.0 : 0.0);
  tel.gauge("fp.backend.fell_back").set(sel.fell_back ? 1.0 : 0.0);
  tel.gauge("fp.backend.conformance_cases")
      .set(static_cast<double>(sel.conformance.cases));
  cache_.publish(tel);
}

}  // namespace xd::host
