// xdbench: the xdblas benchmark binary (built and run by perfbench/run.py).
//
//   xdbench --workload NAME --seed N --seconds S --trace 0|1
//           [--trace-out FILE] [--corrupt-digest]
//
// One process runs one workload. It builds the seeded inputs and their
// sequential reference, sets the entry point up several times (setup_s is
// the median), then measures a closed loop for S seconds and checks every
// answer. --trace 0 prints the end-to-end metrics; --trace 1 measures an
// untraced and a traced window of S/2 each, times the layer probes, writes
// the spans as a Chrome trace and prints the per-layer metrics. The last
// line of stdout is one JSON object:
//
//   {"correct":true,"attempted":N,"failed":0,"metrics":{"name":{"value":V,"unit":"U"},...}}
//
// Exit status: 0 when every op matched its reference, 1 on any mismatch,
// 2 on bad usage or an internal error.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <new>
#include <sstream>
#include <string>

#include "bench.hpp"
#include "common/thread_pool.hpp"
#include "fp/backend.hpp"

// ---- global allocation counter ---------------------------------------------
namespace xdbench {
std::atomic<bool> g_count_allocs{false};
std::atomic<u64> g_allocs{0};
}  // namespace xdbench

void* operator new(std::size_t sz) {
  if (xdbench::g_count_allocs.load(std::memory_order_relaxed)) {
    xdbench::g_allocs.fetch_add(1, std::memory_order_relaxed);
  }
  if (void* p = std::malloc(sz ? sz : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t sz) { return operator new(sz); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace {

using namespace xdbench;

int usage() {
  std::fprintf(stderr,
               "usage: xdbench --workload serve-small|submit-tiny|blas-large|shard-chain\n"
               "               --seed N --seconds S --trace 0|1 [--trace-out FILE]"
               " [--corrupt-digest]\n");
  return 2;
}

std::unique_ptr<Workload> make(const std::string& name) {
  if (name == "serve-small") return make_serve_small();
  if (name == "submit-tiny") return make_submit_tiny();
  if (name == "blas-large") return make_blas_large();
  if (name == "shard-chain") return make_shard_chain();
  return nullptr;
}

/// A /proc/self/status memory field ("VmHWM:" peak, "VmRSS:" current), MB.
double status_mb(const char* field) {
  std::ifstream f("/proc/self/status");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind(field, 0) == 0) return std::strtod(line.c_str() + std::strlen(field), nullptr) / 1024.0;
  }
  return 0.0;
}

std::string result_json(bool correct, u64 attempted, u64 failed, const Metrics& m) {
  std::ostringstream o;
  o.precision(17);
  o << "{\"correct\":" << (correct ? "true" : "false") << ",\"attempted\":" << attempted
    << ",\"failed\":" << failed << ",\"metrics\":{";
  bool first = true;
  for (const auto& x : m.all()) {
    o << (first ? "" : ",") << "\"" << x.name << "\":{\"value\":" << x.value
      << ",\"unit\":\"" << x.unit << "\"}";
    first = false;
  }
  o << "}}";
  return o.str();
}

/// The per-layer metrics of a traced run, with their units.
const std::pair<const char*, const char*> kLayerMetrics[] = {
    {"failed_frac", "ratio"},
    {"serve.parse_us", "us"},
    {"serve.encode_us", "us"},
    {"serve.digest_us", "us"},
    {"serve.outside_runtime_us", "us"},
    {"serve.shed", "count"},
    {"serve.errors", "count"},
    {"runtime.queue_wait_us", "us"},
    {"runtime.exec_us", "us"},
    {"runtime.run_pinned_ns", "ns"},
    {"runtime.submit_overhead_ns", "ns"},
    {"runtime.allocs_per_op", "allocs/op"},
    {"pool.submit_noop_ns", "ns"},
    {"pool.steal_frac", "ratio"},
    {"plan.hit_rate", "ratio"},
    {"plan.miss_build_us", "us"},
    {"plan.pinned", "count"},
    {"blas1.dot_ms", "ms"},
    {"blas2.gemv_ms", "ms"},
    {"blas2.spmxv_ms", "ms"},
    {"blas3.gemm_ms", "ms"},
    {"engine.host_ns_per_sim_cycle", "ns/cycle"},
    {"fp.backend_native", "bool"},
    {"mem.staging_cycles", "cycles"},
    {"mem.compute_cycles", "cycles"},
    {"mem.dram_words", "words"},
    {"mem.rss_growth_bytes_per_op", "B/op"},
    {"graph.fused_ms", "ms"},
    {"graph.unfused_ms", "ms"},
    {"graph.staging_saved_cycles", "cycles"},
    {"solver.cg_iterations", "count"},
    {"solver.jacobi_iterations", "count"},
    {"machine.system_build_ms", "ms"},
    {"shard.plan_us", "us"},
    {"shard.panel_exec_ms", "ms"},
    {"shard.run_ms", "ms"},
    {"shard.link_words", "words"},
    {"shard.interchassis_words", "words"},
    {"shard.transfer_cycles", "cycles"},
    {"shard.model_mismatches", "count"},
    {"telemetry.overhead_pct", "%"},
    {"trace.overhead_pct", "%"},
};

struct PoolSnap {
  u64 steals = 0, local = 0;
  static PoolSnap now() {
    xd::ThreadPool& p = xd::ThreadPool::shared();
    return {p.steals(), p.local_pops()};
  }
};

/// Ops per second of `w.sequential_slice` on a fresh Runtime, with or
/// without a telemetry session attached (median of three).
double slice_seconds(Workload& w, bool with_session) {
  return median_of(3, [&] {
    xd::telemetry::Session tel;
    xd::host::ContextConfig cfg;
    if (with_session) cfg.telemetry = &tel;
    xd::host::Runtime rt(cfg);
    const u64 t0 = now_ns();
    w.sequential_slice(rt);
    return static_cast<double>(now_ns() - t0) / 1e9;
  });
}

int run_untraced(Workload& w, double seconds, double first_selection_s) {
  // A set-up is the FP-backend selection, with its conformance self-test,
  // plus the construction. The library selects once per process: the first
  // set-up counts that call (made in main, before the inputs are built).
  // The timed loop runs on the first set-up, so the process's peak resident
  // set covers inputs, reference, that set-up and the loop. The further
  // set-ups follow the loop and repeat the same resolution to time it
  // again; setup_s is the median of all.
  std::vector<double> setups;
  u64 t0 = now_ns();
  w.setup(nullptr);
  setups.push_back(first_selection_s + static_cast<double>(now_ns() - t0) / 1e9);
  const Measured m = w.measure(seconds);
  const double peak_mb = status_mb("VmHWM:");
  w.teardown();
  const std::string requested = xd::fp::backend_selection().requested;
  for (int k = 1; k < w.setup_reps(); ++k) {
    t0 = now_ns();
    if (!xd::fp::resolve_backend(requested).backend) return 2;
    w.setup(nullptr);
    setups.push_back(static_cast<double>(now_ns() - t0) / 1e9);
    w.teardown();
  }

  const PassTotals& pt = w.pass_totals();
  Metrics out;
  out.set("setup_s", median(setups), "s");
  out.set("ops_per_s", m.ops_per_s(), "1/s");
  out.set("latency_p50_ms", m.quantile_ms(0.5), "ms");
  out.set("latency_tail_ms", m.windowed_quantile_ms(w.tail_quantile()), "ms");
  out.set("sim_gflops", pt.sim_gflops(), "GFLOPS");
  out.set("peak_rss_mb", peak_mb, "MB");
  const bool correct = m.failed == 0 && m.attempted > 0;
  std::fprintf(stderr,
               "%s: set-up %.6fs (first backend selection %.6fs); %llu ops in %.2fs, %llu"
               " failed; tail p%g over %llu samples (%.0f beyond it); overall ms p99 %.4f"
               " p99.9 %.4f p99.99 %.4f\n",
               w.name(), median(setups), first_selection_s,
               static_cast<unsigned long long>(m.attempted), m.wall_s,
               static_cast<unsigned long long>(m.failed), w.tail_quantile() * 100,
               static_cast<unsigned long long>(m.lat.count()),
               static_cast<double>(m.lat.count()) * (1.0 - w.tail_quantile()),
               m.quantile_ms(0.99), m.quantile_ms(0.999), m.quantile_ms(0.9999));
  std::printf("%s\n", result_json(correct, m.attempted, m.failed, out).c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

int run_traced(Workload& w, u64 seed, double seconds, const std::string& trace_out) {
  const double half = seconds / 2;
  // Untraced baseline window, then the same workload traced.
  w.setup(nullptr);
  const Measured base = w.measure(half);
  w.teardown();

  xd::telemetry::Session tel;
  w.setup(&tel);
  Tracer::set_sampling(w.trace_sampling());
  Tracer::enable(true);
  const PoolSnap pool0 = PoolSnap::now();
  const u64 allocs0 = g_allocs.load();
  const double rss0 = status_mb("VmRSS:");
  g_count_allocs.store(true);
  const Measured m = w.measure(half);
  g_count_allocs.store(false);
  const u64 allocs = g_allocs.load() - allocs0;
  const double rss_growth = (status_mb("VmRSS:") - rss0) * 1024.0 * 1024.0;
  const PoolSnap pool1 = PoolSnap::now();
  std::vector<Span> spans = Tracer::take();

  Metrics out;
  const u64 attempted = base.attempted + m.attempted;
  const u64 failed = base.failed + m.failed;
  out.set("failed_frac", attempted ? static_cast<double>(failed) / attempted : 1.0, "ratio");
  w.layer_counters(m, out);
  w.teardown();
  out.set("runtime.allocs_per_op",
          m.attempted ? static_cast<double>(allocs) / static_cast<double>(m.attempted) : 0.0,
          "allocs/op");
  out.set("mem.rss_growth_bytes_per_op",
          m.attempted ? rss_growth / static_cast<double>(m.attempted) : 0.0, "B/op");
  const double steals = static_cast<double>(pool1.steals - pool0.steals);
  const double local = static_cast<double>(pool1.local - pool0.local);
  out.set("pool.steal_frac", steals + local > 0 ? steals / (steals + local) : 0.0, "ratio");
  const PassTotals& pt = w.pass_totals();
  out.set("mem.staging_cycles", static_cast<double>(pt.staging_cycles), "cycles");
  out.set("mem.compute_cycles", static_cast<double>(pt.compute_cycles), "cycles");
  out.set("mem.dram_words", pt.dram_words, "words");
  out.set("trace.overhead_pct",
          m.ops_per_s() > 0 ? (base.ops_per_s() / m.ops_per_s() - 1.0) * 100.0 : 0.0, "%");

  run_layer_probes(seed, out);
  Tracer::enable(false);
  const double plain = slice_seconds(w, false);
  const double with_tel = slice_seconds(w, true);
  out.set("telemetry.overhead_pct", plain > 0 ? (with_tel / plain - 1.0) * 100.0 : 0.0, "%");

  // Accounting: do the blocking steps add up to what the caller waited?
  const double p50 = m.quantile_ms(0.5);
  std::fprintf(stderr, "\nworkload spans (traced window):");
  const auto table = summarize_spans(spans);
  std::fprintf(stderr, "\naccounting (%s, traced latency_p50_ms = %.4f):\n", w.name(), p50);
  auto pct = [&](double ms) { return p50 > 0 ? 100.0 * ms / p50 : 0.0; };
  for (const auto& s : table) {
    std::fprintf(stderr, "  %-32s p50 %.4f ms = %.0f%% of latency_p50_ms\n", s.name.c_str(),
                 s.p50_ms, pct(s.p50_ms));
  }
  const std::string wn = w.name();
  if (wn == "serve-small" || wn == "submit-tiny") {
    // Each op is one runtime op: its blocking steps are the runtime's queue
    // wait and execution (the runtime's own histograms) plus everything the
    // caller waited for outside the runtime.
    const double in_rt = (out.get("runtime.queue_wait_us") + out.get("runtime.exec_us")) / 1e3;
    std::fprintf(stderr,
                 "  runtime queue_wait + exec p50 = %.4f ms (%.0f%%); outside the runtime"
                 " %.4f ms (%.0f%%)\n",
                 in_rt, pct(in_rt), p50 - in_rt, pct(p50 - in_rt));
  } else if (wn == "blas-large") {
    std::fprintf(stderr, "  one caller, no queue: each op is the one public call above\n");
  } else {
    const double build = out.get("machine.system_build_ms");
    const double sum = build + out.get("shard.plan_us") / 1e3 + out.get("shard.panel_exec_ms");
    const double run = out.get("shard.run_ms");
    std::fprintf(stderr,
                 "  probe: system_build %.2f + plan %.4f + panel_exec %.2f = %.2f ms vs"
                 " shard.run_ms %.2f (%.0f%%); system build = %.0f%% of latency_p50_ms\n",
                 build, out.get("shard.plan_us") / 1e3, out.get("shard.panel_exec_ms"), sum, run,
                 run > 0 ? 100.0 * sum / run : 0.0, pct(build));
  }
  std::fprintf(stderr, "\nlayer probe spans:");
  std::vector<Span> probe_spans = Tracer::take();
  summarize_spans(probe_spans);
  spans.insert(spans.end(), probe_spans.begin(), probe_spans.end());
  if (!trace_out.empty() && !write_chrome_trace(spans, trace_out)) {
    std::fprintf(stderr, "warning: could not write trace to %s\n", trace_out.c_str());
  }
  std::fprintf(stderr, "spans: %zu recorded, %llu dropped; trace: %s\n", spans.size(),
               static_cast<unsigned long long>(Tracer::dropped()),
               trace_out.empty() ? "(not written)" : trace_out.c_str());

  // Every per-layer metric, in one fixed order; a layer this workload does
  // not drive reads 0.
  Metrics layers;
  for (const auto& [name, unit] : kLayerMetrics) layers.set(name, out.get(name), unit);
  for (const auto& x : out.all()) {
    bool listed = false;
    for (const auto& [name, unit] : kLayerMetrics) listed = listed || x.name == name;
    if (!listed) throw xd::ConfigError(xd::cat("unlisted per-layer metric ", x.name));
  }
  const bool correct = failed == 0 && attempted > 0;
  std::printf("%s\n", result_json(correct, attempted, failed, layers).c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload, trace_out;
  long long seed = -1;
  double seconds = -1;
  int trace = -1;
  bool corrupt = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    const char* val = i + 1 < argc ? argv[i + 1] : nullptr;
    char* end = nullptr;
    if (flag == "--workload" && val) {
      workload = val;
    } else if (flag == "--seed" && val) {
      seed = std::strtoll(val, &end, 10);
      if (*end || seed < 0) return usage();
    } else if (flag == "--seconds" && val) {
      seconds = std::strtod(val, &end);
      if (*end || !(seconds > 0)) return usage();
    } else if (flag == "--trace" && val) {
      trace = std::strcmp(val, "1") == 0 ? 1 : std::strcmp(val, "0") == 0 ? 0 : -1;
      if (trace < 0) return usage();
    } else if (flag == "--trace-out" && val) {
      trace_out = val;
    } else if (flag == "--corrupt-digest") {
      corrupt = true;
      continue;
    } else {
      return usage();
    }
    ++i;
  }
  auto w = make(workload);
  if (!w || seed < 0 || seconds <= 0 || trace < 0) return usage();
  try {
    // The library selects its FP backend, running the conformance self-test,
    // on first use in a process: this is that first use.
    const u64 b0 = now_ns();
    if (!xd::fp::backend_selection().backend) return 2;
    const double selection_s = static_cast<double>(now_ns() - b0) / 1e9;
    const u64 t0 = now_ns();
    w->prepare(static_cast<u64>(seed));
    std::fprintf(stderr, "%s: inputs and reference ready in %.2fs\n", w->name(),
                 static_cast<double>(now_ns() - t0) / 1e9);
    if (corrupt) w->corrupt_reference();
    return trace ? run_traced(*w, static_cast<u64>(seed), seconds, trace_out)
                 : run_untraced(*w, seconds, selection_s);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "xdbench: %s\n", e.what());
    return 2;
  }
}
