// Shared pieces of the xdblas benchmark binary (perfbench/): clocks and
// percentiles, the metric list a run prints, the workload interface, and
// the in-memory span recorder behind the traced run.
//
// Spans are recorded only from the benchmark's own files, around calls into
// the library's public entry points; the library itself is not instrumented.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/stats.hpp"
#include "common/util.hpp"
#include "host/runtime.hpp"
#include "telemetry/session.hpp"

namespace xdbench {

using xd::u64;

inline u64 now_ns() {
  return static_cast<u64>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                              std::chrono::steady_clock::now().time_since_epoch())
                              .count());
}

/// Linear-interpolated quantile (q in [0, 1]) of an unsorted sample.
double quantile(std::vector<double> v, double q);
inline double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

/// Median over `reps` calls of `fn`, each returning one measurement.
template <typename Fn>
double median_of(int reps, Fn&& fn) {
  std::vector<double> v;
  for (int i = 0; i < reps; ++i) v.push_back(fn());
  return median(std::move(v));
}

/// Global operator-new counter (defined in main.cpp). Counting is armed
/// only for the traced window, so untimed and untraced code pays one
/// relaxed load per allocation.
extern std::atomic<bool> g_count_allocs;
extern std::atomic<u64> g_allocs;

// ---- metrics ---------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

class Metrics {
 public:
  void set(const std::string& name, double value, const std::string& unit);
  const std::vector<Metric>& all() const { return list_; }
  double get(const std::string& name) const;  ///< 0 when absent

 private:
  std::vector<Metric> list_;
};

// ---- workloads -------------------------------------------------------------

/// Width of the per-window latency sketches of the streaming workloads.
constexpr u64 kTailWindowNs = 1'000'000'000;

/// q-quantile of a latency sketch (ns samples), in ms. QuantileSketch
/// answers with a bucket's lower edge, and its buckets are 3-6% wide; this
/// interpolates by rank inside the bucket, so a quantile follows the
/// samples instead of stepping from edge to edge.
double quantile_ms(const xd::QuantileSketch& s, double q);

/// One measurement: every op attempted, the failures among them (errors,
/// sheds, digest or cycle mismatches, missing replies), and the latency of
/// every answered op, overall and per fixed time window by completion.
struct Measured {
  u64 t0 = 0;         ///< start of the timed loop (now_ns)
  u64 window_ns = 0;  ///< 0: no per-window sketches
  u64 attempted = 0;
  u64 failed = 0;
  xd::QuantileSketch lat;
  std::vector<xd::QuantileSketch> windows;
  /// Pass-based loops: ops per pass and each full pass's duration.
  u64 pass_ops = 0;
  std::vector<double> pass_s;
  double wall_s = 0.0;

  void done(u64 start_ns, u64 end_ns) {
    const auto ns = static_cast<double>(end_ns - start_ns);
    lat.add(ns);
    if (window_ns == 0) return;
    const std::size_t w = (end_ns - t0) / window_ns;
    if (w >= windows.size()) windows.resize(w + 1);
    windows[w].add(ns);
  }
  void merge(const Measured& o);
  /// Answered ops per second: per pass at the median pass duration for
  /// pass-based loops, else over the whole loop.
  double ops_per_s() const {
    if (!pass_s.empty()) return static_cast<double>(pass_ops) / median(pass_s);
    return wall_s > 0 ? static_cast<double>(lat.count()) / wall_s : 0.0;
  }
  double quantile_ms(double q) const { return xdbench::quantile_ms(lat, q); }
  /// Median over the complete windows of each window's q-quantile; the
  /// whole loop's q-quantile when there are no complete windows. A stall
  /// that hits one window moves this far less than the overall quantile.
  double windowed_quantile_ms(double q) const;
};

/// Closed-loop streaming harness: `threads` callers, each running
/// `body(thread, deadline_ns, Measured&)` until the deadline `seconds` from
/// now; their measurements, with 1-s windows, are merged.
template <typename Body>
Measured run_threads(unsigned threads, double seconds, Body&& body) {
  const u64 t0 = now_ns();
  const u64 deadline = t0 + static_cast<u64>(seconds * 1e9);
  std::vector<Measured> per(threads);
  std::vector<std::thread> pool;
  for (unsigned i = 0; i < threads; ++i) {
    per[i].t0 = t0;
    per[i].window_ns = kTailWindowNs;
    pool.emplace_back([&, i] { body(i, deadline, per[i]); });
  }
  for (auto& t : pool) t.join();
  Measured m;
  m.t0 = t0;
  m.window_ns = kTailWindowNs;
  m.wall_s = static_cast<double>(now_ns() - t0) / 1e9;
  for (const auto& p : per) m.merge(p);
  return m;
}

/// Whole-pass harness for one caller: repeats passes of `pass_ops` ops,
/// `op(i, op_id)` running op i of the pass and returning whether its answer
/// matched the reference (a throw counts as a failure), until `seconds`
/// have passed at a pass boundary.
template <typename Op>
Measured run_passes(double seconds, std::size_t pass_ops, Op&& op) {
  Measured m;
  const u64 t0 = m.t0 = now_ns();
  const u64 deadline = t0 + static_cast<u64>(seconds * 1e9);
  m.pass_ops = pass_ops;
  u64 id = 0;
  while (now_ns() < deadline) {
    const u64 pass_start = now_ns();
    for (std::size_t i = 0; i < pass_ops; ++i, ++id) {
      const u64 ts = now_ns();
      bool good = false;
      try {
        good = op(i, id);
      } catch (const std::exception&) {
      }
      m.done(ts, now_ns());
      ++m.attempted;
      if (!good) ++m.failed;
    }
    m.pass_s.push_back(static_cast<double>(now_ns() - pass_start) / 1e9);
  }
  m.wall_s = static_cast<double>(now_ns() - t0) / 1e9;
  return m;
}

/// Simulated totals over one full pass of a workload's seeded op list,
/// taken from the sequential reference (every measured op must repeat its
/// reference cycles exactly, so these are also the measured totals).
struct PassTotals {
  u64 flops = 0;
  double sim_seconds = 0.0;
  u64 staging_cycles = 0;
  u64 compute_cycles = 0;
  double dram_words = 0.0;
  double sim_gflops() const {
    return sim_seconds > 0 ? static_cast<double>(flops) / sim_seconds / 1e9 : 0.0;
  }
};

class Workload {
 public:
  virtual ~Workload() = default;
  virtual const char* name() const = 0;
  /// The latency_tail_ms percentile, taken per window (see Measured).
  virtual double tail_quantile() const = 0;
  /// Set-up repetitions per run (setup_s is their median).
  virtual int setup_reps() const { return 5; }
  /// One in this many ops records spans in a traced run.
  virtual u64 trace_sampling() const { return 1; }
  /// Build the seeded inputs and compute the sequential single-thread
  /// reference (digest and cycles of every op). Not part of setup_s.
  virtual void prepare(u64 seed) = 0;
  /// Construct the entry point, pin plans and warm up: timed as setup_s.
  /// `tel` (traced runs) is attached to runtimes the workload builds.
  virtual void setup(xd::telemetry::Session* tel) = 0;
  virtual void teardown() = 0;
  /// Closed-loop measurement for at least `seconds`.
  virtual Measured measure(double seconds) = 0;
  virtual const PassTotals& pass_totals() const = 0;
  /// Flip one reference digest, so the correctness gate must trip.
  virtual void corrupt_reference() = 0;
  /// Per-layer counters of the last (traced) measure() into `m`.
  virtual void layer_counters(const Measured& traced, Metrics& m) = 0;
  /// A short, fixed, sequential slice of this workload's ops on `rt`
  /// (telemetry overhead: run once with a session attached, once without).
  virtual void sequential_slice(xd::host::Runtime& rt) = 0;
};

std::unique_ptr<Workload> make_serve_small();
std::unique_ptr<Workload> make_submit_tiny();
std::unique_ptr<Workload> make_blas_large();
std::unique_ptr<Workload> make_shard_chain();

/// Layer probes of the traced run: each times one public call on fixed
/// seeded inputs, identically on every workload (probes.cpp).
void run_layer_probes(u64 seed, Metrics& m);

// ---- spans -----------------------------------------------------------------

struct Span {
  const char* name = "";
  u64 id = 0;
  u64 parent = 0;  ///< 0: root
  u64 op = 0;      ///< op id shared by all spans of one op (0: none)
  u64 start_ns = 0;
  u64 end_ns = 0;
  unsigned tid = 0;
};

/// Process-wide span store: per-thread buffers, bounded, kept in memory
/// and written out once at exit. Disabled (every call a no-op) unless
/// enable() was called.
class Tracer {
 public:
  static void enable(bool on);
  static bool enabled();
  /// One in `every` ops records spans (the fast workloads would otherwise
  /// hold millions); ops with id % every == 0 are kept.
  static void set_sampling(u64 every);
  static bool sampled(u64 op);
  static u64 next_id();
  static void record(const char* name, u64 id, u64 parent, u64 op, u64 start_ns,
                     u64 end_ns);
  /// Move out every span recorded so far, oldest first (call once every
  /// recording thread is done).
  static std::vector<Span> take();
  static u64 dropped();
};

/// RAII span around one call on the current thread; nests through a
/// thread-local parent stack.
class SpanScope {
 public:
  explicit SpanScope(const char* name, u64 op = 0);
  ~SpanScope();
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  const char* name_;
  u64 id_ = 0;
  u64 parent_ = 0;
  u64 op_ = 0;
  u64 start_ = 0;
};

/// Chrome trace-event JSON of `spans` (one "X" event each).
bool write_chrome_trace(const std::vector<Span>& spans, const std::string& path);

/// Per-name self-time table (self = duration minus the union of the
/// intervals its child spans cover), printed to stderr. Returns the p50
/// duration in ms of every span name, for the accounting lines.
struct SpanSummary {
  std::string name;
  u64 count = 0;
  double total_ms = 0.0;
  double self_ms = 0.0;
  double p50_ms = 0.0;
};
std::vector<SpanSummary> summarize_spans(const std::vector<Span>& spans);

}  // namespace xdbench
