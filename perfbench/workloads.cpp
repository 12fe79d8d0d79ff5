// The four benchmark workloads. Each one drives a different layer through
// its public entry point as a closed loop (callers wait for their replies)
// and checks every answered op against a sequential single-thread
// reference computed before timing: the FNV-1a digest of the result
// values (serve::values_fnv) and the simulated cycle count must match
// exactly.
//
//   serve-small  loopback TCP to an in-process serve::Server
//   submit-tiny  Runtime::submit (pinned and not) and run_batch, no socket
//   blas-large   Runtime::run and the fused-graph solvers, one caller
//   shard-chain  ShardScheduler::run over a 3-chassis x 2-node system
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <future>
#include <string>
#include <thread>
#include <unordered_map>

#include "bench.hpp"
#include "common/random.hpp"
#include "host/context.hpp"
#include "host/shard.hpp"
#include "serve/proto.hpp"
#include "serve/server.hpp"
#include "solver/cg.hpp"
#include "solver/jacobi.hpp"

namespace xdbench {

using namespace xd;
using host::OpDesc;
using host::Outcome;
using host::Runtime;

namespace {

/// What a correct answer to one op looks like.
struct Expected {
  u64 fnv = 0;
  u64 cycles = 0;
};

u64 digest(const std::vector<double>& v) { return serve::values_fnv(v); }

void add_report(PassTotals& t, const host::PerfReport& r) {
  t.flops += r.flops;
  t.sim_seconds += r.seconds();
  t.staging_cycles += r.staging_cycles;
  t.compute_cycles += r.compute_cycles;
  t.dram_words += r.dram_words;
}

/// p50 (us) of one host.runtime.* latency histogram of `tel`; 0 if absent.
double runtime_p50_us(telemetry::Session* tel, const char* name) {
  if (!tel) return 0.0;
  auto lock = tel->lock();
  const telemetry::Metric* m = tel->metrics().find(name);
  return m ? telemetry::MetricsRegistry::percentile(*m, 0.5) : 0.0;
}

/// Plan-cache hit/miss snapshot, for the hit rate over one window.
struct PlanSnap {
  u64 hits = 0, misses = 0;
  static PlanSnap of(const host::PlanCache& pc) { return {pc.hits(), pc.misses()}; }
  double hit_rate_since(const PlanSnap& s) const {
    const u64 h = hits - s.hits, m = misses - s.misses;
    return h + m ? static_cast<double>(h) / static_cast<double>(h + m) : 0.0;
  }
};

void set_runtime_layer(Metrics& m, telemetry::Session* tel, const PlanSnap& before,
                       const host::PlanCache& pc) {
  m.set("runtime.queue_wait_us", runtime_p50_us(tel, "host.runtime.queue_wait"), "us");
  m.set("runtime.exec_us", runtime_p50_us(tel, "host.runtime.exec"), "us");
  m.set("plan.hit_rate", PlanSnap::of(pc).hit_rate_since(before), "ratio");
  m.set("plan.pinned", static_cast<double>(pc.pinned_count()), "count");
}

// ===========================================================================
// serve-small
// ===========================================================================

/// Text of `"key":"..."` (last occurrence) in a reply record.
std::string_view last_str(std::string_view rec, std::string_view key) {
  const std::string pat = cat("\"", key, "\":\"");
  const auto pos = rec.rfind(pat);
  if (pos == std::string_view::npos) return {};
  const auto start = pos + pat.size();
  const auto end = rec.find('"', start);
  return end == std::string_view::npos ? std::string_view{}
                                       : rec.substr(start, end - start);
}

/// Number after `"key":` at or after `from`; -1 when absent.
double num_after(std::string_view rec, std::string_view key, std::size_t from) {
  const std::string pat = cat("\"", key, "\":");
  const auto pos = rec.find(pat, from);
  if (pos == std::string_view::npos) return -1.0;
  return std::strtod(std::string(rec.substr(pos + pat.size(), 32)).c_str(), nullptr);
}

std::string hex16(u64 h) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h));
  return buf;
}

class ServeSmall final : public Workload {
 public:
  ServeSmall() = default;
  ServeSmall(const ServeSmall&) = delete;
  ServeSmall& operator=(const ServeSmall&) = delete;
  /// The accept thread and the server must not outlive a failed set-up.
  ~ServeSmall() override { teardown(); }

  const char* name() const override { return "serve-small"; }
  double tail_quantile() const override { return 0.99; }
  u64 trace_sampling() const override { return 16; }

  void prepare(u64 seed) override {
    Rng rng(seed);
    // The hot traffic is the line mix of tools/xdblas_load (make_lines
    // with --graphs): dot n=1024, gemv n=96, spmxv n=128 with 8 nonzeros
    // per row and gemm n=32 in turn, every fifth line a fused CG-step
    // graph. The four op shapes are the hot shapes; warm-up sends them
    // first, so the server pins them.
    struct Kind {
      const char* op;
      std::size_t n;
      const char* extra;
      std::size_t step;  ///< sizes are multiples of this (gemm: the 8x8 SRAM tile)
    };
    const Kind kinds[] = {{"dot", 1024, "", 1},
                          {"gemv", 96, "", 1},
                          {"spmxv", 128, " --nnz-per-row 8", 1},
                          {"gemm", 32, "", 8}};
    const auto make_line = [&](const Kind& k, std::size_t n) {
      return cat(k.op, " --n ", n, k.extra, " --seed ", rng.uniform_int(1, 999999999));
    };
    warmup_.clear();
    for (const Kind& k : kinds) warmup_.push_back(make_line(k, k.n));
    list_.clear();
    for (std::size_t i = 0; i < kHotLines; ++i) {
      list_.push_back(i % 5 == 4 ? cat("graph ap=gemv:n=96 pap=dot:n=96,b=@ap --from-dram --seed ",
                                       rng.uniform_int(1, 999999999))
                                 : make_line(kinds[i % 4], kinds[i % 4].n));
    }
    // The cold tail: of each kind, up to kColdPerKind seeded sizes in
    // [n/2, 2n) other than the hot n, which gives 32 + 32 + 32 + 5 (gemm)
    // distinct shapes. The server pins 16 shapes, so 12 cold shapes are
    // pinned too (the first it sees); the other 89 cycle through the
    // 64-entry plan cache and churn its LRU.
    std::vector<std::string> tail;
    for (const Kind& k : kinds) {
      std::vector<std::size_t> ns;
      for (std::size_t n = k.n / 2; n < 2 * k.n; n += k.step) {
        if (n != k.n) ns.push_back(n);
      }
      for (std::size_t i = 0; i < std::min(kColdPerKind, ns.size()); ++i) {
        std::swap(ns[i], ns[rng.uniform_int(i, ns.size() - 1)]);
        tail.push_back(make_line(k, ns[i]));
      }
    }
    for (std::size_t i = 0; i < kTailLines; ++i) list_.push_back(tail[i % tail.size()]);
    for (std::size_t i = list_.size(); i > 1; --i) {
      std::swap(list_[i - 1], list_[rng.uniform_int(0, i - 1)]);
    }
    // Sequential reference of every distinct line.
    host::ContextConfig base;
    Runtime local(base);
    std::unordered_map<std::string, std::pair<Expected, host::PerfReport>> memo;
    exp_.clear();
    totals_ = {};
    for (const auto& line : list_) {
      auto it = memo.find(line);
      if (it == memo.end()) {
        serve::Request req;
        serve::parse_record(line, 1, base, req);
        if (!req.parse_error.empty()) {
          throw ConfigError(cat("serve-small: bad line '", line, "': ", req.parse_error));
        }
        Expected e;
        host::PerfReport rep;
        if (req.is_graph) {
          const auto go = local.run_graph(req.graph);
          u64 h = serve::kFnvBasis;
          for (const auto& node : go.nodes) h = serve::values_fnv(node.values, h);
          e = {h, go.report.cycles};
          rep = go.report;
        } else {
          const Outcome out = local.run(req.desc);
          e = {digest(out.values), out.report.cycles};
          rep = out.report;
        }
        it = memo.emplace(line, std::make_pair(e, rep)).first;
      }
      exp_.push_back(it->second.first);
      add_report(totals_, it->second.second);
    }
    exp_hex_.clear();
    for (const auto& e : exp_) exp_hex_.push_back(hex16(e.fnv));
  }

  void setup(telemetry::Session*) override {
    serve::ServerConfig cfg;
    server_ = std::make_unique<serve::Server>(cfg);
    accept_ = std::thread([this] { server_->serve(); });
    for (int c = 0; c < kConns; ++c) {
      conns_.push_back(tcp_connect("127.0.0.1", server_->port()));
    }
    // Warm-up: the hot lines first (so exactly the hot shapes get pinned),
    // then one pass of the op list split across both connections.
    exchange(conns_[0], warmup_);
    std::vector<std::string> half[kConns];
    for (std::size_t i = 0; i < list_.size(); ++i) half[i % kConns].push_back(list_[i]);
    for (int c = 0; c < kConns; ++c) exchange(conns_[c], half[c]);
  }

  void teardown() override {
    for (auto& s : conns_) {
      s.shutdown_write();
      char buf[4096];
      while (s.recv_some(buf, sizeof buf) > 0) {
      }
    }
    conns_.clear();
    if (server_) {
      server_->drain();
      accept_.join();
      server_.reset();
    }
  }

  Measured measure(double seconds) override {
    before_ = server_->counters();
    plan_before_ = PlanSnap::of(server_->runtime().plan_cache());
    return run_threads(kConns, seconds,
                       [this](unsigned c, u64 deadline, Measured& m) { client(c, deadline, m); });
  }

  const PassTotals& pass_totals() const override { return totals_; }

  void corrupt_reference() override {
    exp_[0].fnv ^= 1;
    exp_hex_[0] = hex16(exp_[0].fnv);
  }

  void layer_counters(const Measured& traced, Metrics& m) override {
    const serve::ServerCounters now = server_->counters();
    m.set("serve.shed", static_cast<double>(now.shed - before_.shed), "count");
    m.set("serve.errors", static_cast<double>(now.errors - before_.errors), "count");
    // The stats record's runtime percentiles (us) against what the client
    // saw: the difference is socket, codec and handoff time.
    const std::string stats = fetch_stats();
    const double e2e = num_after(stats, "e2e_p50_us", 0);
    const double client_us = traced.quantile_ms(0.5) * 1e3;
    m.set("serve.outside_runtime_us", client_us - std::max(0.0, e2e), "us");
    m.set("runtime.queue_wait_us", std::max(0.0, num_after(stats, "queue_wait_p50_us", 0)), "us");
    m.set("runtime.exec_us", std::max(0.0, num_after(stats, "exec_p50_us", 0)), "us");
    const host::PlanCache& pc = server_->runtime().plan_cache();
    m.set("plan.hit_rate", PlanSnap::of(pc).hit_rate_since(plan_before_), "ratio");
    m.set("plan.pinned", static_cast<double>(pc.pinned_count()), "count");
  }

  void sequential_slice(Runtime& rt) override {
    for (std::size_t i = 0; i < 128; ++i) {
      serve::Request req;
      serve::parse_record(list_[i], i + 1, rt.config(), req);
      if (req.is_graph) {
        rt.run_graph(req.graph);
      } else {
        rt.run(req.desc);
      }
    }
  }

 private:
  static constexpr int kConns = 2;
  static constexpr std::size_t kWindow = 64;
  /// One pass: 1125 hot lines and 125 cold ones (10%), in seeded order.
  static constexpr std::size_t kHotLines = 1125, kTailLines = 125, kColdPerKind = 32;

  /// Send `lines`, read exactly one reply per line (set-up warm-up).
  static void exchange(Socket& s, const std::vector<std::string>& lines) {
    std::string payload;
    for (const auto& l : lines) payload += l + "\n";
    if (!s.send_all(payload)) throw SimError("serve-small: warm-up send failed");
    LineFramer framer(1 << 20);
    std::string rec;
    bool truncated = false;
    char buf[16384];
    std::size_t got = 0;
    while (got < lines.size()) {
      const long n = s.recv_some(buf, sizeof buf);
      if (n <= 0) throw SimError("serve-small: warm-up connection closed");
      framer.feed(buf, static_cast<std::size_t>(n));
      while (framer.next(rec, truncated)) ++got;
    }
  }

  /// One closed-loop connection: kWindow requests in flight; each reply
  /// is checked and answered by the next line until the deadline, then
  /// the window drains.
  void client(int c, u64 deadline, Measured& m) {
    Socket& s = conns_[c];
    struct Sent {
      std::size_t idx;
      u64 t_send;
      u64 op;
    };
    std::deque<Sent> flight;
    std::size_t next = static_cast<std::size_t>(c) * list_.size() / kConns;
    u64 op_seq = 0;
    std::string out;
    auto queue_line = [&](u64 t) {
      const std::size_t idx = next++ % list_.size();
      out += list_[idx];
      out += '\n';
      flight.push_back({idx, t, (op_seq++ << 1) | static_cast<u64>(c)});
      ++m.attempted;
    };
    u64 t = now_ns();
    for (std::size_t i = 0; i < kWindow; ++i) queue_line(t);
    LineFramer framer(1 << 20);
    std::string rec;
    bool truncated = false;
    char buf[65536];
    while (!flight.empty()) {
      if (!out.empty()) {
        if (!s.send_all(out)) break;
        out.clear();
      }
      const long n = s.recv_some(buf, sizeof buf);
      if (n <= 0) break;
      framer.feed(buf, static_cast<std::size_t>(n));
      const u64 t_recv = now_ns();
      while (framer.next(rec, truncated)) {
        if (flight.empty()) break;
        const Sent sent = flight.front();
        flight.pop_front();
        m.done(sent.t_send, t_recv);
        if (Tracer::sampled(sent.op / kConns)) {
          Tracer::record("serve.request", Tracer::next_id(), 0, sent.op, sent.t_send,
                         t_recv);
        }
        if (!reply_ok(rec, sent.idx)) ++m.failed;
        if (t_recv < deadline) queue_line(t_recv);
      }
    }
    m.failed += flight.size();  // never answered
  }

  bool reply_ok(std::string_view rec, std::size_t idx) const {
    if (!last_str(rec, "error").empty()) return false;
    const auto rep = rec.rfind("\"report\":{");
    return last_str(rec, "values_fnv") == exp_hex_[idx] && rep != std::string_view::npos &&
           num_after(rec, "cycles", rep) == static_cast<double>(exp_[idx].cycles);
  }

  std::string fetch_stats() {
    Socket s = tcp_connect("127.0.0.1", server_->port());
    if (!s.send_all(std::string_view("stats\n"))) return "";
    s.shutdown_write();
    LineFramer framer(1 << 20);
    std::string rec;
    bool truncated = false;
    char buf[4096];
    for (;;) {
      const long n = s.recv_some(buf, sizeof buf);
      if (n <= 0) return "";
      framer.feed(buf, static_cast<std::size_t>(n));
      if (framer.next(rec, truncated)) return rec;
    }
  }

  std::vector<std::string> warmup_, list_, exp_hex_;
  std::vector<Expected> exp_;
  PassTotals totals_;
  std::unique_ptr<serve::Server> server_;
  std::thread accept_;
  std::vector<Socket> conns_;
  serve::ServerCounters before_;
  PlanSnap plan_before_;
};

// ===========================================================================
// submit-tiny
// ===========================================================================

class SubmitTiny final : public Workload {
 public:
  const char* name() const override { return "submit-tiny"; }
  double tail_quantile() const override { return 0.95; }
  int setup_reps() const override { return 31; }
  u64 trace_sampling() const override { return 16; }

  void prepare(u64 seed) override {
    Rng rng(seed);
    ops_.assign(2 * kPerShape, {});
    for (std::size_t i = 0; i < kPerShape; ++i) {
      Tiny& d = ops_[i];
      d.a = rng.vector(32);
      d.b = rng.vector(32);
      d.desc = OpDesc::dot(d.a, d.b);
      d.shape = 0;
      Tiny& g = ops_[kPerShape + i];
      g.a = rng.matrix(16, 16);
      g.x = rng.vector(16);
      g.desc = OpDesc::gemv(g.a, 16, 16, g.x);
      g.shape = 1;
    }
    Runtime seq({});
    totals_ = {};
    for (auto& t : ops_) {
      const Outcome out = seq.run(t.desc);
      t.exp = {digest(out.values), out.report.cycles};
      add_report(totals_, out.report);
    }
  }

  void setup(telemetry::Session* tel) override {
    host::ContextConfig cfg;
    cfg.telemetry = tel;
    tel_ = tel;
    rt_ = std::make_unique<Runtime>(cfg);
    handles_[0] = rt_->pin_plan(ops_[0].desc);
    handles_[1] = rt_->pin_plan(ops_[kPerShape].desc);
    std::vector<OpDesc> all;
    for (const auto& t : ops_) all.push_back(t.desc);
    rt_->run_batch(all);
  }

  void teardown() override { rt_.reset(); }

  Measured measure(double seconds) override {
    plan_before_ = PlanSnap::of(rt_->plan_cache());
    return run_threads(kProducers, seconds,
                       [this](unsigned p, u64 deadline, Measured& m) { producer(p, deadline, m); });
  }

  const PassTotals& pass_totals() const override { return totals_; }
  void corrupt_reference() override { ops_[0].exp.fnv ^= 1; }

  void layer_counters(const Measured&, Metrics& m) override {
    set_runtime_layer(m, tel_, plan_before_, rt_->plan_cache());
  }

  void sequential_slice(Runtime& rt) override {
    for (int r = 0; r < 256; ++r) {
      for (const auto& t : ops_) rt.run(t.desc);
    }
  }

 private:
  static constexpr std::size_t kPerShape = 8;
  static constexpr unsigned kProducers = 2;
  static constexpr std::size_t kWindow = 256;
  static constexpr std::size_t kRound = 2048;

  struct Tiny {
    std::vector<double> a, b, x;
    OpDesc desc;
    int shape = 0;
    Expected exp;
  };

  bool ok(const Tiny& t, const Outcome& out) const {
    return digest(out.values) == t.exp.fnv && out.report.cycles == t.exp.cycles;
  }

  /// Rounds of kRound ops, rotating through three entry points: submit
  /// without a handle, submit with the pinned handle (both a sliding
  /// window of kWindow futures), and run_batch of kWindow same-shape ops.
  void producer(unsigned p, u64 deadline, Measured& m) {
    struct Flight {
      std::future<Outcome> fut;
      const Tiny* op;
      u64 t_submit;
      u64 t_submitted;
      u64 id;
    };
    u64 op_seq = p;
    std::size_t cursor = p;
    for (unsigned round = p; now_ns() < deadline; ++round) {
      const unsigned mode = round % 3;
      if (mode < 2) {
        std::deque<Flight> flight;
        auto reap = [&] {
          Flight f = std::move(flight.front());
          flight.pop_front();
          const u64 tg = now_ns();
          Outcome out;
          bool threw = false;
          try {
            out = f.fut.get();
          } catch (const std::exception&) {
            threw = true;
          }
          const u64 te = now_ns();
          m.done(f.t_submit, te);
          if (threw || !ok(*f.op, out)) ++m.failed;
          if (Tracer::sampled(f.id / kProducers)) {
            const u64 span = Tracer::next_id();
            Tracer::record("op.tiny", span, 0, f.id, f.t_submit, te);
            Tracer::record(mode ? "Runtime::submit(pinned)" : "Runtime::submit", Tracer::next_id(),
                           span, f.id, f.t_submit, f.t_submitted);
            Tracer::record("future::get", Tracer::next_id(), span, f.id, tg, te);
          }
        };
        for (std::size_t i = 0; i < kRound; ++i) {
          const Tiny& t = ops_[cursor++ % ops_.size()];
          const u64 ts = now_ns();
          auto fut = mode ? rt_->submit(t.desc, handles_[t.shape]) : rt_->submit(t.desc);
          flight.push_back({std::move(fut), &t, ts, now_ns(), op_seq});
          op_seq += kProducers;
          ++m.attempted;
          if (flight.size() == kWindow) reap();
        }
        while (!flight.empty()) reap();
      } else {
        for (std::size_t b = 0; b < kRound / kWindow; ++b) {
          const std::size_t shape = (b + p) % 2;
          std::vector<OpDesc> descs;
          std::vector<const Tiny*> which;
          for (std::size_t i = 0; i < kWindow; ++i) {
            const Tiny& t = ops_[shape * kPerShape + (cursor++ % kPerShape)];
            descs.push_back(t.desc);
            which.push_back(&t);
          }
          const u64 id = op_seq;
          op_seq += kProducers * kWindow;
          m.attempted += kWindow;
          const u64 ts = now_ns();
          std::vector<Outcome> outs;
          try {
            outs = rt_->run_batch(descs);
          } catch (const std::exception&) {
          }
          const u64 te = now_ns();
          for (std::size_t i = 0; i < kWindow; ++i) {
            m.done(ts, te);
            if (outs.size() != kWindow || !ok(*which[i], outs[i])) ++m.failed;
          }
          if (Tracer::sampled(id / kProducers)) {
            Tracer::record("Runtime::run_batch", Tracer::next_id(), 0, id, ts, te);
          }
        }
      }
    }
  }

  std::vector<Tiny> ops_;
  PassTotals totals_;
  telemetry::Session* tel_ = nullptr;
  std::unique_ptr<Runtime> rt_;
  host::PlanHandle handles_[2];
  PlanSnap plan_before_;
};

// ===========================================================================
// blas-large
// ===========================================================================

class BlasLarge final : public Workload {
 public:
  const char* name() const override { return "blas-large"; }
  double tail_quantile() const override { return 0.95; }

  void prepare(u64 seed) override {
    Rng rng(seed);
    for (int i = 0; i < 2; ++i) {
      gemm_a_[i] = rng.matrix(kGemmN, kGemmN);
      gemm_b_[i] = rng.matrix(kGemmN, kGemmN);
      gemv_a_[i] = rng.matrix(kGemvN, kGemvN);
      gemv_x_[i] = rng.vector(kGemvN);
      sparse_[i] = blas2::make_uniform_sparse(kSpN, kSpN, kSpNnz, rng.next_u64());
      sparse_x_[i] = rng.vector(kSpN);
    }
    // The solves: fixed symmetric, diagonally dominant base systems, each
    // relabelled by a seeded signed permutation (S P A P^T S, S P b). That
    // is a similarity, so CG and Jacobi take the same number of iterations
    // to 1e-10 on every seed. Freshly drawn systems need one iteration
    // more or fewer from seed to seed, and the solves set the tail.
    Rng base(kSolveBaseSeed);
    const std::vector<double> cg_a = spd(base), cg_b = base.vector(kSolveN);
    const std::vector<double> jac_a = spd(base);
    const std::vector<std::vector<double>> jac_b = {base.vector(kSolveN), base.vector(kSolveN)};
    std::vector<std::size_t> perm(kSolveN);
    std::vector<double> sign(kSolveN);
    for (std::size_t i = 0; i < kSolveN; ++i) {
      perm[i] = i;
      sign[i] = rng.uniform_int(0, 1) ? 1.0 : -1.0;
    }
    for (std::size_t i = kSolveN; i > 1; --i) std::swap(perm[i - 1], perm[rng.uniform_int(0, i - 1)]);
    const auto relabel_matrix = [&](const std::vector<double>& a) {
      std::vector<double> out(a.size());
      for (std::size_t i = 0; i < kSolveN; ++i) {
        for (std::size_t j = 0; j < kSolveN; ++j) {
          out[i * kSolveN + j] = sign[i] * sign[j] * a[perm[i] * kSolveN + perm[j]];
        }
      }
      return out;
    };
    const auto relabel_vector = [&](const std::vector<double>& b) {
      std::vector<double> out(kSolveN);
      for (std::size_t i = 0; i < kSolveN; ++i) out[i] = sign[i] * b[perm[i]];
      return out;
    };
    cg_a_ = relabel_matrix(cg_a);
    cg_b_ = relabel_vector(cg_b);
    jac_a_ = relabel_matrix(jac_a);
    jac_b_ = {relabel_vector(jac_b[0]), relabel_vector(jac_b[1])};

    host::Context ctx;
    totals_ = {};
    exp_.clear();
    for (std::size_t i = 0; i < kPass; ++i) {
      Result r = run_op(ctx, i);
      exp_.push_back(r.exp);
      totals_.flops += r.flops;
      totals_.sim_seconds += r.sim_seconds;
      totals_.staging_cycles += r.staging_cycles;
      totals_.compute_cycles += r.compute_cycles;
      totals_.dram_words += r.dram_words;
      if (i == kCg) cg_iters_ = r.iterations;
      if (i == kJacobi) jac_iters_ = r.iterations;
      staging_saved_ += r.staging_saved;
    }
  }

  void setup(telemetry::Session* tel) override {
    host::ContextConfig cfg;
    cfg.telemetry = tel;
    tel_ = tel;
    ctx_ = std::make_unique<host::Context>(cfg);
    // Warm-up: one op of every kind builds and caches its plans.
    for (std::size_t i : {0, 1, 2, 3, 5, 7}) run_op(*ctx_, i);
  }

  void teardown() override { ctx_.reset(); }

  Measured measure(double seconds) override {
    plan_before_ = PlanSnap::of(ctx_->runtime().plan_cache());
    engine_ns_ = 0;
    engine_cycles_ = 0;
    return run_passes(seconds, kPass, [this](std::size_t i, u64 op) {
      const u64 ts = now_ns();
      const Result r = run_op(*ctx_, i, op);
      if (i != kCg && i != kJacobi) {
        engine_ns_ += now_ns() - ts;
        engine_cycles_ += r.exp.cycles;
      }
      return r.exp.fnv == exp_[i].fnv && r.exp.cycles == exp_[i].cycles;
    });
  }

  const PassTotals& pass_totals() const override { return totals_; }
  void corrupt_reference() override { exp_[0].fnv ^= 1; }

  void layer_counters(const Measured&, Metrics& m) override {
    set_runtime_layer(m, tel_, plan_before_, ctx_->runtime().plan_cache());
    m.set("engine.host_ns_per_sim_cycle",
          engine_cycles_ ? static_cast<double>(engine_ns_) / static_cast<double>(engine_cycles_) : 0.0,
          "ns/cycle");
    m.set("graph.staging_saved_cycles", static_cast<double>(staging_saved_), "cycles");
    m.set("solver.cg_iterations", cg_iters_, "count");
    m.set("solver.jacobi_iterations", jac_iters_, "count");
  }

  void sequential_slice(Runtime& rt) override {
    rt.run(OpDesc::gemm(gemm_a_[0], gemm_b_[0], kGemmN));
    rt.run(OpDesc::gemv(gemv_a_[0], kGemvN, kGemvN, gemv_x_[0]));
    rt.run(OpDesc::spmxv(sparse_[0], sparse_x_[0]));
  }

 private:
  static constexpr std::size_t kGemmN = 256, kGemvN = 1024, kSpN = 16384, kSpNnz = 16;
  static constexpr std::size_t kSolveN = 256;
  static constexpr u64 kSolveBaseSeed = 2005;
  // One pass: gemm, gemv (SRAM), spmxv, CG, gemm, gemv (DRAM), spmxv, Jacobi.
  static constexpr std::size_t kPass = 8, kCg = 3, kJacobi = 7;

  struct Result {
    Expected exp;
    u64 flops = 0;
    double sim_seconds = 0.0;
    u64 staging_cycles = 0, compute_cycles = 0;
    double dram_words = 0.0;
    u64 staging_saved = 0;
    int iterations = 0;
  };

  std::vector<double> spd(Rng& rng) const {
    std::vector<double> a(kSolveN * kSolveN);
    for (std::size_t i = 0; i < kSolveN; ++i) {
      a[i * kSolveN + i] = 32.0;
      for (std::size_t j = i + 1; j < kSolveN; ++j) {
        a[i * kSolveN + j] = a[j * kSolveN + i] = rng.uniform(-0.5, 0.5);
      }
    }
    return a;
  }

  static Result from_report(const host::PerfReport& rep, const std::vector<double>& v) {
    Result r;
    r.exp = {digest(v), rep.cycles};
    r.flops = rep.flops;
    r.sim_seconds = rep.seconds();
    r.staging_cycles = rep.staging_cycles;
    r.compute_cycles = rep.compute_cycles;
    r.dram_words = rep.dram_words;
    return r;
  }

  Result run_op(const host::Context& ctx, std::size_t i, u64 op = 0) const {
    Runtime& rt = ctx.runtime();
    const std::size_t k = i < 4 ? 0 : 1;
    solver::SolveOptions opts;
    opts.placement = host::Placement::Dram;
    opts.tolerance = 1e-10;
    switch (i % 4) {
      case 0: {
        SpanScope span("Runtime::run(gemm)", op);
        const Outcome o = rt.run(OpDesc::gemm(gemm_a_[k], gemm_b_[k], kGemmN));
        return from_report(o.report, o.values);
      }
      case 1: {
        SpanScope span("Runtime::run(gemv)", op);
        const Outcome o = rt.run(OpDesc::gemv(gemv_a_[k], kGemvN, kGemvN, gemv_x_[k],
                                              k ? host::Placement::Dram : host::Placement::Sram));
        return from_report(o.report, o.values);
      }
      case 2: {
        SpanScope span("Runtime::run(spmxv)", op);
        const Outcome o = rt.run(OpDesc::spmxv(sparse_[k], sparse_x_[k]));
        return from_report(o.report, o.values);
      }
      default:
        break;
    }
    Result r;
    if (k == 0) {
      SpanScope span("solver::cg_dense", op);
      const auto s = solver::cg_dense(ctx, cg_a_, kSolveN, cg_b_, opts);
      r.exp = {digest(s.x), s.fpga_cycles};
      r.flops = s.fpga_flops;
      r.sim_seconds = s.fpga_seconds();
      r.staging_saved = s.staging_saved_cycles;
      r.iterations = s.converged ? s.iterations : -1;
    } else {
      SpanScope span("solver::jacobi_dense_batch", op);
      const auto ss = solver::jacobi_dense_batch(ctx, jac_a_, kSolveN, jac_b_, opts);
      u64 h = serve::kFnvBasis;
      for (const auto& s : ss) {
        h = serve::values_fnv(s.x, h);
        r.exp.cycles += s.fpga_cycles;
        r.flops += s.fpga_flops;
        r.sim_seconds += s.fpga_seconds();
        r.staging_saved += s.staging_saved_cycles;
        r.iterations = std::max(r.iterations, s.converged ? s.iterations : -1);
      }
      r.exp.fnv = h;
    }
    // A solve that did not converge is a wrong answer, whatever its bits.
    if (r.iterations < 0) r.exp.fnv = ~r.exp.fnv;
    return r;
  }

  std::vector<double> gemm_a_[2], gemm_b_[2], gemv_a_[2], gemv_x_[2], sparse_x_[2];
  blas2::CrsMatrix sparse_[2];
  std::vector<double> cg_a_, cg_b_, jac_a_;
  std::vector<std::vector<double>> jac_b_;
  std::vector<Expected> exp_;
  PassTotals totals_;
  int cg_iters_ = 0, jac_iters_ = 0;
  u64 staging_saved_ = 0;
  u64 engine_ns_ = 0, engine_cycles_ = 0;
  telemetry::Session* tel_ = nullptr;
  std::unique_ptr<host::Context> ctx_;
  PlanSnap plan_before_;
};

// ===========================================================================
// shard-chain
// ===========================================================================

machine::SystemConfig chain_system() {
  machine::SystemConfig sys;
  sys.chassis_count = 3;
  sys.chassis.nodes = 2;
  return sys;
}

class ShardChain final : public Workload {
 public:
  const char* name() const override { return "shard-chain"; }
  double tail_quantile() const override { return 0.8; }
  int setup_reps() const override { return 3; }

  void prepare(u64 seed) override {
    Rng rng(seed);
    ga_ = rng.matrix(kN, kN);
    gb_ = rng.matrix(kN, kN);
    va_ = rng.matrix(kRows, kCols);
    vx_ = rng.vector(kCols);
    Runtime rt({});
    gemm_single_ = digest(rt.run(gemm()).values);
    host::ShardScheduler sched(rt, chain_system());
    exp_.clear();
    totals_ = {};
    link_words_ = interchassis_words_ = 0.0;
    transfer_cycles_ = 0;
    for (std::size_t i = 0; i < kPass; ++i) {
      const host::ShardOutcome so = sched.run(desc(i), kLs[i / 2]);
      exp_.push_back({digest(so.values), so.report.cycles});
      add_report(totals_, so.report);
      link_words_ += so.link_words;
      interchassis_words_ += so.interchassis_words;
      transfer_cycles_ += so.report.staging_cycles;
    }
  }

  void setup(telemetry::Session* tel) override {
    host::ContextConfig cfg;
    cfg.telemetry = tel;
    tel_ = tel;
    rt_ = std::make_unique<Runtime>(cfg);
    sched_ = std::make_unique<host::ShardScheduler>(*rt_, chain_system());
    for (std::size_t i = 0; i < kPass; ++i) sched_->plan(desc(i), kLs[i / 2]);
    sched_->run(gemm(), 1);
  }

  void teardown() override {
    sched_.reset();
    rt_.reset();
  }

  Measured measure(double seconds) override {
    plan_before_ = PlanSnap::of(rt_->plan_cache());
    model_mismatches_ = 0;
    return run_passes(seconds, kPass, [this](std::size_t i, u64 op) {
      SpanScope span("ShardScheduler::run", op);
      const host::ShardOutcome so = sched_->run(desc(i), kLs[i / 2]);
      const u64 h = digest(so.values);
      if (!is_gemm(i)) return h == exp_[i].fnv && so.report.cycles == exp_[i].cycles;
      // GEMM: also bit-identical to one device, and model == sim.
      const bool model_ok = so.report.cycles == so.plan.model_cycles;
      if (!model_ok) ++model_mismatches_;
      return h == exp_[i].fnv && so.report.cycles == exp_[i].cycles && model_ok &&
             h == gemm_single_;
    });
  }

  const PassTotals& pass_totals() const override { return totals_; }
  void corrupt_reference() override { exp_[0].fnv ^= 1; }

  void layer_counters(const Measured&, Metrics& m) override {
    set_runtime_layer(m, tel_, plan_before_, rt_->plan_cache());
    m.set("shard.link_words", link_words_, "words");
    m.set("shard.interchassis_words", interchassis_words_, "words");
    m.set("shard.transfer_cycles", static_cast<double>(transfer_cycles_), "cycles");
    m.set("shard.model_mismatches", static_cast<double>(model_mismatches_), "count");
  }

  void sequential_slice(Runtime& rt) override {
    host::ShardScheduler sched(rt, chain_system());
    sched.run(gemm(), 3);
    sched.run(desc(1), 3);
  }

 private:
  static constexpr std::size_t kN = 96, kRows = 192, kCols = 128, kPass = 8;
  static constexpr unsigned kLs[4] = {1, 2, 3, 6};

  static bool is_gemm(std::size_t i) { return i % 2 == 0; }
  OpDesc gemm() const { return OpDesc::gemm(ga_, gb_, kN); }
  OpDesc desc(std::size_t i) const {
    return is_gemm(i) ? gemm() : OpDesc::gemv(va_, kRows, kCols, vx_);
  }

  std::vector<double> ga_, gb_, va_, vx_;
  u64 gemm_single_ = 0;
  std::vector<Expected> exp_;
  PassTotals totals_;
  double link_words_ = 0.0, interchassis_words_ = 0.0;
  u64 transfer_cycles_ = 0;
  u64 model_mismatches_ = 0;
  telemetry::Session* tel_ = nullptr;
  std::unique_ptr<Runtime> rt_;
  std::unique_ptr<host::ShardScheduler> sched_;
  PlanSnap plan_before_;
};

}  // namespace

std::unique_ptr<Workload> make_serve_small() { return std::make_unique<ServeSmall>(); }
std::unique_ptr<Workload> make_submit_tiny() { return std::make_unique<SubmitTiny>(); }
std::unique_ptr<Workload> make_blas_large() { return std::make_unique<BlasLarge>(); }
std::unique_ptr<Workload> make_shard_chain() { return std::make_unique<ShardChain>(); }

}  // namespace xdbench
