// Sharded multi-FPGA execution (Sec 6.4 made runnable, host/shard.hpp):
// one GEMM / GEMV split across the FPGAs of a 3-chassis x 2-node system,
// single-device vs l in {1, 2, 3, 6}, with the scatter/gather transfer legs
// charged at the RocketIO and RapidArray link rates.
//
// Hard gates, enforced in-binary (the shard-smoke CI job leans on this
// binary's exit code):
//   * GEMM values must be bit-identical to the single-device run at every
//     l, and the timeline of the observed engine cycles must land on the
//     planned model (ShardPlan::model_cycles) cycle-for-cycle.
//   * GEMV sharded runs must be rerun-deterministic bit for bit.
//   * l = 1 must cost exactly the single-device cycle count.
// Simulated cycle counts are deterministic, so tools/bench_compare treats
// any drift from BENCH_shard.json as a correctness failure; wall clock
// (run_ns) is the informational perf field.
#include <chrono>
#include <cstring>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "common/random.hpp"
#include "host/context.hpp"
#include "host/runtime.hpp"
#include "host/shard.hpp"
#include "telemetry/json.hpp"

using namespace xd;

namespace {

bool bits_equal(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

machine::SystemConfig small_system() {
  machine::SystemConfig sys;
  sys.chassis_count = 3;
  sys.chassis.nodes = 2;
  return sys;
}

struct Row {
  std::string op;
  unsigned l = 1;
  u64 cycles = 0;
  u64 model_cycles = 0;
  u64 compute_cycles = 0;
  u64 staging_cycles = 0;
  double link_words = 0.0;
  double interchassis_words = 0.0;
  double speedup_vs_l1 = 0.0;  ///< deterministic: cycle ratio, not wall clock
  double run_ns = 0.0;
  bool bits_ok = false;
  bool model_ok = false;
};

}  // namespace

int main() {
  bench::heading("Sharded multi-FPGA execution: single device vs l FPGAs");

  host::ContextConfig cfg;
  host::Runtime rt(cfg);
  Rng rng(2005);

  const std::size_t n = 96;
  const auto ga = rng.matrix(n, n);
  const auto gb = rng.matrix(n, n);
  const std::size_t rows = 192, cols = 128;
  const auto va = rng.matrix(rows, cols);
  const auto vx = rng.vector(cols);

  const host::Outcome gemm_base = rt.run(host::OpDesc::gemm(ga, gb, n));
  const host::Outcome gemv_base =
      rt.run(host::OpDesc::gemv(va, rows, cols, vx));

  std::vector<Row> out;
  bool failed = false;
  u64 gemm_l1 = 0, gemv_l1 = 0;

  for (const bool gemm : {true, false}) {
    for (const unsigned l : {1u, 2u, 3u, 6u}) {
      const host::OpDesc desc =
          gemm ? host::OpDesc::gemm(ga, gb, n)
               : host::OpDesc::gemv(va, rows, cols, vx);
      host::ShardScheduler sched(rt, small_system());
      const auto start = std::chrono::steady_clock::now();
      const host::ShardOutcome so = sched.run(desc, l);
      const auto stop = std::chrono::steady_clock::now();

      Row r;
      r.op = cat(gemm ? "gemm-" : "gemv-", gemm ? n : rows, "-l", l);
      r.l = l;
      r.cycles = so.report.cycles;
      r.model_cycles = so.plan.model_cycles;
      r.compute_cycles = so.report.compute_cycles;
      r.staging_cycles = so.report.staging_cycles;
      r.link_words = so.link_words;
      r.interchassis_words = so.interchassis_words;
      r.run_ns =
          std::chrono::duration<double, std::nano>(stop - start).count();

      if (gemm) {
        // GEMM: bit-identity to the single device and model==sim, both
        // at every l (see host/shard.hpp's determinism contract).
        r.bits_ok = bits_equal(so.values, gemm_base.values);
        r.model_ok = so.report.cycles == so.plan.model_cycles;
      } else {
        // GEMV: the reduction circuit reassociates across row batches, so
        // the gate is rerun bit-identity (and l = 1 exactness below).
        host::ShardScheduler again(rt, small_system());
        const host::ShardOutcome rep = again.run(desc, l);
        r.bits_ok = bits_equal(so.values, rep.values) &&
                    rep.report.cycles == so.report.cycles;
        r.model_ok = true;  // GEMV's shard model is ranking-grade only
      }
      if (l == 1) {
        const u64 base = gemm ? gemm_base.report.cycles
                              : gemv_base.report.cycles;
        r.bits_ok = r.bits_ok && so.report.cycles == base;
        (gemm ? gemm_l1 : gemv_l1) = so.report.cycles;
      }
      r.speedup_vs_l1 = static_cast<double>(gemm ? gemm_l1 : gemv_l1) /
                        static_cast<double>(so.report.cycles);
      failed = failed || !r.bits_ok || !r.model_ok;
      out.push_back(r);
    }
  }

  TextTable t({"Workload", "l", "Cycles", "Model", "Compute", "Transfer",
               "Speedup", "Bits", "Model==Sim"});
  for (const Row& r : out) {
    t.add_row({r.op, std::to_string(r.l), std::to_string(r.cycles),
               std::to_string(r.model_cycles), std::to_string(r.compute_cycles),
               std::to_string(r.staging_cycles),
               TextTable::num(r.speedup_vs_l1, 2), r.bits_ok ? "yes" : "NO",
               r.model_ok ? "yes" : "NO"});
    if (bench::jsonl_stream()) {
      telemetry::JsonWriter w;
      w.begin_object()
          .kv("event", "shard_bench")
          .kv("op", r.op)
          .kv("l", r.l)
          .kv("cycles", r.cycles)
          .kv("model_cycles", r.model_cycles)
          .kv("compute_cycles", r.compute_cycles)
          .kv("staging_cycles", r.staging_cycles)
          .kv("link_words", r.link_words)
          .kv("interchassis_words", r.interchassis_words)
          .kv("speedup_vs_l1", r.speedup_vs_l1)
          .kv("run_ns", r.run_ns)
          .kv("bits_equal", r.bits_ok)
          .kv("model_matches", r.model_ok)
          .end_object();
      bench::jsonl(w.str());
    }
  }
  bench::print_table(t);
  bench::note(
      "Cycle counts, cycle speedups and link words are deterministic "
      "simulator output. GEMM rows must be bit-identical to the single "
      "device with the analytic model matching the simulation exactly; "
      "GEMV rows must be rerun-deterministic; l=1 must cost the "
      "single-device run. Any NO above makes this binary exit nonzero.");

  return failed ? 1 : 0;
}
