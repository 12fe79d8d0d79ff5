#include "blas2/spmxv.hpp"

#include <algorithm>
#include <cstring>
#include <optional>

#include "common/random.hpp"
#include "common/ring_fifo.hpp"
#include "fp/backend.hpp"
#include "fp/softfloat.hpp"
#include "mem/channel.hpp"
#include "reduce/reduction_circuit.hpp"
#include "telemetry/session.hpp"

namespace xd::blas2 {

void CrsMatrix::validate() const {
  require(row_ptr.size() == rows + 1, "CRS: row_ptr must have rows+1 entries");
  require(row_ptr.front() == 0 && row_ptr.back() == values.size(),
          "CRS: row_ptr must start at 0 and end at nnz");
  require(values.size() == col_idx.size(), "CRS: values/col_idx size mismatch");
  for (std::size_t i = 0; i < rows; ++i) {
    require(row_ptr[i] <= row_ptr[i + 1], "CRS: row_ptr must be non-decreasing");
  }
  for (std::size_t c : col_idx) {
    require(c < cols, "CRS: column index out of range");
  }
}

CrsMatrix CrsMatrix::from_dense(const std::vector<double>& dense,
                                std::size_t rows, std::size_t cols) {
  require(dense.size() == rows * cols, "CRS from_dense: size mismatch");
  CrsMatrix m;
  m.rows = rows;
  m.cols = cols;
  m.row_ptr.reserve(rows + 1);
  m.row_ptr.push_back(0);
  for (std::size_t i = 0; i < rows; ++i) {
    for (std::size_t j = 0; j < cols; ++j) {
      const double v = dense[i * cols + j];
      if (v != 0.0) {
        m.values.push_back(v);
        m.col_idx.push_back(j);
      }
    }
    m.row_ptr.push_back(m.values.size());
  }
  return m;
}

std::vector<double> CrsMatrix::to_dense() const {
  std::vector<double> d(rows * cols, 0.0);
  for (std::size_t i = 0; i < rows; ++i) {
    for (std::size_t e = row_ptr[i]; e < row_ptr[i + 1]; ++e) {
      d[i * cols + col_idx[e]] = values[e];
    }
  }
  return d;
}

SpmxvEngine::SpmxvEngine(const SpmxvConfig& cfg) : cfg_(cfg) {
  require(cfg.k >= 1, "SpMXV engine needs k >= 1");
  require(cfg.k == 1 || is_pow2(cfg.k), "adder tree needs k to be a power of two");
  require(cfg.mem_elements_per_cycle > 0.0, "memory bandwidth must be positive");
}

MxvOutcome SpmxvEngine::run(const CrsMatrix& a, const std::vector<double>& x) {
  a.validate();
  require(x.size() == a.cols, "SpMXV: x length mismatch");
  require(a.rows >= 1, "SpMXV: empty matrix");

  const unsigned k = cfg_.k;
  mem::Channel channel(cfg_.mem_elements_per_cycle, "spmxv.mem",
                       std::max(cfg_.mem_elements_per_cycle + 2.0,
                                static_cast<double>(k)));
  fp::AdderTree tree(std::max(2u, k), cfg_.adder_stages);
  reduce::ReductionCircuit red(cfg_.adder_stages);
  if (cfg_.telemetry && cfg_.telemetry->trace().enabled()) {
    red.attach_trace(&cfg_.telemetry->trace());
  }

  // Pre-convert x and the CRS value array to bit patterns once, so the lane
  // loop is a pure gather-multiply (col_idx indexes xbits).
  std::vector<u64> xbits(a.cols);
  std::memcpy(xbits.data(), x.data(), a.cols * sizeof(double));
  std::vector<u64> vbits(a.values.size());
  if (!vbits.empty())  // an all-zero matrix has no values (null data())
    std::memcpy(vbits.data(), a.values.data(), vbits.size() * sizeof(double));

  const fp::Backend& be = fp::active_backend();
  fp::MultiplierBank mults(std::max(2u, k), cfg_.multiplier_stages);
  constexpr std::size_t kRedFifoCap = 64;
  // Headroom beyond the issue gate: in-flight multiplier/tree groups still
  // land after the gate closes.
  RingFifo<std::pair<u64, bool>> red_fifo(
      kRedFifoCap + cfg_.multiplier_stages + tree.latency() + 2);

  MxvOutcome out;
  out.y.assign(a.rows, 0.0);

  std::size_t row = 0;
  std::size_t elem = a.row_ptr.empty() ? 0 : a.row_ptr[0];
  std::size_t rows_done = 0;
  u64 streamed_elements = 0;
  u64 cycle = 0;
  u64 stalls = 0;

  const u64 budget = 500'000'000;
  while (rows_done < a.rows) {
    ++cycle;
    if (cycle > budget) throw SimError("SpMXV engine wedged");
    channel.tick();

    if (auto g = mults.pop_ready(cycle)) {
      if (k == 1) {
        red_fifo.push({g->products[0], g->last});
      } else {
        tree.issue(g->products, g->last ? 1 : 0);
      }
    }

    if (k >= 2) {
      tree.tick();
      if (auto r = tree.take_output()) red_fifo.push({r->bits, r->tag != 0});
    }

    std::optional<reduce::Input> rin;
    if (!red_fifo.empty()) {
      rin = reduce::Input{red_fifo.front().first, red_fifo.front().second};
    }
    const bool consumed = red.cycle(rin);
    if (rin.has_value()) {
      if (consumed) {
        red_fifo.pop();
      } else {
        ++stalls;
      }
    }
    if (auto r = red.take_result()) {
      out.y.at(r->set_id) = fp::from_bits(r->bits);
      ++rows_done;
    }

    // Feed the next group of up to k nonzeros of the current row. An empty
    // row contributes a single zero element (hardware injects a bubble so
    // every row produces exactly one reduction set).
    if (row < a.rows && red_fifo.size() < kRedFifoCap) {
      const std::size_t row_end = a.row_ptr[row + 1];
      const std::size_t remaining = row_end - elem;
      const std::size_t lanes = std::max<std::size_t>(
          1, std::min<std::size_t>(k, remaining));
      const double elements = static_cast<double>(remaining == 0 ? 1 : lanes);
      if (channel.can_transfer(elements)) {
        channel.transfer(elements);
        streamed_elements += static_cast<u64>(elements);
        const std::size_t active = std::min<std::size_t>(k, remaining);
        const bool last = (elem + active == row_end);
        u64* products = mults.stage(cycle, last);
        for (std::size_t lane = 0; lane < active; ++lane) {
          products[lane] = be.mul(vbits[elem + lane], xbits[a.col_idx[elem + lane]]);
        }
        // Pad idle lanes (short tail group, or the placeholder group an
        // empty row injects) with +0 so the tree sums them away.
        std::fill(products + active, products + mults.width(), fp::kPosZero);
        elem += active;
        if (last) {
          ++row;
          if (row < a.rows) elem = a.row_ptr[row];
        }
      }
    }
  }

  out.report.design = cat("spmxv-tree k=", k);
  out.report.cycles = cycle;
  out.report.compute_cycles = cycle;
  out.report.flops = 2ull * a.nnz();
  out.report.stall_cycles = stalls + red.stats().stall_cycles;
  // Each CRS element is a value word + an index word; y streams out too.
  out.report.sram_words = 2.0 * static_cast<double>(streamed_elements) +
                          static_cast<double>(a.rows);
  out.report.clock_mhz = cfg_.clock_mhz;

  if (telemetry::Session* tel = cfg_.telemetry) {
    tel->phase("compute", cycle);
    channel.publish(tel->metrics(), "mem.spmxv.sram");
    if (k >= 2) tree.publish(tel->metrics(), "fpu.spmxv.addtree");
    red.publish(tel->metrics(), "reduce.spmxv");
    tel->counter("fpu.spmxv.mul.ops").add(a.nnz());
    tel->counter("blas2.spmxv.runs").add(1);
    tel->counter("blas2.spmxv.cycles").add(cycle);
    tel->counter("blas2.spmxv.flops").add(out.report.flops);
    tel->counter("blas2.spmxv.stall_cycles").add(out.report.stall_cycles);
    auto row_nnz = tel->histogram("blas2.spmxv.row_nnz");
    for (std::size_t i = 0; i < a.rows; ++i) {
      row_nnz.observe(static_cast<double>(a.row_ptr[i + 1] - a.row_ptr[i]));
    }
  }
  return out;
}

// ---- generators ------------------------------------------------------------

CrsMatrix make_uniform_sparse(std::size_t rows, std::size_t cols,
                              std::size_t nnz_per_row, u64 seed) {
  require(nnz_per_row <= cols, "nnz_per_row exceeds cols");
  Rng rng(seed);
  CrsMatrix m;
  m.rows = rows;
  m.cols = cols;
  m.row_ptr.push_back(0);
  std::vector<std::size_t> pick(cols);
  for (std::size_t j = 0; j < cols; ++j) pick[j] = j;
  for (std::size_t i = 0; i < rows; ++i) {
    // Partial Fisher-Yates for a sorted random column subset.
    for (std::size_t t = 0; t < nnz_per_row; ++t) {
      const std::size_t r = t + rng.uniform_int(0, cols - 1 - t);
      std::swap(pick[t], pick[r]);
    }
    std::sort(pick.begin(), pick.begin() + static_cast<long>(nnz_per_row));
    for (std::size_t t = 0; t < nnz_per_row; ++t) {
      m.values.push_back(rng.uniform(-1.0, 1.0));
      m.col_idx.push_back(pick[t]);
    }
    m.row_ptr.push_back(m.values.size());
  }
  return m;
}

CrsMatrix make_banded(std::size_t n, std::size_t half_bandwidth, u64 seed) {
  Rng rng(seed);
  CrsMatrix m;
  m.rows = n;
  m.cols = n;
  m.row_ptr.push_back(0);
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t lo = i >= half_bandwidth ? i - half_bandwidth : 0;
    const std::size_t hi = std::min(n - 1, i + half_bandwidth);
    for (std::size_t j = lo; j <= hi; ++j) {
      m.values.push_back(rng.uniform(-1.0, 1.0));
      m.col_idx.push_back(j);
    }
    m.row_ptr.push_back(m.values.size());
  }
  return m;
}

CrsMatrix make_power_law(std::size_t rows, std::size_t cols, std::size_t max_row,
                         u64 seed) {
  require(max_row >= 1 && max_row <= cols, "bad max_row");
  Rng rng(seed);
  CrsMatrix m;
  m.rows = rows;
  m.cols = cols;
  m.row_ptr.push_back(0);
  std::vector<std::size_t> pick(cols);
  for (std::size_t j = 0; j < cols; ++j) pick[j] = j;
  for (std::size_t i = 0; i < rows; ++i) {
    // Heavy tail: nnz ~ max_row / u, clamped to [1, max_row].
    const double u = std::max(rng.uniform(), 1.0 / static_cast<double>(max_row));
    const std::size_t nnz = std::max<std::size_t>(
        1, std::min<std::size_t>(max_row, static_cast<std::size_t>(1.0 / u)));
    // Sorted random column subset (partial Fisher-Yates, no duplicates).
    for (std::size_t t = 0; t < nnz; ++t) {
      const std::size_t r = t + rng.uniform_int(0, cols - 1 - t);
      std::swap(pick[t], pick[r]);
    }
    std::sort(pick.begin(), pick.begin() + static_cast<long>(nnz));
    for (std::size_t t = 0; t < nnz; ++t) {
      m.values.push_back(rng.uniform(-1.0, 1.0));
      m.col_idx.push_back(pick[t]);
    }
    m.row_ptr.push_back(m.values.size());
  }
  return m;
}

}  // namespace xd::blas2
