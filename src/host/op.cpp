#include "host/op.hpp"

#include <limits>

namespace xd::host {

namespace {

/// The op names: each kind's own name (listed first for the kind) and the
/// aliases of its non-default designs. A column GEMV has no alias; it is
/// "gemv" with arch "col".
struct OpName {
  const char* name;
  OpKind kind;
  EngineRequest engine;
};
constexpr OpName kOpNames[] = {
    {"dot", OpKind::Dot, EngineRequest::Default},
    {"dot_batch", OpKind::DotBatch, EngineRequest::Default},
    {"gemv", OpKind::Gemv, EngineRequest::Default},
    {"gemv_auto", OpKind::Gemv, EngineRequest::Blocked},
    {"spmxv", OpKind::Spmxv, EngineRequest::Default},
    {"gemm", OpKind::Gemm, EngineRequest::Default},
    {"gemm_array", OpKind::Gemm, EngineRequest::Array},
    {"gemm_multi", OpKind::Gemm, EngineRequest::Multi},
};

}  // namespace

std::size_t shape_product(std::size_t x, std::size_t y, const char* what) {
  if (y != 0 && x > std::numeric_limits<std::size_t>::max() / y) {
    require(false, cat(what, ": shape product overflows"));
  }
  return x * y;
}

const char* op_name(OpKind kind, EngineRequest engine) {
  const char* name = "unknown";
  for (const OpName& e : kOpNames) {
    if (e.kind != kind) continue;
    if (e.engine == engine) return e.name;
    if (e.engine == EngineRequest::Default) name = e.name;
  }
  return name;
}

const char* engine_request_name(EngineRequest engine) {
  switch (engine) {
    case EngineRequest::Default: return "default";
    case EngineRequest::Column: return "col";
    case EngineRequest::Blocked: return "blocked";
    case EngineRequest::Array: return "array";
    case EngineRequest::Multi: return "multi";
  }
  return "unknown";
}

const char* placement_name(Placement p) {
  return p == Placement::Dram ? "dram" : "sram";
}

bool op_from_name(std::string_view name, OpKind& kind, EngineRequest& engine) {
  for (const OpName& e : kOpNames) {
    if (name == e.name) {
      kind = e.kind;
      engine = e.engine;
      return true;
    }
  }
  return false;
}

bool placement_from_name(std::string_view name, Placement& out) {
  if (name == "sram") {
    out = Placement::Sram;
    return true;
  }
  if (name == "dram") {
    out = Placement::Dram;
    return true;
  }
  return false;
}

bool gemv_arch_from_name(std::string_view name, GemvArch& out) {
  if (name == "tree") {
    out = GemvArch::Tree;
    return true;
  }
  if (name == "col") {
    out = GemvArch::Column;
    return true;
  }
  return false;
}

DotResult Outcome::as_dot() const {
  require(!values.empty(), "Outcome: no dot value");
  DotResult r;
  r.value = values.front();
  r.report = report;
  return r;
}

blas1::DotOutcome Outcome::as_dot_batch() && {
  blas1::DotOutcome o;
  o.results = std::move(values);
  o.report = std::move(report);
  return o;
}

blas2::MxvOutcome Outcome::as_mxv() && {
  blas2::MxvOutcome o;
  o.y = std::move(values);
  o.report = std::move(report);
  return o;
}

blas3::MmOutcome Outcome::as_mm() && {
  blas3::MmOutcome o;
  o.c = std::move(values);
  o.report = std::move(report);
  return o;
}

blas3::MmHierOutcome Outcome::as_mm_hier() && {
  blas3::MmHierOutcome o;
  o.c = std::move(values);
  o.report = std::move(report);
  o.required_dram_words_per_cycle = required_dram_words_per_cycle;
  o.required_link_words_per_cycle = required_link_words_per_cycle;
  o.required_sram_words_per_cycle = required_sram_words_per_cycle;
  o.sram_panel_words = sram_panel_words;
  return o;
}

blas3::MmMultiOutcome Outcome::as_mm_multi() && {
  blas3::MmMultiOutcome o;
  o.c = std::move(values);
  o.report = std::move(report);
  o.per_fpga = std::move(per_fpga);
  o.dram_words = dram_words;
  o.link_words = link_words;
  return o;
}

Outcome to_outcome(blas1::DotOutcome&& o) {
  Outcome out;
  out.values = std::move(o.results);
  out.report = std::move(o.report);
  return out;
}

Outcome to_outcome(blas2::MxvOutcome&& o) {
  Outcome out;
  out.values = std::move(o.y);
  out.report = std::move(o.report);
  return out;
}

Outcome to_outcome(blas3::MmOutcome&& o) {
  Outcome out;
  out.values = std::move(o.c);
  out.report = std::move(o.report);
  return out;
}

Outcome to_outcome(blas3::MmHierOutcome&& o) {
  Outcome out;
  out.values = std::move(o.c);
  out.report = std::move(o.report);
  out.required_dram_words_per_cycle = o.required_dram_words_per_cycle;
  out.required_link_words_per_cycle = o.required_link_words_per_cycle;
  out.required_sram_words_per_cycle = o.required_sram_words_per_cycle;
  out.sram_panel_words = o.sram_panel_words;
  return out;
}

Outcome to_outcome(blas3::MmMultiOutcome&& o) {
  Outcome out;
  out.values = std::move(o.c);
  out.report = std::move(o.report);
  out.per_fpga = std::move(o.per_fpga);
  out.dram_words = o.dram_words;
  out.link_words = o.link_words;
  return out;
}

OpDesc OpDesc::dot(const std::vector<double>& u, const std::vector<double>& v,
                   Placement src) {
  OpDesc d;
  d.kind = OpKind::Dot;
  d.placement = src;
  d.cols = u.size();
  d.a = &u;
  d.b = &v;
  return d;
}

OpDesc OpDesc::dot_batch(const std::vector<std::vector<double>>& us,
                         const std::vector<std::vector<double>>& vs) {
  OpDesc d;
  d.kind = OpKind::DotBatch;
  d.batch = us.size();
  d.us = &us;
  d.vs = &vs;
  return d;
}

OpDesc OpDesc::gemv(const std::vector<double>& a, std::size_t rows,
                    std::size_t cols, const std::vector<double>& x,
                    Placement src, GemvArch arch) {
  OpDesc d;
  d.kind = OpKind::Gemv;
  d.placement = src;
  d.engine = arch == GemvArch::Column ? EngineRequest::Column
                                      : EngineRequest::Default;
  d.rows = rows;
  d.cols = cols;
  d.a = &a;
  d.x = &x;
  return d;
}

OpDesc OpDesc::gemv_auto(const std::vector<double>& a, std::size_t rows,
                         std::size_t cols, const std::vector<double>& x) {
  OpDesc d = gemv(a, rows, cols, x);
  d.engine = EngineRequest::Blocked;
  return d;
}

OpDesc OpDesc::spmxv(const blas2::CrsMatrix& a, const std::vector<double>& x) {
  OpDesc d;
  d.kind = OpKind::Spmxv;
  d.rows = a.rows;
  d.cols = a.cols;
  d.sparse = &a;
  d.x = &x;
  return d;
}

OpDesc OpDesc::gemm(const std::vector<double>& a, const std::vector<double>& b,
                    std::size_t n) {
  OpDesc d;
  d.kind = OpKind::Gemm;
  d.n = n;
  d.a = &a;
  d.b = &b;
  return d;
}

OpDesc OpDesc::gemm_panel(const std::vector<double>& a, std::size_t rows,
                          const std::vector<double>& b, std::size_t n) {
  OpDesc d = gemm(a, b, n);
  d.rows = rows;
  return d;
}

OpDesc OpDesc::gemm_array(const std::vector<double>& a,
                          const std::vector<double>& b, std::size_t n) {
  OpDesc d = gemm(a, b, n);
  d.engine = EngineRequest::Array;
  return d;
}

OpDesc OpDesc::gemm_multi(const std::vector<double>& a,
                          const std::vector<double>& b, std::size_t n) {
  OpDesc d = gemm(a, b, n);
  d.engine = EngineRequest::Multi;
  return d;
}

void OpDesc::validate() const {
  // Column and Blocked are GEMV designs, Array and Multi GEMM designs.
  const bool gemv_design = engine == EngineRequest::Column ||
                           engine == EngineRequest::Blocked;
  if (engine != EngineRequest::Default &&
      kind != (gemv_design ? OpKind::Gemv : OpKind::Gemm)) {
    throw ConfigError(
        cat(op_name(kind), ": no ", engine_request_name(engine), " design"));
  }
  switch (kind) {
    case OpKind::Dot:
      require(a && b, "dot: missing operands");
      require(a->size() == cols && b->size() == cols,
              "dot: operand sizes disagree with the descriptor");
      break;
    case OpKind::DotBatch:
      require(us && vs, "dot_batch: missing operands");
      require(us->size() == batch && vs->size() == batch,
              "dot_batch: batch size disagrees with the descriptor");
      break;
    case OpKind::Gemv:
      require(a && x, "gemv: missing operands");
      require(a->size() == shape_product(rows, cols, "gemv"),
              "gemv: A size != rows * cols");
      require(x->size() == cols, "gemv: x size != cols");
      break;
    case OpKind::Spmxv:
      require(sparse && x, "spmxv: missing operands");
      sparse->validate();
      require(sparse->rows == rows && sparse->cols == cols,
              "spmxv: descriptor shape disagrees with the CRS matrix");
      require(x->size() == sparse->cols, "spmxv: x size != cols");
      break;
    case OpKind::Gemm: {
      require(a && b, "gemm: missing operands");
      const std::size_t elems = shape_product(n, n, "gemm");
      require(b->size() == elems, "gemm: matrix size != n * n");
      if (rows == 0) {
        require(a->size() == elems, "gemm: matrix size != n * n");
      } else {
        // Row-panel form: only the hierarchical engine runs panels; the
        // cycle-accurate array/multi engines are square-only.
        require(engine == EngineRequest::Default,
                "gemm: row panels need the hierarchical engine");
        require(a->size() == shape_product(rows, n, "gemm panel"),
                "gemm: A size != rows * n");
      }
      break;
    }
  }
}

}  // namespace xd::host
