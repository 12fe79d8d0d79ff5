#include "testing/case.hpp"

#include <algorithm>
#include <sstream>

#include "fp/softfloat.hpp"

namespace xd::testing {

namespace {

struct NamePair {
  const char* name;
  int value;
};

template <typename E, std::size_t N>
const char* name_of(const NamePair (&table)[N], E v) {
  for (const auto& p : table) {
    if (p.value == static_cast<int>(v)) return p.name;
  }
  return "unknown";
}

template <typename E, std::size_t N>
bool parse_name(const NamePair (&table)[N], std::string_view s, E& out) {
  for (const auto& p : table) {
    if (s == p.name) {
      out = static_cast<E>(p.value);
      return true;
    }
  }
  return false;
}

// The five op kinds mirror host::OpKind, so their corpus names are the host
// op names, aliases included; the table holds the other kinds.
static_assert(static_cast<int>(FuzzKind::Dot) ==
                  static_cast<int>(host::OpKind::Dot) &&
              static_cast<int>(FuzzKind::DotBatch) ==
                  static_cast<int>(host::OpKind::DotBatch) &&
              static_cast<int>(FuzzKind::Gemv) ==
                  static_cast<int>(host::OpKind::Gemv) &&
              static_cast<int>(FuzzKind::Spmxv) ==
                  static_cast<int>(host::OpKind::Spmxv) &&
              static_cast<int>(FuzzKind::Gemm) ==
                  static_cast<int>(host::OpKind::Gemm));

bool is_op_kind(FuzzKind kind) { return kind <= FuzzKind::Gemm; }

constexpr NamePair kKinds[] = {
    {"jacobi_batch", static_cast<int>(FuzzKind::JacobiBatch)},
    {"cg", static_cast<int>(FuzzKind::Cg)},
    {"graph", static_cast<int>(FuzzKind::Graph)},
    {"sharded", static_cast<int>(FuzzKind::Sharded)},
};

constexpr NamePair kGraphForms[] = {
    {"random", static_cast<int>(GraphForm::Random)},
    {"cg_step", static_cast<int>(GraphForm::CgStep)},
    {"jacobi_sweep", static_cast<int>(GraphForm::JacobiSweep)},
};

constexpr NamePair kModes[] = {
    {"exact", static_cast<int>(ValueMode::Exact)},
    {"uniform", static_cast<int>(ValueMode::Uniform)},
    {"extreme", static_cast<int>(ValueMode::Extreme)},
};

constexpr NamePair kSabotages[] = {
    {"none", static_cast<int>(Sabotage::None)},
    {"operand_length", static_cast<int>(Sabotage::OperandLength)},
    {"zero_shape", static_cast<int>(Sabotage::ZeroShape)},
    {"overflow_shape", static_cast<int>(Sabotage::OverflowShape)},
    {"sparse_structure", static_cast<int>(Sabotage::SparseStructure)},
    {"indivisible", static_cast<int>(Sabotage::Indivisible)},
    {"design_knob", static_cast<int>(Sabotage::DesignKnob)},
};

/// Break one of the kind's design knobs, picked by the value seed so a
/// corpus line replays the same corruption: a zero, a block edge mm_k does
/// not divide, a panel edge short of one block column per FPGA, or a value
/// no device holds.
void corrupt_knob(host::ContextConfig& cfg, FuzzKind kind, u64 vseed) {
  Rng rng(~vseed);  // a stream apart from the operand draws
  constexpr unsigned kAbsurd = 1u << 24;
  if (kind != FuzzKind::Gemm) {
    const bool dot = kind == FuzzKind::Dot || kind == FuzzKind::DotBatch;
    (dot ? cfg.dot_k : cfg.gemv_k) = rng.uniform_int(0, 1) ? kAbsurd : 0;
    return;
  }
  switch (rng.uniform_int(0, 8)) {
    case 0: cfg.mm_k = 0; break;
    case 1: cfg.mm_m = 0; break;
    case 2: cfg.mm_b = 0; break;
    case 3: cfg.mm_l = 0; break;
    case 4:
      cfg.mm_k = 2;
      cfg.mm_m = 3;
      break;
    case 5: cfg.mm_b = static_cast<std::size_t>(cfg.mm_m) * cfg.mm_l - 1; break;
    case 6: cfg.mm_k = kAbsurd; break;
    case 7: cfg.mm_m = kAbsurd; break;
    default: cfg.mm_l = kAbsurd; break;
  }
}

}  // namespace

const char* fuzz_kind_name(FuzzKind kind, host::EngineRequest engine) {
  return is_op_kind(kind)
             ? host::op_name(static_cast<host::OpKind>(kind), engine)
             : name_of(kKinds, kind);
}
bool fuzz_kind_from_name(std::string_view name, FuzzKind& kind,
                         host::EngineRequest& engine) {
  host::OpKind op;
  if (host::op_from_name(name, op, engine)) {
    kind = static_cast<FuzzKind>(op);
    return true;
  }
  engine = host::EngineRequest::Default;
  return parse_name(kKinds, name, kind);
}
const char* value_mode_name(ValueMode mode) { return name_of(kModes, mode); }
bool value_mode_from_name(std::string_view name, ValueMode& out) {
  return parse_name(kModes, name, out);
}
const char* sabotage_name(Sabotage s) { return name_of(kSabotages, s); }
bool sabotage_from_name(std::string_view name, Sabotage& out) {
  return parse_name(kSabotages, name, out);
}
const char* graph_form_name(GraphForm form) {
  return name_of(kGraphForms, form);
}
bool graph_form_from_name(std::string_view name, GraphForm& out) {
  return parse_name(kGraphForms, name, out);
}

host::ContextConfig FuzzCase::config() const {
  host::ContextConfig cfg;
  if (dot_k) cfg.dot_k = dot_k;
  if (gemv_k) cfg.gemv_k = gemv_k;
  if (mm_k) cfg.mm_k = mm_k;
  if (mm_m) cfg.mm_m = mm_m;
  if (mm_b) cfg.mm_b = mm_b;
  if (mm_l) cfg.mm_l = mm_l;
  // The PE array folds partial sums through m^2/k accumulation slots; the
  // accumulation adder cannot be deeper than that.
  if (cfg.mm_k >= 1) {
    const unsigned slots =
        std::max(1u, cfg.mm_m * cfg.mm_m / std::max(1u, cfg.mm_k));
    cfg.mm_adder_stages = std::min(cfg.mm_adder_stages, slots);
  }
  if (sram_cap) cfg.sram_capacity_words = sram_cap;
  if (sabotage == Sabotage::DesignKnob) corrupt_knob(cfg, kind, vseed);
  return cfg;
}

std::string FuzzCase::to_line() const {
  std::ostringstream os;
  os << "xdfuzz1 kind=" << fuzz_kind_name(kind, engine);
  if (placement != host::Placement::Sram) {
    os << " place=" << host::placement_name(placement);
  }
  if (engine == host::EngineRequest::Column) os << " arch=col";
  if (mode != ValueMode::Exact) os << " mode=" << value_mode_name(mode);
  if (sabotage != Sabotage::None) os << " err=" << sabotage_name(sabotage);
  if (gform != GraphForm::Random) os << " gform=" << graph_form_name(gform);
  if (rows) os << " rows=" << rows;
  if (cols) os << " cols=" << cols;
  if (n) os << " n=" << n;
  if (batch) os << " batch=" << batch;
  if (nnz_per_row) os << " nnz=" << nnz_per_row;
  if (sram_cap) os << " scap=" << sram_cap;
  os << " vseed=" << vseed;
  if (dot_k) os << " dot_k=" << dot_k;
  if (gemv_k) os << " gemv_k=" << gemv_k;
  if (mm_k) os << " mm_k=" << mm_k;
  if (mm_m) os << " mm_m=" << mm_m;
  if (mm_b) os << " mm_b=" << mm_b;
  if (mm_l) os << " mm_l=" << mm_l;
  return os.str();
}

FuzzCase FuzzCase::from_line(const std::string& line) {
  std::istringstream ss(line);
  std::string tok;
  require(static_cast<bool>(ss >> tok) && tok == "xdfuzz1",
          cat("fuzz case: expected 'xdfuzz1' header, got '", line, "'"));

  FuzzCase fc;
  bool have_kind = false;
  host::GemvArch arch = host::GemvArch::Tree;
  while (ss >> tok) {
    const auto eq = tok.find('=');
    require(eq != std::string::npos && eq > 0 && eq + 1 < tok.size(),
            cat("fuzz case: malformed token '", tok, "'"));
    const std::string key = tok.substr(0, eq);
    const std::string val = tok.substr(eq + 1);

    const auto as_u64 = [&]() -> u64 {
      std::size_t used = 0;
      u64 v = 0;
      try {
        v = std::stoull(val, &used);
      } catch (...) {
        used = 0;
      }
      require(used == val.size(),
              cat("fuzz case: '", key, "' expects an integer, got '", val, "'"));
      return v;
    };

    if (key == "kind") {
      require(fuzz_kind_from_name(val, fc.kind, fc.engine),
              cat("fuzz case: unknown kind '", val, "'"));
      have_kind = true;
    } else if (key == "place") {
      require(host::placement_from_name(val, fc.placement),
              cat("fuzz case: unknown placement '", val, "'"));
    } else if (key == "arch") {
      require(host::gemv_arch_from_name(val, arch),
              cat("fuzz case: unknown arch '", val, "'"));
    } else if (key == "mode") {
      require(value_mode_from_name(val, fc.mode),
              cat("fuzz case: unknown mode '", val, "'"));
    } else if (key == "err") {
      require(sabotage_from_name(val, fc.sabotage),
              cat("fuzz case: unknown sabotage '", val, "'"));
    } else if (key == "gform") {
      require(graph_form_from_name(val, fc.gform),
              cat("fuzz case: unknown graph form '", val, "'"));
    } else if (key == "rows") {
      fc.rows = as_u64();
    } else if (key == "cols") {
      fc.cols = as_u64();
    } else if (key == "n") {
      fc.n = as_u64();
    } else if (key == "batch") {
      fc.batch = as_u64();
    } else if (key == "nnz") {
      fc.nnz_per_row = as_u64();
    } else if (key == "scap") {
      fc.sram_cap = as_u64();
    } else if (key == "vseed") {
      fc.vseed = as_u64();
    } else if (key == "dot_k") {
      fc.dot_k = static_cast<unsigned>(as_u64());
    } else if (key == "gemv_k") {
      fc.gemv_k = static_cast<unsigned>(as_u64());
    } else if (key == "mm_k") {
      fc.mm_k = static_cast<unsigned>(as_u64());
    } else if (key == "mm_m") {
      fc.mm_m = static_cast<unsigned>(as_u64());
    } else if (key == "mm_b") {
      fc.mm_b = as_u64();
    } else if (key == "mm_l") {
      fc.mm_l = static_cast<unsigned>(as_u64());
    } else {
      throw ConfigError(cat("fuzz case: unknown key '", key, "'"));
    }
  }
  require(have_kind, "fuzz case: missing kind=");
  // arch=col names the column design of a plain gemv (tokens come in any
  // order, so it is applied once the kind is known).
  if (arch == host::GemvArch::Column && fc.kind == FuzzKind::Gemv &&
      fc.engine == host::EngineRequest::Default) {
    fc.engine = host::EngineRequest::Column;
  }
  return fc;
}

double draw_value(Rng& rng, ValueMode mode) {
  switch (mode) {
    case ValueMode::Exact: {
      // Nonzero integers: products of nonzero ints never produce -0.0, so
      // the engines' +0.0 lane padding cannot flip a result's zero sign
      // relative to the naive oracle.
      const double mag = static_cast<double>(rng.uniform_int(1, 32));
      return rng.uniform() < 0.5 ? -mag : mag;
    }
    case ValueMode::Uniform:
      return rng.uniform(-1.0, 1.0);
    case ValueMode::Extreme: {
      static const double kPool[] = {
          0.0,     -0.0,    5e-324,  -5e-324, 1e-300,  -1e-300,
          1e300,   -1e300,  1.0,     -1.0,    123.456, -123.456,
          1e16,    -1e16,   2.2250738585072014e-308,  // DBL_MIN
          -2.2250738585072014e-308,
      };
      const auto idx = rng.uniform_int(0, std::size(kPool) + 1);
      if (idx == std::size(kPool)) {
        return fp::from_bits(fp::kPosInf);
      }
      if (idx == std::size(kPool) + 1) {
        return fp::from_bits(fp::kDefaultNaN);
      }
      return kPool[idx];
    }
  }
  return 0.0;
}

namespace {

std::vector<double> draw_vector(Rng& rng, std::size_t n, ValueMode mode) {
  std::vector<double> v(n);
  for (auto& e : v) e = draw_value(rng, mode);
  return v;
}

/// CRS with ~nnz_per_row nonzeros per row (exact count per row, distinct
/// columns, ascending). nnz_per_row of 0 yields an all-empty-row matrix —
/// the engine must inject bubbles, one reduction set per row regardless.
blas2::CrsMatrix draw_sparse(Rng& rng, std::size_t rows, std::size_t cols,
                             std::size_t nnz_per_row, ValueMode mode) {
  blas2::CrsMatrix m;
  m.rows = rows;
  m.cols = cols;
  m.row_ptr.assign(rows + 1, 0);
  const std::size_t per_row = std::min(nnz_per_row, cols);
  std::vector<char> used(cols, 0);
  for (std::size_t r = 0; r < rows; ++r) {
    std::fill(used.begin(), used.end(), 0);
    std::size_t placed = 0;
    while (placed < per_row) {
      const auto c = static_cast<std::size_t>(rng.uniform_int(0, cols - 1));
      if (!used[c]) {
        used[c] = 1;
        ++placed;
      }
    }
    for (std::size_t c = 0; c < cols; ++c) {
      if (used[c]) {
        m.col_idx.push_back(c);
        m.values.push_back(draw_value(rng, mode));
      }
    }
    m.row_ptr[r + 1] = m.values.size();
  }
  return m;
}

/// Row-major diagonally dominant matrix (solver kinds): |a_ii| exceeds the
/// row's off-diagonal magnitude sum, so Jacobi converges and A is usable as
/// a CG operand once symmetrized by the caller.
std::vector<double> draw_diag_dominant(Rng& rng, std::size_t n, bool symmetric) {
  std::vector<double> a(n * n, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = symmetric ? i + 1 : 0; j < n; ++j) {
      if (i == j) continue;
      const double v = rng.uniform(-1.0, 1.0);
      a[i * n + j] = v;
      if (symmetric) a[j * n + i] = v;
    }
  }
  for (std::size_t i = 0; i < n; ++i) {
    a[i * n + i] = static_cast<double>(n) + 1.0 + rng.uniform();
  }
  return a;
}

/// Build the DAG for a FuzzKind::Graph case. Operand vectors live in
/// data.pool (stable addresses), edge-fed slots stay null for the runtime
/// to patch, and edges always point from a lower to a higher node index so
/// GraphDesc order is itself topological.
void materialize_graph(const FuzzCase& fc, CaseData& data, Rng& rng) {
  using host::OpDesc;
  using host::OperandSlot;
  const std::size_t len = std::max<std::size_t>(1, fc.n);
  const auto vec = [&](std::size_t sz) -> const std::vector<double>* {
    data.pool.push_back(draw_vector(rng, sz, fc.mode));
    return &data.pool.back();
  };
  const auto gemv_desc = [&](const std::vector<double>* mat,
                             const std::vector<double>* x) {
    OpDesc d;
    d.kind = host::OpKind::Gemv;
    d.placement = fc.placement;
    d.rows = d.cols = len;
    d.a = mat;
    d.x = x;
    return d;
  };
  const auto dot_desc = [&](const std::vector<double>* u,
                            const std::vector<double>* v) {
    OpDesc d;
    d.kind = host::OpKind::Dot;
    d.placement = fc.placement;
    d.cols = len;
    d.a = u;
    d.b = v;
    return d;
  };

  switch (fc.gform) {
    case GraphForm::CgStep: {
      // GEMV -> DOT on slot B, with the GEMV's x shared as the dot's first
      // operand — exactly solver::cg's fused step chain.
      const auto* mat = vec(len * len);
      const auto* x = vec(len);
      data.graph.nodes.push_back({"ap", gemv_desc(mat, x), true});
      data.graph.nodes.push_back({"pap", dot_desc(x, nullptr), true});
      data.graph.edges.push_back({0, 1, OperandSlot::B});
      return;
    }
    case GraphForm::JacobiSweep: {
      // Edgeless GEMVs sharing one matrix — solver::jacobi's batch sweep.
      const auto* mat = vec(len * len);
      const std::size_t systems = std::max<std::size_t>(2, fc.batch);
      for (std::size_t s = 0; s < systems; ++s) {
        data.graph.nodes.push_back(
            {cat("sys", s), gemv_desc(mat, vec(len)), true});
      }
      return;
    }
    case GraphForm::Random:
      break;
  }

  // Random DAG over dot/gemv/spmxv. Only length-len producers (gemv,
  // spmxv) can feed edges — dot yields a scalar. Matrices are sometimes
  // shared between gemv nodes, vector slots sometimes edge-fed, keep flags
  // random: the planner must handle every mix.
  const std::size_t count =
      std::min<std::size_t>(4, std::max<std::size_t>(2, fc.batch));
  std::vector<std::size_t> producers;
  const std::vector<double>* shared_mat = nullptr;
  bool have_sparse = false;
  for (std::size_t i = 0; i < count; ++i) {
    // Feed the slot from an earlier producer about half the time one
    // exists; the slots of one node are distinct, so no duplicate
    // (to, slot) pair can arise.
    const auto edge_or = [&](OperandSlot slot) -> const std::vector<double>* {
      if (!producers.empty() && rng.uniform_int(0, 1) == 0) {
        const auto from = producers[rng.uniform_int(0, producers.size() - 1)];
        data.graph.edges.push_back({from, i, slot});
        return nullptr;
      }
      return vec(len);
    };
    const u64 roll = rng.uniform_int(1, 100);
    OpDesc d;
    if (roll <= 40) {
      d = dot_desc(edge_or(OperandSlot::A), edge_or(OperandSlot::B));
    } else if (roll <= 80) {
      const std::vector<double>* mat = shared_mat;
      if (!mat || rng.uniform_int(0, 1) == 0) {
        mat = vec(len * len);
        shared_mat = mat;
      }
      d = gemv_desc(mat, edge_or(OperandSlot::X));
      producers.push_back(i);
    } else {
      if (!have_sparse) {
        data.sparse = draw_sparse(rng, len, len, std::min<std::size_t>(len, 4),
                                  fc.mode);
        have_sparse = true;
      }
      d.kind = host::OpKind::Spmxv;
      d.rows = d.cols = len;
      d.sparse = &data.sparse;
      d.x = edge_or(OperandSlot::X);
      producers.push_back(i);
    }
    data.graph.nodes.push_back(
        {cat("n", i), d, rng.uniform_int(1, 100) <= 80});
  }
}

}  // namespace

void materialize(const FuzzCase& fc, CaseData& data) {
  Rng rng(fc.vseed);
  using host::OpDesc;

  // Sabotages that replace the whole shape story are applied first; the
  // remaining kinds materialize honestly and then corrupt one aspect.
  switch (fc.kind) {
    case FuzzKind::Dot: {
      std::size_t len = fc.cols;
      if (fc.sabotage == Sabotage::ZeroShape) len = 0;
      data.a = draw_vector(rng, len, fc.mode);
      data.b = draw_vector(rng, len, fc.mode);
      if (fc.sabotage == Sabotage::OperandLength && !data.b.empty()) {
        data.b.pop_back();
      }
      data.desc = OpDesc::dot(data.a, data.b, fc.placement);
      break;
    }
    case FuzzKind::DotBatch: {
      const std::size_t pairs = fc.sabotage == Sabotage::ZeroShape ? 0 : fc.batch;
      for (std::size_t p = 0; p < pairs; ++p) {
        const auto len = static_cast<std::size_t>(rng.uniform_int(1, 96));
        data.us.push_back(draw_vector(rng, len, fc.mode));
        data.vs.push_back(draw_vector(rng, len, fc.mode));
      }
      if (fc.sabotage == Sabotage::OperandLength && !data.vs.empty()) {
        data.vs.back().pop_back();
      }
      data.desc = OpDesc::dot_batch(data.us, data.vs);
      if (fc.sabotage == Sabotage::ZeroShape) {
        // A zero batch is well-formed but empty; sabotage declares one pair.
        data.desc.batch = 1;
      }
      break;
    }
    case FuzzKind::Gemv: {
      std::size_t r = fc.rows, c = fc.cols;
      if (fc.sabotage == Sabotage::ZeroShape) r = 0;
      data.a = draw_vector(rng, r * c, fc.mode);
      data.x = draw_vector(rng, c, fc.mode);
      if (fc.sabotage == Sabotage::OperandLength && !data.x.empty()) {
        data.x.pop_back();
      }
      data.desc = OpDesc::gemv(data.a, r, c, data.x, fc.placement);
      data.desc.engine = fc.engine;
      if (fc.sabotage == Sabotage::OverflowShape) {
        // rows * cols wraps size_t to 0 == a.size(): without the validate()
        // overflow check the engine would walk 2^63 rows of nothing.
        data.a.clear();
        data.x.assign(2, 1.0);
        data.desc.rows = std::size_t{1} << 63;
        data.desc.cols = 2;
      }
      break;
    }
    case FuzzKind::Spmxv: {
      data.sparse = draw_sparse(rng, std::max<std::size_t>(1, fc.rows),
                                std::max<std::size_t>(1, fc.cols),
                                fc.nnz_per_row, fc.mode);
      data.x = draw_vector(rng, data.sparse.cols, fc.mode);
      if (fc.sabotage == Sabotage::SparseStructure) {
        // Corrupt whichever structure exists: an out-of-range column if the
        // matrix has nonzeros, a short row_ptr otherwise.
        if (!data.sparse.col_idx.empty()) {
          data.sparse.col_idx.front() = data.sparse.cols + 7;
        } else {
          data.sparse.row_ptr.pop_back();
        }
      } else if (fc.sabotage == Sabotage::OperandLength && !data.x.empty()) {
        data.x.pop_back();
      } else if (fc.sabotage == Sabotage::ZeroShape) {
        data.sparse.rows = 0;
        data.sparse.row_ptr.assign(1, 0);
        data.sparse.values.clear();
        data.sparse.col_idx.clear();
      }
      data.desc = OpDesc::spmxv(data.sparse, data.x);
      break;
    }
    case FuzzKind::Gemm: {
      std::size_t edge = fc.n;
      if (fc.sabotage == Sabotage::ZeroShape) edge = 0;
      if (fc.sabotage == Sabotage::Indivisible) edge = fc.n + 1;
      data.a = draw_vector(rng, edge * edge, fc.mode);
      data.b = draw_vector(rng, edge * edge, fc.mode);
      if (fc.sabotage == Sabotage::OperandLength && !data.b.empty()) {
        data.b.pop_back();
      }
      data.desc = OpDesc::gemm(data.a, data.b, edge);
      data.desc.engine = fc.engine;
      if (fc.sabotage == Sabotage::OverflowShape) {
        data.a.clear();
        data.b.clear();
        data.desc.n = std::size_t{1} << 32;  // n*n wraps to 0 on 64-bit
      }
      break;
    }
    case FuzzKind::JacobiBatch: {
      data.a = draw_diag_dominant(rng, fc.n, /*symmetric=*/false);
      for (std::size_t i = 0; i < fc.batch; ++i) {
        data.rhs.push_back(draw_vector(rng, fc.n, ValueMode::Uniform));
      }
      break;
    }
    case FuzzKind::Cg: {
      data.a = draw_diag_dominant(rng, fc.n, /*symmetric=*/true);
      data.b = draw_vector(rng, fc.n, ValueMode::Uniform);
      break;
    }
    case FuzzKind::Graph: {
      materialize_graph(fc, data, rng);
      break;
    }
    case FuzzKind::Sharded: {
      // n > 0 selects a square hierarchical GEMM, otherwise a tree GEMV
      // (rows x cols). Never sabotaged; the shard checker re-runs the same
      // descriptor through the ShardScheduler at several l values.
      if (fc.n > 0) {
        data.a = draw_vector(rng, fc.n * fc.n, fc.mode);
        data.b = draw_vector(rng, fc.n * fc.n, fc.mode);
        data.desc = OpDesc::gemm(data.a, data.b, fc.n);
      } else {
        data.a = draw_vector(rng, fc.rows * fc.cols, fc.mode);
        data.x = draw_vector(rng, fc.cols, fc.mode);
        data.desc = OpDesc::gemv(data.a, fc.rows, fc.cols, data.x);
      }
      break;
    }
  }
}

}  // namespace xd::testing
