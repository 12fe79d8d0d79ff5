#include "host/graph.hpp"

#include <array>
#include <sstream>
#include <unordered_map>

#include "common/util.hpp"

namespace xd::host {

const char* operand_slot_name(OperandSlot slot) {
  switch (slot) {
    case OperandSlot::A: return "a";
    case OperandSlot::B: return "b";
    case OperandSlot::X: return "x";
  }
  return "?";
}

bool operand_slot_from_name(std::string_view name, OperandSlot& out) {
  if (name == "a") { out = OperandSlot::A; return true; }
  if (name == "b") { out = OperandSlot::B; return true; }
  if (name == "x") { out = OperandSlot::X; return true; }
  return false;
}

std::size_t op_output_len(const OpDesc& desc) {
  switch (desc.kind) {
    case OpKind::Dot: return 1;
    case OpKind::DotBatch: return desc.batch;
    case OpKind::Gemv:
    case OpKind::Spmxv: return desc.rows;
    case OpKind::Gemm: return shape_product(desc.n, desc.n, "graph");
  }
  return 0;
}

std::size_t op_slot_len(const OpDesc& desc, OperandSlot slot) {
  switch (desc.kind) {
    case OpKind::Dot:
      return slot == OperandSlot::X ? 0 : desc.cols;
    case OpKind::DotBatch:
      return 0;  // nested operand lists are not edge-feedable
    case OpKind::Gemv:
      if (slot == OperandSlot::A)
        return shape_product(desc.rows, desc.cols, "graph");
      return slot == OperandSlot::X ? desc.cols : 0;
    case OpKind::Spmxv:
      // The CRS matrix is structural, not a dense value vector: only x.
      return slot == OperandSlot::X ? desc.cols : 0;
    case OpKind::Gemm:
      if (slot == OperandSlot::X) return 0;
      return shape_product(desc.n, desc.n, "graph");
  }
  return 0;
}

const std::vector<double>*& slot_operand(OpDesc& desc, OperandSlot slot) {
  if (slot == OperandSlot::A) return desc.a;
  return slot == OperandSlot::B ? desc.b : desc.x;
}

const std::vector<double>* slot_operand(const OpDesc& desc, OperandSlot slot) {
  return slot_operand(const_cast<OpDesc&>(desc), slot);
}

void GraphDesc::validate() const {
  require(!nodes.empty(), "graph: no nodes");

  // Which slots of which nodes are edge-fed, with duplicate detection.
  std::vector<std::array<bool, 3>> fed(nodes.size(), {false, false, false});
  for (const auto& e : edges) {
    require(e.from < nodes.size() && e.to < nodes.size(),
            "graph: edge references a node out of range");
    require(e.from != e.to, "graph: self-edge");
    auto& f = fed[e.to][static_cast<std::size_t>(e.slot)];
    require(!f, cat("graph: node ", e.to, " slot ", operand_slot_name(e.slot),
                    " fed by more than one edge"));
    f = true;

    const std::size_t want = op_slot_len(nodes[e.to].desc, e.slot);
    require(want != 0,
            cat("graph: ", op_name(nodes[e.to].desc.kind),
                " node has no fusable operand slot '",
                operand_slot_name(e.slot), "'"));
    const std::size_t have = op_output_len(nodes[e.from].desc);
    require(have == want,
            cat("graph: edge ", e.from, " -> ", e.to, " slot ",
                operand_slot_name(e.slot), ": producer emits ", have,
                " values but the slot expects ", want));
  }

  // Acyclicity (throws on a cycle).
  (void)topo_order();

  // Per-node operand checks. A node with no incoming edges gets the full
  // OpDesc::validate(); an edge-fed node's remaining (external) slots must
  // at least be present — the runtime re-validates the patched descriptor
  // with the forwarded operands in place before the engine runs.
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    const OpDesc& d = nodes[i].desc;
    const auto& f = fed[i];
    if (!f[0] && !f[1] && !f[2]) {
      d.validate();
      continue;
    }
    for (OperandSlot s : {OperandSlot::A, OperandSlot::B, OperandSlot::X}) {
      if (fed[i][static_cast<std::size_t>(s)]) continue;
      if (op_slot_len(d, s) == 0) continue;  // op has no such slot
      require(slot_operand(d, s) != nullptr,
              cat("graph: node ", i, " (", op_name(d.kind),
                  "): operand '", operand_slot_name(s),
                  "' is neither provided nor edge-fed"));
    }
    if (d.kind == OpKind::Spmxv) require(d.sparse, "spmxv: missing operands");
  }
}

std::vector<std::size_t> GraphDesc::topo_order() const {
  std::vector<std::size_t> indeg(nodes.size(), 0);
  for (const auto& e : edges) ++indeg[e.to];

  // Kahn's algorithm, lowest ready index first: planning and execution
  // order are deterministic functions of the graph alone.
  std::vector<std::size_t> order;
  order.reserve(nodes.size());
  std::vector<bool> done(nodes.size(), false);
  for (std::size_t step = 0; step < nodes.size(); ++step) {
    std::size_t pick = nodes.size();
    for (std::size_t i = 0; i < nodes.size(); ++i) {
      if (!done[i] && indeg[i] == 0) { pick = i; break; }
    }
    if (pick == nodes.size()) throw ConfigError("graph: dependency cycle");
    done[pick] = true;
    order.push_back(pick);
    for (const auto& e : edges)
      if (e.from == pick) --indeg[e.to];
  }
  return order;
}

std::string GraphDesc::signature() const {
  // External operands that alias the same vector plan differently (a chain
  // stages a shared operand once), so the aliasing pattern is part of the
  // signature. Pointers are mapped to first-occurrence ordinals: the
  // signature depends on the sharing structure, never on addresses.
  std::unordered_map<const void*, int> ord;
  auto id = [&](const void* p) -> std::string {
    if (!p) return "-";
    auto [it, inserted] = ord.emplace(p, static_cast<int>(ord.size()));
    (void)inserted;
    return std::to_string(it->second);
  };

  std::ostringstream os;
  os << "g1;";
  for (const auto& node : nodes) {
    const OpDesc& d = node.desc;
    os << op_name(d.kind) << ':' << placement_name(d.placement) << ':'
       << engine_request_name(d.engine) << ':' << d.rows << 'x' << d.cols << ':'
       << d.n << ':' << d.batch << ':' << (node.keep ? 'k' : 't') << ':'
       << id(d.a) << ',' << id(d.b) << ',' << id(d.x) << ',' << id(d.sparse)
       << ',' << id(d.us) << ',' << id(d.vs) << ';';
  }
  os << '|';
  for (const auto& e : edges)
    os << e.from << '>' << e.to << ':' << operand_slot_name(e.slot) << ';';
  return os.str();
}

}  // namespace xd::host
