#include "plan/explain.h"

#include <iterator>
#include <sstream>
#include <vector>

#include "base/strings.h"

namespace ldl {
namespace {

struct Row {
  std::string label;
  std::vector<std::string> cells;
};

void CollectRows(const PlanNode& node, size_t depth,
                 const NodeActualRowsFn& actual_rows, std::vector<Row>* rows) {
  Row row;
  row.label = std::string(depth * 2, ' ') + node.Label();
  row.cells.push_back(StrCat(node.est_cost));
  row.cells.push_back(StrCat(node.est_cardinality));
  if (actual_rows) {
    const std::optional<double> act = actual_rows(node);
    row.cells.push_back(act ? StrCat(*act) : "-");
  }
  rows->push_back(std::move(row));
  for (const auto& child : node.children) {
    CollectRows(*child, depth + 1, actual_rows, rows);
  }
}

}  // namespace

std::string RenderExplain(const PlanNode& tree,
                          const NodeActualRowsFn& actual_rows) {
  std::vector<Row> rows;
  CollectRows(tree, 0, actual_rows, &rows);

  std::vector<std::string> headers = {"EST COST", "EST ROWS"};
  if (actual_rows) headers.push_back("ROWS");

  size_t label_width = 4;  // "PLAN"
  for (const Row& row : rows) {
    if (row.label.size() > label_width) label_width = row.label.size();
  }
  std::vector<size_t> widths(headers.size());
  for (size_t c = 0; c < headers.size(); ++c) {
    widths[c] = headers[c].size();
    for (const Row& row : rows) {
      if (row.cells[c].size() > widths[c]) widths[c] = row.cells[c].size();
    }
  }

  std::ostringstream os;
  auto emit = [&](const std::string& label,
                  const std::vector<std::string>& cells) {
    os << label;
    for (size_t i = label.size(); i < label_width; ++i) os << ' ';
    for (size_t c = 0; c < cells.size(); ++c) {
      os << "  ";
      for (size_t i = cells[c].size(); i < widths[c]; ++i) os << ' ';
      os << cells[c];  // right-aligned numeric columns
    }
    os << '\n';
  };

  emit("PLAN", headers);
  size_t total = label_width;
  for (size_t w : widths) total += 2 + w;
  os << std::string(total, '-') << '\n';
  for (const Row& row : rows) emit(row.label, row.cells);
  return os.str();
}

std::string RenderExplainOptimize(const SearchTracer& tracer,
                                  size_t max_candidate_lines) {
  std::ostringstream os;
  os << "SEARCH OPTIMIZE\n";

  // Disposition summary.
  constexpr CandidateDisposition kAll[] = {
      CandidateDisposition::kKept, CandidateDisposition::kDominated,
      CandidateDisposition::kPrunedBound, CandidateDisposition::kPrunedUnsafe,
      CandidateDisposition::kMemoHit,
      CandidateDisposition::kPrunedUnreachable};
  os << "  " << tracer.candidates().size() << " candidates recorded";
  if (tracer.dropped_candidates() > 0) {
    os << " (+" << tracer.dropped_candidates() << " dropped at cap)";
  }
  os << ":";
  for (CandidateDisposition d : kAll) {
    os << " " << tracer.CountDisposition(d) << " "
       << CandidateDispositionToString(d);
    if (d != kAll[std::size(kAll) - 1]) os << ",";
  }
  os << "\n\n";

  // Scope nesting depths for indentation.
  const auto& scopes = tracer.scopes();
  std::vector<size_t> depth(scopes.size(), 0);
  for (size_t i = 0; i < scopes.size(); ++i) {
    if (scopes[i].parent >= 0) {
      depth[i] = depth[static_cast<size_t>(scopes[i].parent)] + 1;
    }
  }

  // Candidate log in recorded order, a scope header whenever the scope
  // changes (the search is depth-first, so runs per scope are contiguous
  // enough to read as a tree).
  uint32_t last_scope = UINT32_MAX;
  size_t lines = 0;
  for (const SearchCandidate& c : tracer.candidates()) {
    if (lines >= max_candidate_lines) {
      os << "  ... (" << tracer.candidates().size() - lines
         << " more candidates not shown)\n";
      break;
    }
    if (c.scope != last_scope && c.scope < scopes.size()) {
      os << std::string(2 + 2 * depth[c.scope], ' ') << scopes[c.scope].label
         << ":\n";
      last_scope = c.scope;
    }
    const size_t d = c.scope < scopes.size() ? depth[c.scope] + 1 : 1;
    os << std::string(2 + 2 * d, ' ') << "["
       << CandidateDispositionToString(c.disposition) << "] cost "
       << StrCat(c.cost);
    std::vector<size_t> order = tracer.OrderOf(c);
    if (!order.empty()) {
      os << "  order";
      for (size_t idx : order) os << " " << idx;
    }
    const std::string& detail = tracer.DetailOf(c);
    if (!detail.empty()) os << "  -- " << detail;
    os << "\n";
    ++lines;
  }

  // The final memo lattice: Figure 7-1's per-binding table.
  os << "\nMEMO LATTICE (" << tracer.memo().size() << " entries)\n";
  for (const MemoNodeInfo& node : tracer.memo()) {
    os << "  " << (node.winning ? "* " : "  ") << node.key;
    if (!node.safe) {
      os << "  UNSAFE";
      if (!node.note.empty()) os << " (" << node.note << ")";
    } else {
      os << "  cost " << StrCat(node.cost) << "  card "
         << StrCat(node.card);
      if (!node.method.empty()) os << "  via " << node.method;
    }
    if (!node.children.empty()) {
      os << "  <- ";
      for (size_t i = 0; i < node.children.size(); ++i) {
        if (i) os << ", ";
        const uint32_t child = node.children[i];
        os << (child < tracer.memo().size() ? tracer.memo()[child].key
                                            : std::string("?"));
      }
    }
    os << "\n";
  }
  os << "  (* = on the chosen plan)\n";
  return os.str();
}

}  // namespace ldl
