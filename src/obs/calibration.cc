#include "obs/calibration.h"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <utility>

#include "base/json.h"
#include "base/strings.h"
#include "engine/fixpoint.h"

namespace ldl {
namespace {

/// Same vocabulary as PlanNode::Label(), EXPLAIN's node labels, minus the
/// rule/clique suffixes, so the CALIBRATION table reads against the PLAN
/// table line by line.
std::string NodeLabel(const PlanNode& node) {
  std::string label = PlanNodeKindToString(node.kind);
  label += node.materialized ? " [mat]" : " [pipe]";
  if (!node.method.empty()) StrAppend(&label, " ", node.method);
  StrAppend(&label, " ", node.goal.ToString());
  if (node.binding.size() > 0) StrAppend(&label, " :", node.binding.ToString());
  return label;
}

void RecordInto(std::map<std::string, std::unique_ptr<Histogram>>* hists,
                const std::string& key, double v) {
  std::unique_ptr<Histogram>& h = (*hists)[key];
  if (h == nullptr) h = std::make_unique<Histogram>();
  h->Record(v);
}

void WriteHistogramGroup(
    std::ostream& os,
    const std::map<std::string, std::unique_ptr<Histogram>>& hists) {
  os << '{';
  bool first = true;
  for (const auto& [key, h] : hists) {
    if (!first) os << ',';
    first = false;
    os << '"' << JsonEscape(key) << "\":{\"count\":" << h->count()
       << ",\"p50\":" << json::Number(h->percentile(0.5))
       << ",\"p95\":" << json::Number(h->percentile(0.95))
       << ",\"max\":" << json::Number(h->max()) << '}';
  }
  os << '}';
}

std::string OrderToString(const std::vector<size_t>& order) {
  return StrCat("[", StrJoin(order, ",", [](size_t i) { return StrCat(i); }),
                "]");
}

}  // namespace

double QError(double est_rows, double act_rows) {
  // Clamp both sides to one row (the customary q-error floor): an estimate
  // of 0.25 rows against an empty actual is "right", not infinitely wrong.
  double est = std::max(est_rows, 1.0);
  double act = std::max(act_rows, 1.0);
  return std::max(est / act, act / est);
}

CalibrationReport CalibrationReport::Build(const PlanNode& tree,
                                           const MeasuredStatistics& actuals,
                                           std::string query) {
  CalibrationReport report;
  report.query_ = std::move(query);

  struct Frame {
    const PlanNode* node;
    size_t depth;
  };
  // Pre-order walk with an explicit stack (children pushed reversed so
  // they pop in order).
  std::vector<Frame> stack = {{&tree, 0}};
  while (!stack.empty()) {
    Frame f = stack.back();
    stack.pop_back();
    for (auto it = f.node->children.rbegin(); it != f.node->children.rend();
         ++it) {
      stack.push_back({it->get(), f.depth + 1});
    }
    const PlanNode& node = *f.node;
    const std::optional<double> act = NodeActualRows(node, actuals);
    if (!act) continue;  // no measurement

    NodeCalibration nc;
    nc.label = NodeLabel(node);
    nc.kind = PlanNodeKindToString(node.kind);
    nc.method = node.method;
    nc.depth = f.depth;
    nc.est_rows = node.est_cardinality;
    nc.act_rows = *act;
    nc.q_error = QError(nc.est_rows, nc.act_rows);

    report.sorted_q_.push_back(nc.q_error);
    RecordInto(&report.by_kind_, nc.kind, nc.q_error);
    if (node.kind == PlanNodeKind::kCc && !nc.method.empty()) {
      RecordInto(&report.by_method_, nc.method, nc.q_error);
    }
    report.nodes_.push_back(std::move(nc));
  }
  std::sort(report.sorted_q_.begin(), report.sorted_q_.end());
  return report;
}

double CalibrationReport::QErrorPercentile(double p) const {
  if (sorted_q_.empty()) return 1;
  if (p <= 0) return sorted_q_.front();
  if (p >= 1) return sorted_q_.back();
  // Exact order statistics with linear interpolation between neighbours.
  double rank = p * static_cast<double>(sorted_q_.size() - 1);
  size_t lo = static_cast<size_t>(rank);
  size_t hi = std::min(lo + 1, sorted_q_.size() - 1);
  double frac = rank - static_cast<double>(lo);
  return sorted_q_[lo] + frac * (sorted_q_[hi] - sorted_q_[lo]);
}

double CalibrationReport::max_q_error() const {
  return sorted_q_.empty() ? 1 : sorted_q_.back();
}

void CalibrationReport::ExportTo(MetricsRegistry* metrics) const {
  if (metrics == nullptr) return;
  metrics->counter("calibration.nodes")->Increment(nodes_.size());
  for (const NodeCalibration& nc : nodes_) {
    metrics->histogram("calibration.q_error")->Record(nc.q_error);
    metrics->histogram(StrCat("calibration.q_error.kind.", nc.kind))
        ->Record(nc.q_error);
    if (nc.kind == std::string("CC") && !nc.method.empty()) {
      metrics->histogram(StrCat("calibration.q_error.method.", nc.method))
          ->Record(nc.q_error);
    }
  }
  metrics->gauge("calibration.q_error.median")->Set(median_q_error());
  metrics->gauge("calibration.q_error.p95")->Set(p95_q_error());
  if (regret_.computed) {
    metrics->gauge("calibration.regret")->Set(regret_.regret());
    metrics->gauge("calibration.regret.ratio")->Set(regret_.ratio());
  }
}

void CalibrationReport::WriteJson(std::ostream& os) const {
  os << "{\"query\":\"" << JsonEscape(query_) << "\",\"nodes\":[";
  bool first = true;
  for (const NodeCalibration& nc : nodes_) {
    if (!first) os << ',';
    first = false;
    os << "{\"label\":\"" << JsonEscape(nc.label) << "\",\"kind\":\""
       << JsonEscape(nc.kind) << "\",\"method\":\"" << JsonEscape(nc.method)
       << "\",\"depth\":" << nc.depth
       << ",\"est_rows\":" << json::Number(nc.est_rows)
       << ",\"act_rows\":" << json::Number(nc.act_rows)
       << ",\"q_error\":" << json::Number(nc.q_error) << '}';
  }
  os << "],\"aggregate\":{\"nodes\":" << nodes_.size()
     << ",\"median_q_error\":" << json::Number(median_q_error())
     << ",\"p95_q_error\":" << json::Number(p95_q_error())
     << ",\"max_q_error\":" << json::Number(max_q_error())
     << "},\"by_kind\":";
  WriteHistogramGroup(os, by_kind_);
  os << ",\"by_method\":";
  WriteHistogramGroup(os, by_method_);
  os << ",\"regret\":{\"computed\":" << (regret_.computed ? "true" : "false")
     << ",\"note\":\"" << JsonEscape(regret_.note)
     << "\",\"est_cost_chosen\":" << json::Number(regret_.est_cost_chosen)
     << ",\"measured_cost_chosen\":"
     << json::Number(regret_.measured_cost_chosen)
     << ",\"measured_cost_hindsight\":"
     << json::Number(regret_.measured_cost_hindsight)
     << ",\"regret\":" << json::Number(regret_.regret())
     << ",\"ratio\":" << json::Number(regret_.ratio()) << ",\"changes\":[";
  first = true;
  for (const std::string& c : regret_.changes) {
    if (!first) os << ',';
    first = false;
    os << '"' << JsonEscape(c) << '"';
  }
  os << "]}}";
}

std::string CalibrationReport::ToString() const {
  struct Row {
    std::string label;
    std::vector<std::string> cells;
  };
  std::vector<Row> rows;
  for (const NodeCalibration& nc : nodes_) {
    Row row;
    row.label = std::string(nc.depth * 2, ' ') + nc.label;
    row.cells = {StrCat(nc.est_rows), StrCat(nc.act_rows), StrCat(nc.q_error)};
    rows.push_back(std::move(row));
  }

  const std::vector<std::string> headers = {"EST ROWS", "ACT ROWS", "Q-ERR"};
  size_t label_width = 11;  // "CALIBRATION"
  for (const Row& row : rows) {
    label_width = std::max(label_width, row.label.size());
  }
  std::vector<size_t> widths(headers.size());
  for (size_t c = 0; c < headers.size(); ++c) {
    widths[c] = headers[c].size();
    for (const Row& row : rows) {
      widths[c] = std::max(widths[c], row.cells[c].size());
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
      os << cells[c];
    }
    os << '\n';
  };
  emit("CALIBRATION", headers);
  size_t total = label_width;
  for (size_t w : widths) total += 2 + w;
  os << std::string(total, '-') << '\n';
  for (const Row& row : rows) emit(row.label, row.cells);

  os << "aggregate: " << nodes_.size() << " nodes, q-error median "
     << StrCat(median_q_error()) << " p95 " << StrCat(p95_q_error())
     << " max " << StrCat(max_q_error()) << '\n';
  auto emit_group =
      [&](const char* title,
          const std::map<std::string, std::unique_ptr<Histogram>>& hists) {
        if (hists.empty()) return;
        os << title;
        bool first = true;
        for (const auto& [key, h] : hists) {
          if (!first) os << "  |";
          first = false;
          os << ' ' << key << " n=" << h->count()
             << " p50=" << StrCat(h->percentile(0.5))
             << " max=" << StrCat(h->max());
        }
        os << '\n';
      };
  emit_group("by kind:  ", by_kind_);
  emit_group("by method:", by_method_);

  os << "REGRET\n";
  if (!regret_.computed) {
    os << "  not computed: " << regret_.note << '\n';
  } else {
    os << "  est cost (chosen plan):        "
       << StrCat(regret_.est_cost_chosen) << '\n'
       << "  measured cost (chosen plan):   "
       << StrCat(regret_.measured_cost_chosen) << '\n'
       << "  measured cost (hindsight-opt): "
       << StrCat(regret_.measured_cost_hindsight) << '\n'
       << "  regret: " << StrCat(regret_.regret()) << " (ratio "
       << StrCat(regret_.ratio()) << ")\n";
    if (regret_.changes.empty()) {
      os << "  hindsight plan: identical decisions\n";
    } else {
      for (const std::string& c : regret_.changes) {
        os << "  hindsight change: " << c << '\n';
      }
    }
  }
  return os.str();
}

std::optional<double> NodeActualRows(const PlanNode& node,
                                     const MeasuredStatistics& actuals) {
  if (node.kind == PlanNodeKind::kAnd ||
      node.kind == PlanNodeKind::kBuiltin) {
    return std::nullopt;
  }
  const double* rows = actuals.Find(node.goal.predicate(), node.binding);
  if (rows == nullptr) return std::nullopt;
  return *rows;
}

void AddScanSizes(const PlanNode& tree, const Database& db,
                  MeasuredStatistics* actuals) {
  std::vector<const PlanNode*> stack = {&tree};
  while (!stack.empty()) {
    const PlanNode* node = stack.back();
    stack.pop_back();
    for (const auto& child : node->children) stack.push_back(child.get());
    if (node->kind != PlanNodeKind::kScan) continue;
    const PredicateId pred = node->goal.predicate();
    const Relation* rel = db.Find(pred);
    actuals->Set(pred, Adornment::AllFree(pred.arity),
                 rel == nullptr ? 0.0 : static_cast<double>(rel->size()));
  }
}

RegretAnalysis ComputePlanRegret(const Program& program,
                                 const Statistics& stats,
                                 const OptimizerOptions& options,
                                 const Literal& goal, const QueryPlan& chosen,
                                 const MeasuredStatistics& measured) {
  RegretAnalysis out;
  out.est_cost_chosen = chosen.TotalCost();
  if (!chosen.safe) {
    out.note = "chosen plan is unsafe";
    return out;
  }
  if (!program.IsDerived(goal.predicate())) {
    // No rule defines the goal (dead-rule elimination removed them all):
    // its one plan derives nothing, in hindsight too.
    out.computed = true;
    return out;
  }
  if (measured.empty()) {
    out.note = "no measured statistics (nothing executed)";
    return out;
  }

  OptimizerOptions hind = options;
  hind.measured = &measured;
  hind.pinned = nullptr;
  hind.verify_plans = false;
  hind.trace = TraceContext{};  // hindsight runs are analysis, not workload

  Optimizer hindsight_opt(program, stats, hind);
  Result<QueryPlan> hindsight = hindsight_opt.Optimize(goal);
  if (!hindsight.ok()) {
    out.note = StrCat("hindsight optimization failed: ",
                      hindsight.status().message());
    return out;
  }
  if (!hindsight->safe) {
    out.note = StrCat("hindsight plan unsafe: ", hindsight->unsafe_reason);
    return out;
  }

  // Cost the *chosen* plan under the same measured model by pinning its
  // decisions and re-running. Best-effort pins (see PlanConstraints) make
  // this total even when a pinned order is unsafe under some adornment.
  PlanConstraints pins;
  pins.rule_orders = chosen.rule_orders;
  pins.clique_methods = chosen.clique_methods;
  OptimizerOptions pinned_options = hind;
  pinned_options.pinned = &pins;
  Optimizer pinned_opt(program, stats, pinned_options);
  Result<QueryPlan> pinned = pinned_opt.Optimize(goal);
  if (!pinned.ok()) {
    out.note =
        StrCat("pinned re-costing failed: ", pinned.status().message());
    return out;
  }
  if (!pinned->safe) {
    out.note = StrCat("pinned plan unsafe: ", pinned->unsafe_reason);
    return out;
  }

  out.measured_cost_chosen = pinned->TotalCost();
  out.measured_cost_hindsight = hindsight->TotalCost();
  // The hindsight search minimizes over a space containing the pinned plan;
  // floating-point noise aside it is never worse. Clamp so regret >= 0 holds
  // exactly and identical runs report exactly zero.
  if (out.measured_cost_hindsight > out.measured_cost_chosen) {
    out.measured_cost_hindsight = out.measured_cost_chosen;
  }
  out.computed = true;

  // Decision diff: what perfect estimates would have changed.
  if (hindsight->top_method != chosen.top_method) {
    out.changes.push_back(StrCat("top method ",
                                 RecursionMethodToString(chosen.top_method),
                                 " -> ",
                                 RecursionMethodToString(hindsight->top_method)));
  }
  for (const auto& [clique, method] : hindsight->clique_methods) {
    auto it = chosen.clique_methods.find(clique);
    if (it != chosen.clique_methods.end() && it->second != method) {
      out.changes.push_back(StrCat("clique #", clique, " method ",
                                   RecursionMethodToString(it->second), " -> ",
                                   RecursionMethodToString(method)));
    }
  }
  for (const auto& [rule, order] : hindsight->rule_orders) {
    auto it = chosen.rule_orders.find(rule);
    if (it != chosen.rule_orders.end() && it->second != order) {
      out.changes.push_back(StrCat("rule ", rule, " order ",
                                   OrderToString(it->second), " -> ",
                                   OrderToString(order)));
    }
  }
  return out;
}

}  // namespace ldl
