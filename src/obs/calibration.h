#ifndef LDLOPT_OBS_CALIBRATION_H_
#define LDLOPT_OBS_CALIBRATION_H_

#include <map>
#include <memory>
#include <optional>
#include <ostream>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "optimizer/optimizer.h"
#include "plan/processing_tree.h"
#include "storage/database.h"

namespace ldl {

/// Cost-model calibration: pairs the optimizer's per-node estimates with
/// the actuals of the run that served the query, and quantifies how good the
/// paper's section 6 bet — "a monotone, system-dependent cost model over
/// operand sizes picks good processing trees" — actually was on this run.
///
/// Two instruments:
///
///  * **q-error** per node and per query: max(est/act, act/est) of the
///    cardinality, the standard scale-free estimation-quality measure
///    (>= 1, 1 = perfect). Cardinalities below one row are clamped to 1
///    (the usual q-error floor), so empty results don't produce infinities.
///
///  * **plan regret**: re-optimize with the measured cardinalities injected
///    (MeasuredStatistics overlay) and compare the cost of the plan the
///    optimizer *chose* with the plan it *would have chosen* under perfect
///    estimates — both costed by the hindsight model. A ratio of 1 means
///    the estimation errors didn't change the decision; the paper's
///    optimality claim made measurable.

/// One executed node's estimate-vs-actual pairing.
struct NodeCalibration {
  std::string label;   ///< kind + method + goal + adornment
  std::string kind;    ///< PlanNodeKindToString
  std::string method;  ///< EL/PA label ("scan", "counting", ...)
  size_t depth = 0;    ///< tree depth, for indented rendering
  double est_rows = 0;   ///< optimizer estimate (per binding instance)
  double act_rows = 0;   ///< measured rows per binding instance
  double q_error = 1;
};

/// Chosen-vs-hindsight plan comparison, both costed under the measured
/// overlay. regret == 0 (ratio == 1) when estimation errors were harmless.
struct RegretAnalysis {
  bool computed = false;
  std::string note;  ///< why not computed, when !computed

  double est_cost_chosen = 0;       ///< what the optimizer thought it paid
  double measured_cost_chosen = 0;  ///< chosen plan under measured stats
  double measured_cost_hindsight = 0;  ///< best plan under measured stats

  /// Human-readable decision differences ("clique #0 magic -> counting",
  /// "rule 1 order [0,1] -> [1,0]"). Empty = same plan.
  std::vector<std::string> changes;

  double regret() const {
    double r = measured_cost_chosen - measured_cost_hindsight;
    return r > 0 ? r : 0;
  }
  double ratio() const {
    if (measured_cost_hindsight <= 0) return 1;
    double r = measured_cost_chosen / measured_cost_hindsight;
    return r > 1 ? r : 1;
  }
};

/// q-error = max(est/act, act/est) with both sides clamped to >= 1 row.
double QError(double est_rows, double act_rows);

/// The calibration artifact of one EXPLAIN ANALYZE run.
class CalibrationReport {
 public:
  CalibrationReport() = default;

  /// Walks `tree` pairing est_cardinality with the actual rows
  /// (NodeActualRows). Nodes without a measurement are skipped. `query`
  /// labels the report in exports.
  static CalibrationReport Build(const PlanNode& tree,
                                 const MeasuredStatistics& actuals,
                                 std::string query = "");

  const std::string& query() const { return query_; }
  const std::vector<NodeCalibration>& nodes() const { return nodes_; }
  size_t sample_count() const { return sorted_q_.size(); }

  /// Exact percentile over the per-node q-errors (linear interpolation
  /// between order statistics). p in [0, 1]; 1 when there are no samples.
  double QErrorPercentile(double p) const;
  double median_q_error() const { return QErrorPercentile(0.5); }
  double p95_q_error() const { return QErrorPercentile(0.95); }
  double max_q_error() const;

  /// Log2-bucketed q-error distributions (obs::Histogram) keyed by node
  /// kind ("SCAN"/"AND"/"OR"/"CC") and, for CC nodes, by recursion method.
  const std::map<std::string, std::unique_ptr<Histogram>>& by_kind() const {
    return by_kind_;
  }
  const std::map<std::string, std::unique_ptr<Histogram>>& by_method() const {
    return by_method_;
  }

  void set_regret(RegretAnalysis regret) { regret_ = std::move(regret); }
  const RegretAnalysis& regret() const { return regret_; }

  /// Mirrors the report into a registry: calibration.q_error{,.kind.*,
  /// .method.*} histograms, calibration.nodes counter, regret gauges.
  /// No-op on nullptr.
  void ExportTo(MetricsRegistry* metrics) const;

  /// One JSON object: query, per-node entries, aggregate percentiles,
  /// by_kind / by_method summaries, and the regret section.
  void WriteJson(std::ostream& os) const;

  /// Human-readable table plus aggregate and regret lines (the CALIBRATION
  /// and REGRET sections of EXPLAIN ANALYZE).
  std::string ToString() const;

 private:
  std::string query_;
  std::vector<NodeCalibration> nodes_;
  std::vector<double> sorted_q_;  ///< ascending
  std::map<std::string, std::unique_ptr<Histogram>> by_kind_;
  std::map<std::string, std::unique_ptr<Histogram>> by_method_;
  RegretAnalysis regret_;
};

/// The actual rows per binding instance of `node` in a served run whose
/// measurements are `actuals`: the entry for (node.goal.predicate(),
/// node.binding) of a SCAN/OR/CC node. AND and builtin nodes have none —
/// the engine computes predicates, not per-rule relations — and neither
/// has a (predicate, binding) the run did not compute.
std::optional<double> NodeActualRows(const PlanNode& node,
                                     const MeasuredStatistics& actuals);

/// Adds to `actuals` the fact-base size of every base relation a SCAN node
/// of `tree` reads, under the all-free adornment: the actual of a free
/// scan, and the true base cardinality for the regret and feedback
/// overlays whatever binding the scan runs under.
void AddScanSizes(const PlanNode& tree, const Database& db,
                  MeasuredStatistics* actuals);

/// Plan-regret analysis: re-optimizes `goal` under `measured` to find the
/// hindsight-optimal plan, costs `chosen` under the same overlay by pinning
/// its decisions (PlanConstraints), and reports both costs plus the
/// decision diff. `options` should be the options the chosen plan was
/// produced with; its measured/pinned fields are overridden internally.
/// A goal no rule of `program` defines has one plan, which derives
/// nothing: its regret is computed as zero.
RegretAnalysis ComputePlanRegret(const Program& program,
                                 const Statistics& stats,
                                 const OptimizerOptions& options,
                                 const Literal& goal, const QueryPlan& chosen,
                                 const MeasuredStatistics& measured);

}  // namespace ldl

#endif  // LDLOPT_OBS_CALIBRATION_H_
