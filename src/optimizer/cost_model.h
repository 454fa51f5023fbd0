#ifndef LDLOPT_OPTIMIZER_COST_MODEL_H_
#define LDLOPT_OPTIMIZER_COST_MODEL_H_

#include <functional>
#include <limits>
#include <map>
#include <string>
#include <unordered_map>
#include <vector>

#include "ast/literal.h"
#include "graph/binding.h"
#include "storage/statistics.h"

namespace ldl {

/// Unsafe executions are modeled by infinite cost (paper section 6: "the
/// cost function should guarantee an infinite cost if the size approaches
/// infinity", used to encode the unsafe property).
inline constexpr double kInfiniteCost =
    std::numeric_limits<double>::infinity();

/// Tunable constants of the cost model. The paper treats cost formulae as a
/// system-dependent black box; these options let benchmarks ablate the
/// model (e.g. IO-weighted vs CPU-weighted) without touching the search.
struct CostModelOptions {
  double tuple_cost = 1.0;        ///< examining one stored tuple
  double output_cost = 0.2;       ///< producing one result tuple
  double index_probe_cost = 1.2;  ///< initiating one index lookup
  double builtin_cost = 0.05;     ///< evaluating one builtin instance
  double materialize_cost = 0.1;  ///< writing one tuple to a temporary

  /// Selectivity guesses for comparison builtins (System R tradition).
  double comparison_selectivity = 1.0 / 3.0;
  double ne_selectivity = 0.9;
  double negation_selectivity = 0.5;

  /// Recursion estimation (see OptimizeClique): assumed fixpoint depth D.
  double assumed_recursion_depth = 8.0;
  /// Magic sets do roughly (binding selectivity x total) work, times this
  /// bookkeeping overhead.
  double magic_overhead = 2.0;
  /// Counting improves on magic by skipping the supplementary joins.
  double counting_discount = 0.5;
  /// Naive re-derives each round: roughly D/2 redundant passes.
  double naive_rederivation_factor = 0.5;

  bool enable_index_join = true;
};

/// A cost/cardinality estimate for evaluating one subquery (a conjunct
/// item) under a given adornment.
struct PlanEstimate {
  /// One-time cost (materializing a subtree pays its full evaluation here).
  double setup = 0;
  /// Cost per binding instance of the bound arguments.
  double per_binding = 0;
  /// Expected result tuples per binding instance (total size when the
  /// adornment is all-free).
  double card = 1;
  bool safe = true;

  static PlanEstimate Unsafe() {
    PlanEstimate e;
    e.setup = kInfiniteCost;
    e.per_binding = kInfiniteCost;
    e.safe = false;
    return e;
  }
};

/// One literal of a conjunct, with a callback that estimates its evaluation
/// under any adornment. Base literals estimate from catalog statistics;
/// derived literals are backed by the optimizer's (predicate, adornment)
/// memo — which is how NR-OPT's "optimize each subtree once per binding"
/// plugs into conjunct costing.
struct ConjunctItem {
  Literal literal;
  /// Estimate for evaluating the item under `adn`, given that it will be
  /// invoked once per each of `outer_card` bindings. The outer cardinality
  /// lets the estimate resolve the MP (materialize vs pipeline) decision
  /// locally: materialization amortizes setup over the outer bindings.
  std::function<PlanEstimate(const Adornment& adn, double outer_card)>
      estimate;
  /// For KBZ's query graph: all-free cardinality and per-column distinct
  /// counts.
  double base_cardinality = 1;
  std::vector<double> distinct;
  /// True for items whose cardinality math should be computed by the cost
  /// model from base_cardinality/distinct with symmetric join selectivities
  /// (1/max(d1, d2)); set by MakeBaseItem. Derived subqueries instead go
  /// through `estimate`. The symmetric model makes subset cardinalities
  /// order-independent, which is what makes the Selinger DP exact.
  /// (Caveat: a literal with a repeated variable, r(V, V), re-introduces
  /// order dependence; DP is then a near-optimal heuristic.)
  bool use_catalog = false;
};

/// Builds a ConjunctItem for a base-relation literal from statistics.
ConjunctItem MakeBaseItem(const Literal& lit, const Statistics& stats,
                          const CostModelOptions& options);

/// Measured ("hindsight") cardinalities keyed by (predicate, adornment):
/// the rows per binding a served run computed (QueryResult::derived_sizes,
/// LdlSystem::AnalyzeCalibrated). The optimizer accepts one as an overlay
/// (OptimizerOptions::measured): wherever the cost model would use an
/// estimated cardinality for a (predicate, binding) pair that was actually
/// executed, the measured per-binding row count is injected instead.
/// Re-optimizing under the overlay yields the plan the optimizer *would
/// have chosen* with perfect estimates — the basis of plan-regret analysis
/// (obs/calibration.h).
///
/// Cardinalities are per binding instance, matching PlanEstimate::card: the
/// all-free entry of a predicate is its total measured size.
class MeasuredStatistics {
 public:
  void Set(const PredicateId& pred, const Adornment& adn, double card) {
    cards_[AdornedPredicate{pred, adn}] = card;
  }

  /// Measured per-binding cardinality, or nullptr when that (predicate,
  /// adornment) was never executed.
  const double* Find(const PredicateId& pred, const Adornment& adn) const {
    auto it = cards_.find(AdornedPredicate{pred, adn});
    return it == cards_.end() ? nullptr : &it->second;
  }

  bool empty() const { return cards_.empty(); }
  size_t size() const { return cards_.size(); }

  /// Sorted snapshot of every (key, cardinality) pair — the iteration
  /// surface the feedback statistics catalog (obs/feedback.h) ingests.
  std::vector<std::pair<AdornedPredicate, double>> Entries() const;

  /// Injects the measured truth into a catalog-backed base item: the
  /// all-free measured size replaces base_cardinality (and caps the
  /// per-column distinct counts, since distinct <= cardinality), and the
  /// estimate callback overrides its cardinality for any adornment that was
  /// measured. The overlay must outlive the item.
  void AdjustBaseItem(ConjunctItem* item) const;

  std::string ToString() const;

 private:
  std::unordered_map<AdornedPredicate, double, AdornedPredicateHash> cards_;
};

/// Running state of a left-to-right walk over a conjunct order.
struct StepState {
  double cost = 0;
  double card = 1;  ///< current number of intermediate bindings
  BoundVars bound;
  /// Estimated number of distinct values each bound variable ranges over
  /// (min of the distinct counts of the columns that produced it); drives
  /// the symmetric 1/max(d1, d2) join selectivity.
  std::map<std::string, double> domains;
  bool safe = true;
  size_t steps = 0;
};

/// Folds `item`'s per-column distinct counts into the variable-domain map
/// (min per variable). Order-independent; used by ApplyStep and by the DP
/// strategy when it reconstructs per-subset states.
void AbsorbDomains(const ConjunctItem& item,
                   std::map<std::string, double>* domains);

/// Result of costing one complete order.
struct SequenceCost {
  double cost = kInfiniteCost;
  double out_card = 0;
  bool safe = false;
};

/// The cost model: computes the cost of executing a conjunct (one rule
/// body) in a given order under given initial bindings, choosing the
/// cheapest join method per step (the EL label becomes a local decision,
/// exactly as in section 7.1).
class CostModel {
 public:
  explicit CostModel(CostModelOptions options = {})
      : options_(std::move(options)) {}

  const CostModelOptions& options() const { return options_; }

  /// Applies one item to the running state: checks effective computability
  /// (builtins/negation), adds the method-minimal step cost, updates the
  /// intermediate cardinality and the bound variables. On an EC violation
  /// the state becomes unsafe with infinite cost — the paper's
  /// prune-by-infinity treatment of unsafe permutations (section 8.2).
  void ApplyStep(const ConjunctItem& item, StepState* state) const;

  /// Folds ApplyStep over `order`. `initial` carries the head variables
  /// bound by the caller's adornment.
  SequenceCost CostSequence(const std::vector<ConjunctItem>& items,
                            const std::vector<size_t>& order,
                            const BoundVars& initial) const;

 private:
  CostModelOptions options_;
};

}  // namespace ldl

#endif  // LDLOPT_OPTIMIZER_COST_MODEL_H_
