#ifndef LDLOPT_ANALYSIS_ANALYZER_H_
#define LDLOPT_ANALYSIS_ANALYZER_H_

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "analysis/dataflow.h"
#include "analysis/diagnostic.h"
#include "ast/program.h"
#include "graph/binding.h"
#include "graph/dependency_graph.h"

namespace ldl {

class Database;
class MetricsRegistry;
class Statistics;

/// An abstract set of term sorts: which kinds of constant a column or
/// variable can hold. The lattice is a bitmask over {numeric, string,
/// symbol, function} with set union as join and intersection as meet.
/// Integers and reals form one *numeric band* — the engine compares them by
/// value (1 = 1.0 holds), so the analysis never separates them: Of() maps
/// both kInt and kReal constants to kNumeric.
class TypeSet {
 public:
  enum : uint8_t {
    kNone = 0,
    kNumeric = 1,  ///< int or real (one band, see above)
    kString = 2,
    kSymbol = 4,
    kFunction = 8,  ///< complex (constructor) terms
    kAny = 15,
  };

  TypeSet() = default;
  explicit TypeSet(uint8_t bits) : bits_(bits & kAny) {}

  static TypeSet None() { return TypeSet(kNone); }
  static TypeSet Any() { return TypeSet(kAny); }
  /// Sort of a ground (or constructor) term; variables map to Any.
  static TypeSet Of(const Term& t);
  /// The set of a value of kind `kind` (what Of reads of a term).
  static TypeSet OfKind(TermKind kind);

  bool empty() const { return bits_ == 0; }
  bool IsAny() const { return bits_ == kAny; }
  uint8_t bits() const { return bits_; }

  TypeSet Join(TypeSet other) const { return TypeSet(bits_ | other.bits_); }
  TypeSet Meet(TypeSet other) const { return TypeSet(bits_ & other.bits_); }
  bool CompatibleWith(TypeSet other) const { return !Meet(other).empty(); }

  bool operator==(TypeSet other) const { return bits_ == other.bits_; }
  bool operator!=(TypeSet other) const { return bits_ != other.bits_; }

  /// "{num,str}"; "{}" for None, "{any}" for Any.
  std::string ToString() const;

 private:
  uint8_t bits_ = 0;
};

/// One rule the analysis proved can never contribute to the query's answer.
struct DeadRule {
  size_t rule_index = 0;  ///< into Program::rules()
  std::string reason;
};

/// The result of a ProgramAnalyzer run: immutable, self-contained (does not
/// reference the analyzer), safe to hand to the optimizer by pointer.
class ProgramAnalysis {
 public:
  /// True iff the optimizer may be asked to plan `ap` when answering the
  /// analyzed goal. Conservative: returns true for base predicates, for
  /// goal-independent analyses, and whenever reachability was not fully
  /// computed (oversized rule bodies).
  bool AdornmentReachable(const AdornedPredicate& ap) const;

  bool has_goal() const { return has_goal_; }
  bool reachability_complete() const { return reachability_complete_; }
  /// Number of reachable (predicate, adornment) pairs.
  size_t reachable_pair_count() const;

  /// Inferred per-argument sorts of `pred`; empty vector when the predicate
  /// is unknown to the analysis (treat every argument as Any).
  const std::vector<TypeSet>& TypesOf(const PredicateId& pred) const;

  /// Upper bound on the predicate's cardinality from the sketch pass
  /// (recursive cliques widen to a large cap). Default-stat cardinality for
  /// unknown predicates.
  double CardinalityBound(const PredicateId& pred) const;

  bool RuleUnsatisfiable(size_t rule_index) const;
  bool RuleSubsumed(size_t rule_index) const;
  /// False only when a goal-directed analysis proved no query derivation
  /// can use the rule.
  bool RuleReachable(size_t rule_index) const;

  /// Rules provably irrelevant to the goal, ordered by rule index; the
  /// union of the unreachable / unsatisfiable / empty-body-predicate /
  /// subsumed categories.
  const std::vector<DeadRule>& dead_rules() const { return dead_rules_; }

  /// L011..L014 findings, in rule order.
  const std::vector<Diagnostic>& findings() const { return findings_; }

  const DataflowStats& type_stats() const { return type_stats_; }
  const DataflowStats& reachability_stats() const { return reach_stats_; }
  const DataflowStats& cardinality_stats() const { return card_stats_; }

  /// Publishes analysis.* counters/gauges.
  void ExportTo(MetricsRegistry* metrics) const;

  std::string ToString() const;

 private:
  friend class ProgramAnalyzer;

  bool has_goal_ = false;
  bool reachability_complete_ = false;
  std::unordered_set<PredicateId, PredicateIdHash> derived_;
  // Reachable adornments per derived predicate (ordered: deterministic
  // iteration for ToString and tests).
  std::unordered_map<PredicateId, std::set<Adornment>, PredicateIdHash>
      reachable_;
  std::unordered_map<PredicateId, std::vector<TypeSet>, PredicateIdHash>
      types_;
  std::unordered_map<PredicateId, double, PredicateIdHash> cards_;
  std::vector<uint8_t> rule_unsatisfiable_;
  std::vector<uint8_t> rule_subsumed_;
  std::vector<uint8_t> rule_reachable_;
  std::vector<DeadRule> dead_rules_;
  std::vector<Diagnostic> findings_;
  DataflowStats type_stats_;
  DataflowStats reach_stats_;
  DataflowStats card_stats_;
  double default_card_ = 100.0;
};

struct AnalyzerOptions {
  /// Optional: actual relation contents sharpen base-predicate types and
  /// expose statically-empty base relations. Without it base predicates not
  /// covered by inline facts are typed Any and assumed non-empty.
  const Database* database = nullptr;
  /// Optional: cardinalities for the sketch pass (falls back to the
  /// database's relation sizes, then to the 100-tuple default).
  const Statistics* statistics = nullptr;
  /// Emit L011/L012/L013 and use type conflicts for dead-rule detection.
  bool check_types = true;
  /// Emit L014 and use subsumption for dead-rule detection.
  bool check_subsumption = true;
  /// Reachability enumerates binding subsets per rule body (2^n); bodies
  /// longer than this make the reachability result incomplete (no pruning).
  size_t max_body_literals = 12;
  /// Subsumption matching is exponential in the subsuming body's length;
  /// longer rules are not considered as subsumers or subsumees.
  size_t max_subsumption_body = 6;
  /// Relations larger than this are typed Any instead of scanned.
  size_t max_type_seed_scan = 512;
};

/// Static semantic analysis of an LDL program: the three dataflow clients
/// of DESIGN.md section 12 (type/sort inference, adornment reachability,
/// cardinality sketching) plus rule-subsumption detection, packaged for the
/// linter (L011..L014) and the optimizer (search-space pruning, dead-rule
/// elimination).
class ProgramAnalyzer {
 public:
  /// `program` (and the options' database/statistics, when set) must
  /// outlive the analyzer.
  explicit ProgramAnalyzer(const Program& program,
                           AnalyzerOptions options = {});

  /// Goal-directed analysis: everything AnalyzeProgram() computes plus
  /// adornment reachability from `goal` and goal-dependent dead rules.
  ProgramAnalysis Analyze(const Literal& goal) const;

  /// Goal-independent analysis: types, satisfiability, subsumption,
  /// cardinality sketch. AdornmentReachable() is trivially true.
  ProgramAnalysis AnalyzeProgram() const;

  /// Runs the goal-independent analysis and reports its findings
  /// (L011..L014) into `sink`.
  void Lint(DiagnosticSink* sink) const;

  const DependencyGraph& graph() const { return graph_; }

 private:
  void InferTypes(ProgramAnalysis* a) const;
  void CheckRules(ProgramAnalysis* a) const;
  void DetectSubsumption(ProgramAnalysis* a) const;
  void ComputeReachability(const Literal& goal, ProgramAnalysis* a) const;
  void SketchCardinalities(ProgramAnalysis* a) const;
  void CollectDeadRules(const Literal* goal, ProgramAnalysis* a) const;

  std::vector<TypeSet> BaseTypes(const PredicateId& pred) const;

  const Program& program_;
  AnalyzerOptions options_;
  DependencyGraph graph_;
};

/// Result of stripping a program of its dead rules.
struct DeadRuleElimination {
  Program program;                    ///< surviving rules + facts + queries
  std::vector<size_t> removed_rules;  ///< original indices, ascending
  std::vector<std::string> reasons;   ///< parallel to removed_rules
};

/// Removes `analysis.dead_rules()` from `program`. Answer-preserving for
/// the analyzed goal: removed rules are unreachable from it, statically
/// unsatisfiable, or subsumed by a surviving rule. Note that rule indices
/// shift, so index-keyed optimizer inputs (pinned constraints, SIP orders)
/// must refer to the *pruned* program.
DeadRuleElimination EliminateDeadRules(const Program& program,
                                      const ProgramAnalysis& analysis);

}  // namespace ldl

#endif  // LDLOPT_ANALYSIS_ANALYZER_H_
