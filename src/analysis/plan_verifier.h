#ifndef LDLOPT_ANALYSIS_PLAN_VERIFIER_H_
#define LDLOPT_ANALYSIS_PLAN_VERIFIER_H_

#include "analysis/diagnostic.h"
#include "ast/program.h"
#include "base/status.h"
#include "graph/dependency_graph.h"
#include "plan/processing_tree.h"

namespace ldl {

/// Knobs for plan verification. The label allowances mirror
/// OptimizerOptions::enable_magic / enable_counting: a plan labeled with a
/// method the optimizer was not allowed to choose is a bug.
struct PlanVerifierOptions {
  bool allow_magic = true;
  bool allow_counting = true;
};

/// Structural invariant checker for processing trees (paper §4/§5). The
/// optimizer's search only rewrites plans through equivalence-preserving
/// transformations, so every tree it emits must satisfy:
///
///   V001 error  coverage: an AND node's children are exactly its rule's
///               body literals under a valid body_order permutation; an OR
///               node's children are exactly the rules defining its
///               predicate; a CC node carries one valid c-permutation per
///               clique rule
///   V002 error  binding propagation: under an annotated AND node, child
///               adornments equal the left-to-right sideways-information-
///               passing walk of the rule body in execution order; OR nodes
///               pass their binding through to each alternative; a
///               pipelined OR under an all-free binding is inconsistent
///               with its marking
///   V003 error  effective computability: an annotated AND node's chosen
///               body order is EC under its incoming adornment (CheckRuleEc,
///               paper §8.1)
///   V004 error  method labels: every node's method is available for its
///               kind (EL label sets of §5); CC methods are restricted to
///               {naive, seminaive, magic, counting} and to the methods the
///               options allow
///   V005 error  goal/schema consistency: leaves scan base relations only,
///               builtin nodes hold builtin goals, OR/CC goals are derived
///               (and recursive iff CC), child goals match the parent's
///               expectation, CC clique data matches the program's
///               dependency graph
///   V006 error  shape: adornments are empty or goal-arity-sized;
///               projections are sorted, duplicate-free column sets in range
///
/// The verifier checks the non-FU execution space (the space the paper's
/// optimizer searches): trees produced by TransformFlatten inline rule
/// bodies and intentionally fail the V001 coverage check.
class PlanVerifier {
 public:
  /// `program` must be the program the tree was built from, and must
  /// outlive the verifier.
  explicit PlanVerifier(const Program& program,
                        PlanVerifierOptions options = {});

  /// Walks the tree, appending violations to `sink`. Returns OK iff no
  /// errors were reported.
  Status Verify(const PlanNode& root, DiagnosticSink* sink) const;

  /// Convenience: verify without keeping the diagnostics; the status
  /// message aggregates every error.
  Status Verify(const PlanNode& root) const;

 private:
  void VerifyNode(const PlanNode& node, DiagnosticSink* sink) const;
  void VerifyShape(const PlanNode& node, DiagnosticSink* sink) const;
  void VerifyMethod(const PlanNode& node, DiagnosticSink* sink) const;
  void VerifyScan(const PlanNode& node, DiagnosticSink* sink) const;
  void VerifyBuiltin(const PlanNode& node, DiagnosticSink* sink) const;
  void VerifyAnd(const PlanNode& node, DiagnosticSink* sink) const;
  void VerifyOr(const PlanNode& node, DiagnosticSink* sink) const;
  void VerifyCc(const PlanNode& node, DiagnosticSink* sink) const;

  const Program& program_;
  PlanVerifierOptions options_;
  DependencyGraph graph_;
};

}  // namespace ldl

#endif  // LDLOPT_ANALYSIS_PLAN_VERIFIER_H_
