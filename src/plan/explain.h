#ifndef LDLOPT_PLAN_EXPLAIN_H_
#define LDLOPT_PLAN_EXPLAIN_H_

#include <functional>
#include <optional>
#include <string>

#include "obs/search_trace.h"
#include "plan/processing_tree.h"

namespace ldl {

/// EXPLAIN / EXPLAIN ANALYZE rendering of an annotated processing tree.
///
/// Without `actual_rows` the output is the estimate-only EXPLAIN view: one
/// row per node showing the tree structure (AND/OR/CC/SCAN/BUILTIN,
/// [mat]/[pipe] marks, method labels, adornments) with the optimizer's cost
/// and cardinality estimates in aligned columns.
///
/// With it the output becomes EXPLAIN ANALYZE: a ROWS column next to the
/// estimates, holding the actual rows per binding instance that
/// `actual_rows` reports for the node, or "-" where it reports none.
using NodeActualRowsFn = std::function<std::optional<double>(const PlanNode&)>;
std::string RenderExplain(const PlanNode& tree,
                          const NodeActualRowsFn& actual_rows = nullptr);

/// EXPLAIN OPTIMIZE rendering of a recorded search: a disposition summary,
/// the candidate log grouped under its search scopes (indented by scope
/// nesting, each candidate with disposition, estimated cost, proposed order
/// and detail), and the final (predicate, adornment) -> Subplan memo
/// lattice with the winning entries marked. `max_candidate_lines` bounds
/// the candidate log for terminal use; the tail is summarized, never
/// silently dropped.
std::string RenderExplainOptimize(const SearchTracer& tracer,
                                  size_t max_candidate_lines = 200);

}  // namespace ldl

#endif  // LDLOPT_PLAN_EXPLAIN_H_
