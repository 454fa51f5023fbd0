#include "analysis/linter.h"

#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "base/strings.h"
#include "graph/dependency_graph.h"

namespace ldl {

namespace {

SourceLocation RuleLoc(size_t index, const Rule& rule) {
  return SourceLocation::ForRule(index, rule.ToString());
}

}  // namespace

ProgramLinter::ProgramLinter(const Program& program, LintOptions options)
    : program_(program), options_(options) {}

void ProgramLinter::Lint(DiagnosticSink* sink) const {
  if (options_.check_structure) CheckStructure(sink);
  if (options_.check_arity) CheckArities(sink);
  if (options_.check_range) CheckRangeRestriction(sink);
  if (options_.check_stratification) CheckStratification(sink);
  if (options_.check_undefined) CheckUndefined(sink);
  if (options_.check_unused) CheckUnused(sink);
  if (options_.check_duplicates) CheckDuplicates(sink);
  if (options_.check_singletons) CheckSingletons(sink);
}

void ProgramLinter::CheckArities(DiagnosticSink* sink) const {
  // First-seen arity per predicate name; later uses with another arity are
  // reported where they occur.
  std::map<std::string, size_t> arity_of;
  auto check = [&](const Literal& l, SourceLocation loc) {
    if (l.IsBuiltin()) return;
    auto [it, inserted] = arity_of.emplace(l.predicate_name(), l.arity());
    if (!inserted && it->second != l.arity()) {
      sink->Error("L001",
                  StrCat("predicate ", l.predicate_name(), " used with arity ",
                         l.arity(), " but previously with arity ", it->second),
                  std::move(loc));
    }
  };
  for (size_t i = 0; i < program_.rules().size(); ++i) {
    const Rule& rule = program_.rules()[i];
    check(rule.head(), RuleLoc(i, rule));
    for (const Literal& l : rule.body()) check(l, RuleLoc(i, rule));
  }
  for (const Literal& f : program_.facts()) {
    check(f, SourceLocation::For(StrCat("fact: ", f.ToString())));
  }
  for (const QueryForm& q : program_.queries()) {
    check(q.goal, SourceLocation::For(StrCat("query: ", q.ToString())));
  }
}

void ProgramLinter::CheckRangeRestriction(DiagnosticSink* sink) const {
  for (size_t i = 0; i < program_.rules().size(); ++i) {
    const Rule& rule = program_.rules()[i];
    std::set<std::string> grounded = rule.GroundedVariables();
    std::vector<std::string> head_vars;
    rule.head().CollectVariables(&head_vars);
    std::set<std::string> reported;
    for (const std::string& v : head_vars) {
      if (grounded.count(v) || !reported.insert(v).second) continue;
      sink->Error("L002",
                  StrCat("head variable ", v,
                         " is not range-restricted: it never appears in a "
                         "positive body literal (directly or through `=`)"),
                  RuleLoc(i, rule));
    }
  }
}

void ProgramLinter::CheckSingletons(DiagnosticSink* sink) const {
  for (size_t i = 0; i < program_.rules().size(); ++i) {
    const Rule& rule = program_.rules()[i];
    std::vector<std::string> all;
    rule.head().CollectVariables(&all);
    for (const Literal& l : rule.body()) l.CollectVariables(&all);
    std::map<std::string, size_t> counts;
    for (const std::string& v : all) counts[v]++;
    for (const auto& [name, count] : counts) {
      if (count != 1 || name.empty() || name[0] == '_') continue;
      sink->Warning("L003",
                    StrCat("singleton variable ", name,
                           " (prefix it with _ if intentional)"),
                    RuleLoc(i, rule));
    }
  }
}

void ProgramLinter::CheckStratification(DiagnosticSink* sink) const {
  DependencyGraph graph = DependencyGraph::Build(program_);
  bool reported = false;
  for (size_t i = 0; i < program_.rules().size(); ++i) {
    const Rule& rule = program_.rules()[i];
    int head_clique = graph.CliqueIndex(rule.head().predicate());
    if (head_clique < 0) continue;
    for (const Literal& l : rule.body()) {
      if (!l.negated() || l.IsBuiltin()) continue;
      if (graph.CliqueIndex(l.predicate()) == head_clique) {
        sink->Error("L004",
                    StrCat("unstratified negation: not ", l.predicate().ToString(),
                           " negates a predicate in the head's own recursive "
                           "clique"),
                    RuleLoc(i, rule));
        reported = true;
      }
    }
  }
  // The per-rule scan pinpoints same-clique negation; the graph-level check
  // additionally rejects negative cycles that cross clique boundaries.
  if (!reported) {
    Status st = graph.CheckStratified();
    if (!st.ok()) sink->Error("L004", st.message());
  }
}

void ProgramLinter::CheckUndefined(DiagnosticSink* sink) const {
  std::set<PredicateId> facts;
  for (const Literal& f : program_.facts()) facts.insert(f.predicate());
  std::set<PredicateId> seen;
  auto check = [&](const Literal& l, SourceLocation loc) {
    if (l.IsBuiltin()) return;
    const PredicateId pred = l.predicate();
    if (program_.IsDerived(pred) || facts.count(pred)) return;
    if (!seen.insert(pred).second) return;
    sink->Warning("L005",
                  StrCat("predicate ", pred.ToString(),
                         " is defined by no rule or fact; it must be a base "
                         "relation loaded into the database"),
                  std::move(loc));
  };
  for (size_t i = 0; i < program_.rules().size(); ++i) {
    const Rule& rule = program_.rules()[i];
    for (const Literal& l : rule.body()) check(l, RuleLoc(i, rule));
  }
  for (const QueryForm& q : program_.queries()) {
    check(q.goal, SourceLocation::For(StrCat("query: ", q.ToString())));
  }
}

void ProgramLinter::CheckUnused(DiagnosticSink* sink) const {
  // Without a query there is no entry point to compute reachability from:
  // the file is a library and every head is exported.
  if (program_.queries().empty()) return;
  DependencyGraph graph = DependencyGraph::Build(program_);
  // One walk from every query predicate over head -> body edges.
  std::set<PredicateId> used;
  std::vector<PredicateId> stack;
  for (const QueryForm& q : program_.queries()) {
    if (used.insert(q.goal.predicate()).second) {
      stack.push_back(q.goal.predicate());
    }
  }
  while (!stack.empty()) {
    const PredicateId cur = std::move(stack.back());
    stack.pop_back();
    for (const PredicateId& next : graph.BodyPredicatesOf(cur)) {
      if (used.insert(next).second) stack.push_back(next);
    }
  }
  for (const PredicateId& pred : program_.DerivedPredicates()) {
    if (!used.count(pred)) {
      sink->Warning("L006",
                    StrCat("derived predicate ", pred.ToString(),
                           " is not reachable from any query"),
                    SourceLocation::For(pred.ToString()));
    }
  }
}

void ProgramLinter::CheckDuplicates(DiagnosticSink* sink) const {
  std::map<std::string, size_t> first;
  for (size_t i = 0; i < program_.rules().size(); ++i) {
    const Rule& rule = program_.rules()[i];
    auto [it, inserted] = first.emplace(rule.ToString(), i);
    if (!inserted) {
      sink->Warning("L007",
                    StrCat("duplicate of rule ", it->second),
                    RuleLoc(i, rule));
    }
  }
}

void ProgramLinter::CheckStructure(DiagnosticSink* sink) const {
  for (size_t i = 0; i < program_.rules().size(); ++i) {
    const Rule& rule = program_.rules()[i];
    if (rule.head().IsBuiltin()) {
      sink->Error("L008", StrCat("builtin as rule head: ",
                                 rule.head().ToString()),
                  RuleLoc(i, rule));
    } else if (rule.head().negated()) {
      sink->Error("L008", StrCat("negated rule head: ",
                                 rule.head().ToString()),
                  RuleLoc(i, rule));
    }
    for (const Literal& l : rule.body()) {
      if (l.IsBuiltin() && l.negated()) {
        sink->Error("L008",
                    StrCat("negation applied to builtin: ", l.ToString()),
                    RuleLoc(i, rule));
      }
    }
  }
  for (const Literal& f : program_.facts()) {
    bool ground = true;
    for (const Term& t : f.args()) ground = ground && t.IsGround();
    if (!ground) {
      sink->Error("L009", StrCat("non-ground fact: ", f.ToString()),
                  SourceLocation::For(StrCat("fact: ", f.ToString())));
    }
  }
}

Status LintProgram(const Program& program, LintOptions options) {
  DiagnosticSink sink;
  ProgramLinter(program, options).Lint(&sink);
  return sink.ToStatus(StatusCode::kInvalidArgument);
}

}  // namespace ldl
