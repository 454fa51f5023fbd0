#include "optimizer/project_pushdown.h"

#include <algorithm>
#include <map>
#include <set>
#include <sstream>

#include "base/strings.h"

namespace ldl {

std::string ProjectedProgram::ToString() const {
  std::ostringstream os;
  os << "% projection pushdown: dropped " << positions_dropped
     << " argument positions\n";
  for (const auto& [pred, kept] : kept_positions) {
    os << "%   " << pred.ToString() << " -> kept (";
    for (size_t i = 0; i < kept.size(); ++i) {
      if (i) os << ", ";
      os << kept[i];
    }
    os << ")\n";
  }
  os << rewritten.ToString();
  return os.str();
}

namespace {

using NeededMap = std::map<PredicateId, std::set<size_t>>;

// Variable occurrence counts across a set of literals/terms.
void CountVars(const Term& t, std::map<std::string, size_t>* counts) {
  std::vector<std::string> vars;
  t.CollectVariables(&vars);
  for (const auto& v : vars) (*counts)[v]++;
}

}  // namespace

Result<ProjectedProgram> PushProjections(const Program& program,
                                         const Literal& goal) {
  if (!program.IsDerived(goal.predicate())) {
    return Status::InvalidArgument(
        StrCat("query predicate ", goal.predicate().ToString(),
               " is not derived"));
  }

  // --- Fixpoint: which positions of each derived predicate are needed? ---
  NeededMap needed;
  {
    std::set<size_t> all;
    for (size_t i = 0; i < goal.arity(); ++i) all.insert(i);
    needed[goal.predicate()] = all;
  }

  // A worklist of rules: every rule once, then again whenever the needed
  // positions of its head grow. The needed sets only grow, so the fixpoint
  // is the one a round-robin sweep reaches, and a chain of n predicates
  // costs O(n) rule visits instead of a sweep of every rule per link.
  std::vector<size_t> work(program.rules().size());
  for (size_t i = 0; i < work.size(); ++i) work[i] = work.size() - 1 - i;
  std::vector<bool> queued(work.size(), true);
  while (!work.empty()) {
    const size_t rule_index = work.back();
    work.pop_back();
    queued[rule_index] = false;
    const Rule& rule = program.rules()[rule_index];
    const PredicateId head_pred = rule.head().predicate();
    const std::set<size_t>& head_needed = needed[head_pred];

    // Variables "consumed" inside this rule: variables of needed head
    // positions, of builtins, of negated literals.
    std::map<std::string, size_t> external;
    for (size_t i = 0; i < rule.head().arity(); ++i) {
      if (head_needed.count(i)) CountVars(rule.head().args()[i], &external);
    }
    for (const Literal& lit : rule.body()) {
      if (lit.IsBuiltin() || lit.negated()) {
        for (const Term& a : lit.args()) CountVars(a, &external);
      }
    }
    // Total occurrence counts across positive body literals.
    std::map<std::string, size_t> body_counts;
    for (const Literal& lit : rule.body()) {
      if (lit.IsBuiltin() || lit.negated()) continue;
      for (const Term& a : lit.args()) CountVars(a, &body_counts);
    }

    for (const Literal& lit : rule.body()) {
      if (lit.IsBuiltin()) continue;
      const PredicateId pred = lit.predicate();
      if (!program.IsDerived(pred)) continue;
      std::set<size_t>& pred_needed = needed[pred];
      bool grew = false;
      for (size_t k = 0; k < lit.arity(); ++k) {
        if (pred_needed.count(k)) continue;
        const Term& t = lit.args()[k];
        bool is_needed = false;
        if (lit.negated()) {
          // Dropping a position under negation changes its meaning.
          is_needed = true;
        } else if (t.kind() != TermKind::kVariable) {
          // Constants select; function terms pattern-match.
          is_needed = true;
        } else {
          const std::string& v = t.text();
          size_t in_this_literal = 0;
          for (const Term& a : lit.args()) {
            if (a.kind() == TermKind::kVariable && a.text() == v) {
              ++in_this_literal;
            }
          }
          if (external.count(v) || in_this_literal > 1 ||
              body_counts[v] > in_this_literal) {
            is_needed = true;
          }
        }
        if (is_needed && pred_needed.insert(k).second) grew = true;
      }
      if (!grew) continue;
      for (size_t dependent : program.RulesFor(pred)) {
        if (!queued[dependent]) {
          queued[dependent] = true;
          work.push_back(dependent);
        }
      }
    }
  }

  // --- Rewrite. ---
  ProjectedProgram out;
  out.goal = goal;
  auto reduced_name = [](const PredicateId& pred) {
    return StrCat(pred.name, ".pp");
  };
  auto is_reduced = [&](const PredicateId& pred) {
    if (!program.IsDerived(pred)) return false;
    auto it = needed.find(pred);
    size_t n = it == needed.end() ? 0 : it->second.size();
    return n < pred.arity;
  };
  for (const auto& [pred, keep] : needed) {
    if (!is_reduced(pred)) continue;
    std::vector<size_t> kept(keep.begin(), keep.end());
    out.positions_dropped += pred.arity - kept.size();
    out.kept_positions[pred] = std::move(kept);
  }

  auto rewrite_literal = [&](const Literal& lit) {
    if (lit.IsBuiltin() || !is_reduced(lit.predicate())) return lit;
    const auto& kept = out.kept_positions.at(lit.predicate());
    std::vector<Term> args;
    args.reserve(kept.size());
    for (size_t k : kept) args.push_back(lit.args()[k]);
    Literal renamed = lit.WithArgs(std::move(args));
    return renamed.WithPredicateName(reduced_name(lit.predicate()));
  };

  for (const Rule& rule : program.rules()) {
    Literal new_head = rewrite_literal(rule.head());
    std::vector<Literal> new_body;
    new_body.reserve(rule.body().size());
    for (const Literal& lit : rule.body()) {
      // Negated occurrences of reduced predicates would change meaning;
      // the needed-fixpoint already forced all their positions, so the
      // rewrite below is the identity for them.
      new_body.push_back(rewrite_literal(lit));
    }
    out.rewritten.AddRule(Rule(std::move(new_head), std::move(new_body)));
  }
  return out;
}

}  // namespace ldl
