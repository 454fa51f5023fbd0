#include "engine/counting.h"

#include <algorithm>
#include <set>
#include <sstream>

#include "engine/builtins.h"
#include "base/strings.h"
#include "graph/binding.h"
#include "graph/dependency_graph.h"

namespace ldl {

std::string CountingProgram::ToString() const {
  std::ostringstream os;
  os << "% counting rewrite; seed " << seed.ToString() << ", answers in "
     << answer_goal.ToString() << "\n";
  os << rewritten.ToString();
  return os.str();
}

namespace {

std::set<std::string> VarsOf(const Literal& lit) {
  std::vector<std::string> v;
  lit.CollectVariables(&v);
  return {v.begin(), v.end()};
}

std::set<std::string> VarsOfTerms(const std::vector<Term>& terms) {
  std::set<std::string> out;
  for (const Term& t : terms) {
    std::vector<std::string> v;
    t.CollectVariables(&v);
    out.insert(v.begin(), v.end());
  }
  return out;
}

/// ans.p(0, the free-argument terms of `query_goal`): the goal that selects
/// the query's answers from ans.p, as CountingProgram::ToString shows it.
Literal CountingAnswerGoal(const Literal& query_goal) {
  std::vector<Term> args;
  args.push_back(Term::MakeInt(0));
  for (const Term& arg : query_goal.args()) {
    if (!arg.IsGround()) args.push_back(arg);
  }
  return Literal::Make(StrCat("ans.", query_goal.predicate_name()),
                       std::move(args));
}

}  // namespace

Result<CountingProgram> CountingRewrite(const Program& program,
                                        const Literal& query_goal) {
  const PredicateId qpred = query_goal.predicate();
  if (!program.IsDerived(qpred)) {
    return Status::InvalidArgument(
        StrCat("query predicate ", qpred.ToString(), " is not derived"));
  }

  DependencyGraph graph = DependencyGraph::Build(program);
  int ci = graph.CliqueIndex(qpred);
  if (ci < 0) {
    return Status::Unsupported("counting: query predicate is not recursive");
  }
  const RecursiveClique& clique = graph.cliques()[ci];
  if (clique.predicates.size() != 1) {
    return Status::Unsupported("counting: mutual recursion not supported");
  }
  if (clique.recursive_rules.size() != 1) {
    return Status::Unsupported(
        "counting: clique must have exactly one recursive rule");
  }
  if (clique.exit_rules.empty()) {
    return Status::Unsupported("counting: clique has no exit rule");
  }

  const Adornment adn = Adornment::FromGoal(query_goal);
  if (adn.BoundCount() == 0) {
    return Status::Unsupported("counting: query has no bound argument");
  }

  const Rule& rec_rule = program.rules()[clique.recursive_rules[0]];
  // Locate the single recursive occurrence; require linearity and that all
  // other body literals are base or builtin.
  int rec_pos = -1;
  for (size_t i = 0; i < rec_rule.body().size(); ++i) {
    const Literal& lit = rec_rule.body()[i];
    if (!lit.IsBuiltin() && lit.predicate() == qpred) {
      if (lit.negated()) {
        return Status::Unsupported("counting: negated recursive literal");
      }
      if (rec_pos >= 0) {
        return Status::Unsupported("counting: nonlinear recursive rule");
      }
      rec_pos = static_cast<int>(i);
    } else if (!lit.IsBuiltin() && program.IsDerived(lit.predicate())) {
      return Status::Unsupported(
          "counting: recursive rule references another derived predicate");
    }
  }
  if (rec_pos < 0) {
    return Status::Internal("counting: recursive occurrence not found");
  }
  const Literal& rec_lit = rec_rule.body()[rec_pos];

  // Split head args into bound/free by the query adornment.
  const Literal& head = rec_rule.head();
  std::vector<Term> head_bound, head_free, rec_bound, rec_free;
  for (size_t i = 0; i < adn.size(); ++i) {
    (adn.IsBound(i) ? head_bound : head_free).push_back(head.args()[i]);
    (adn.IsBound(i) ? rec_bound : rec_free).push_back(rec_lit.args()[i]);
  }

  // Greedy up-part closure from the bound head variables.
  BoundVars bound;
  for (const Term& t : head_bound) bound.BindTerm(t);
  std::vector<bool> in_up(rec_rule.body().size(), false);
  bool changed = true;
  while (changed) {
    changed = false;
    for (size_t i = 0; i < rec_rule.body().size(); ++i) {
      if (in_up[i] || static_cast<int>(i) == rec_pos) continue;
      const Literal& lit = rec_rule.body()[i];
      std::set<std::string> vars = VarsOf(lit);
      bool touches = std::any_of(
          vars.begin(), vars.end(),
          [&bound](const std::string& v) { return bound.IsBound(v); });
      // Builtins join the up part only when computable there.
      if (lit.IsBuiltin()) {
        bool lhs_b = bound.IsTermBound(lit.args()[0]);
        bool rhs_b = bound.IsTermBound(lit.args()[1]);
        if (!BuiltinComputable(lit, lhs_b, rhs_b)) continue;
      } else if (!touches) {
        continue;
      }
      in_up[i] = true;
      PropagateBindings(lit, &bound);
      changed = true;
    }
  }

  // The recursive call's bound arguments must be computed by the up part,
  // and the call must repeat the head's adornment.
  for (const Term& t : rec_bound) {
    if (!bound.IsTermBound(t)) {
      return Status::Unsupported(
          "counting: up part does not bind the recursive call's bound "
          "arguments");
    }
  }
  for (const Term& t : rec_free) {
    if (bound.IsTermBound(t) && !t.IsGround()) {
      return Status::Unsupported(
          "counting: recursive call is not reached with the query's "
          "adornment (a free position is bound)");
    }
  }
  // A call that repeats the head's bound arguments gives the ascent
  // cnt.p(J, hb) <- cnt.p(I, hb), ..., J = I + 1: every level holds the
  // same bindings, so it never reaches a fixpoint, on any data.
  if (rec_bound == head_bound) {
    return Status::Unsupported(
        "counting: the recursive call repeats the head's bound arguments, "
        "so the ascent never converges");
  }

  // Down part: everything not in the up part (except the recursive call).
  // Separability: its variables must not overlap the up part's variables
  // except through the recursive call's free arguments.
  std::set<std::string> up_vars = VarsOfTerms(head_bound);
  for (size_t i = 0; i < rec_rule.body().size(); ++i) {
    if (in_up[i]) {
      auto v = VarsOf(rec_rule.body()[i]);
      up_vars.insert(v.begin(), v.end());
    }
  }
  std::set<std::string> rec_free_vars = VarsOfTerms(rec_free);
  std::vector<size_t> down_positions;
  std::set<std::string> down_vars = rec_free_vars;
  for (size_t i = 0; i < rec_rule.body().size(); ++i) {
    if (in_up[i] || static_cast<int>(i) == rec_pos) continue;
    std::set<std::string> vars = VarsOf(rec_rule.body()[i]);
    std::set<std::string> overlap;
    for (const auto& v : vars) {
      if (up_vars.count(v) && !rec_free_vars.count(v)) overlap.insert(v);
    }
    if (!overlap.empty()) {
      return Status::Unsupported(StrCat(
          "counting: body is not separable (down literal ",
          rec_rule.body()[i].ToString(), " shares variable '",
          *overlap.begin(), "' with the up part)"));
    }
    down_positions.push_back(i);
    down_vars.insert(vars.begin(), vars.end());
  }
  // Head free arguments must be derivable from the descent.
  {
    std::set<std::string> head_free_vars = VarsOfTerms(head_free);
    for (const auto& v : head_free_vars) {
      if (!down_vars.count(v)) {
        return Status::Unsupported(
            StrCat("counting: head free variable '", v,
                   "' is not produced by the down part"));
      }
    }
  }

  // --- Build the rewritten program. ---
  CountingProgram out;
  const std::string cnt_name = StrCat("cnt.", qpred.name);
  const std::string ans_name = StrCat("ans.", qpred.name);
  const size_t n_free = head_free.size();
  out.answer_pred = {ans_name, 1 + n_free};

  Term var_i = Term::MakeVariable("_CntI");
  Term var_j = Term::MakeVariable("_CntJ");

  // Seed: cnt.p(0, query constants at bound positions).
  {
    std::vector<Term> args;
    args.push_back(Term::MakeInt(0));
    for (size_t i = 0; i < adn.size(); ++i) {
      if (adn.IsBound(i)) args.push_back(query_goal.args()[i]);
    }
    out.seed = Literal::Make(cnt_name, std::move(args));
  }

  // Ascent: cnt.p(J, rb) <- cnt.p(I, hb), up-part, J = I + 1.
  {
    std::vector<Term> head_args;
    head_args.push_back(var_j);
    for (const Term& t : rec_bound) head_args.push_back(t);
    std::vector<Term> cnt_args;
    cnt_args.push_back(var_i);
    for (const Term& t : head_bound) cnt_args.push_back(t);
    std::vector<Literal> body;
    body.push_back(Literal::Make(cnt_name, std::move(cnt_args)));
    for (size_t i = 0; i < rec_rule.body().size(); ++i) {
      if (in_up[i]) body.push_back(rec_rule.body()[i]);
    }
    body.push_back(Literal::MakeBuiltin(
        BuiltinKind::kEq, var_j,
        Term::MakeFunction("+", {var_i, Term::MakeInt(1)})));
    out.rewritten.AddRule(
        Rule(Literal::Make(cnt_name, std::move(head_args)), std::move(body)));
  }

  // Exit rules: ans.p(I, ef) <- cnt.p(I, eb), exit-body.
  for (size_t rule_index : clique.exit_rules) {
    const Rule& exit_rule = program.rules()[rule_index];
    for (const Literal& lit : exit_rule.body()) {
      if (!lit.IsBuiltin() && program.IsDerived(lit.predicate())) {
        return Status::Unsupported(
            "counting: exit rule references a derived predicate");
      }
    }
    std::vector<Term> eb, ef;
    for (size_t i = 0; i < adn.size(); ++i) {
      (adn.IsBound(i) ? eb : ef).push_back(exit_rule.head().args()[i]);
    }
    std::vector<Term> head_args;
    head_args.push_back(var_i);
    for (const Term& t : ef) head_args.push_back(t);
    std::vector<Term> cnt_args;
    cnt_args.push_back(var_i);
    for (const Term& t : eb) cnt_args.push_back(t);
    std::vector<Literal> body;
    body.push_back(Literal::Make(cnt_name, std::move(cnt_args)));
    for (const Literal& lit : exit_rule.body()) body.push_back(lit);
    out.rewritten.AddRule(
        Rule(Literal::Make(ans_name, std::move(head_args)), std::move(body)));
  }

  // Descent: ans.p(I, hf) <- ans.p(J, rf), down-part, I = J - 1, I >= 0.
  {
    std::vector<Term> head_args;
    head_args.push_back(var_i);
    for (const Term& t : head_free) head_args.push_back(t);
    std::vector<Term> ans_args;
    ans_args.push_back(var_j);
    for (const Term& t : rec_free) ans_args.push_back(t);
    std::vector<Literal> body;
    body.push_back(Literal::Make(ans_name, std::move(ans_args)));
    for (size_t i : down_positions) body.push_back(rec_rule.body()[i]);
    body.push_back(Literal::MakeBuiltin(
        BuiltinKind::kEq, var_i,
        Term::MakeFunction("-", {var_j, Term::MakeInt(1)})));
    body.push_back(Literal::MakeBuiltin(BuiltinKind::kGe, var_i,
                                        Term::MakeInt(0)));
    out.rewritten.AddRule(
        Rule(Literal::Make(ans_name, std::move(head_args)), std::move(body)));
  }

  out.answer_goal = CountingAnswerGoal(query_goal);
  return out;
}

}  // namespace ldl
