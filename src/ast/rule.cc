#include "ast/rule.h"

#include <algorithm>
#include <set>
#include <sstream>

namespace ldl {

std::vector<std::string> Rule::Variables() const {
  std::vector<std::string> all;
  head_.CollectVariables(&all);
  for (const Literal& l : body_) l.CollectVariables(&all);
  std::vector<std::string> out;
  std::set<std::string> seen;
  for (auto& v : all) {
    if (seen.insert(v).second) out.push_back(v);
  }
  return out;
}

std::set<std::string> Rule::GroundedVariables() const {
  // Variables grounded directly by positive non-builtin literals.
  std::set<std::string> grounded;
  for (const Literal& l : body_) {
    if (l.IsBuiltin() || l.negated()) continue;
    std::vector<std::string> vars;
    l.CollectVariables(&vars);
    grounded.insert(vars.begin(), vars.end());
  }
  // Propagate through `=` builtins until fixpoint: X = expr grounds X when
  // all of expr's variables are grounded (and vice versa).
  bool changed = true;
  while (changed) {
    changed = false;
    for (const Literal& l : body_) {
      if (l.builtin() != BuiltinKind::kEq) continue;
      const Term& lhs = l.args()[0];
      const Term& rhs = l.args()[1];
      auto all_ground = [&grounded](const Term& t) {
        std::vector<std::string> vars;
        t.CollectVariables(&vars);
        return std::all_of(vars.begin(), vars.end(),
                           [&grounded](const std::string& v) {
                             return grounded.count(v) > 0;
                           });
      };
      auto ground_all = [&grounded, &changed](const Term& t) {
        std::vector<std::string> vars;
        t.CollectVariables(&vars);
        for (auto& v : vars) {
          if (grounded.insert(v).second) changed = true;
        }
      };
      if (all_ground(rhs) && !all_ground(lhs)) ground_all(lhs);
      if (all_ground(lhs) && !all_ground(rhs)) ground_all(rhs);
    }
  }
  return grounded;
}

bool Rule::IsRangeRestricted() const {
  const std::set<std::string> grounded = GroundedVariables();
  std::vector<std::string> head_vars;
  head_.CollectVariables(&head_vars);
  return std::all_of(
      head_vars.begin(), head_vars.end(),
      [&grounded](const std::string& v) { return grounded.count(v) > 0; });
}

std::string Rule::ToString() const {
  std::ostringstream os;
  os << head_.ToString();
  if (!body_.empty()) {
    os << " <- ";
    bool first = true;
    for (const Literal& l : body_) {
      if (!first) os << ", ";
      first = false;
      os << l.ToString();
    }
  }
  os << '.';
  return os.str();
}

std::ostream& operator<<(std::ostream& os, const Rule& rule) {
  return os << rule.ToString();
}

}  // namespace ldl
