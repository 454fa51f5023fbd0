#include "ast/program.h"

#include <algorithm>
#include <map>
#include <sstream>

#include "base/strings.h"

namespace ldl {

void Program::AddRule(Rule rule) {
  rules_by_head_[rule.head().predicate()].push_back(rules_.size());
  rules_.push_back(std::move(rule));
}

void Program::AddFact(Literal fact) { facts_.push_back(std::move(fact)); }

void Program::AddQuery(QueryForm query) { queries_.push_back(std::move(query)); }

const std::vector<size_t>& Program::RulesFor(const PredicateId& pred) const {
  static const auto* empty = new std::vector<size_t>();
  auto it = rules_by_head_.find(pred);
  return it == rules_by_head_.end() ? *empty : it->second;
}

bool Program::IsDerived(const PredicateId& pred) const {
  return rules_by_head_.count(pred) > 0;
}

std::vector<PredicateId> Program::DerivedPredicates() const {
  std::vector<PredicateId> out;
  out.reserve(rules_by_head_.size());
  for (const auto& [pred, _] : rules_by_head_) out.push_back(pred);
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<PredicateId> Program::BasePredicates() const {
  std::map<PredicateId, bool> seen;
  for (const Rule& r : rules_) {
    for (const Literal& l : r.body()) {
      if (l.IsBuiltin()) continue;
      if (!IsDerived(l.predicate())) seen[l.predicate()] = true;
    }
  }
  for (const Literal& f : facts_) {
    if (!IsDerived(f.predicate())) seen[f.predicate()] = true;
  }
  std::vector<PredicateId> out;
  for (const auto& [pred, _] : seen) out.push_back(pred);
  return out;
}

namespace {

/// Checks `l` against the arities in `known` and in `added`, recording its
/// predicate in `added` when `known` lacks it.
Status CheckLiteral(const Literal& l, const Program::Arities& known,
                    Program::Arities* added) {
  if (l.IsBuiltin()) {
    if (l.negated()) {
      return Status::InvalidArgument(
          StrCat("negation applied to builtin: ", l.ToString()));
    }
    return Status::OK();
  }
  auto it = known.find(l.predicate_name());
  const size_t arity =
      it != known.end()
          ? it->second
          : added->emplace(l.predicate_name(), l.arity()).first->second;
  if (arity != l.arity()) {
    return Status::InvalidArgument(StrCat("predicate ", l.predicate_name(),
                                          " used with arities ", arity,
                                          " and ", l.arity()));
  }
  return Status::OK();
}

Status CheckRule(const Rule& r, const Program::Arities& known,
                 Program::Arities* added) {
  if (r.head().IsBuiltin()) {
    return Status::InvalidArgument(
        StrCat("builtin as rule head: ", r.head().ToString()));
  }
  if (r.head().negated()) {
    return Status::InvalidArgument(
        StrCat("negated rule head: ", r.head().ToString()));
  }
  LDL_RETURN_NOT_OK(CheckLiteral(r.head(), known, added));
  for (const Literal& l : r.body()) {
    LDL_RETURN_NOT_OK(CheckLiteral(l, known, added));
  }
  return Status::OK();
}

}  // namespace

Status Program::Validate() const {
  const Arities none;
  Arities arity_of;
  for (const Rule& r : rules_) {
    LDL_RETURN_NOT_OK(CheckRule(r, none, &arity_of));
  }
  for (const Literal& f : facts_) {
    LDL_RETURN_NOT_OK(CheckLiteral(f, none, &arity_of));
    bool ground = true;
    for (const Term& t : f.args()) ground = ground && t.IsGround();
    if (!ground) {
      return Status::InvalidArgument(
          StrCat("non-ground fact: ", f.ToString()));
    }
  }
  for (const QueryForm& q : queries_) {
    LDL_RETURN_NOT_OK(CheckLiteral(q.goal, none, &arity_of));
  }
  return Status::OK();
}

Status Program::ValidateAdditions(Arities* arities) const {
  Arities added;
  for (const Rule& r : rules_) {
    LDL_RETURN_NOT_OK(CheckRule(r, *arities, &added));
  }
  for (const QueryForm& q : queries_) {
    LDL_RETURN_NOT_OK(CheckLiteral(q.goal, *arities, &added));
  }
  arities->merge(added);
  return Status::OK();
}

std::string Program::ToString() const {
  std::ostringstream os;
  for (const Literal& f : facts_) os << f.ToString() << ".\n";
  for (const Rule& r : rules_) os << r.ToString() << "\n";
  for (const QueryForm& q : queries_) os << q.ToString() << "\n";
  return os.str();
}

}  // namespace ldl
