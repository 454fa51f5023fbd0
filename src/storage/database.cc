#include "storage/database.h"

#include <algorithm>
#include <sstream>

#include "base/strings.h"

namespace ldl {

Relation* Database::GetOrCreate(const PredicateId& pred) {
  auto it = relations_.find(pred);
  if (it == relations_.end()) {
    it = relations_
             .emplace(pred,
                      std::make_unique<Relation>(pred.name, pred.arity))
             .first;
    if (accountant_ != nullptr) it->second->set_accountant(accountant_);
  }
  return it->second.get();
}

void Database::set_accountant(ResourceAccountant* accountant) {
  accountant_ = accountant;
  for (auto& [_, rel] : relations_) rel->set_accountant(accountant);
}

Relation* Database::Find(const PredicateId& pred) {
  auto it = relations_.find(pred);
  return it == relations_.end() ? nullptr : it->second.get();
}

const Relation* Database::Find(const PredicateId& pred) const {
  auto it = relations_.find(pred);
  return it == relations_.end() ? nullptr : it->second.get();
}

Status Database::CheckFact(const Literal& fact) {
  if (fact.IsBuiltin() || fact.negated()) {
    return Status::InvalidArgument(
        StrCat("not a storable fact: ", fact.ToString()));
  }
  for (const Term& a : fact.args()) {
    if (!a.IsGround()) {
      return Status::InvalidArgument(
          StrCat("non-ground fact: ", fact.ToString()));
    }
  }
  return Status::OK();
}

Status Database::AddFact(const Literal& fact) {
  LDL_RETURN_NOT_OK(CheckFact(fact));
  GetOrCreate(fact.predicate())->Insert(Tuple(fact.args()));
  return Status::OK();
}

std::vector<PredicateId> Database::Predicates() const {
  std::vector<PredicateId> out;
  out.reserve(relations_.size());
  for (const auto& [pred, _] : relations_) out.push_back(pred);
  std::sort(out.begin(), out.end());
  return out;
}

size_t Database::TotalTuples() const {
  size_t n = 0;
  for (const auto& [_, rel] : relations_) n += rel->size();
  return n;
}

std::string Database::ToString() const {
  std::ostringstream os;
  for (const PredicateId& pred : Predicates()) {
    os << Find(pred)->ToString() << "\n";
  }
  return os.str();
}

}  // namespace ldl
