#include "storage/database.h"

#include <algorithm>
#include <sstream>

#include "base/strings.h"

namespace ldl {

namespace {
// Facts up to this arity are interned into a buffer on the stack.
constexpr size_t kMaxInlineArity = 16;
}  // namespace

Relation* Database::GetOrCreate(const PredicateId& pred) {
  auto it = relations_.find(pred);
  if (it == relations_.end()) {
    it = relations_
             .emplace(pred, std::make_unique<Relation>(pred.name, pred.arity,
                                                       store_))
             .first;
    if (accountant_ != nullptr) it->second->set_accountant(accountant_);
  }
  return it->second.get();
}

void Database::UseStore(std::shared_ptr<ValueStore> store) {
  if (store == store_) return;
  store_ = std::move(store);
  for (auto& [_, rel] : relations_) rel->UseStore(store_);
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
  // Interned straight from the literal: no row of terms is built.
  Relation* rel = GetOrCreate(fact.predicate());
  ValueStore* values = rel->store();
  Value row[kMaxInlineArity];
  std::vector<Value> wide;
  Value* out = row;
  if (fact.arity() > kMaxInlineArity) {
    wide.resize(fact.arity());
    out = wide.data();
  }
  for (size_t i = 0; i < fact.arity(); ++i) {
    out[i] = values->Intern(fact.args()[i]);
  }
  rel->InsertRow({out, fact.arity()});
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
