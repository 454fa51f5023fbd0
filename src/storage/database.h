#ifndef LDLOPT_STORAGE_DATABASE_H_
#define LDLOPT_STORAGE_DATABASE_H_

#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "ast/literal.h"
#include "base/status.h"
#include "storage/relation.h"

namespace ldl {

/// The fact base: named relations keyed by predicate name/arity.
/// Relations are owned by the database; engine components hold raw pointers
/// whose lifetime is bounded by the database's. Every relation it creates
/// shares the database's ValueStore (DESIGN.md §25); a per-run scratch
/// database is made on its base's store, so rows move between them as
/// values.
class Database {
 public:
  /// A database with a store of its own.
  Database() : store_(std::make_shared<ValueStore>()) {}
  /// A database whose relations share `store` (a scratch database).
  explicit Database(std::shared_ptr<ValueStore> store)
      : store_(std::move(store)) {}

  // Movable, not copyable (relations can be large).
  Database(Database&&) = default;
  Database& operator=(Database&&) = default;
  Database(const Database&) = delete;
  Database& operator=(const Database&) = delete;

  /// Returns the relation for `pred`, creating an empty one if absent.
  Relation* GetOrCreate(const PredicateId& pred);

  ValueStore* store() const { return store_.get(); }
  const std::shared_ptr<ValueStore>& shared_store() const { return store_; }
  /// Moves every relation into `store` (Relation::UseStore), and creates
  /// later ones there: how a run makes a scratch database share its base's
  /// store.
  void UseStore(std::shared_ptr<ValueStore> store);

  /// Attaches a resource accountant to every current relation and to
  /// relations created later; nullptr detaches. Used on per-query scratch
  /// databases so derived-tuple storage counts against the query's budget.
  void set_accountant(ResourceAccountant* accountant);
  ResourceAccountant* accountant() const { return accountant_; }

  /// Returns the relation or nullptr.
  Relation* Find(const PredicateId& pred);
  const Relation* Find(const PredicateId& pred) const;

  bool Exists(const PredicateId& pred) const { return Find(pred) != nullptr; }

  /// Inserts a ground fact literal, creating the relation on demand.
  Status AddFact(const Literal& fact);

  /// OK iff AddFact would accept `fact`: a positive, ground, non-builtin
  /// literal.
  static Status CheckFact(const Literal& fact);

  /// All predicates with a (possibly empty) relation, sorted by name.
  std::vector<PredicateId> Predicates() const;

  size_t TotalTuples() const;

  std::string ToString() const;

 private:
  std::shared_ptr<ValueStore> store_;
  std::unordered_map<PredicateId, std::unique_ptr<Relation>, PredicateIdHash>
      relations_;
  ResourceAccountant* accountant_ = nullptr;
};

}  // namespace ldl

#endif  // LDLOPT_STORAGE_DATABASE_H_
