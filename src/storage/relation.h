#ifndef LDLOPT_STORAGE_RELATION_H_
#define LDLOPT_STORAGE_RELATION_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <ostream>
#include <span>
#include <string>
#include <vector>

#include "ast/value.h"
#include "base/id_table.h"
#include "base/status.h"
#include "obs/resource.h"
#include "storage/tuple.h"

namespace ldl {

/// A set-semantics relation: duplicate-free bag of ground rows with lazily
/// built, incrementally maintained hash indexes on column subsets.
///
/// Rows are flat: one vector of Values with stride arity() (DESIGN.md
/// §25), whose ids name terms in the relation's ValueStore. Dedup, index
/// keys and distinct counts share one table type, an IdTable of row ids
/// compared through the rows they name, so a duplicate insert copies and
/// allocates nothing. The store is shared: a Database hands its store to
/// every relation it creates, and a relation built on its own makes a
/// private one on first use.
///
/// Indexes survive inserts (they are extended on next access), which matters
/// because fixpoint evaluation keeps inserting into the relations it reads.
///
/// Relations can carry an optional (non-owning) ResourceAccountant: row,
/// table and posting storage is charged as it grows and released when the
/// relation clears or dies, which is how per-query peak-bytes accounting
/// reaches scratch databases and memo tables. The exact amount charged so
/// far is tracked internally so release always balances charge.
class Relation {
 public:
  /// An index, by its position among the relation's indexes: stable until
  /// the relation is destroyed or moved from (Clear empties it, keeps it).
  using IndexId = uint32_t;

  Relation() = default;
  Relation(std::string name, size_t arity,
           std::shared_ptr<ValueStore> store = nullptr)
      : name_(std::move(name)), arity_(arity), store_(std::move(store)) {}

  ~Relation() { ChargeDelta(0, charged_bytes_); }

  Relation(const Relation& other) { *this = other; }
  Relation(Relation&& other) noexcept { *this = std::move(other); }
  /// A copy shares the source's store.
  Relation& operator=(const Relation& other);
  /// The charge moves with the data: the source is left empty, owing
  /// nothing, with its arity kept.
  Relation& operator=(Relation&& other) noexcept;

  /// Attaches (or detaches, with nullptr) a resource accountant. Current
  /// contents are re-charged against the new accountant and released from
  /// the old one, so attachment order doesn't matter.
  void set_accountant(ResourceAccountant* accountant);
  ResourceAccountant* accountant() const { return accountant_; }

  /// Estimated bytes currently charged for row, table and posting storage
  /// (plus the store growth its Term inserts caused).
  uint64_t charged_bytes() const { return charged_bytes_; }

  const std::string& name() const { return name_; }
  size_t arity() const { return arity_; }
  size_t size() const { return rows_; }
  bool empty() const { return rows_ == 0; }

  /// The store the rows' values belong to, made on first use.
  ValueStore* store() const { return shared_store().get(); }
  const std::shared_ptr<ValueStore>& shared_store() const;
  /// Moves the rows into `store` (by their terms) unless they are there.
  void UseStore(std::shared_ptr<ValueStore> store);

  /// Row `i`: arity() values of store().
  std::span<const Value> row(size_t i) const {
    return {values_.data() + i * arity_, arity_};
  }

  /// Sizes an empty relation for `rows` rows: the row storage and the
  /// dedup table they would grow to, allocated once, with the table's
  /// slots charged as growth would charge them. Capacity only: filling it
  /// gives the same rows, row ids and charged bytes as growing does. No-op
  /// for 0 rows or a relation that holds a row.
  void Reserve(size_t rows);

  /// Inserts a row of store() values; returns true iff it was new. The
  /// dedup table is probed first, so a duplicate copies nothing. Asserts
  /// the arity in debug builds; rejects a wrong one in release.
  bool InsertRow(std::span<const Value> row);
  bool ContainsRow(std::span<const Value> row) const;

  /// The index on `cols` (strictly increasing), registered on first call;
  /// its rows are indexed by the first Lookup that needs them.
  IndexId IndexFor(const std::vector<int>& cols);
  /// The index on `cols` when one is registered and a Lookup has already
  /// indexed rows into it (a later Lookup only extends it by the rows
  /// added since); nullopt otherwise, when a Lookup would build it whole.
  std::optional<IndexId> BuiltIndex(const std::vector<int>& cols) const;

  class Postings;

  /// The posting list of the rows whose values at the index's columns
  /// equal `key` (same order). Builds/extends the index on demand. When
  /// `rows_indexed` is given, the rows this call added to the index are
  /// added to it.
  Postings Lookup(IndexId index, std::span<const Value> key,
                  size_t* rows_indexed = nullptr);

  /// The Term boundary: the same operations on rows as terms, interned
  /// into store().
  bool Insert(const Tuple& t);
  bool Contains(const Tuple& t) const;
  Postings Lookup(const std::vector<int>& cols, const Tuple& key,
                  size_t* rows_indexed = nullptr);
  /// Row `i` as terms.
  Tuple tuple(size_t i) const;
  /// Every row as terms, in row order, built on each call (bind it to a
  /// `const std::vector<Tuple>&` to keep it).
  std::vector<Tuple> tuples() const;

  /// Inserts every row of `other` (arity must match); returns the number
  /// of new rows.
  size_t InsertAll(const Relation& other);

  void Clear();

  /// Number of distinct values in column `col` (over current contents).
  /// Exact and incremental: each column keeps a table of one representative
  /// row id per value, extended from its high-water mark, so a call after k
  /// inserts costs O(k). Like Lookup, it mutates that cache, so concurrent
  /// callers on one relation need outside synchronization.
  size_t DistinctCount(size_t col) const;

  std::string ToString(size_t max_tuples = 20) const;

 private:
  /// An IdTable and, for an index or a distinct table, the rows it covers:
  /// rows only append until Clear, so it is extended from there. Dedup sees
  /// each row at Insert and leaves built_upto 0.
  struct RowTable {
    IdTable ids;
    size_t built_upto = 0;
  };

  /// One index. `keys` holds group ids, each compared through the first
  /// row of its posting list at the index's columns. Every group's posting
  /// list is a slice of the one `ids` array, with a power-of-two capacity:
  /// a full slice grows in place at the end of the array, or moves to a
  /// freed slice or to the end with twice the room, leaving its old slice
  /// free for the next group of that capacity.
  struct Index {
    struct Group {
      uint32_t offset = 0;  ///< first id in `ids`
      uint32_t size = 0;
      uint32_t capacity = 0;
    };
    std::vector<int> cols;
    RowTable keys;
    std::vector<Group> groups;
    std::vector<uint32_t> ids;  // per group: ascending row ids
    /// Offsets of unused slices in `ids`, by log2 of their capacity.
    std::vector<std::vector<uint32_t>> free;

    /// Appends `row` to group `g`; returns the bytes `ids` grew by.
    size_t Append(uint32_t g, uint32_t row);
  };

  /// Indexes the rows `index` has not seen, adding their number to
  /// `*rows_indexed` when given.
  void ExtendIndex(Index* index, size_t* rows_indexed);

  /// Charges the slots `table` gained since it had `slots_before`.
  void ChargeSlots(const IdTable& table, size_t slots_before) const {
    if (table.slot_count() != slots_before) {
      ChargeDelta((table.slot_count() - slots_before) * sizeof(uint32_t), 0);
    }
  }

  /// Fresh estimate of row, table-slot and posting storage from current
  /// contents, by the formula the charges use.
  uint64_t EstimateBytes() const;

  /// Adjusts charged_bytes_ and forwards the delta to the accountant.
  /// No-op without an accountant: unattached relations track nothing, so
  /// the common (un-instrumented) path costs one branch.
  void ChargeDelta(uint64_t add, uint64_t release) const {
    if (accountant_ == nullptr) return;
    charged_bytes_ += add;
    charged_bytes_ = charged_bytes_ >= release ? charged_bytes_ - release : 0;
    if (add != 0) accountant_->AddBytes(add);
    if (release != 0) accountant_->ReleaseBytes(release);
  }

  std::string name_;
  size_t arity_ = 0;
  size_t rows_ = 0;
  std::vector<Value> values_;  // rows_ * arity_, row after row
  // Made on first use when the relation was built without one.
  mutable std::shared_ptr<ValueStore> store_;
  // Row ids keyed on all columns.
  RowTable dedup_;
  // Secondary indexes by IndexId, each on the heap so a posting list's
  // index survives new indexes. Unlike a deque, an empty vector allocates
  // nothing, and most relations (scratch, answers) are made, moved and
  // dropped without ever being indexed.
  std::vector<std::unique_ptr<Index>> indexes_;
  // Per-column tables of one row id per distinct value, built by the first
  // DistinctCount. Mutable (with charged_bytes_, which charges them)
  // because counting is a const read that caches, the way
  // Statistics::Collect uses it.
  mutable std::vector<RowTable> distinct_;
  ResourceAccountant* accountant_ = nullptr;
  mutable uint64_t charged_bytes_ = 0;
};

/// A posting list: the ascending ids of the rows in one index group. It
/// reads through the index, so it sees ids appended after the Lookup that
/// returned it, and it stays valid across inserts, lookups and moves of
/// the group's slice until Clear. Read it by position.
class Relation::Postings {
 public:
  Postings() = default;

  size_t size() const {
    return index_ == nullptr ? 0 : index_->groups[group_].size;
  }
  bool empty() const { return size() == 0; }
  uint32_t operator[](size_t i) const {
    return index_->ids[index_->groups[group_].offset + i];
  }
  /// The first position whose id is at least `id` (size() if none).
  size_t LowerBound(size_t id) const;
  std::vector<uint32_t> ToVector() const;
  bool operator==(const std::vector<uint32_t>& ids) const {
    return ToVector() == ids;
  }

  /// Iteration by position, for range-for over the current ids.
  class Iterator {
   public:
    Iterator(const Postings* p, size_t i) : p_(p), i_(i) {}
    uint32_t operator*() const { return (*p_)[i_]; }
    Iterator& operator++() {
      ++i_;
      return *this;
    }
    bool operator!=(const Iterator& o) const { return i_ != o.i_; }

   private:
    const Postings* p_;
    size_t i_;
  };
  Iterator begin() const { return Iterator(this, 0); }
  Iterator end() const { return Iterator(this, size()); }

 private:
  friend class Relation;
  Postings(const Index* index, uint32_t group)
      : index_(index), group_(group) {}

  const Index* index_ = nullptr;
  uint32_t group_ = 0;
};

std::ostream& operator<<(std::ostream& os, const Relation::Postings& p);

}  // namespace ldl

#endif  // LDLOPT_STORAGE_RELATION_H_
