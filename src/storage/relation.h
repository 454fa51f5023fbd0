#ifndef LDLOPT_STORAGE_RELATION_H_
#define LDLOPT_STORAGE_RELATION_H_

#include <cstdint>
#include <deque>
#include <map>
#include <string>
#include <vector>

#include "base/status.h"
#include "obs/resource.h"
#include "storage/tuple.h"

namespace ldl {

/// A set-semantics relation: duplicate-free bag of ground tuples with
/// lazily built, incrementally maintained hash indexes on column subsets.
/// Dedup, index keys and distinct counts share one table type, RowTable,
/// which stores row ids and compares through the rows they name.
///
/// Indexes survive inserts (they are extended on next access), which matters
/// because fixpoint evaluation keeps inserting into the relations it reads.
///
/// Relations can carry an optional (non-owning) ResourceAccountant: tuple
/// and index storage is charged as it grows and released when the relation
/// clears or dies, which is how per-query peak-bytes accounting reaches
/// scratch databases and memo tables. The exact amount charged so far is
/// tracked internally so release always balances charge even if the
/// estimation formula evolves.
class Relation {
 public:
  Relation() = default;
  Relation(std::string name, size_t arity)
      : name_(std::move(name)), arity_(arity) {}

  ~Relation() { ChargeDelta(0, charged_bytes_); }

  Relation(const Relation& other) { *this = other; }
  Relation(Relation&& other) noexcept { *this = std::move(other); }
  Relation& operator=(const Relation& other);
  /// The charge moves with the data: the source is left empty, owing
  /// nothing, with its arity kept.
  Relation& operator=(Relation&& other) noexcept;

  /// Attaches (or detaches, with nullptr) a resource accountant. Current
  /// contents are re-charged against the new accountant and released from
  /// the old one, so attachment order doesn't matter.
  void set_accountant(ResourceAccountant* accountant);
  ResourceAccountant* accountant() const { return accountant_; }

  /// Estimated bytes currently charged for tuple + index storage.
  uint64_t charged_bytes() const { return charged_bytes_; }

  const std::string& name() const { return name_; }
  size_t arity() const { return arity_; }
  size_t size() const { return tuples_.size(); }
  bool empty() const { return tuples_.empty(); }

  const std::vector<Tuple>& tuples() const { return tuples_; }
  const Tuple& tuple(size_t i) const { return tuples_[i]; }

  /// Inserts `t`; returns true iff the tuple was new. CHECK-fails on arity
  /// mismatch in debug builds; silently rejects in release.
  bool Insert(Tuple t);

  /// Inserts every tuple of `other` (arity must match); returns the number
  /// of new tuples.
  size_t InsertAll(const Relation& other);

  bool Contains(const Tuple& t) const;

  void Clear();

  /// Posting list of tuple ids whose values at `cols` equal `key` (same
  /// order). `cols` must be strictly increasing. Builds/extends the index
  /// on demand. Ids ascend. The list is an element of a deque that only
  /// grows at its end, so the reference survives later inserts and lookups
  /// (which only append to the list) until Clear; walk it by position, as
  /// its buffer may move. When `rows_indexed` is given, the rows this call
  /// added to the index are added to it.
  const std::vector<uint32_t>& Lookup(const std::vector<int>& cols,
                                      const Tuple& key,
                                      size_t* rows_indexed = nullptr);

  /// Number of distinct values in column `col` (over current contents).
  /// Exact and incremental: each column keeps a table of one representative
  /// row id per value, extended from its high-water mark, so a call after k
  /// inserts costs O(k). Like Lookup, it mutates that cache, so concurrent
  /// callers on one relation need outside synchronization.
  size_t DistinctCount(size_t col) const;

  std::string ToString(size_t max_tuples = 20) const;

 private:
  /// An open-addressing table of row ids (linear probing, load at most one
  /// half, doubling). It holds no values: each use hashes and compares
  /// through the rows its ids name, so no Term is ever copied into it.
  struct RowTable {
    std::vector<uint32_t> slots;  // an id or kEmptySlot; size 0 or 2^k
    size_t count = 0;             // occupied slots
    // Rows only append until Clear, so an index or distinct table is
    // extended from here; dedup sees each row at Insert and leaves it 0.
    size_t built_upto = 0;
  };

  /// Adds `id` to `table` unless an id that `same` accepts is there, and
  /// returns the id the table holds for the probed value. `hash` is that
  /// value's hash, and `hash_of(id)` re-hashes stored ids when the table
  /// doubles. Charges the slots it adds.
  template <typename Same, typename HashOf>
  uint32_t FindOrAdd(RowTable* table, size_t hash, const Same& same,
                     const HashOf& hash_of, uint32_t id) const;

  /// One index: `keys` holds group ids, each compared through the first
  /// row of its posting list at the index's columns. A posting list is a
  /// deque element so a reference to it survives new groups (see Lookup).
  struct Index {
    RowTable keys;
    std::deque<std::vector<uint32_t>> postings;  // per group: ascending ids
  };

  void ExtendIndex(const std::vector<int>& cols, Index* index);

  /// Fresh estimate of tuple, table-slot and posting storage from current
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
  std::vector<Tuple> tuples_;
  // Row ids keyed on all columns.
  RowTable dedup_;
  // Secondary indexes keyed by the (sorted) column list.
  std::map<std::vector<int>, Index> indexes_;
  // Per-column tables of one row id per distinct value, built by the first
  // DistinctCount. Mutable (with charged_bytes_, which charges them)
  // because counting is a const read that caches, the way
  // Statistics::Collect uses it.
  mutable std::vector<RowTable> distinct_;
  ResourceAccountant* accountant_ = nullptr;
  mutable uint64_t charged_bytes_ = 0;
};

}  // namespace ldl

#endif  // LDLOPT_STORAGE_RELATION_H_
