#ifndef LDLOPT_STORAGE_RELATION_H_
#define LDLOPT_STORAGE_RELATION_H_

#include <cstdint>
#include <map>
#include <string>
#include <unordered_map>
#include <vector>

#include "base/status.h"
#include "obs/resource.h"
#include "storage/tuple.h"

namespace ldl {

/// A set-semantics relation: duplicate-free bag of ground tuples with
/// lazily built, incrementally maintained hash indexes on column subsets.
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

  Relation(const Relation& other)
      : name_(other.name_),
        arity_(other.arity_),
        tuples_(other.tuples_),
        dedup_(other.dedup_),
        indexes_(other.indexes_),
        distinct_(other.distinct_),
        accountant_(other.accountant_) {
    charged_bytes_ = 0;
    ChargeDelta(other.charged_bytes_, 0);
  }
  Relation& operator=(const Relation& other) {
    if (this == &other) return *this;
    ChargeDelta(0, charged_bytes_);
    name_ = other.name_;
    arity_ = other.arity_;
    tuples_ = other.tuples_;
    dedup_ = other.dedup_;
    indexes_ = other.indexes_;
    distinct_ = other.distinct_;
    accountant_ = other.accountant_;
    charged_bytes_ = 0;
    ChargeDelta(other.charged_bytes_, 0);
    return *this;
  }
  Relation(Relation&& other) noexcept
      : name_(std::move(other.name_)),
        arity_(other.arity_),
        tuples_(std::move(other.tuples_)),
        dedup_(std::move(other.dedup_)),
        indexes_(std::move(other.indexes_)),
        distinct_(std::move(other.distinct_)),
        accountant_(other.accountant_),
        charged_bytes_(other.charged_bytes_) {
    // The charge moves with the data: the source no longer owes anything.
    other.charged_bytes_ = 0;
    other.tuples_.clear();
    other.dedup_.clear();
    other.indexes_.clear();
    other.distinct_.clear();
  }
  Relation& operator=(Relation&& other) noexcept {
    if (this == &other) return *this;
    ChargeDelta(0, charged_bytes_);
    name_ = std::move(other.name_);
    arity_ = other.arity_;
    tuples_ = std::move(other.tuples_);
    dedup_ = std::move(other.dedup_);
    indexes_ = std::move(other.indexes_);
    distinct_ = std::move(other.distinct_);
    accountant_ = other.accountant_;
    charged_bytes_ = other.charged_bytes_;
    other.charged_bytes_ = 0;
    other.tuples_.clear();
    other.dedup_.clear();
    other.indexes_.clear();
    other.distinct_.clear();
    return *this;
  }

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
  /// on demand. Ids ascend. The list is a node of a hash map, so its
  /// address survives later inserts (which only append to it) until Clear.
  const std::vector<uint32_t>& Lookup(const std::vector<int>& cols,
                                      const Tuple& key);

  /// Number of distinct values in column `col` (over current contents).
  /// Exact and incremental: each column keeps a table of one representative
  /// row id per value, extended from its high-water mark, so a call after k
  /// inserts costs O(k). Like Lookup, it mutates that cache, so concurrent
  /// callers on one relation need outside synchronization.
  size_t DistinctCount(size_t col) const;

  std::string ToString(size_t max_tuples = 20) const;

 private:
  struct Index {
    // Key: projected column values. Value: ids of matching tuples.
    std::unordered_map<Tuple, std::vector<uint32_t>, TupleHash> postings;
    size_t built_upto = 0;  // tuples_[0, built_upto) are indexed
  };

  void ExtendIndex(const std::vector<int>& cols, Index* index);

  /// The distinct values of one column: an open-addressing (linear probing)
  /// table of row ids, one per value, hashed by Term::Hash and compared
  /// through tuples_[row][col], so no Term is copied. Rows are only ever
  /// appended until Clear, so the table stays valid and is extended from
  /// `built_upto`, exactly like an Index.
  struct DistinctSet {
    std::vector<uint32_t> slots;  // row id or kEmptySlot; size 0 or 2^k
    size_t count = 0;             // occupied slots = distinct values
    size_t built_upto = 0;        // tuples_[0, built_upto) are counted
  };

  void ExtendDistinct(size_t col, DistinctSet* set) const;
  /// Inserts row `row`'s value of column `col` into `set` unless an equal
  /// value is already there. `set` must have a free slot.
  void AddDistinct(size_t col, uint32_t row, DistinctSet* set) const;

  /// Fresh estimate of tuple, dedup, index and distinct-table storage from
  /// current contents.
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
  // Dedup structure: hash -> tuple ids with that hash.
  std::unordered_map<size_t, std::vector<uint32_t>> dedup_;
  // Secondary indexes keyed by the (sorted) column list.
  std::map<std::vector<int>, Index> indexes_;
  // Per-column distinct-value tables, built by the first DistinctCount.
  // Mutable (with charged_bytes_, which charges them) because counting is
  // a const read that caches, the way Statistics::Collect uses it.
  mutable std::vector<DistinctSet> distinct_;
  ResourceAccountant* accountant_ = nullptr;
  mutable uint64_t charged_bytes_ = 0;
};

}  // namespace ldl

#endif  // LDLOPT_STORAGE_RELATION_H_
