#include "storage/relation.h"

#include <algorithm>
#include <cassert>
#include <sstream>

namespace ldl {

std::string TupleToString(const Tuple& t) {
  std::ostringstream os;
  os << '(';
  bool first = true;
  for (const Term& v : t) {
    if (!first) os << ", ";
    first = false;
    os << v;
  }
  os << ')';
  return os.str();
}

size_t ApproxTermBytes(const Term& t) {
  size_t n = sizeof(Term) + t.text().size();
  if (t.IsFunction()) {
    for (const Term& a : t.args()) n += ApproxTermBytes(a);
  }
  return n;
}

size_t ApproxTupleBytes(const Tuple& t) {
  size_t n = sizeof(Tuple);
  for (const Term& v : t) n += ApproxTermBytes(v);
  return n;
}

namespace {

// Per-tuple overhead of the dedup map entry (hash key + one posting id).
constexpr size_t kDedupEntryBytes = sizeof(size_t) + sizeof(uint32_t);

// An unused DistinctSet slot (row ids are below 2^32 - 1).
constexpr uint32_t kEmptySlot = ~uint32_t{0};

// Smallest DistinctSet table; tables double when half full.
constexpr size_t kMinDistinctSlots = 16;

// Home slot of `value` in a table of `mask + 1` slots. Term::Hash of an
// integer is a cheap combine of the value, so multiply to spread the low
// bits linear probing uses.
size_t DistinctHome(const Term& value, size_t mask) {
  return (value.Hash() * 0x9e3779b97f4a7c15ULL >> 32) & mask;
}

}  // namespace

uint64_t Relation::EstimateBytes() const {
  uint64_t n = 0;
  for (const Tuple& t : tuples_) n += ApproxTupleBytes(t) + kDedupEntryBytes;
  for (const auto& [cols, index] : indexes_) {
    for (const auto& [key, postings] : index.postings) {
      n += ApproxTupleBytes(key) + postings.size() * sizeof(uint32_t);
    }
  }
  for (const DistinctSet& set : distinct_) {
    n += set.slots.size() * sizeof(uint32_t);
  }
  return n;
}

void Relation::set_accountant(ResourceAccountant* accountant) {
  if (accountant == accountant_) return;
  // Release the standing charge from the old accountant, then charge a
  // fresh estimate of current contents against the new one (attachment can
  // happen after the relation was populated un-instrumented).
  if (accountant_ != nullptr && charged_bytes_ != 0) {
    accountant_->ReleaseBytes(charged_bytes_);
  }
  accountant_ = accountant;
  charged_bytes_ = 0;
  if (accountant_ != nullptr) {
    charged_bytes_ = EstimateBytes();
    if (charged_bytes_ != 0) accountant_->AddBytes(charged_bytes_);
  }
}

bool Relation::Insert(Tuple t) {
  assert(t.size() == arity_ && "tuple arity mismatch");
  if (t.size() != arity_) return false;
  size_t h = TupleHash{}(t);
  auto& bucket = dedup_[h];
  for (uint32_t id : bucket) {
    if (tuples_[id] == t) return false;
  }
  bucket.push_back(static_cast<uint32_t>(tuples_.size()));
  if (accountant_ != nullptr) {
    ChargeDelta(ApproxTupleBytes(t) + kDedupEntryBytes, 0);
  }
  tuples_.push_back(std::move(t));
  return true;
}

size_t Relation::InsertAll(const Relation& other) {
  size_t added = 0;
  for (const Tuple& t : other.tuples()) {
    if (Insert(t)) ++added;
  }
  return added;
}

bool Relation::Contains(const Tuple& t) const {
  auto it = dedup_.find(TupleHash{}(t));
  if (it == dedup_.end()) return false;
  for (uint32_t id : it->second) {
    if (tuples_[id] == t) return true;
  }
  return false;
}

void Relation::Clear() {
  ChargeDelta(0, charged_bytes_);
  tuples_.clear();
  dedup_.clear();
  indexes_.clear();
  distinct_.clear();
}

namespace {
// Shared "no match" posting list that Lookup returns by reference. Leaked
// on purpose so the reference stays valid through static destruction.
const std::vector<uint32_t>& EmptyPostings() {
  static const auto* empty = new std::vector<uint32_t>();
  return *empty;
}
}  // namespace

const std::vector<uint32_t>& Relation::Lookup(const std::vector<int>& cols,
                                              const Tuple& key) {
  Index& index = indexes_[cols];
  if (index.built_upto < tuples_.size()) ExtendIndex(cols, &index);
  auto it = index.postings.find(key);
  return it == index.postings.end() ? EmptyPostings() : it->second;
}

void Relation::ExtendIndex(const std::vector<int>& cols, Index* index) {
  uint64_t added_bytes = 0;
  for (size_t id = index->built_upto; id < tuples_.size(); ++id) {
    Tuple key;
    key.reserve(cols.size());
    for (int c : cols) key.push_back(tuples_[id][c]);
    if (accountant_ != nullptr) {
      added_bytes += ApproxTupleBytes(key) + sizeof(uint32_t);
    }
    index->postings[std::move(key)].push_back(static_cast<uint32_t>(id));
  }
  index->built_upto = tuples_.size();
  ChargeDelta(added_bytes, 0);
}

size_t Relation::DistinctCount(size_t col) const {
  assert(col < arity_ && "column out of range");
  if (distinct_.empty()) distinct_.resize(arity_);
  DistinctSet& set = distinct_[col];
  if (set.built_upto < tuples_.size()) ExtendDistinct(col, &set);
  return set.count;
}

void Relation::ExtendDistinct(size_t col, DistinctSet* set) const {
  const size_t old_slots = set->slots.size();
  for (size_t row = set->built_upto; row < tuples_.size(); ++row) {
    // Keep the load factor at or below one half so probes stay short.
    if (2 * (set->count + 1) > set->slots.size()) {
      std::vector<uint32_t> old = std::move(set->slots);
      set->slots.assign(std::max(kMinDistinctSlots, 2 * old.size()),
                        kEmptySlot);
      set->count = 0;
      for (uint32_t id : old) {
        if (id != kEmptySlot) AddDistinct(col, id, set);
      }
    }
    AddDistinct(col, static_cast<uint32_t>(row), set);
  }
  set->built_upto = tuples_.size();
  ChargeDelta((set->slots.size() - old_slots) * sizeof(uint32_t), 0);
}

void Relation::AddDistinct(size_t col, uint32_t row, DistinctSet* set) const {
  const Term& value = tuples_[row][col];
  const size_t mask = set->slots.size() - 1;
  for (size_t i = DistinctHome(value, mask);; i = (i + 1) & mask) {
    uint32_t& slot = set->slots[i];
    if (slot == kEmptySlot) {
      slot = row;
      ++set->count;
      return;
    }
    if (tuples_[slot][col] == value) return;
  }
}

std::string Relation::ToString(size_t max_tuples) const {
  std::ostringstream os;
  os << name_ << '/' << arity_ << " [" << size() << " tuples]";
  size_t shown = 0;
  for (const Tuple& t : tuples_) {
    if (shown++ >= max_tuples) {
      os << "\n  ...";
      break;
    }
    os << "\n  " << TupleToString(t);
  }
  return os.str();
}

}  // namespace ldl
