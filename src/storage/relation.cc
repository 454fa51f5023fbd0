#include "storage/relation.h"

#include <algorithm>
#include <cassert>
#include <sstream>
#include <utility>

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
  // Recurses into all but the last argument and loops down the last, so a
  // long list costs no stack.
  size_t n = 0;
  for (const Term* cur = &t;; cur = &cur->args().back()) {
    n += sizeof(Term) + cur->text().size();
    const std::vector<Term>& args = cur->args();
    if (args.empty()) return n;
    for (size_t i = 0; i + 1 < args.size(); ++i) n += ApproxTermBytes(args[i]);
  }
}

size_t ApproxTupleBytes(const Tuple& t) {
  size_t n = sizeof(Tuple);
  for (const Term& v : t) n += ApproxTermBytes(v);
  return n;
}

namespace {

// An unused RowTable slot (row and group ids are below 2^32 - 1).
constexpr uint32_t kEmptySlot = ~uint32_t{0};

// Smallest RowTable; tables double when half full.
constexpr size_t kMinSlots = 16;

// Probes `slots` (non-empty, with a free slot) from `hash`'s home to the
// slot holding an id `same` accepts, or to the empty slot ending the run.
// The hashes of integers are cheap combines of the value, so multiply to
// spread the low bits linear probing uses.
template <typename Same>
size_t Probe(const std::vector<uint32_t>& slots, size_t hash,
             const Same& same) {
  const size_t mask = slots.size() - 1;
  size_t i = (hash * 0x9e3779b97f4a7c15ULL >> 32) & mask;
  while (slots[i] != kEmptySlot && !same(slots[i])) i = (i + 1) & mask;
  return i;
}

bool Never(uint32_t) { return false; }

// The id `slots` holds for the probed value, or kEmptySlot.
template <typename Same>
uint32_t Find(const std::vector<uint32_t>& slots, size_t hash,
              const Same& same) {
  return slots.empty() ? kEmptySlot : slots[Probe(slots, hash, same)];
}

// TupleHash of `row` projected on `cols`, without building the projection.
size_t KeyHash(const Tuple& row, const std::vector<int>& cols) {
  size_t seed = cols.size();
  for (int c : cols) HashCombine(&seed, row[c].Hash());
  return seed;
}

// Shared "no match" posting list that Lookup returns by reference. Leaked
// on purpose so the reference stays valid through static destruction.
const std::vector<uint32_t>& EmptyPostings() {
  static const auto* empty = new std::vector<uint32_t>();
  return *empty;
}

}  // namespace

Relation& Relation::operator=(const Relation& other) {
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

Relation& Relation::operator=(Relation&& other) noexcept {
  if (this == &other) return *this;
  ChargeDelta(0, charged_bytes_);
  name_ = std::move(other.name_);
  arity_ = other.arity_;
  tuples_ = std::exchange(other.tuples_, {});
  dedup_ = std::exchange(other.dedup_, {});
  indexes_ = std::exchange(other.indexes_, {});
  distinct_ = std::exchange(other.distinct_, {});
  accountant_ = other.accountant_;
  charged_bytes_ = std::exchange(other.charged_bytes_, 0);
  return *this;
}

uint64_t Relation::EstimateBytes() const {
  // An index holds one posting per row it has seen.
  uint64_t ids = dedup_.slots.size();
  for (const auto& [cols, index] : indexes_) {
    ids += index.keys.slots.size() + index.keys.built_upto;
  }
  for (const RowTable& table : distinct_) ids += table.slots.size();
  uint64_t n = ids * sizeof(uint32_t);
  for (const Tuple& t : tuples_) n += ApproxTupleBytes(t);
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

template <typename Same, typename HashOf>
uint32_t Relation::FindOrAdd(RowTable* table, size_t hash, const Same& same,
                             const HashOf& hash_of, uint32_t id) const {
  std::vector<uint32_t>& slots = table->slots;
  size_t i = slots.empty() ? 0 : Probe(slots, hash, same);
  if (!slots.empty() && slots[i] != kEmptySlot) return slots[i];
  // Keep the load factor at or below one half so probes stay short.
  if (2 * (table->count + 1) > slots.size()) {
    std::vector<uint32_t> old = std::exchange(slots, {});
    slots.assign(std::max(kMinSlots, 2 * old.size()), kEmptySlot);
    for (uint32_t stored : old) {
      if (stored == kEmptySlot) continue;
      slots[Probe(slots, hash_of(stored), Never)] = stored;
    }
    ChargeDelta((slots.size() - old.size()) * sizeof(uint32_t), 0);
    i = Probe(slots, hash, Never);
  }
  slots[i] = id;
  ++table->count;
  return id;
}

bool Relation::Insert(Tuple t) {
  assert(t.size() == arity_ && "tuple arity mismatch");
  if (t.size() != arity_) return false;
  const auto row = static_cast<uint32_t>(tuples_.size());
  auto same = [&](uint32_t id) { return tuples_[id] == t; };
  auto hash_of = [&](uint32_t id) { return TupleHash{}(tuples_[id]); };
  if (FindOrAdd(&dedup_, TupleHash{}(t), same, hash_of, row) != row) {
    return false;
  }
  if (accountant_ != nullptr) ChargeDelta(ApproxTupleBytes(t), 0);
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
  auto same = [&](uint32_t id) { return tuples_[id] == t; };
  return Find(dedup_.slots, TupleHash{}(t), same) != kEmptySlot;
}

void Relation::Clear() {
  ChargeDelta(0, charged_bytes_);
  tuples_.clear();
  dedup_ = {};
  indexes_.clear();
  distinct_.clear();
}

const std::vector<uint32_t>& Relation::Lookup(const std::vector<int>& cols,
                                              const Tuple& key,
                                              size_t* rows_indexed) {
  assert(key.size() == cols.size() && "key arity mismatch");
  Index& index = indexes_[cols];
  if (index.keys.built_upto < tuples_.size()) {
    if (rows_indexed != nullptr) {
      *rows_indexed += tuples_.size() - index.keys.built_upto;
    }
    ExtendIndex(cols, &index);
  }
  auto same = [&](uint32_t group) {
    const Tuple& row = tuples_[index.postings[group].front()];
    for (size_t i = 0; i < cols.size(); ++i) {
      if (!(row[cols[i]] == key[i])) return false;
    }
    return true;
  };
  const uint32_t group = Find(index.keys.slots, TupleHash{}(key), same);
  return group == kEmptySlot ? EmptyPostings() : index.postings[group];
}

void Relation::ExtendIndex(const std::vector<int>& cols, Index* index) {
  auto first_row = [&](uint32_t group) -> const Tuple& {
    return tuples_[index->postings[group].front()];
  };
  auto hash_of = [&](uint32_t group) {
    return KeyHash(first_row(group), cols);
  };
  const size_t from = index->keys.built_upto;
  for (size_t row = from; row < tuples_.size(); ++row) {
    const Tuple& t = tuples_[row];
    auto same = [&](uint32_t group) {
      const Tuple& other = first_row(group);
      for (int c : cols) {
        if (!(other[c] == t[c])) return false;
      }
      return true;
    };
    const auto fresh = static_cast<uint32_t>(index->postings.size());
    const uint32_t group =
        FindOrAdd(&index->keys, KeyHash(t, cols), same, hash_of, fresh);
    if (group == fresh) index->postings.emplace_back();
    index->postings[group].push_back(static_cast<uint32_t>(row));
  }
  index->keys.built_upto = tuples_.size();
  ChargeDelta((tuples_.size() - from) * sizeof(uint32_t), 0);
}

size_t Relation::DistinctCount(size_t col) const {
  assert(col < arity_ && "column out of range");
  if (distinct_.empty()) distinct_.resize(arity_);
  RowTable& table = distinct_[col];
  auto hash_of = [&](uint32_t row) { return tuples_[row][col].Hash(); };
  for (size_t row = table.built_upto; row < tuples_.size(); ++row) {
    const Term& value = tuples_[row][col];
    auto same = [&](uint32_t id) { return tuples_[id][col] == value; };
    FindOrAdd(&table, value.Hash(), same, hash_of,
              static_cast<uint32_t>(row));
  }
  table.built_upto = tuples_.size();
  return table.count;
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
