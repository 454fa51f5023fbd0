#include "storage/relation.h"

#include <algorithm>
#include <bit>
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

namespace {

// RowHash of `row` projected on `cols`, without building the projection.
size_t KeyHash(const Value* row, const std::vector<int>& cols) {
  size_t seed = cols.size();
  for (int c : cols) {
    seed ^= row[c].bits() + 0x9e3779b97f4a7c15ULL + (seed << 6) + (seed >> 2);
  }
  return seed;
}

}  // namespace

Relation& Relation::operator=(const Relation& other) {
  if (this == &other) return *this;
  ChargeDelta(0, charged_bytes_);
  name_ = other.name_;
  arity_ = other.arity_;
  rows_ = other.rows_;
  values_ = other.values_;
  store_ = other.store_;
  dedup_ = other.dedup_;
  indexes_.clear();
  indexes_.reserve(other.indexes_.size());
  for (const std::unique_ptr<Index>& index : other.indexes_) {
    indexes_.push_back(std::make_unique<Index>(*index));
  }
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
  rows_ = std::exchange(other.rows_, 0);
  values_ = std::exchange(other.values_, {});
  store_ = other.store_;
  dedup_ = std::exchange(other.dedup_, {});
  indexes_ = std::exchange(other.indexes_, {});
  distinct_ = std::exchange(other.distinct_, {});
  accountant_ = other.accountant_;
  charged_bytes_ = std::exchange(other.charged_bytes_, 0);
  return *this;
}

const std::shared_ptr<ValueStore>& Relation::shared_store() const {
  if (store_ == nullptr) store_ = std::make_shared<ValueStore>();
  return store_;
}

void Relation::UseStore(std::shared_ptr<ValueStore> store) {
  if (store == store_) return;
  if (rows_ == 0) {
    store_ = std::move(store);
    return;
  }
  // Rare (a relation filled before it joined a database): re-intern.
  std::vector<Tuple> rows;
  rows.reserve(rows_);
  for (size_t i = 0; i < rows_; ++i) rows.push_back(tuple(i));
  Clear();
  store_ = std::move(store);
  for (const Tuple& t : rows) Insert(t);
}

uint64_t Relation::EstimateBytes() const {
  uint64_t ids = dedup_.ids.slot_count();
  uint64_t groups = 0;
  for (const std::unique_ptr<Index>& index : indexes_) {
    ids += index->keys.ids.slot_count() + index->ids.size();
    groups += index->groups.size();
  }
  for (const RowTable& table : distinct_) ids += table.ids.slot_count();
  return ids * sizeof(uint32_t) + groups * sizeof(Index::Group) +
         values_.size() * sizeof(Value);
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

void Relation::Reserve(size_t rows) {
  if (rows == 0 || rows_ != 0) return;
  values_.reserve(rows * arity_);
  const size_t slots = dedup_.ids.slot_count();
  dedup_.ids.Reserve(rows);
  ChargeSlots(dedup_.ids, slots);
}

bool Relation::InsertRow(std::span<const Value> row) {
  assert(row.size() == arity_ && "tuple arity mismatch");
  if (row.size() != arity_) return false;
  const auto id = static_cast<uint32_t>(rows_);
  auto same = [&](uint32_t r) {
    return std::equal(row.begin(), row.end(), values_.begin() + r * arity_);
  };
  auto hash_of = [&](uint32_t r) { return RowHash(this->row(r)); };
  const size_t slots = dedup_.ids.slot_count();
  if (dedup_.ids.FindOrAdd(RowHash(row), same, hash_of, id) != id) {
    return false;
  }
  ChargeSlots(dedup_.ids, slots);
  if (!row.empty() && row.data() >= values_.data() &&
      row.data() < values_.data() + values_.size()) {
    // One of this relation's own rows (a NaN row is never a duplicate):
    // copy it out before the buffer may move.
    const std::vector<Value> copy(row.begin(), row.end());
    values_.insert(values_.end(), copy.begin(), copy.end());
  } else {
    values_.insert(values_.end(), row.begin(), row.end());
  }
  ++rows_;
  ChargeDelta(arity_ * sizeof(Value), 0);
  return true;
}

bool Relation::ContainsRow(std::span<const Value> row) const {
  auto same = [&](uint32_t r) {
    return std::equal(row.begin(), row.end(), values_.begin() + r * arity_);
  };
  return dedup_.ids.Find(RowHash(row), same) != IdTable::kEmpty;
}

bool Relation::Insert(const Tuple& t) {
  assert(t.size() == arity_ && "tuple arity mismatch");
  if (t.size() != arity_) return false;
  ValueStore* values = store();
  const size_t before = accountant_ != nullptr ? values->bytes() : 0;
  std::vector<Value> row;
  row.reserve(t.size());
  for (const Term& v : t) row.push_back(values->Intern(v));
  if (accountant_ != nullptr) ChargeDelta(values->bytes() - before, 0);
  return InsertRow(row);
}

bool Relation::Contains(const Tuple& t) const {
  if (t.size() != arity_ || store_ == nullptr) return false;
  std::vector<Value> row;
  row.reserve(t.size());
  for (const Term& v : t) row.push_back(store_->Intern(v));
  return ContainsRow(row);
}

Tuple Relation::tuple(size_t i) const {
  Tuple t;
  t.reserve(arity_);
  for (Value v : row(i)) t.push_back(store_->ToTerm(v));
  return t;
}

std::vector<Tuple> Relation::tuples() const {
  std::vector<Tuple> out;
  out.reserve(rows_);
  ValueStore::TermMemo memo;
  for (size_t i = 0; i < rows_; ++i) {
    Tuple t;
    t.reserve(arity_);
    for (Value v : row(i)) t.push_back(store_->ToTerm(v, &memo));
    out.push_back(std::move(t));
  }
  return out;
}

size_t Relation::InsertAll(const Relation& other) {
  size_t added = 0;
  if (other.store_ == store_) {
    for (size_t i = 0; i < other.size(); ++i) {
      if (InsertRow(other.row(i))) ++added;
    }
    return added;
  }
  for (size_t i = 0; i < other.size(); ++i) {
    if (Insert(other.tuple(i))) ++added;
  }
  return added;
}

void Relation::Clear() {
  ChargeDelta(0, charged_bytes_);
  rows_ = 0;
  values_.clear();
  dedup_ = {};
  for (const std::unique_ptr<Index>& index : indexes_) {
    index->keys = {};
    index->groups.clear();
    index->ids.clear();
    index->free.clear();
  }
  distinct_.clear();
}

Relation::IndexId Relation::IndexFor(const std::vector<int>& cols) {
  for (size_t i = 0; i < indexes_.size(); ++i) {
    if (indexes_[i]->cols == cols) return static_cast<IndexId>(i);
  }
  indexes_.push_back(std::make_unique<Index>(Index{cols, {}, {}, {}, {}}));
  return static_cast<IndexId>(indexes_.size() - 1);
}

std::optional<Relation::IndexId> Relation::BuiltIndex(
    const std::vector<int>& cols) const {
  for (size_t i = 0; i < indexes_.size(); ++i) {
    if (indexes_[i]->cols == cols) {
      if (indexes_[i]->keys.built_upto == 0) break;
      return static_cast<IndexId>(i);
    }
  }
  return std::nullopt;
}

Relation::Postings Relation::Lookup(IndexId id, std::span<const Value> key,
                                   size_t* rows_indexed) {
  Index& index = *indexes_[id];
  assert(key.size() == index.cols.size() && "key arity mismatch");
  if (index.keys.built_upto < rows_) ExtendIndex(&index, rows_indexed);
  auto same = [&](uint32_t group) {
    const Value* row =
        values_.data() + index.ids[index.groups[group].offset] * arity_;
    for (size_t i = 0; i < key.size(); ++i) {
      if (!(row[index.cols[i]] == key[i])) return false;
    }
    return true;
  };
  const uint32_t group = index.keys.ids.Find(RowHash(key), same);
  return group == IdTable::kEmpty ? Postings() : Postings(&index, group);
}

Relation::Postings Relation::Lookup(const std::vector<int>& cols,
                                    const Tuple& key, size_t* rows_indexed) {
  assert(key.size() == cols.size() && "key arity mismatch");
  const IndexId index = IndexFor(cols);
  std::vector<Value> values;
  values.reserve(key.size());
  for (const Term& v : key) values.push_back(store()->Intern(v));
  return Lookup(index, values, rows_indexed);
}

size_t Relation::Index::Append(uint32_t g, uint32_t row) {
  Group& group = groups[g];
  size_t grown = 0;
  if (group.size == group.capacity) {
    const uint32_t capacity = std::max<uint32_t>(1, 2 * group.capacity);
    const auto log2 = static_cast<size_t>(std::countr_zero(capacity));
    if (group.capacity != 0 && group.offset + group.capacity == ids.size()) {
      // The last slice of the array: grow it where it is.
      ids.resize(group.offset + capacity);
      grown = (capacity - group.capacity) * sizeof(uint32_t);
    } else {
      uint32_t offset;
      if (log2 < free.size() && !free[log2].empty()) {
        offset = free[log2].back();
        free[log2].pop_back();
      } else {
        offset = static_cast<uint32_t>(ids.size());
        ids.resize(ids.size() + capacity);
        grown = capacity * sizeof(uint32_t);
      }
      std::copy_n(ids.begin() + group.offset, group.size,
                  ids.begin() + offset);
      if (group.capacity != 0) {
        const size_t old_log2 = log2 - 1;
        if (free.size() <= old_log2) free.resize(old_log2 + 1);
        free[old_log2].push_back(group.offset);
      }
      group.offset = offset;
    }
    group.capacity = capacity;
  }
  ids[group.offset + group.size++] = row;
  return grown;
}

void Relation::ExtendIndex(Index* index, size_t* rows_indexed) {
  if (index->keys.built_upto == rows_) return;
  if (rows_indexed != nullptr) *rows_indexed += rows_ - index->keys.built_upto;
  const std::vector<int>& cols = index->cols;
  auto first_row = [&](uint32_t group) {
    return values_.data() + index->ids[index->groups[group].offset] * arity_;
  };
  auto hash_of = [&](uint32_t group) {
    return KeyHash(first_row(group), cols);
  };
  const size_t slots = index->keys.ids.slot_count();
  size_t grown = 0;
  for (size_t row = index->keys.built_upto; row < rows_; ++row) {
    const Value* t = values_.data() + row * arity_;
    auto same = [&](uint32_t group) {
      const Value* other = first_row(group);
      for (int c : cols) {
        if (!(other[c] == t[c])) return false;
      }
      return true;
    };
    const auto fresh = static_cast<uint32_t>(index->groups.size());
    const uint32_t group =
        index->keys.ids.FindOrAdd(KeyHash(t, cols), same, hash_of, fresh);
    if (group == fresh) {
      index->groups.emplace_back();
      grown += sizeof(Index::Group);
    }
    grown += index->Append(group, static_cast<uint32_t>(row));
  }
  index->keys.built_upto = rows_;
  ChargeSlots(index->keys.ids, slots);
  ChargeDelta(grown, 0);
}

size_t Relation::Postings::LowerBound(size_t id) const {
  size_t lo = 0;
  size_t hi = size();
  while (lo < hi) {
    const size_t mid = lo + (hi - lo) / 2;
    if ((*this)[mid] < id) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

std::vector<uint32_t> Relation::Postings::ToVector() const {
  std::vector<uint32_t> out;
  out.reserve(size());
  for (uint32_t id : *this) out.push_back(id);
  return out;
}

std::ostream& operator<<(std::ostream& os, const Relation::Postings& p) {
  os << '{';
  for (size_t i = 0; i < p.size(); ++i) os << (i ? ", " : "") << p[i];
  return os << '}';
}

size_t Relation::DistinctCount(size_t col) const {
  assert(col < arity_ && "column out of range");
  if (distinct_.empty()) distinct_.resize(arity_);
  RowTable& table = distinct_[col];
  auto at = [&](size_t row) { return values_[row * arity_ + col]; };
  auto hash_of = [&](uint32_t row) {
    return RowHash({&values_[row * arity_ + col], 1});
  };
  const size_t slots = table.ids.slot_count();
  for (size_t row = table.built_upto; row < rows_; ++row) {
    const Value value = at(row);
    auto same = [&](uint32_t id) { return at(id) == value; };
    table.ids.FindOrAdd(RowHash({&value, 1}), same, hash_of,
                        static_cast<uint32_t>(row));
  }
  table.built_upto = rows_;
  ChargeSlots(table.ids, slots);
  return table.ids.count();
}

std::string Relation::ToString(size_t max_tuples) const {
  std::ostringstream os;
  os << name_ << '/' << arity_ << " [" << size() << " tuples]";
  for (size_t i = 0; i < rows_; ++i) {
    if (i >= max_tuples) {
      os << "\n  ...";
      break;
    }
    os << "\n  " << TupleToString(tuple(i));
  }
  return os.str();
}

}  // namespace ldl
