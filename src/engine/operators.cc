#include "engine/operators.h"

#include <algorithm>

namespace ldl {

namespace {

Tuple Concat(const Tuple& a, const Tuple& b) {
  Tuple out;
  out.reserve(a.size() + b.size());
  out.insert(out.end(), a.begin(), a.end());
  out.insert(out.end(), b.begin(), b.end());
  return out;
}

bool KeysMatch(const Tuple& l, const Tuple& r, const JoinKeys& keys) {
  for (const auto& [lc, rc] : keys) {
    if (!(l[lc] == r[rc])) return false;
  }
  return true;
}

}  // namespace

Relation Select(const Relation& rel, size_t col, const Term& value,
                EvalCounters* counters) {
  Relation out(rel.name(), rel.arity());
  for (const Tuple& t : rel.tuples()) {
    counters->tuples_examined++;
    if (t[col] == value) out.Insert(t);
  }
  return out;
}

Relation Project(const Relation& rel, const std::vector<size_t>& cols,
                 EvalCounters* counters) {
  Relation out(rel.name(), cols.size());
  for (const Tuple& t : rel.tuples()) {
    counters->tuples_examined++;
    Tuple p;
    p.reserve(cols.size());
    for (size_t c : cols) p.push_back(t[c]);
    out.Insert(std::move(p));
  }
  return out;
}

Relation NestedLoopJoin(const Relation& left, const Relation& right,
                        const JoinKeys& keys, EvalCounters* counters) {
  Relation out(left.name() + "*" + right.name(),
               left.arity() + right.arity());
  for (const Tuple& l : left.tuples()) {
    for (const Tuple& r : right.tuples()) {
      counters->tuples_examined++;
      if (KeysMatch(l, r, keys)) {
        counters->derivations++;
        out.Insert(Concat(l, r));
      }
    }
  }
  return out;
}

Relation HashJoin(Relation& left, Relation& right, const JoinKeys& keys,
                  EvalCounters* counters) {
  Relation out(left.name() + "*" + right.name(),
               left.arity() + right.arity());
  if (keys.empty()) return NestedLoopJoin(left, right, keys, counters);

  // Probe with the larger side, build (index) on the smaller.
  const bool left_builds = left.size() <= right.size();
  Relation& build = left_builds ? left : right;
  Relation& probe = left_builds ? right : left;
  std::vector<int> build_cols;
  std::vector<size_t> probe_cols;
  for (const auto& [lc, rc] : keys) {
    build_cols.push_back(static_cast<int>(left_builds ? lc : rc));
    probe_cols.push_back(left_builds ? rc : lc);
  }
  // Relation's lazy index is exactly a hash build over build_cols.
  std::vector<int> sorted_build = build_cols;
  std::sort(sorted_build.begin(), sorted_build.end());
  if (std::adjacent_find(sorted_build.begin(), sorted_build.end()) !=
      sorted_build.end()) {
    // A build column referenced by several keys: the index key cannot
    // express the conjunction; fall back.
    return NestedLoopJoin(left, right, keys, counters);
  }
  for (const Tuple& p : probe.tuples()) {
    counters->tuples_examined++;
    Tuple key(sorted_build.size(), Term());
    // Key values must line up with the sorted build columns.
    for (size_t k = 0; k < build_cols.size(); ++k) {
      size_t slot = std::lower_bound(sorted_build.begin(), sorted_build.end(),
                                     build_cols[k]) -
                    sorted_build.begin();
      key[slot] = p[probe_cols[k]];
    }
    for (uint32_t id : build.Lookup(sorted_build, key)) {
      counters->tuples_examined++;
      counters->derivations++;
      const Tuple& b = build.tuple(id);
      out.Insert(left_builds ? Concat(b, p) : Concat(p, b));
    }
  }
  return out;
}

Relation Union(const Relation& a, const Relation& b, EvalCounters* counters) {
  Relation out(a.name(), a.arity());
  for (const Tuple& t : a.tuples()) {
    counters->tuples_examined++;
    out.Insert(t);
  }
  for (const Tuple& t : b.tuples()) {
    counters->tuples_examined++;
    out.Insert(t);
  }
  return out;
}

Relation Difference(const Relation& a, const Relation& b,
                    EvalCounters* counters) {
  Relation out(a.name(), a.arity());
  for (const Tuple& t : a.tuples()) {
    counters->tuples_examined++;
    if (!b.Contains(t)) out.Insert(t);
  }
  return out;
}

Relation SemiJoin(Relation& left, Relation& right, const JoinKeys& keys,
                  EvalCounters* counters) {
  Relation out(left.name(), left.arity());
  std::vector<int> right_cols;
  for (const auto& [lc, rc] : keys) {
    (void)lc;
    right_cols.push_back(static_cast<int>(rc));
  }
  std::sort(right_cols.begin(), right_cols.end());
  if (std::adjacent_find(right_cols.begin(), right_cols.end()) !=
      right_cols.end()) {
    // Duplicate right column: test matches tuple-by-tuple instead.
    Relation out_slow(left.name(), left.arity());
    for (const Tuple& l : left.tuples()) {
      counters->tuples_examined++;
      for (const Tuple& r : right.tuples()) {
        counters->tuples_examined++;
        if (KeysMatch(l, r, keys)) {
          out_slow.Insert(l);
          break;
        }
      }
    }
    return out_slow;
  }
  for (const Tuple& l : left.tuples()) {
    counters->tuples_examined++;
    if (keys.empty()) {
      if (!right.empty()) out.Insert(l);
      continue;
    }
    Tuple key(right_cols.size(), Term());
    for (size_t k = 0; k < keys.size(); ++k) {
      size_t slot = std::lower_bound(right_cols.begin(), right_cols.end(),
                                     static_cast<int>(keys[k].second)) -
                    right_cols.begin();
      key[slot] = l[keys[k].first];
    }
    if (!right.Lookup(right_cols, key).empty()) out.Insert(l);
  }
  return out;
}

}  // namespace ldl
