#include "ast/value.h"

#include <cmath>
#include <functional>

#include "base/hash.h"

namespace ldl {

namespace {

// A tag below kBigInt is the TermKind of its value (Value::kind, TagOf).
static_assert(static_cast<int>(Value::Tag::kVariable) ==
              static_cast<int>(TermKind::kVariable));
static_assert(static_cast<int>(Value::Tag::kInt) ==
              static_cast<int>(TermKind::kInt));
static_assert(static_cast<int>(Value::Tag::kReal) ==
              static_cast<int>(TermKind::kReal));
static_assert(static_cast<int>(Value::Tag::kString) ==
              static_cast<int>(TermKind::kString));
static_assert(static_cast<int>(Value::Tag::kSymbol) ==
              static_cast<int>(TermKind::kSymbol));
static_assert(static_cast<int>(Value::Tag::kFunction) ==
              static_cast<int>(TermKind::kFunction));

/// -1, 0 or 1 as `a` orders before, with or after `b`.
template <typename T>
int ThreeWay(const T& a, const T& b) {
  return (b < a) - (a < b);
}

Value::Tag TagOf(TermKind kind) {
  return static_cast<Value::Tag>(static_cast<uint8_t>(kind));
}

// The same hash std::hash<std::string> gives, which Term::Hash mixes in
// (ValueTest.StructuralHashIsTermHash pins it).
size_t TextHash(std::string_view text) {
  return std::hash<std::string_view>{}(text);
}

}  // namespace

ValueStore::ValueStore() {
  // Fixed ids for the arithmetic functors (FixedText).
  for (const char* op : {"+", "-", "*", "/", "mod"}) TextId(op);
}

uint32_t ValueStore::TextId(std::string_view text) {
  const auto fresh = static_cast<uint32_t>(texts_.size());
  const uint32_t id = text_ids_.FindOrAdd(
      TextHash(text), [&](uint32_t i) { return texts_[i].text == text; },
      [&](uint32_t i) { return texts_[i].hash; }, fresh);
  if (id == fresh) {
    texts_.push_back({std::string(text), TextHash(text)});
    text_bytes_ += text.size();
  }
  return id;
}

Value ValueStore::Text(TermKind kind, std::string_view text) {
  return Value::Make(TagOf(kind), TextId(text));
}

Value ValueStore::Int(int64_t v) {
  if (v >= Value::kMinInline && v <= Value::kMaxInline) {
    return Value::InlineInt(v);
  }
  const auto fresh = static_cast<uint32_t>(big_ints_.size());
  const uint32_t id = big_int_ids_.FindOrAdd(
      std::hash<int64_t>{}(v), [&](uint32_t i) { return big_ints_[i] == v; },
      [&](uint32_t i) { return std::hash<int64_t>{}(big_ints_[i]); }, fresh);
  if (id == fresh) big_ints_.push_back(v);
  return Value::Make(Value::Tag::kBigInt, id);
}

Value ValueStore::Real(double v) {
  const auto fresh = static_cast<uint32_t>(reals_.size());
  if (std::isnan(v)) {
    // Equal to nothing: every NaN is a value of its own.
    reals_.push_back(v);
    return Value::Make(Value::Tag::kReal, fresh, Value::kNaN);
  }
  // std::hash<double> maps 0.0 and -0.0 alike, as == does: the first one
  // interned stands for both.
  const uint32_t id = real_ids_.FindOrAdd(
      std::hash<double>{}(v), [&](uint32_t i) { return reals_[i] == v; },
      [&](uint32_t i) { return std::hash<double>{}(reals_[i]); }, fresh);
  if (id == fresh) reals_.push_back(v);
  return Value::Make(Value::Tag::kReal, id);
}

size_t ValueStore::NodeKey(uint32_t functor, std::span<const Value> args) {
  size_t seed = RowHash(args);
  HashCombine(&seed, functor);
  return seed;
}

bool ValueStore::SameNode(uint32_t id, uint32_t functor,
                          std::span<const Value> args) const {
  const Node& n = nodes_[id];
  if (n.functor != functor || n.arity != args.size()) return false;
  // By bits, not ==: a node holding a NaN is still the same node.
  for (size_t i = 0; i < args.size(); ++i) {
    if (children_[n.first + i].bits() != args[i].bits()) return false;
  }
  return true;
}

Value ValueStore::Function(uint32_t functor, std::span<const Value> args) {
  const auto fresh = static_cast<uint32_t>(nodes_.size());
  const uint32_t id = node_ids_.FindOrAdd(
      NodeKey(functor, args),
      [&](uint32_t i) { return SameNode(i, functor, args); },
      [&](uint32_t i) {
        const Node& n = nodes_[i];
        return NodeKey(n.functor, {children_.data() + n.first, n.arity});
      },
      fresh);
  if (id == fresh) {
    Node node{functor, static_cast<uint32_t>(args.size()),
              static_cast<uint32_t>(children_.size()), 0, 0};
    if (IsArithmetic(functor, args.size())) node.flags |= Value::kArith;
    size_t hash = static_cast<size_t>(TermKind::kFunction);
    HashCombine(&hash, texts_[functor].hash);
    for (Value a : args) {
      node.flags |= a.bits() & (Value::kNaN | Value::kArith | Value::kReal);
      if (a.tag() == Value::Tag::kReal) node.flags |= Value::kReal;
      HashCombine(&hash, Hash(a));
    }
    node.hash = hash;
    children_.insert(children_.end(), args.begin(), args.end());
    nodes_.push_back(node);
  }
  return Value::Make(Value::Tag::kFunction, id, nodes_[id].flags);
}

Value ValueStore::InternLeaf(const Term& t) {
  switch (t.kind()) {
    case TermKind::kInt:
      return Int(t.int_value());
    case TermKind::kReal:
      return Real(t.real_value());
    case TermKind::kVariable:
    case TermKind::kString:
    case TermKind::kSymbol:
      return Text(t.kind(), t.text());
    case TermKind::kFunction:  // no arguments
      break;
  }
  return Function(TextId(t.text()), {});
}

Value ValueStore::Intern(const Term& t) {
  // Down the last argument first, then the nodes bottom-up: only the other
  // arguments recurse. Arguments gather on stack_ above the caller's.
  std::vector<const Term*> spine;
  const Term* cur = &t;
  while (cur->IsFunction() && !cur->args().empty()) {
    spine.push_back(cur);
    cur = &cur->args().back();
  }
  Value v = InternLeaf(*cur);
  for (auto it = spine.rbegin(); it != spine.rend(); ++it) {
    const std::vector<Term>& args = (*it)->args();
    const size_t base = stack_.size();
    for (size_t i = 0; i + 1 < args.size(); ++i) {
      const Value arg = Intern(args[i]);
      stack_.push_back(arg);
    }
    stack_.push_back(v);
    v = Function(TextId((*it)->text()), {stack_.data() + base, args.size()});
    stack_.resize(base);
  }
  return v;
}

Term ValueStore::ToTerm(Value v, TermMemo* memo) const {
  const Value whole = v;
  if (memo != nullptr && whole.IsFunction()) {
    auto it = memo->find(whole.bits());
    if (it != memo->end()) return it->second;
  }
  std::vector<Value> spine;
  while (v.IsFunction() && Arity(v) != 0) {
    spine.push_back(v);
    v = Arg(v, Arity(v) - 1);
  }
  Term t;
  switch (v.tag()) {
    case Value::Tag::kInt:
    case Value::Tag::kBigInt:
      t = Term::MakeInt(IntValue(v));
      break;
    case Value::Tag::kReal:
      t = Term::MakeReal(RealValue(v));
      break;
    case Value::Tag::kVariable:
      t = Term::MakeVariable(TextOf(v));
      break;
    case Value::Tag::kString:
      t = Term::MakeString(TextOf(v));
      break;
    case Value::Tag::kSymbol:
      t = Term::MakeSymbol(TextOf(v));
      break;
    case Value::Tag::kFunction:
      t = Term::MakeFunction(TextOfId(Functor(v)), {});
      break;
  }
  for (auto it = spine.rbegin(); it != spine.rend(); ++it) {
    const size_t n = Arity(*it);
    std::vector<Term> args;
    args.reserve(n);
    for (size_t i = 0; i + 1 < n; ++i) {
      args.push_back(ToTerm(Arg(*it, i), memo));
    }
    args.push_back(std::move(t));
    t = Term::MakeFunction(TextOfId(Functor(*it)), std::move(args));
  }
  if (memo != nullptr && whole.IsFunction()) memo->emplace(whole.bits(), t);
  return t;
}

size_t ValueStore::Hash(Value v) const {
  size_t hash = static_cast<size_t>(v.kind());
  switch (v.tag()) {
    case Value::Tag::kInt:
    case Value::Tag::kBigInt:
      HashValue(&hash, IntValue(v));
      return hash;
    case Value::Tag::kReal:
      HashValue(&hash, RealValue(v));
      return hash;
    case Value::Tag::kVariable:
    case Value::Tag::kString:
    case Value::Tag::kSymbol:
      HashCombine(&hash, texts_[v.id()].hash);
      return hash;
    case Value::Tag::kFunction:
      return nodes_[v.id()].hash;
  }
  return hash;
}

int ValueStore::Compare(Value a, Value b) const {
  // Iterative down the last argument, as Term::Compare.
  while (true) {
    if (a.bits() == b.bits()) return 0;
    if (a.kind() != b.kind()) return ThreeWay(a.kind(), b.kind());
    switch (a.kind()) {
      case TermKind::kInt:
        return ThreeWay(IntValue(a), IntValue(b));
      case TermKind::kReal:
        return ThreeWay(RealValue(a), RealValue(b));
      case TermKind::kVariable:
      case TermKind::kString:
      case TermKind::kSymbol:
        return ThreeWay(TextOf(a).compare(TextOf(b)), 0);
      case TermKind::kFunction:
        break;
    }
    const Node& x = nodes_[a.id()];
    const Node& y = nodes_[b.id()];
    if (const int c =
            ThreeWay(TextOfId(x.functor).compare(TextOfId(y.functor)), 0)) {
      return c;
    }
    if (x.arity != y.arity) return ThreeWay(x.arity, y.arity);
    if (x.arity == 0) return 0;
    for (size_t i = 0; i + 1 < x.arity; ++i) {
      if (const int c = Compare(children_[x.first + i], children_[y.first + i]))
        return c;
    }
    a = children_[x.first + x.arity - 1];
    b = children_[y.first + y.arity - 1];
  }
}

bool ValueStore::UnifiesWithReals(Value a, Value b) const {
  // Loops down the last argument, so a long list costs no stack.
  while (true) {
    if (a.bits() == b.bits()) return !a.HoldsNaN();
    if (!a.HoldsReal() && !b.HoldsReal()) return false;
    if (a.kind() != b.kind() || !a.IsFunction()) {
      return a.IsNumeric() && b.IsNumeric() && AsDouble(a) == AsDouble(b);
    }
    const Node& x = nodes_[a.id()];
    const Node& y = nodes_[b.id()];
    if (x.functor != y.functor || x.arity != y.arity) return false;
    if (x.arity == 0) return true;
    for (size_t i = 0; i + 1 < x.arity; ++i) {
      if (!Unifies(children_[x.first + i], children_[y.first + i])) {
        return false;
      }
    }
    a = children_[x.first + x.arity - 1];
    b = children_[y.first + y.arity - 1];
  }
}

size_t ValueStore::bytes() const {
  return text_bytes_ + texts_.size() * sizeof(TextEntry) +
         big_ints_.size() * sizeof(int64_t) + reals_.size() * sizeof(double) +
         nodes_.size() * sizeof(Node) + children_.size() * sizeof(Value) +
         (text_ids_.slot_count() + big_int_ids_.slot_count() +
          real_ids_.slot_count() + node_ids_.slot_count()) *
             sizeof(uint32_t);
}

}  // namespace ldl
