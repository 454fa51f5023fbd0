#ifndef LDLOPT_AST_VALUE_H_
#define LDLOPT_AST_VALUE_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "ast/term.h"
#include "base/id_table.h"

namespace ldl {

/// A term as the engine and storage hold it: 8 bytes (DESIGN.md §25).
/// Small integers are stored inline; every other value is an id into the
/// ValueStore that made it: texts (symbols, strings, variables, functors),
/// large integers and reals in its tables, function terms and lists in its
/// hash-consed node arena. Two values of one store are equal iff their
/// terms are (Term::operator==), so == is a compare of 8 bytes.
///
/// Layout, low bits first: 3 kind bits, then three flags, then a 58-bit
/// payload (the inline integer or the id):
///  - kNaN: a NaN, or a function term holding one. Such a value is never
///    equal to anything, itself included, as Term's == has it.
///  - kArith: a function term holding + - * / mod (head values fold it).
///  - kReal: a function term holding a real (only then can two different
///    values still unify, e.g. f(1) with f(1.0)).
class Value {
 public:
  enum class Tag : uint8_t {
    kVariable = 0,  ///< text id
    kInt = 1,       ///< inline integer
    kReal = 2,      ///< real id
    kString = 3,    ///< text id
    kSymbol = 4,    ///< text id
    kFunction = 5,  ///< node id
    kBigInt = 6,    ///< large-integer id
  };
  static constexpr uint64_t kNaN = 8;
  static constexpr uint64_t kArith = 16;
  static constexpr uint64_t kReal = 32;
  static constexpr int kShift = 6;
  /// Integers in [kMinInline, kMaxInline] are stored inline.
  static constexpr int64_t kMaxInline = (int64_t{1} << (63 - kShift)) - 1;
  static constexpr int64_t kMinInline = -kMaxInline - 1;

  /// The integer 0.
  constexpr Value() : bits_(static_cast<uint64_t>(Tag::kInt)) {}

  /// An inline integer; `v` must be within [kMinInline, kMaxInline]
  /// (ValueStore::Int takes any integer).
  static constexpr Value InlineInt(int64_t v) {
    return Value((static_cast<uint64_t>(v) << kShift) |
                 static_cast<uint64_t>(Tag::kInt));
  }
  static constexpr Value Make(Tag tag, uint64_t id, uint64_t flags = 0) {
    return Value((id << kShift) | flags | static_cast<uint64_t>(tag));
  }

  Tag tag() const { return static_cast<Tag>(bits_ & 7); }
  /// The term kind: inline and large integers are both kInt.
  TermKind kind() const {
    return tag() == Tag::kBigInt ? TermKind::kInt
                                 : static_cast<TermKind>(bits_ & 7);
  }
  bool IsFunction() const { return tag() == Tag::kFunction; }
  bool IsInlineInt() const { return tag() == Tag::kInt; }
  bool IsNumeric() const {
    const Tag t = tag();
    return t == Tag::kInt || t == Tag::kReal || t == Tag::kBigInt;
  }
  /// True iff the value is or holds a real (so matching by GroundUnifies
  /// may accept a value that == rejects).
  bool HoldsReal() const {
    return tag() == Tag::kReal || (bits_ & kReal) != 0;
  }
  /// True iff the value holds an arithmetic functor.
  bool HoldsArithmetic() const { return (bits_ & kArith) != 0; }
  /// True iff the value is or holds a NaN.
  bool HoldsNaN() const { return (bits_ & kNaN) != 0; }

  int64_t inline_int() const { return static_cast<int64_t>(bits_) >> kShift; }
  uint64_t id() const { return bits_ >> kShift; }
  uint64_t bits() const { return bits_; }

  bool operator==(Value o) const {
    return bits_ == o.bits_ && (bits_ & kNaN) == 0;
  }
  bool operator!=(Value o) const { return !(*this == o); }

 private:
  constexpr explicit Value(uint64_t bits) : bits_(bits) {}

  uint64_t bits_;
};

/// Hash of a row of values for hash tables (not the structural hash: it
/// depends on ids, so it is only meaningful within one store).
inline size_t RowHash(std::span<const Value> row) {
  size_t seed = row.size();
  for (Value v : row) {
    seed ^= v.bits() + 0x9e3779b97f4a7c15ULL + (seed << 6) + (seed >> 2);
  }
  return seed;
}

/// The values of one system (DESIGN.md §25): a symbol table of texts,
/// tables of large integers and reals, and an arena of hash-consed function
/// nodes {functor, arity, first child}. Interning the same term twice gives
/// the same value, so the store grows only with distinct values; nothing in
/// it is freed before the store, and a value never owns anything, so
/// destroying a value, a row or a relation recurses into nothing.
///
/// Not thread-safe: a store belongs to one LdlSystem (or one standalone
/// Relation) and is written by whatever inserts into it.
class ValueStore {
 public:
  ValueStore();

  ValueStore(const ValueStore&) = delete;
  ValueStore& operator=(const ValueStore&) = delete;

  /// The value of `t`, interning what is new. Iterative down the last
  /// argument, so a long list costs no stack.
  Value Intern(const Term& t);
  /// Terms already built by ToTerm, by value: function values met as a
  /// whole value or as an argument other than the last. Hash-consing makes
  /// equal subterms one value, so a memo kept across calls builds each of
  /// them once and shares it.
  using TermMemo = std::unordered_map<uint64_t, Term>;
  /// The term of `v`. Iterative down the last argument.
  Term ToTerm(Value v, TermMemo* memo = nullptr) const;

  Value Int(int64_t v);
  Value Real(double v);
  /// A symbol, string or variable.
  Value Text(TermKind kind, std::string_view text);
  /// The id of a text (a functor's name).
  uint32_t TextId(std::string_view text);
  /// The function term functor(args...): hash-consed. `args` must not
  /// point into the store.
  Value Function(uint32_t functor, std::span<const Value> args);

  int64_t IntValue(Value v) const {
    return v.IsInlineInt() ? v.inline_int() : big_ints_[v.id()];
  }
  double RealValue(Value v) const { return reals_[v.id()]; }
  /// A numeric value as double, whether integer or real.
  double AsDouble(Value v) const {
    return v.tag() == Value::Tag::kReal ? RealValue(v)
                                        : static_cast<double>(IntValue(v));
  }
  /// The text of a symbol, string or variable.
  const std::string& TextOf(Value v) const { return texts_[v.id()].text; }
  const std::string& TextOfId(uint32_t id) const { return texts_[id].text; }

  /// Function terms: functor (a text id), arity and arguments.
  uint32_t Functor(Value f) const { return nodes_[f.id()].functor; }
  size_t Arity(Value f) const { return nodes_[f.id()].arity; }
  /// The i-th argument. Read it by position: interning may move the arena.
  Value Arg(Value f, size_t i) const {
    return children_[nodes_[f.id()].first + i];
  }

  /// Term::Hash() of the value's term, without building it.
  size_t Hash(Value v) const;
  /// Term::Compare of the values' terms.
  int Compare(Value a, Value b) const;
  /// GroundUnifies of the values' terms: structural equality in which
  /// numbers compare by value across kinds (1 unifies with 1.0). Without
  /// a real on either side it is ==.
  bool Unifies(Value a, Value b) const {
    if (a.bits() == b.bits()) return !a.HoldsNaN();
    if (!a.HoldsReal() && !b.HoldsReal()) return false;
    return UnifiesWithReals(a, b);
  }
  /// True iff `functor`/`arity` is + - * / mod over two arguments.
  static bool IsArithmetic(uint32_t functor, size_t arity) {
    return arity == 2 && functor < kArithFunctors;
  }
  /// The text ids interned first, in this order, by every store.
  enum FixedText : uint32_t {
    kPlus,
    kMinus,
    kTimes,
    kDivide,
    kMod,
    kArithFunctors,  ///< the number of arithmetic functors
  };

  /// Bytes the store holds: texts, number tables, nodes, arguments and
  /// hash-table slots. Grows only with distinct values.
  size_t bytes() const;
  /// Function nodes interned so far.
  size_t node_count() const { return nodes_.size(); }

 private:
  struct TextEntry {
    std::string text;
    size_t hash;  // std::hash of the text, as Term::Hash hashes it
  };
  struct Node {
    uint32_t functor;
    uint32_t arity;
    uint32_t first;  // index of the first argument in children_
    uint32_t flags;  // Value::kNaN | kArith | kReal
    size_t hash;     // Term::Hash of the node's term
  };

  /// The value of a term that is not a function term with arguments.
  Value InternLeaf(const Term& t);

  bool UnifiesWithReals(Value a, Value b) const;
  static size_t NodeKey(uint32_t functor, std::span<const Value> args);
  bool SameNode(uint32_t id, uint32_t functor,
                std::span<const Value> args) const;

  std::vector<TextEntry> texts_;
  IdTable text_ids_;
  std::vector<int64_t> big_ints_;
  IdTable big_int_ids_;
  std::vector<double> reals_;
  IdTable real_ids_;  // NaNs are never entered: each is a fresh id
  std::vector<Node> nodes_;
  std::vector<Value> children_;
  IdTable node_ids_;
  std::vector<Value> stack_;  // Intern's scratch
  size_t text_bytes_ = 0;     // characters of texts_
};

}  // namespace ldl

#endif  // LDLOPT_AST_VALUE_H_
