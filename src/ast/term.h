#ifndef LDLOPT_AST_TERM_H_
#define LDLOPT_AST_TERM_H_

#include <cstdint>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

namespace ldl {

/// The kind of a term. LDL terms cover both flat relational values and the
/// "complex objects" of the paper's section 1: hierarchies (function terms)
/// and lists (encoded as nested cons/nil function terms).
enum class TermKind {
  kVariable,  ///< Logical variable, e.g. X.
  kInt,       ///< 64-bit integer constant.
  kReal,      ///< Double constant.
  kString,    ///< Quoted string constant, e.g. "austin".
  kSymbol,    ///< Unquoted atom constant, e.g. austin.
  kFunction,  ///< Complex term f(t1, ..., tn), n >= 1.
};

/// An immutable first-order term. Terms are cheap to copy: function-term
/// argument vectors are shared via shared_ptr, scalars are stored inline.
///
/// One Term representation is used end to end — parser AST, stored tuples,
/// and runtime values — mirroring LDL's elimination of the impedance
/// mismatch between language and data.
class Term {
 public:
  /// Default-constructs the symbol `nil` (rarely useful; containers need it).
  Term() : kind_(TermKind::kSymbol), text_("nil") {}

  Term(const Term&) = default;
  Term(Term&&) noexcept = default;
  Term& operator=(const Term&) = default;
  Term& operator=(Term&&) noexcept = default;
  /// Iterative for uniquely owned argument chains, so destroying a long
  /// list or a deep function term cannot overflow the stack.
  ~Term() {
    if (args_ != nullptr) ReleaseArgs();
  }

  /// Factory functions; the only way to create terms.
  static Term MakeVariable(std::string name);
  static Term MakeInt(int64_t value);
  static Term MakeReal(double value);
  static Term MakeString(std::string value);
  static Term MakeSymbol(std::string name);
  static Term MakeFunction(std::string functor, std::vector<Term> args);

  /// Builds the list [t1, ..., tn | tail] as nested '.'/2 cons terms.
  /// With no explicit tail, the empty-list symbol "[]" terminates it.
  static Term MakeList(const std::vector<Term>& items);
  static Term MakeList(const std::vector<Term>& items, Term tail);

  TermKind kind() const { return kind_; }
  bool IsVariable() const { return kind_ == TermKind::kVariable; }
  bool IsConstant() const {
    return kind_ != TermKind::kVariable && kind_ != TermKind::kFunction;
  }
  bool IsFunction() const { return kind_ == TermKind::kFunction; }
  bool IsNumeric() const {
    return kind_ == TermKind::kInt || kind_ == TermKind::kReal;
  }

  /// Variable name, symbol name, string value, or functor, by kind.
  const std::string& text() const { return text_; }
  int64_t int_value() const { return int_value_; }
  double real_value() const { return real_value_; }
  /// Numeric value as double regardless of kInt/kReal.
  double AsDouble() const {
    return kind_ == TermKind::kInt ? static_cast<double>(int_value_)
                                   : real_value_;
  }

  /// Function-term arguments; empty for non-function terms.
  const std::vector<Term>& args() const;
  size_t arity() const { return args().size(); }
  /// Moves the arguments out of a function term, which keeps no arguments
  /// afterwards: moved when this term holds them alone, copied when the
  /// vector is shared. Empty for non-function terms.
  std::vector<Term> TakeArgs();

  /// True iff no variable occurs anywhere in the term.
  bool IsGround() const;

  /// Appends the names of all variables occurring in the term (with
  /// duplicates) to `out`.
  void CollectVariables(std::vector<std::string>* out) const;

  /// True iff the variable `name` occurs in the term.
  bool ContainsVariable(const std::string& name) const;

  /// True iff `other` is a strict (proper) subterm of *this. Used by the
  /// safety analysis: recursion on a strictly decreasing term argument is
  /// well-founded (paper section 8.1, the list-traversal example).
  bool HasStrictSubterm(const Term& other) const;

  /// Number of function symbols + constants + variables in the term.
  size_t Size() const;
  /// Nesting depth: constants/variables have depth 1.
  size_t Depth() const;

  bool operator==(const Term& other) const;
  bool operator!=(const Term& other) const { return !(*this == other); }
  /// Total order (by kind, then content). Suitable for sorting tuples.
  bool operator<(const Term& other) const { return Compare(other) < 0; }
  /// Three-way form of the total order: -1, 0 or 1. By kind; then by value
  /// (ints, reals) or text (variables, strings, symbols); function terms by
  /// functor, then arity, then arguments left to right.
  int Compare(const Term& other) const;

  size_t Hash() const;

  /// Prolog-ish rendering: f(a, X), [1, 2 | T], "str", 42.
  std::string ToString() const;

 private:
  Term(TermKind kind, std::string text) : kind_(kind), text_(std::move(text)) {}

  /// Frees the argument vectors this term owns alone, without recursion.
  void ReleaseArgs();

  TermKind kind_;
  int64_t int_value_ = 0;
  double real_value_ = 0.0;
  std::string text_;
  std::shared_ptr<const std::vector<Term>> args_;  // kFunction only
};

std::ostream& operator<<(std::ostream& os, const Term& term);

/// Hash functor for unordered containers keyed by Term.
struct TermHash {
  size_t operator()(const Term& t) const { return t.Hash(); }
};

}  // namespace ldl

#endif  // LDLOPT_AST_TERM_H_
