#include "ast/term.h"

#include <algorithm>
#include <sstream>

#include "base/hash.h"

namespace ldl {

namespace {
const std::vector<Term>& EmptyArgs() {
  static const auto* empty = new std::vector<Term>();
  return *empty;
}

// List constructors: '.'(Head, Tail) cons cells terminated by the symbol [].
constexpr char kConsFunctor[] = ".";
constexpr char kNilSymbol[] = "[]";

/// -1, 0 or 1 as `a` orders before, with or after `b`.
template <typename T>
int ThreeWay(const T& a, const T& b) {
  return (b < a) - (a < b);
}
}  // namespace

Term Term::MakeVariable(std::string name) {
  return Term(TermKind::kVariable, std::move(name));
}

Term Term::MakeInt(int64_t value) {
  Term t(TermKind::kInt, "");
  t.int_value_ = value;
  return t;
}

Term Term::MakeReal(double value) {
  Term t(TermKind::kReal, "");
  t.real_value_ = value;
  return t;
}

Term Term::MakeString(std::string value) {
  return Term(TermKind::kString, std::move(value));
}

Term Term::MakeSymbol(std::string name) {
  return Term(TermKind::kSymbol, std::move(name));
}

Term Term::MakeFunction(std::string functor, std::vector<Term> args) {
  Term t(TermKind::kFunction, std::move(functor));
  // Non-const allocation: ReleaseArgs may detach the arguments of a vector
  // it owns alone before freeing it.
  t.args_ = std::make_shared<std::vector<Term>>(std::move(args));
  return t;
}

Term Term::MakeList(const std::vector<Term>& items) {
  return MakeList(items, MakeSymbol(kNilSymbol));
}

Term Term::MakeList(const std::vector<Term>& items, Term tail) {
  Term list = std::move(tail);
  for (auto it = items.rbegin(); it != items.rend(); ++it) {
    list = MakeFunction(kConsFunctor, {*it, std::move(list)});
  }
  return list;
}

void Term::ReleaseArgs() {
  // Another owner keeps the vector, or freeing it recurses one level only.
  if (args_.use_count() != 1) return;
  bool nested = false;
  for (const Term& arg : *args_) nested = nested || arg.args_ != nullptr;
  if (!nested) return;
  // Detach every uniquely owned child vector before its parent is freed, so
  // each vector's destructor sees only scalar or shared arguments. A vector
  // someone else still holds just loses this reference.
  std::vector<std::shared_ptr<const std::vector<Term>>> pending;
  pending.push_back(std::move(args_));
  while (!pending.empty()) {
    std::shared_ptr<const std::vector<Term>> owned = std::move(pending.back());
    pending.pop_back();
    if (owned.use_count() != 1) continue;
    // Sole owner of a vector allocated non-const (MakeFunction).
    for (Term& arg : const_cast<std::vector<Term>&>(*owned)) {
      if (arg.args_ != nullptr) pending.push_back(std::move(arg.args_));
    }
  }
}

const std::vector<Term>& Term::args() const {
  return args_ ? *args_ : EmptyArgs();
}

bool Term::IsGround() const {
  // Iterative down the last argument, so a long list cannot overflow the
  // stack.
  const Term* t = this;
  while (t->IsFunction()) {
    const auto& args = t->args();
    if (args.empty()) return true;
    for (size_t i = 0; i + 1 < args.size(); ++i) {
      if (!args[i].IsGround()) return false;
    }
    t = &args.back();
  }
  return !t->IsVariable();
}

// The walks below loop down the last argument and recurse only into the
// others, so a long list (a chain of '.'/2 cells) cannot overflow the stack.

void Term::CollectVariables(std::vector<std::string>* out) const {
  const Term* t = this;
  while (t->IsFunction() && !t->args().empty()) {
    const auto& args = t->args();
    for (size_t i = 0; i + 1 < args.size(); ++i) args[i].CollectVariables(out);
    t = &args.back();
  }
  if (t->IsVariable()) out->push_back(t->text_);
}

bool Term::ContainsVariable(const std::string& name) const {
  const Term* t = this;
  while (t->IsFunction() && !t->args().empty()) {
    const auto& args = t->args();
    for (size_t i = 0; i + 1 < args.size(); ++i) {
      if (args[i].ContainsVariable(name)) return true;
    }
    t = &args.back();
  }
  return t->IsVariable() && t->text_ == name;
}

bool Term::HasStrictSubterm(const Term& other) const {
  const Term* t = this;
  while (t->IsFunction() && !t->args().empty()) {
    const auto& args = t->args();
    for (size_t i = 0; i + 1 < args.size(); ++i) {
      if (args[i] == other || args[i].HasStrictSubterm(other)) return true;
    }
    t = &args.back();
    if (*t == other) return true;
  }
  return false;
}

size_t Term::Size() const {
  size_t n = 1;  // the leaf the loop ends on
  const Term* t = this;
  while (t->IsFunction() && !t->args().empty()) {
    const auto& args = t->args();
    ++n;
    for (size_t i = 0; i + 1 < args.size(); ++i) n += args[i].Size();
    t = &args.back();
  }
  return n;
}

size_t Term::Depth() const {
  // `level` counts the function terms above `t` on the last-argument spine.
  size_t level = 0;
  size_t depth = 1;
  const Term* t = this;
  while (t->IsFunction() && !t->args().empty()) {
    const auto& args = t->args();
    ++level;
    for (size_t i = 0; i + 1 < args.size(); ++i) {
      depth = std::max(depth, level + args[i].Depth());
    }
    t = &args.back();
  }
  return std::max(depth, level + 1);
}

bool Term::operator==(const Term& other) const {
  // Iterative down the last argument, so comparing two long lists cannot
  // overflow the stack.
  const Term* a = this;
  const Term* b = &other;
  while (true) {
    if (a->kind_ != b->kind_) return false;
    switch (a->kind_) {
      case TermKind::kInt:
        return a->int_value_ == b->int_value_;
      case TermKind::kReal:
        return a->real_value_ == b->real_value_;
      case TermKind::kVariable:
      case TermKind::kString:
      case TermKind::kSymbol:
        return a->text_ == b->text_;
      case TermKind::kFunction:
        break;
    }
    if (a->text_ != b->text_) return false;
    const auto& x = a->args();
    const auto& y = b->args();
    if (x.size() != y.size()) return false;
    if (x.empty()) return true;
    for (size_t i = 0; i + 1 < x.size(); ++i) {
      if (!(x[i] == y[i])) return false;
    }
    a = &x.back();
    b = &y.back();
  }
}

int Term::Compare(const Term& other) const {
  // Iterative down the last argument, like ==: every other argument is
  // compared once, so equal nested terms cost linear time, and a long list
  // cannot overflow the stack.
  const Term* a = this;
  const Term* b = &other;
  while (true) {
    if (a->kind_ != b->kind_) return ThreeWay(a->kind_, b->kind_);
    switch (a->kind_) {
      case TermKind::kInt:
        return ThreeWay(a->int_value_, b->int_value_);
      case TermKind::kReal:
        return ThreeWay(a->real_value_, b->real_value_);
      case TermKind::kVariable:
      case TermKind::kString:
      case TermKind::kSymbol:
        return ThreeWay(a->text_.compare(b->text_), 0);
      case TermKind::kFunction:
        break;
    }
    if (const int c = ThreeWay(a->text_.compare(b->text_), 0)) return c;
    const auto& x = a->args();
    const auto& y = b->args();
    if (x.size() != y.size()) return ThreeWay(x.size(), y.size());
    if (x.empty()) return 0;
    for (size_t i = 0; i + 1 < x.size(); ++i) {
      if (const int c = x[i].Compare(y[i])) return c;
    }
    a = &x.back();
    b = &y.back();
  }
}

std::vector<Term> Term::TakeArgs() {
  if (args_ == nullptr) return {};
  std::vector<Term> out =
      args_.use_count() == 1
          // Sole owner of a vector allocated non-const (MakeFunction).
          ? std::move(const_cast<std::vector<Term>&>(*args_))
          : *args_;
  args_.reset();
  return out;
}

size_t Term::Hash() const {
  // Iterative down the last argument, so hashing a long list cannot
  // overflow the stack: each function term's seed covers its functor and
  // all but its last argument, and the seeds fold in bottom-up, giving the
  // value the recursive definition does.
  std::vector<size_t> spine;
  const Term* t = this;
  while (t->IsFunction() && !t->args().empty()) {
    size_t seed = static_cast<size_t>(t->kind_);
    HashValue(&seed, t->text_);
    const auto& args = t->args();
    for (size_t i = 0; i + 1 < args.size(); ++i) {
      HashCombine(&seed, args[i].Hash());
    }
    spine.push_back(seed);
    t = &args.back();
  }
  size_t hash = static_cast<size_t>(t->kind_);
  switch (t->kind_) {
    case TermKind::kInt:
      HashValue(&hash, t->int_value_);
      break;
    case TermKind::kReal:
      HashValue(&hash, t->real_value_);
      break;
    default:
      HashValue(&hash, t->text_);
      break;
  }
  for (auto it = spine.rbegin(); it != spine.rend(); ++it) {
    size_t seed = *it;
    HashCombine(&seed, hash);
    hash = seed;
  }
  return hash;
}

namespace {

// Renders a cons-cell chain using list sugar; returns false if `t` is not a
// cons cell.
bool TryPrintList(const Term& t, std::ostream& os);

bool IsInfixFunctor(const std::string& f, size_t arity) {
  return arity == 2 &&
         (f == "+" || f == "-" || f == "*" || f == "/" || f == "mod");
}

// `nested` parenthesizes infix arithmetic when it appears inside another
// term, so X + 1 prints bare but f((X + 1)) and (X + 1) * 2 stay readable.
void PrintTerm(const Term& t, std::ostream& os, bool nested = false) {
  switch (t.kind()) {
    case TermKind::kVariable:
    case TermKind::kSymbol:
      os << t.text();
      return;
    case TermKind::kInt:
      os << t.int_value();
      return;
    case TermKind::kReal:
      os << t.real_value();
      return;
    case TermKind::kString:
      os << '"' << t.text() << '"';
      return;
    case TermKind::kFunction: {
      if (TryPrintList(t, os)) return;
      if (IsInfixFunctor(t.text(), t.arity())) {
        if (nested) os << '(';
        PrintTerm(t.args()[0], os, true);
        os << ' ' << t.text() << ' ';
        PrintTerm(t.args()[1], os, true);
        if (nested) os << ')';
        return;
      }
      os << t.text() << '(';
      bool first = true;
      for (const Term& a : t.args()) {
        if (!first) os << ", ";
        first = false;
        PrintTerm(a, os, true);
      }
      os << ')';
      return;
    }
  }
}

bool TryPrintList(const Term& t, std::ostream& os) {
  if (!(t.kind() == TermKind::kFunction && t.text() == kConsFunctor &&
        t.arity() == 2)) {
    return false;
  }
  os << '[';
  const Term* cur = &t;
  bool first = true;
  while (true) {
    if (!first) os << ", ";
    first = false;
    PrintTerm(cur->args()[0], os);
    const Term& tail = cur->args()[1];
    if (tail.kind() == TermKind::kSymbol && tail.text() == kNilSymbol) {
      break;
    }
    if (tail.kind() == TermKind::kFunction && tail.text() == kConsFunctor &&
        tail.arity() == 2) {
      cur = &tail;
      continue;
    }
    os << " | ";
    PrintTerm(tail, os);
    break;
  }
  os << ']';
  return true;
}

}  // namespace

std::string Term::ToString() const {
  std::ostringstream os;
  PrintTerm(*this, os);
  return os.str();
}

std::ostream& operator<<(std::ostream& os, const Term& term) {
  PrintTerm(term, os);
  return os;
}

}  // namespace ldl
