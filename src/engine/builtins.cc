#include "engine/builtins.h"

#include <cmath>

#include "base/strings.h"

namespace ldl {

namespace {

bool IsArithFunctor(const std::string& f, size_t arity) {
  return arity == 2 &&
         (f == "+" || f == "-" || f == "*" || f == "/" || f == "mod");
}

}  // namespace

bool ContainsArithmetic(const Term& t) {
  // Loops down the last argument, so a long list cannot overflow the stack.
  const Term* s = &t;
  for (; s->kind() == TermKind::kFunction && !s->args().empty();
       s = &s->args().back()) {
    if (IsArithFunctor(s->text(), s->arity())) return true;
    const std::vector<Term>& a = s->args();
    for (size_t i = 0; i + 1 < a.size(); ++i) {
      if (ContainsArithmetic(a[i])) return true;
    }
  }
  return false;
}

Result<Term> EvalArithmetic(const Term& t) {
  if (t.kind() != TermKind::kFunction) return t;
  std::vector<Term> args;
  args.reserve(t.arity());
  for (const Term& a : t.args()) {
    LDL_ASSIGN_OR_RETURN(Term folded, EvalArithmetic(a));
    args.push_back(std::move(folded));
  }
  if (IsArithFunctor(t.text(), t.arity()) && args[0].IsNumeric() &&
      args[1].IsNumeric()) {
    const std::string& op = t.text();
    bool both_int = args[0].kind() == TermKind::kInt &&
                    args[1].kind() == TermKind::kInt;
    if (op == "mod") {
      if (!both_int || args[1].int_value() == 0) {
        return Status::InvalidArgument("mod requires nonzero integers");
      }
      return Term::MakeInt(args[0].int_value() % args[1].int_value());
    }
    if (op == "/") {
      if (args[1].AsDouble() == 0.0) {
        return Status::InvalidArgument("division by zero");
      }
      if (both_int && args[0].int_value() % args[1].int_value() == 0) {
        return Term::MakeInt(args[0].int_value() / args[1].int_value());
      }
      return Term::MakeReal(args[0].AsDouble() / args[1].AsDouble());
    }
    if (both_int) {
      int64_t x = args[0].int_value();
      int64_t y = args[1].int_value();
      if (op == "+") return Term::MakeInt(x + y);
      if (op == "-") return Term::MakeInt(x - y);
      if (op == "*") return Term::MakeInt(x * y);
    } else {
      double x = args[0].AsDouble();
      double y = args[1].AsDouble();
      if (op == "+") return Term::MakeReal(x + y);
      if (op == "-") return Term::MakeReal(x - y);
      if (op == "*") return Term::MakeReal(x * y);
    }
  }
  return Term::MakeFunction(t.text(), std::move(args));
}

namespace {

// Three-way comparison of ground terms: numeric when both numeric, term
// order otherwise. Returns -1/0/+1.
int CompareGround(const Term& a, const Term& b) {
  if (a.IsNumeric() && b.IsNumeric()) {
    double x = a.AsDouble();
    double y = b.AsDouble();
    return x < y ? -1 : (x > y ? 1 : 0);
  }
  if (a == b) return 0;
  return a < b ? -1 : 1;
}

}  // namespace

bool GroundUnifies(const Term& a, const Term& b) {
  const Term* x = &a;
  const Term* y = &b;
  // Loops down the last argument, so a long list costs no stack.
  while (true) {
    if (x->kind() != y->kind()) {
      return x->IsNumeric() && y->IsNumeric() &&
             x->AsDouble() == y->AsDouble();
    }
    switch (x->kind()) {
      case TermKind::kInt:
        return x->int_value() == y->int_value();
      case TermKind::kReal:
        return x->real_value() == y->real_value();
      case TermKind::kString:
      case TermKind::kSymbol:
        return x->text() == y->text();
      case TermKind::kFunction: {
        const std::vector<Term>& xs = x->args();
        const std::vector<Term>& ys = y->args();
        if (x->text() != y->text() || xs.size() != ys.size()) return false;
        if (xs.empty()) return true;
        for (size_t i = 0; i + 1 < xs.size(); ++i) {
          if (!GroundUnifies(xs[i], ys[i])) return false;
        }
        x = &xs.back();
        y = &ys.back();
        break;
      }
      case TermKind::kVariable:
        return false;
    }
  }
}

bool EvalGroundBuiltin(BuiltinKind kind, const Term& lhs, const Term& rhs) {
  // Fold only what holds arithmetic: EvalArithmetic leaves anything else
  // equal to its input.
  Term lhs_folded;
  Term rhs_folded;
  const Term* l = &lhs;
  const Term* r = &rhs;
  if (ContainsArithmetic(lhs)) {
    auto folded = EvalArithmetic(lhs);
    if (!folded.ok()) return false;
    lhs_folded = std::move(folded).value();
    l = &lhs_folded;
  }
  if (ContainsArithmetic(rhs)) {
    auto folded = EvalArithmetic(rhs);
    if (!folded.ok()) return false;
    rhs_folded = std::move(folded).value();
    r = &rhs_folded;
  }
  if (kind == BuiltinKind::kEq) return GroundUnifies(*l, *r);
  const int cmp = CompareGround(*l, *r);
  switch (kind) {
    case BuiltinKind::kNe:
      return cmp != 0;
    case BuiltinKind::kLt:
      return cmp < 0;
    case BuiltinKind::kLe:
      return cmp <= 0;
    case BuiltinKind::kGt:
      return cmp > 0;
    case BuiltinKind::kGe:
      return cmp >= 0;
    default:
      return false;
  }
}

std::optional<Value> ApplyArithmetic(uint32_t op, Value lhs, Value rhs,
                                     ValueStore* store) {
  const bool both_int =
      lhs.kind() == TermKind::kInt && rhs.kind() == TermKind::kInt;
  if (op == ValueStore::kMod) {
    if (!both_int || store->IntValue(rhs) == 0) return std::nullopt;
    return store->Int(store->IntValue(lhs) % store->IntValue(rhs));
  }
  if (op == ValueStore::kDivide) {
    if (store->AsDouble(rhs) == 0.0) return std::nullopt;
    if (both_int && store->IntValue(lhs) % store->IntValue(rhs) == 0) {
      return store->Int(store->IntValue(lhs) / store->IntValue(rhs));
    }
    return store->Real(store->AsDouble(lhs) / store->AsDouble(rhs));
  }
  if (both_int) {
    const int64_t x = store->IntValue(lhs);
    const int64_t y = store->IntValue(rhs);
    if (op == ValueStore::kPlus) return store->Int(x + y);
    if (op == ValueStore::kMinus) return store->Int(x - y);
    return store->Int(x * y);
  }
  const double x = store->AsDouble(lhs);
  const double y = store->AsDouble(rhs);
  if (op == ValueStore::kPlus) return store->Real(x + y);
  if (op == ValueStore::kMinus) return store->Real(x - y);
  return store->Real(x * y);
}

std::optional<Value> FoldArithmetic(Value v, ValueStore* store) {
  if (!v.HoldsArithmetic()) return v;
  const size_t n = store->Arity(v);
  const uint32_t functor = store->Functor(v);
  std::vector<Value> args(n);
  for (size_t i = 0; i < n; ++i) {
    const std::optional<Value> folded = FoldArithmetic(store->Arg(v, i), store);
    if (!folded) return std::nullopt;
    args[i] = *folded;
  }
  if (ValueStore::IsArithmetic(functor, n) && args[0].IsNumeric() &&
      args[1].IsNumeric()) {
    return ApplyArithmetic(functor, args[0], args[1], store);
  }
  return store->Function(functor, args);
}

bool EvalGroundBuiltin(BuiltinKind kind, Value lhs, Value rhs,
                       ValueStore* store) {
  const std::optional<Value> l = FoldArithmetic(lhs, store);
  const std::optional<Value> r = FoldArithmetic(rhs, store);
  if (!l || !r) return false;
  if (kind == BuiltinKind::kEq) return store->Unifies(*l, *r);
  int cmp = 0;
  if (l->IsNumeric() && r->IsNumeric()) {
    const double x = store->AsDouble(*l);
    const double y = store->AsDouble(*r);
    cmp = x < y ? -1 : (x > y ? 1 : 0);
  } else if (*l != *r) {
    cmp = store->Compare(*l, *r) < 0 ? -1 : 1;
  }
  switch (kind) {
    case BuiltinKind::kNe:
      return cmp != 0;
    case BuiltinKind::kLt:
      return cmp < 0;
    case BuiltinKind::kLe:
      return cmp <= 0;
    case BuiltinKind::kGt:
      return cmp > 0;
    case BuiltinKind::kGe:
      return cmp >= 0;
    default:
      return false;
  }
}

bool BuiltinComputableWith(BuiltinKind kind, bool lhs_bound, bool rhs_bound) {
  if (kind == BuiltinKind::kEq) return lhs_bound || rhs_bound;
  return lhs_bound && rhs_bound;
}

bool BuiltinComputable(const Literal& lit, bool lhs_bound, bool rhs_bound) {
  if (lit.builtin() != BuiltinKind::kEq) {
    return lhs_bound && rhs_bound;
  }
  if (lhs_bound && rhs_bound) return true;
  if (lhs_bound) return !ContainsArithmetic(lit.args()[1]);
  if (rhs_bound) return !ContainsArithmetic(lit.args()[0]);
  return false;
}

}  // namespace ldl
