#include "engine/rule_eval.h"

#include <algorithm>
#include <charconv>

#include "base/strings.h"
#include "engine/builtins.h"

namespace ldl {

void EvalCounters::Add(const EvalCounters& other) {
  tuples_examined += other.tuples_examined;
  derivations += other.derivations;
  inserts += other.inserts;
  rule_firings += other.rule_firings;
  dedup_probes += other.dedup_probes;
  index_probes += other.index_probes;
  delta_rows += other.delta_rows;
  rules_compiled += other.rules_compiled;
  index_rows_built += other.index_rows_built;
}

std::string EvalCounters::ToString() const {
  return StrCat("examined=", tuples_examined, " derivations=", derivations,
                " inserts=", inserts, " firings=", rule_firings,
                " dedup_probes=", dedup_probes, " index_probes=", index_probes,
                " delta_rows=", delta_rows, " rules_compiled=", rules_compiled,
                " index_rows_built=", index_rows_built);
}

void EvalCounters::ExportTo(MetricsRegistry* metrics) const {
  if (metrics == nullptr) return;
  metrics->counter("engine.tuples_examined")->Increment(tuples_examined);
  metrics->counter("engine.derivations")->Increment(derivations);
  metrics->counter("engine.inserts")->Increment(inserts);
  metrics->counter("engine.rule_firings")->Increment(rule_firings);
  metrics->counter("engine.dedup_probes")->Increment(dedup_probes);
  metrics->counter("engine.index_probes")->Increment(index_probes);
  metrics->counter("engine.delta_rows")->Increment(delta_rows);
  metrics->counter("engine.rules_compiled")->Increment(rules_compiled);
  metrics->counter("engine.index_rows_built")->Increment(index_rows_built);
}

TermCode::~TermCode() {
  // Unlink the last-argument chain one link at a time: each vector freed
  // here holds no further chain, so destruction cannot recurse down it.
  while (!args.empty() && !args.back().args.empty()) {
    std::vector<TermCode> next = std::move(args.back().args);
    args = std::move(next);
  }
}

const TermCode* TermCode::Spine(std::vector<const TermCode*>* spine) const {
  const TermCode* code = this;
  for (; code->op == Op::kFunction; code = &code->args.back()) {
    spine->push_back(code);
  }
  return code;
}

bool TermCode::MatchFunction(Value value, Value* regs,
                             const ValueStore& store) const {
  const TermCode* code = this;
  while (code->op == Op::kFunction) {
    const std::vector<TermCode>& a = code->args;
    if (!value.IsFunction() || store.Functor(value) != regs[code->reg].id() ||
        store.Arity(value) != a.size()) {
      return false;
    }
    for (size_t i = 0; i + 1 < a.size(); ++i) {
      if (!a[i].Match(store.Arg(value, i), regs, store)) return false;
    }
    value = store.Arg(value, a.size() - 1);
    code = &a.back();
  }
  return code->Match(value, regs, store);
}

Value TermCode::BuildFunction(const Value* regs, ValueStore* store) const {
  if (args.back().op != Op::kFunction) {
    // One level, built without allocating for up to kInline arguments.
    constexpr size_t kInline = 8;
    Value inline_args[kInline];
    std::vector<Value> wide;
    Value* built = inline_args;
    if (args.size() > kInline) {
      wide.resize(args.size());
      built = wide.data();
    }
    for (size_t i = 0; i < args.size(); ++i) {
      built[i] = args[i].Build(regs, store);
    }
    return store->Function(static_cast<uint32_t>(regs[reg].id()),
                           {built, args.size()});
  }
  // A chain of function codes: build every other argument top-down and
  // left to right, then intern the chain's nodes bottom-up, the order a
  // recursive build interns in.
  std::vector<const TermCode*> spine;
  const TermCode* leaf = Spine(&spine);
  std::vector<Value> built;
  for (const TermCode* code : spine) {
    for (size_t i = 0; i + 1 < code->args.size(); ++i) {
      built.push_back(code->args[i].Build(regs, store));
    }
  }
  Value value = leaf->Build(regs, store);
  for (auto it = spine.rbegin(); it != spine.rend(); ++it) {
    const size_t n = (*it)->args.size();
    built.push_back(value);
    value = store->Function(static_cast<uint32_t>(regs[(*it)->reg].id()),
                            {built.data() + built.size() - n, n});
    built.resize(built.size() - n);
  }
  return value;
}

std::optional<Value> TermCode::Fold(const Value* regs,
                                    ValueStore* store) const {
  if (op != Op::kFunction) return FoldArithmetic(regs[reg], store);
  const auto functor = static_cast<uint32_t>(regs[reg].id());
  if (args.back().op != Op::kFunction &&
      ValueStore::IsArithmetic(functor, args.size())) {
    // X + 1 and the like, folded without allocating.
    const std::optional<Value> lhs = args[0].Fold(regs, store);
    if (!lhs) return std::nullopt;
    const std::optional<Value> rhs = args[1].Fold(regs, store);
    if (!rhs) return std::nullopt;
    if (lhs->IsNumeric() && rhs->IsNumeric()) {
      return ApplyArithmetic(functor, *lhs, *rhs, store);
    }
    const Value pair[2] = {*lhs, *rhs};
    return store->Function(functor, pair);
  }
  // Fold in BuildFunction's order: every argument off the last-argument
  // chain top-down and left to right, then the chain's nodes bottom-up.
  std::vector<const TermCode*> spine;
  const TermCode* leaf = Spine(&spine);
  std::vector<Value> folded;
  for (const TermCode* code : spine) {
    for (size_t i = 0; i + 1 < code->args.size(); ++i) {
      const std::optional<Value> arg = code->args[i].Fold(regs, store);
      if (!arg) return std::nullopt;
      folded.push_back(*arg);
    }
  }
  std::optional<Value> value = leaf->Fold(regs, store);
  for (auto it = spine.rbegin(); it != spine.rend(); ++it) {
    if (!value) return std::nullopt;
    const size_t n = (*it)->args.size();
    const auto f = static_cast<uint32_t>(regs[(*it)->reg].id());
    folded.push_back(*value);
    const Value* a = folded.data() + folded.size() - n;
    if (ValueStore::IsArithmetic(f, n) && a[0].IsNumeric() &&
        a[1].IsNumeric()) {
      value = ApplyArithmetic(f, a[0], a[1], store);
    } else {
      value = store->Function(f, {a, n});
    }
    folded.resize(folded.size() - n);
  }
  return value;
}

Term TermCode::Show(const Value* regs, const ValueStore& store) const {
  std::vector<const TermCode*> spine;
  const TermCode* leaf = Spine(&spine);
  Term shown =
      leaf->op == Op::kRead ? store.ToTerm(regs[leaf->reg]) : leaf->term;
  for (auto it = spine.rbegin(); it != spine.rend(); ++it) {
    const std::vector<TermCode>& a = (*it)->args;
    std::vector<Term> parts;
    parts.reserve(a.size());
    for (size_t i = 0; i + 1 < a.size(); ++i) {
      parts.push_back(a[i].Show(regs, store));
    }
    parts.push_back(std::move(shown));
    shown = Term::MakeFunction((*it)->term.text(), std::move(parts));
  }
  return shown;
}

bool TermCode::ReadsArithmetic(const Value* regs) const {
  const TermCode* code = this;
  for (; code->op == Op::kFunction; code = &code->args.back()) {
    for (size_t i = 0; i + 1 < code->args.size(); ++i) {
      if (code->args[i].ReadsArithmetic(regs)) return true;
    }
  }
  return code->op == Op::kRead && regs[code->reg].HoldsArithmetic();
}

namespace {

/// True iff `code` or some code below it reads a register.
bool ReadsRegister(const TermCode& code) {
  const TermCode* c = &code;
  for (; c->op == TermCode::Op::kFunction; c = &c->args.back()) {
    for (size_t i = 0; i + 1 < c->args.size(); ++i) {
      if (ReadsRegister(c->args[i])) return true;
    }
  }
  return c->op == TermCode::Op::kRead;
}

}  // namespace

bool TermCode::MayHoldArithmetic() const {
  switch (op) {
    case Op::kRead:
      return true;
    case Op::kConst:
      return ContainsArithmetic(term);
    case Op::kFunction:
      // `term` holds every constant and functor below this code, so past
      // it only a register read can bring arithmetic in.
      return ContainsArithmetic(term) || ReadsRegister(*this);
    case Op::kWrite:
    case Op::kUnbound:
      return false;
  }
  return false;
}

Term ParameterVariable(size_t i) {
  return Term::MakeVariable(StrCat("$", i));
}

namespace {

/// True iff `var` names a parameter (`$i`); stores i into `*index`.
bool ParameterIndex(const std::string& var, size_t* index) {
  if (var.size() < 2 || var[0] != '$') return false;
  const char* end = var.data() + var.size();
  auto [ptr, ec] = std::from_chars(var.data() + 1, end, *index);
  return ec == std::errc() && ptr == end;
}

}  // namespace

uint32_t RegisterScope::RegisterOf(const std::string& var) {
  auto [it, added] = registers_.emplace(var, bound_.size());
  if (added) {
    size_t param = 0;
    const bool is_param = ParameterIndex(var, &param);
    bound_.push_back(is_param);
    if (is_param) parameters_.emplace_back(param, it->second);
  }
  return it->second;
}

bool RegisterScope::IsBound(const std::string& var) const {
  size_t param = 0;
  if (ParameterIndex(var, &param)) return true;
  auto it = registers_.find(var);
  return it != registers_.end() && bound_[it->second];
}

bool RegisterScope::AllBound(const Term& t) const {
  const Term* s = &t;
  for (; s->IsFunction() && !s->args().empty(); s = &s->args().back()) {
    const std::vector<Term>& a = s->args();
    for (size_t i = 0; i + 1 < a.size(); ++i) {
      if (!AllBound(a[i])) return false;
    }
  }
  return !s->IsVariable() || IsBound(s->text());
}

uint32_t RegisterScope::ConstantRegister(Term t) {
  const auto reg = static_cast<uint32_t>(bound_.size());
  bound_.push_back(true);
  constants_.emplace_back(reg, std::move(t));
  return reg;
}

void RegisterScope::LoadConstants(ValueStore* store, Value* regs) const {
  for (const auto& [reg, term] : constants_) regs[reg] = store->Intern(term);
}

TermCode RegisterScope::Compile(const Term& t, bool match) {
  // The function terms down t's last argument, and whether each one's
  // subterm is ground, found bottom-up so the walk stays linear.
  std::vector<const Term*> spine;
  const Term* leaf = &t;
  for (; leaf->IsFunction() && !leaf->args().empty();
       leaf = &leaf->args().back()) {
    spine.push_back(leaf);
  }
  std::vector<bool> ground(spine.size());
  bool below = leaf->IsGround();
  for (size_t k = spine.size(); k-- > 0;) {
    const std::vector<Term>& a = spine[k]->args();
    for (size_t i = 0; below && i + 1 < a.size(); ++i) below = a[i].IsGround();
    ground[k] = below;
  }
  // Top-down, in the order a recursive compile allocates registers: a
  // function's functor, its other arguments left to right, then its last.
  TermCode root;
  TermCode* code = &root;
  size_t k = 0;
  for (; k < spine.size() && !ground[k]; ++k) {
    const Term& s = *spine[k];
    code->op = TermCode::Op::kFunction;
    code->term = s;
    code->reg = ConstantRegister(Term::MakeSymbol(s.text()));
    code->args.resize(s.args().size());
    for (size_t i = 0; i + 1 < s.args().size(); ++i) {
      code->args[i] = Compile(s.args()[i], match);
    }
    code = &code->args.back();
  }
  const Term& rest = k < spine.size() ? *spine[k] : *leaf;
  if (!rest.IsVariable()) {
    code->term = rest;
    code->reg = ConstantRegister(rest);
  } else if (match) {
    code->reg = RegisterOf(rest.text());
    code->op = bound_[code->reg] ? TermCode::Op::kRead : TermCode::Op::kWrite;
    bound_[code->reg] = true;
  } else if (IsBound(rest.text())) {
    code->op = TermCode::Op::kRead;
    code->reg = RegisterOf(rest.text());
  } else {
    code->op = TermCode::Op::kUnbound;
    code->term = rest;  // shown as the variable itself
  }
  return root;
}

LiteralPattern LiteralPattern::Compile(const Literal& lit,
                                       RegisterScope* scope) {
  LiteralPattern p;
  // Key columns first, while no variable of the literal is bound yet.
  std::vector<bool> is_key(lit.arity(), false);
  for (size_t i = 0; i < lit.arity(); ++i) {
    if (!scope->AllBound(lit.args()[i])) continue;
    is_key[i] = true;
    p.key_cols.push_back(static_cast<int>(i));
    p.key_code.push_back(scope->CompileBuild(lit.args()[i]));
  }
  for (size_t i = 0; i < lit.arity(); ++i) {
    if (is_key[i]) continue;
    p.match_cols.push_back(i);
    p.match_code.push_back(scope->CompileMatch(lit.args()[i]));
  }
  return p;
}

Result<CompiledRule> CompiledRule::Compile(const Rule& rule,
                                           const std::vector<size_t>& order) {
  const std::vector<Literal>& body = rule.body();
  std::vector<size_t> visit = order;
  if (visit.empty()) {
    visit.resize(body.size());
    for (size_t i = 0; i < visit.size(); ++i) visit[i] = i;
  }
  if (visit.size() != body.size()) {
    return Status::Internal("rule evaluation order has wrong size");
  }
  std::vector<bool> seen(body.size(), false);
  for (size_t pos : visit) {
    if (pos >= body.size() || seen[pos]) {
      return Status::Internal(StrCat("rule evaluation order is not a "
                                     "permutation of the body of rule ",
                                     rule.ToString()));
    }
    seen[pos] = true;
  }

  CompiledRule compiled;
  compiled.rule_ = &rule;
  RegisterScope scope;
  for (size_t pos : visit) {
    const Literal& lit = body[pos];
    BodyStep step;
    step.body_pos = pos;
    if (!lit.IsBuiltin() && !lit.negated()) {
      step.kind = BodyStep::Kind::kScan;
      step.pattern = LiteralPattern::Compile(lit, &scope);
      compiled.steps_.push_back(std::move(step));
      continue;
    }
    // Builtin and negated literals: their arguments as bound before them.
    bool all_bound = true;
    std::vector<bool> side_bound;
    for (const Term& a : lit.args()) {
      side_bound.push_back(scope.AllBound(a));
      all_bound = all_bound && side_bound.back();
      step.args.push_back(scope.CompileBuild(a));
    }
    if (lit.negated()) {
      step.kind = all_bound ? BodyStep::Kind::kNegated
                            : BodyStep::Kind::kUnsafeNegation;
    } else if (!BuiltinComputable(lit, side_bound[0], side_bound[1])) {
      step.kind = BodyStep::Kind::kUnsafeBuiltin;
    } else if (all_bound) {
      step.kind = BodyStep::Kind::kTest;
    } else {
      // `=` with exactly one side bound: the other side binds.
      step.kind = BodyStep::Kind::kAssign;
      step.bound_side = side_bound[0] ? 0 : 1;
      step.target = scope.CompileMatch(lit.args()[1 - step.bound_side]);
    }
    compiled.steps_.push_back(std::move(step));
  }
  for (const Term& a : rule.head().args()) {
    compiled.head_bound_.push_back(scope.AllBound(a));
    compiled.head_.push_back(scope.CompileBuild(a));
    compiled.head_folds_.push_back(compiled.head_.back().MayHoldArithmetic());
  }
  compiled.scope_ = std::move(scope);
  return compiled;
}

size_t CompiledRule::num_params() const {
  size_t n = 0;
  for (const auto& [param, reg] : scope_.parameters()) {
    n = std::max(n, param + 1);
  }
  return n;
}

RuleState::RuleState(const CompiledRule& rule,
                     const std::vector<Value>& params, ValueStore* store)
    : rule_(&rule),
      store_(store),
      registers_(rule.scope_.size()),
      keys_(rule.steps_.size()),
      indexes_(rule.steps_.size()),
      head_(rule.head_.size()) {
  rule.scope_.LoadConstants(store, registers_.data());
  for (const auto& [param, reg] : rule.scope_.parameters()) {
    registers_[reg] = params[param];
  }
  for (size_t i = 0; i < rule.steps_.size(); ++i) {
    const CompiledRule::BodyStep& step = rule.steps_[i];
    if (step.kind == CompiledRule::BodyStep::Kind::kScan) {
      keys_[i].resize(step.pattern.key_cols.size());
    } else if (step.kind == CompiledRule::BodyStep::Kind::kNegated) {
      keys_[i].resize(step.args.size());
    }
  }
}

void RuleState::ResolveIndexes(const RelationView* views) {
  for (size_t i = 0; i < rule_->steps_.size(); ++i) {
    const CompiledRule::BodyStep& step = rule_->steps_[i];
    if (step.kind != CompiledRule::BodyStep::Kind::kScan ||
        step.pattern.key_cols.empty()) {
      continue;
    }
    Relation* rel = views[step.body_pos].rel;
    if (rel != nullptr && indexes_[i].rel != rel) {
      indexes_[i] = {rel, rel->IndexFor(step.pattern.key_cols)};
    }
  }
}

/// One firing of a compiled rule: a backtracking walk over its steps.
/// Nothing is undone on backtrack: a register that is unbound at a step is
/// simply overwritten by the next match that writes it.
struct CompiledRule::Firing {
  const CompiledRule& rule;
  RuleState& state;
  RelationView* views;
  Relation* out;
  EvalCounters* counters;
  const RuleEvalOptions& options;
  ValueStore* store;
  Value* regs;
  size_t inserted = 0;
  size_t since_check = 0;  ///< examined tuples since the last check-point

  Result<size_t> Run() {
    // Freeze every scanned literal's row window: rows appended from here
    // on, by this firing or anyone else, stay invisible to it.
    for (const BodyStep& step : rule.steps_) {
      if (step.kind != BodyStep::Kind::kScan) continue;
      RelationView& view = views[step.body_pos];
      if (view.rel != nullptr) view.end = std::min(view.end, view.rel->size());
    }
    state.ResolveIndexes(views);
    counters->rule_firings++;
    LDL_RETURN_NOT_OK(Step(0));
    FlushWork();
    if (options.accountant != nullptr && inserted != 0) {
      options.accountant->AddTuplesDerived(inserted);
    }
    return inserted;
  }

  /// Counts one examined tuple; every kCheckIntervalTuples of them, flushes
  /// work into the accountant and polls the cancellation token. The
  /// disabled path (no token, no accountant) is the increment + compare.
  Status CountExamined() {
    counters->tuples_examined++;
    if (++since_check < CancellationToken::kCheckIntervalTuples) {
      return Status::OK();
    }
    FlushWork();
    if (options.cancel != nullptr) {
      LDL_RETURN_NOT_OK(options.cancel->Check());
    }
    return Status::OK();
  }

  /// Pushes locally accumulated work into the accountant.
  void FlushWork() {
    if (options.accountant != nullptr && since_check != 0) {
      options.accountant->AddTuplesExamined(since_check);
    }
    since_check = 0;
  }

  Status Step(size_t depth) {
    if (depth == rule.steps_.size()) return EmitHead();
    const BodyStep& step = rule.steps_[depth];
    switch (step.kind) {
      case BodyStep::Kind::kScan:
        return StepScan(step, depth);
      case BodyStep::Kind::kNegated:
        return StepNegated(step, depth);
      case BodyStep::Kind::kTest:
        return StepTest(step, depth);
      case BodyStep::Kind::kAssign:
        return StepAssign(step, depth);
      case BodyStep::Kind::kUnsafeBuiltin:
        return UnsafeBuiltin(step);
      case BodyStep::Kind::kUnsafeNegation:
        return Status::Unsafe(StrCat("negated literal ", Shown(step),
                                     " has unbound variables in rule ",
                                     rule.rule().ToString()));
    }
    return Status::Internal("unreachable");
  }

  /// The literal of `step` as far as it is bound, as errors show it.
  std::string Shown(const CompiledRule::BodyStep& step) const {
    std::vector<Term> args;
    for (const TermCode& a : step.args) args.push_back(a.Show(regs, *store));
    return rule.rule().body()[step.body_pos].WithArgs(std::move(args))
        .ToString();
  }

  Status UnsafeBuiltin(const CompiledRule::BodyStep& step) const {
    return Status::Unsafe(StrCat("builtin ", Shown(step),
                                 " is not computable at this point of rule ",
                                 rule.rule().ToString(),
                                 " (unsafe literal order)"));
  }

  Status EmitHead() {
    counters->derivations++;
    if (counters->derivations > options.max_derivations) {
      return Status::ResourceExhausted(
          StrCat("rule ", rule.rule().ToString(), " exceeded ",
                 options.max_derivations, " derivations"));
    }
    Value* row = state.head_.data();
    for (size_t i = 0; i < rule.head_.size(); ++i) {
      const TermCode& code = rule.head_[i];
      if (!rule.head_bound_[i]) {
        return Status::Unsafe(
            StrCat("non-ground head value ", code.Show(regs, *store).ToString(),
                   " in rule ", rule.rule().ToString(),
                   " (rule is not range-restricted under this order)"));
      }
      if (!rule.head_folds_[i]) {
        row[i] = code.Build(regs, store);
        continue;
      }
      // A register read folds only when its stored value holds arithmetic
      // (one flag test).
      if (code.op != TermCode::Op::kFunction) {
        row[i] = regs[code.reg];
        if (!row[i].HoldsArithmetic()) continue;
      }
      // Fold any arithmetic the head may carry, e.g. p(X+1) <- q(X).
      const std::optional<Value> folded = code.Fold(regs, store);
      if (!folded) return Status::OK();  // arithmetic error: no tuple
      row[i] = *folded;
    }
    counters->dedup_probes++;
    if (out->InsertRow({row, rule.head_.size()})) {
      counters->inserts++;
      ++inserted;
    }
    return Status::OK();
  }

  Status StepTest(const CompiledRule::BodyStep& step, size_t depth) {
    const BuiltinKind kind = rule.rule().body()[step.body_pos].builtin();
    const std::optional<Value> lhs = step.args[0].Fold(regs, store);
    const std::optional<Value> rhs = step.args[1].Fold(regs, store);
    // An arithmetic error makes the comparison false.
    if (!lhs || !rhs || !EvalGroundBuiltin(kind, *lhs, *rhs, store)) {
      return Status::OK();
    }
    return Step(depth + 1);
  }

  Status StepAssign(const CompiledRule::BodyStep& step, size_t depth) {
    // A stored value holding arithmetic makes the unbound side need
    // equation solving, exactly as arithmetic written there would.
    if (step.target.ReadsArithmetic(regs)) return UnsafeBuiltin(step);
    const std::optional<Value> value =
        step.args[step.bound_side].Fold(regs, store);
    if (!value) return Status::OK();  // arithmetic error: fails
    // The bound side reads only registers bound before the literal, and
    // the target writes only ones that were not, so `value` survives it.
    if (!step.target.Match(*value, regs, *store)) return Status::OK();
    return Step(depth + 1);
  }

  Status StepNegated(const BodyStep& step, size_t depth) {
    Value* key = state.keys_[depth].data();
    for (size_t i = 0; i < step.args.size(); ++i) {
      key[i] = step.args[i].Build(regs, store);
    }
    // Negation reads a lower, already complete stratum: no window needed.
    Relation* rel = views[step.body_pos].rel;
    LDL_RETURN_NOT_OK(CountExamined());
    if (rel != nullptr &&
        rel->ContainsRow({key, step.args.size()})) {
      return Status::OK();
    }
    return Step(depth + 1);
  }

  Status StepScan(const BodyStep& step, size_t depth) {
    const RelationView& view = views[step.body_pos];
    Relation* rel = view.rel;
    if (rel == nullptr || view.begin >= view.end) return Status::OK();
    const LiteralPattern& pattern = step.pattern;

    // Zero-copy reads. `rel` may be the relation this firing emits into,
    // so it can grow while it is being read, and the reads stay valid
    // because:
    //  - the only insert happens in EmitHead, deeper in the recursion and
    //    after the examined row's match is done; Match copies into a
    //    register every value it keeps, so the row pointer is dead once
    //    Step(depth + 1) may have grown the relation and moved its storage
    //    (each row is re-read from the relation by id);
    //  - the posting list is read through its index by position, so a
    //    move of its slice (the group grew) or of the index's id array is
    //    harmless;
    //  - rows are only appended, so ids below view.end keep their rows,
    //    and postings are ascending ids, so the window's positions are
    //    fixed when the walk starts.
    auto try_row = [&](size_t id) -> Status {
      LDL_RETURN_NOT_OK(CountExamined());
      if (!pattern.Match(rel->row(id).data(), regs, *store)) {
        return Status::OK();
      }
      return Step(depth + 1);
    };

    if (!pattern.key_cols.empty()) {
      counters->index_probes++;
      Value* key = state.keys_[depth].data();
      pattern.BuildKey(regs, store, key);
      const Relation::Postings ids = rel->Lookup(
          state.indexes_[depth].id, {key, pattern.key_cols.size()},
          &counters->index_rows_built);
      // Postings ascend, and rows appended during the walk have ids past
      // view.end, so the window's positions are fixed here.
      const size_t end = ids.LowerBound(view.end);
      for (size_t i = ids.LowerBound(view.begin); i < end; ++i) {
        LDL_RETURN_NOT_OK(try_row(ids[i]));
      }
      return Status::OK();
    }
    for (size_t i = view.begin; i < view.end; ++i) {
      LDL_RETURN_NOT_OK(try_row(i));
    }
    return Status::OK();
  }
};

Result<size_t> EvaluateRule(const CompiledRule& rule, RuleState* state,
                            RelationView* views, Relation* out,
                            EvalCounters* counters,
                            const RuleEvalOptions& options) {
  CompiledRule::Firing firing{rule,     *state,  views,
                              out,      counters, options,
                              state->store_, state->registers_.data()};
  return firing.Run();
}

}  // namespace ldl
