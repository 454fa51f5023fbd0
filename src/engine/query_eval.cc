#include "engine/query_eval.h"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <set>

#include "base/hash.h"
#include "base/strings.h"
#include "engine/counting.h"
#include "engine/magic.h"
#include "engine/rule_eval.h"
#include "graph/dependency_graph.h"

namespace ldl {

Program ReachableSubprogram(const Program& program, const Literal& goal,
                            std::vector<size_t>* index_map) {
  std::set<PredicateId> reachable;
  std::vector<PredicateId> stack;
  if (program.IsDerived(goal.predicate())) {
    reachable.insert(goal.predicate());
    stack.push_back(goal.predicate());
  }
  while (!stack.empty()) {
    PredicateId pred = stack.back();
    stack.pop_back();
    for (size_t rule_index : program.RulesFor(pred)) {
      for (const Literal& lit : program.rules()[rule_index].body()) {
        if (lit.IsBuiltin()) continue;
        PredicateId p = lit.predicate();
        if (program.IsDerived(p) && reachable.insert(p).second) {
          stack.push_back(p);
        }
      }
    }
  }
  Program out;
  for (size_t i = 0; i < program.rules().size(); ++i) {
    const Rule& rule = program.rules()[i];
    if (reachable.count(rule.head().predicate())) {
      out.AddRule(rule);
      if (index_map != nullptr) index_map->push_back(i);
    }
  }
  return out;
}

namespace {

/// The values of `goal`'s bound (ground) arguments in order, interned into
/// `store`: the parameters of its seed and of its answer selector.
std::vector<Value> BoundValues(const Literal& goal, ValueStore* store) {
  std::vector<Value> out;
  for (const Term& arg : goal.args()) {
    if (arg.IsGround()) out.push_back(store->Intern(arg));
  }
  return out;
}

/// The pattern a selector matches: `lead` first, then `goal`'s arguments,
/// the ground ones replaced by the parameters $0, $1, ... or, when
/// `skip_bound` is set, left out.
Literal SelectorPattern(const Literal& goal, std::vector<Term> lead,
                        bool skip_bound) {
  size_t param = 0;
  for (const Term& arg : goal.args()) {
    if (!arg.IsGround()) {
      lead.push_back(arg);
    } else if (skip_bound) {
      ++param;
    } else {
      lead.push_back(ParameterVariable(param++));
    }
  }
  return goal.WithArgs(std::move(lead));
}

}  // namespace

AnswerSelector AnswerSelector::Compile(const Literal& goal) {
  AnswerSelector s;
  s.pattern_ =
      LiteralPattern::Compile(SelectorPattern(goal, {}, false), &s.scope_);
  return s;
}

AnswerSelector AnswerSelector::CompileCounting(const Literal& goal) {
  AnswerSelector s;
  s.pattern_ = LiteralPattern::Compile(
      SelectorPattern(goal, {Term::MakeInt(0)}, true), &s.scope_);
  uint32_t bound = 0;
  uint32_t free_col = 1;  // column 0 is the level
  for (const Term& arg : goal.args()) {
    s.project_.push_back(arg.IsGround() ? Column{true, bound++}
                                        : Column{false, free_col++});
  }
  return s;
}

void AnswerSelector::Select(Relation* rel, std::span<const Value> params,
                            bool build_index, Relation* out) const {
  if (rel == nullptr || rel->empty()) return;
  ValueStore* store = rel->store();
  const size_t num_regs = scope_.size();
  const size_t num_key = pattern_.key_cols.size();
  // Registers, key and answer row in one buffer, on the stack unless the
  // goal is very wide.
  constexpr size_t kInline = 32;
  Value inline_values[kInline];
  std::vector<Value> wide;
  Value* regs = inline_values;
  if (num_regs + num_key + project_.size() > kInline) {
    wide.resize(num_regs + num_key + project_.size());
    regs = wide.data();
  }
  Value* key = regs + num_regs;
  Value* answer = key + num_key;
  scope_.LoadConstants(store, regs);
  for (const auto& [param, reg] : scope_.parameters()) {
    assert(param < params.size() && "goal binds fewer arguments");
    regs[reg] = params[param];
  }
  pattern_.BuildKey(regs, store, key);
  for (size_t i = 0; i < project_.size(); ++i) {
    if (project_[i].param) answer[i] = params[project_[i].index];
  }
  // `rel` is never `out`, so its rows stay put while `out` grows.
  auto emit = [&](size_t id) {
    const std::span<const Value> row = rel->row(id);
    if (!pattern_.Match(row.data(), regs, *store)) return;
    if (project_.empty()) {
      out->InsertRow(row);
      return;
    }
    for (size_t i = 0; i < project_.size(); ++i) {
      if (!project_[i].param) answer[i] = row[project_[i].index];
    }
    out->InsertRow({answer, project_.size()});
  };
  if (num_key != 0) {
    const std::optional<Relation::IndexId> index =
        build_index ? rel->IndexFor(pattern_.key_cols)
                    : rel->BuiltIndex(pattern_.key_cols);
    if (index.has_value()) {
      for (uint32_t id : rel->Lookup(*index, {key, num_key})) emit(id);
      return;
    }
  }
  // The scan filters the bound columns by Value ==, as an index key would.
  for (size_t id = 0; id < rel->size(); ++id) {
    const Value* row = rel->row(id).data();
    size_t k = 0;
    while (k < num_key && row[pattern_.key_cols[k]] == key[k]) ++k;
    if (k == num_key) emit(id);
  }
}

Relation SelectMatching(Relation* rel, const Literal& goal) {
  if (rel == nullptr) return Relation("answers", goal.arity());
  Relation out("answers", goal.arity(), rel->shared_store());
  AnswerSelector::Compile(goal).Select(rel, BoundValues(goal, rel->store()),
                                       /*build_index=*/true, &out);
  return out;
}

std::vector<Tuple> CanonicalAnswers(const Relation& answers) {
  std::vector<Tuple> out = answers.tuples();
  std::sort(out.begin(), out.end());
  return out;
}

std::string AnswerFingerprint(const Relation& answers) {
  // Commutative accumulation (sum of per-row hashes) so the digest is
  // independent of insertion order without sorting. Each row hashes its
  // values' structural hashes (Term::Hash), never their ids, so equal
  // answers from different stores share a fingerprint.
  uint64_t acc = 0;
  const ValueStore* store = answers.empty() ? nullptr : answers.store();
  for (size_t i = 0; i < answers.size(); ++i) {
    const std::span<const Value> row = answers.row(i);
    size_t seed = row.size();
    for (Value v : row) HashCombine(&seed, store->Hash(v));
    acc += static_cast<uint64_t>(seed) * 0x9e3779b97f4a7c15ULL;
  }
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%zu:%016llx", answers.size(),
                static_cast<unsigned long long>(acc));
  return buf;
}

namespace {

/// True when every free argument of `goal` is a variable and no variable
/// repeats: the shape a prepared selector serves.
bool FreeArgumentsDistinct(const Literal& goal) {
  const std::vector<Term>& args = goal.args();
  for (size_t i = 0; i < args.size(); ++i) {
    if (args[i].IsGround()) continue;
    if (!args[i].IsVariable()) return false;
    for (size_t j = 0; j < i; ++j) {
      if (args[j].IsVariable() && args[j].text() == args[i].text()) {
        return false;
      }
    }
  }
  return true;
}

/// True when every argument of `goal` is a variable and no variable
/// repeats, so every tuple of the goal's relation is an answer.
bool AllDistinctVariables(const Literal& goal) {
  for (const Term& arg : goal.args()) {
    if (arg.IsGround()) return false;
  }
  return FreeArgumentsDistinct(goal);
}

/// `goal` with every free argument a distinct variable: the shape the
/// prepared selector is compiled for.
Literal SelectorShape(const Literal& goal) {
  std::vector<Term> args;
  for (size_t i = 0; i < goal.arity(); ++i) {
    const Term& arg = goal.args()[i];
    args.push_back(arg.IsGround() ? arg : Term::MakeVariable(StrCat("V", i)));
  }
  return goal.WithArgs(std::move(args));
}

/// `goal`'s answers in `rel`, in a relation of base's store sized for the
/// answers of the prepared query's last run: selected through the prepared
/// selector when the goal has its shape, else through one compiled now.
/// Scratch relations are dropped after the run, so an index is probed only
/// when the fixpoint built it.
Relation SelectAnswers(const PreparedQuery& prepared, const Literal& goal,
                       std::span<const Value> params, Relation* rel,
                       Database* base) {
  Relation out("answers", goal.arity(), base->shared_store());
  out.Reserve(prepared.answer_rows);
  if (FreeArgumentsDistinct(goal)) {
    prepared.selector.Select(rel, params, /*build_index=*/false, &out);
  } else {
    const AnswerSelector own = prepared.method == RecursionMethod::kCounting
                                   ? AnswerSelector::CompileCounting(goal)
                                   : AnswerSelector::Compile(goal);
    own.Select(rel, params, /*build_index=*/false, &out);
  }
  prepared.answer_rows = out.size();
  return out;
}

/// The bodiless rule `seed` with its arguments from position `first` on
/// replaced by the parameters $0, $1, ...: the seed fact of every goal of
/// the prepared shape.
Rule ParameterizedSeed(const Literal& seed, size_t first) {
  std::vector<Term> args(seed.args().begin(), seed.args().begin() + first);
  for (size_t i = first; i < seed.arity(); ++i) {
    args.push_back(ParameterVariable(i - first));
  }
  return Rule(seed.WithArgs(std::move(args)), {});
}

/// Builds `program`'s schedule into `out`, counting its compiles.
Status Schedule(Program program, RecursionMethod method,
                const std::unordered_map<size_t, std::vector<size_t>>& orders,
                const QueryEvalOptions& options, PreparedQuery* out) {
  LDL_ASSIGN_OR_RETURN(
      out->schedule,
      FixpointSchedule::Build(std::move(program), method, orders));
  options.fixpoint.trace.Count("engine.rules_compiled",
                               out->schedule.rules_compiled());
  return Status::OK();
}

Status PrepareFull(const Program& program, const Literal& goal,
                   RecursionMethod method, const QueryEvalOptions& options,
                   PreparedQuery* out) {
  std::vector<size_t> index_map;
  Program sub = ReachableSubprogram(program, goal, &index_map);
  // options.fixpoint.rule_orders is keyed by indices into the *original*
  // program; remap to the subprogram's indices.
  const auto& orders = options.fixpoint.rule_orders;
  std::unordered_map<size_t, std::vector<size_t>> remapped;
  for (size_t sub_index = 0; sub_index < index_map.size(); ++sub_index) {
    auto it = orders.find(index_map[sub_index]);
    if (it != orders.end()) remapped[sub_index] = it->second;
  }
  out->selector = AnswerSelector::Compile(SelectorShape(goal));
  return Schedule(std::move(sub), method, remapped, options, out);
}

Status PrepareMagic(const Program& program, const Literal& goal,
                    const QueryEvalOptions& options, PreparedQuery* out) {
  out->method = RecursionMethod::kMagic;
  // Adornment itself only visits rules reachable from the goal, and
  // options.sips is keyed by original rule indices — adorn the original
  // program directly.
  Span rewrite_span =
      options.fixpoint.trace.StartSpan("magic-rewrite", "engine");
  LDL_ASSIGN_OR_RETURN(AdornedProgram adorned,
                       AdornProgramForQuery(program, goal, options.sips));
  LDL_ASSIGN_OR_RETURN(MagicProgram magic, MagicRewrite(adorned));
  // Install the seed as a bodiless rule so its predicate counts as derived
  // (a schedule reads non-derived predicates from `base`).
  magic.rewritten.AddRule(ParameterizedSeed(magic.seed, 0));
  rewrite_span.Finish();
  out->answer_pred = magic.answer_pred;
  out->selector = AnswerSelector::Compile(SelectorShape(goal));
  out->adorned = std::move(adorned.predicates);
  // Orders are baked into the rewritten bodies.
  return Schedule(std::move(magic.rewritten), RecursionMethod::kSemiNaive, {},
                  options, out);
}

Status PrepareCounting(const Program& program, const Literal& goal,
                       const QueryEvalOptions& options, PreparedQuery* out) {
  Span rewrite_span =
      options.fixpoint.trace.StartSpan("counting-rewrite", "engine");
  auto rewritten = CountingRewrite(program, goal);
  rewrite_span.Finish();
  if (!rewritten.ok()) {
    if (options.counting_fallback &&
        rewritten.status().code() == StatusCode::kUnsupported) {
      LDL_RETURN_NOT_OK(PrepareMagic(program, goal, options, out));
      out->note = StrCat("counting inapplicable (",
                         rewritten.status().message(),
                         "); fell back to magic");
      return Status::OK();
    }
    return rewritten.status();
  }
  CountingProgram counting = std::move(rewritten).value();
  // The seed's first argument is the counter (0); the rest are the goal's
  // constants.
  counting.rewritten.AddRule(ParameterizedSeed(counting.seed, 1));
  out->answer_pred = counting.answer_pred;
  out->selector = AnswerSelector::CompileCounting(SelectorShape(goal));
  return Schedule(std::move(counting.rewritten), RecursionMethod::kSemiNaive,
                  {}, options, out);
}

Result<QueryResult> RunFull(const PreparedQuery& prepared, Database* base,
                            const Literal& goal,
                            const QueryEvalOptions& options) {
  QueryResult result;
  result.method_used = prepared.method;
  FixpointOptions fixpoint = options.fixpoint;
  fixpoint.method_label = RecursionMethodToString(prepared.method);
  Database scratch(base->shared_store());
  scratch.set_accountant(fixpoint.trace.accountant);
  LDL_RETURN_NOT_OK(prepared.schedule.Run(base, &scratch, &result.stats,
                                          fixpoint, &prepared.slot_rows));
  // The full bottom-up methods compute every reachable derived predicate in
  // its entirety: the scratch sizes are all-free cardinalities.
  for (const PredicateId& pred : scratch.Predicates()) {
    result.derived_sizes.emplace_back(
        AdornedPredicate{pred, Adornment::AllFree(pred.arity)},
        static_cast<double>(scratch.Find(pred)->size()));
  }
  Relation* goal_rel = scratch.Find(goal.predicate());
  if (goal_rel != nullptr && AllDistinctVariables(goal)) {
    // Every row matches, in order, with no duplicate: the goal relation is
    // the answer set a selector would copy. Detach it from the per-query
    // accountant (releasing its charge) before it outlives the query.
    goal_rel->set_accountant(nullptr);
    result.answers = std::move(*goal_rel);
  } else {
    result.answers = SelectAnswers(
        prepared, goal, BoundValues(goal, base->store()), goal_rel, base);
  }
  return result;
}

/// The options a rewritten program runs under: the seed's parameters bound
/// to the goal's constants, and the rounds labelled by `method`.
FixpointOptions RewrittenRunOptions(const QueryEvalOptions& options,
                                    const Literal& goal, Database* base,
                                    const char* method) {
  FixpointOptions fixpoint = options.fixpoint;
  fixpoint.params = BoundValues(goal, base->store());
  fixpoint.method_label = method;
  return fixpoint;
}

Result<QueryResult> RunMagic(const PreparedQuery& prepared, Database* base,
                             const Literal& goal,
                             const QueryEvalOptions& options) {
  QueryResult result;
  result.method_used = RecursionMethod::kMagic;
  result.note = prepared.note;
  Database scratch(base->shared_store());
  scratch.set_accountant(options.fixpoint.trace.accountant);
  const FixpointOptions fixpoint =
      RewrittenRunOptions(options, goal, base, "magic");
  LDL_RETURN_NOT_OK(prepared.schedule.Run(base, &scratch, &result.stats,
                                          fixpoint, &prepared.slot_rows));
  result.answers = SelectAnswers(prepared, goal, fixpoint.params,
                                 scratch.Find(prepared.answer_pred), base);
  // p.a holds the answers for every binding magic.p.a received, so their
  // ratio is p's rows per binding under adornment a.
  for (const AdornedPredicate& ap : prepared.adorned) {
    const Relation* bindings = scratch.Find(MagicPredicateId(ap));
    if (bindings == nullptr || bindings->size() == 0) continue;
    const Relation* rows = scratch.Find(ap.RenamedId());
    result.derived_sizes.emplace_back(
        ap, rows == nullptr ? 0.0
                            : static_cast<double>(rows->size()) /
                                  static_cast<double>(bindings->size()));
  }
  return result;
}

Result<QueryResult> RunCounting(const PreparedQuery& prepared,
                                const Program& source, Database* base,
                                const Literal& goal,
                                const QueryEvalOptions& options) {
  QueryResult result;
  result.method_used = RecursionMethod::kCounting;
  Database scratch(base->shared_store());
  scratch.set_accountant(options.fixpoint.trace.accountant);
  FixpointOptions fixpoint =
      RewrittenRunOptions(options, goal, base, "counting");
  // Divergence guard. On acyclic data the ascent gains at least one new
  // counter level per round and the longest level chain is bounded by the
  // number of base tuples, so |EDB| + a few settling rounds suffices for
  // any terminating run. Cyclic data then trips kResourceExhausted after
  // O(|EDB|) rounds — and falls back to magic below — instead of grinding
  // through the generic million-round safety cap.
  fixpoint.max_iterations =
      std::min(fixpoint.max_iterations,
               base->TotalTuples() +
                   prepared.schedule.program().rules().size() + 8);
  Status st = prepared.schedule.Run(base, &scratch, &result.stats, fixpoint,
                                    &prepared.slot_rows);
  if (!st.ok()) {
    if (options.counting_fallback &&
        st.code() == StatusCode::kResourceExhausted) {
      // Rare (cyclic data), so the fallback is prepared here, per run, and
      // its compiles count in this run.
      PreparedQuery magic;
      LDL_RETURN_NOT_OK(PrepareMagic(source, goal, options, &magic));
      LDL_ASSIGN_OR_RETURN(QueryResult fallback,
                           RunMagic(magic, base, goal, options));
      fallback.stats.counters.rules_compiled +=
          magic.schedule.rules_compiled();
      fallback.note =
          StrCat("counting diverged (", st.message(), "); fell back to magic");
      return fallback;
    }
    return st;
  }
  // Answers: ans.p's level-0 rows, the level dropped and the goal's
  // constants put back.
  result.answers = SelectAnswers(prepared, goal, fixpoint.params,
                                 scratch.Find(prepared.answer_pred), base);
  // One binding (the goal's constants): its answers are the goal's entry.
  result.derived_sizes.emplace_back(
      AdornedPredicate{goal.predicate(), Adornment::FromGoal(goal)},
      static_cast<double>(result.answers.size()));
  return result;
}

}  // namespace

Result<PreparedQuery> PrepareQuery(const Program& program,
                                   const Literal& goal,
                                   RecursionMethod method,
                                   const QueryEvalOptions& options) {
  PreparedQuery out;
  out.requested = method;
  out.method = method;
  // A pure base-relation query needs no rules.
  out.derived = program.IsDerived(goal.predicate());
  if (!out.derived) return out;
  switch (method) {
    case RecursionMethod::kNaive:
    case RecursionMethod::kSemiNaive:
      LDL_RETURN_NOT_OK(PrepareFull(program, goal, method, options, &out));
      break;
    case RecursionMethod::kMagic:
      LDL_RETURN_NOT_OK(PrepareMagic(program, goal, options, &out));
      break;
    case RecursionMethod::kCounting:
      LDL_RETURN_NOT_OK(PrepareCounting(program, goal, options, &out));
      break;
  }
  return out;
}

Result<QueryResult> RunPrepared(const PreparedQuery& prepared,
                                const Program& source, Database* base,
                                const Literal& goal,
                                const QueryEvalOptions& options) {
  const char* method = RecursionMethodToString(prepared.requested);
  Span span = options.fixpoint.trace.StartSpan("query", "engine");
  if (span.active()) {
    span.AddArg("goal", goal.ToString());
    span.AddArg("method", method);
  }
  if (options.fixpoint.trace.metrics != nullptr) {
    options.fixpoint.trace.Count(StrCat("engine.method.", method));
  }
  LDL_RETURN_NOT_OK(options.fixpoint.trace.CheckCancel());
  if (!prepared.derived) {
    QueryResult result;
    result.method_used = prepared.requested;
    result.answers = SelectMatching(base->Find(goal.predicate()), goal);
    return result;
  }
  switch (prepared.method) {
    case RecursionMethod::kNaive:
    case RecursionMethod::kSemiNaive:
      return RunFull(prepared, base, goal, options);
    case RecursionMethod::kMagic:
      return RunMagic(prepared, base, goal, options);
    case RecursionMethod::kCounting:
      return RunCounting(prepared, source, base, goal, options);
  }
  return Status::Internal("unknown recursion method");
}

Result<QueryResult> EvaluateQuery(const Program& program, Database* base,
                                  const Literal& goal, RecursionMethod method,
                                  const QueryEvalOptions& options) {
  LDL_ASSIGN_OR_RETURN(PreparedQuery prepared,
                       PrepareQuery(program, goal, method, options));
  LDL_ASSIGN_OR_RETURN(QueryResult result,
                       RunPrepared(prepared, program, base, goal, options));
  result.stats.counters.rules_compiled += prepared.schedule.rules_compiled();
  return result;
}

}  // namespace ldl
