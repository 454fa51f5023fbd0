#include "engine/rule_eval.h"

#include <algorithm>

#include "base/strings.h"
#include "engine/builtins.h"
#include "engine/unify.h"

namespace ldl {

void EvalCounters::Add(const EvalCounters& other) {
  tuples_examined += other.tuples_examined;
  derivations += other.derivations;
  inserts += other.inserts;
  rule_firings += other.rule_firings;
  dedup_probes += other.dedup_probes;
  index_probes += other.index_probes;
  delta_rows += other.delta_rows;
}

std::string EvalCounters::ToString() const {
  return StrCat("examined=", tuples_examined, " derivations=", derivations,
                " inserts=", inserts, " firings=", rule_firings,
                " dedup_probes=", dedup_probes, " index_probes=", index_probes,
                " delta_rows=", delta_rows);
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
}

namespace {

/// Backtracking join over the rule body. Holds evaluation state so the
/// recursive walk stays readable.
class RuleEvaluator {
 public:
  RuleEvaluator(const Rule& rule, const RelationResolver& resolve,
                Relation* out, EvalCounters* counters,
                const RuleEvalOptions& options)
      : rule_(rule),
        resolve_(resolve),
        out_(out),
        counters_(counters),
        options_(options) {}

  Result<size_t> Run() {
    order_ = options_.order;
    if (order_.empty()) {
      order_.resize(rule_.body().size());
      for (size_t i = 0; i < order_.size(); ++i) order_[i] = i;
    }
    if (order_.size() != rule_.body().size()) {
      return Status::Internal("rule evaluation order has wrong size");
    }
    // Resolve every literal once and freeze its row window: rows appended
    // from here on, by this firing or anyone else, stay invisible to it.
    views_.assign(rule_.body().size(), RelationView{});
    for (size_t i = 0; i < views_.size(); ++i) {
      const Literal& lit = rule_.body()[i];
      if (lit.IsBuiltin()) continue;
      RelationView view = resolve_(lit, i);
      if (view.rel != nullptr) view.end = std::min(view.end, view.rel->size());
      views_[i] = view;
    }
    counters_->rule_firings++;
    LDL_RETURN_NOT_OK(Step(0));
    FlushWork();
    if (options_.accountant != nullptr && inserted_ != 0) {
      options_.accountant->AddTuplesDerived(inserted_);
    }
    return inserted_;
  }

 private:
  /// Counts one examined tuple; every kCheckIntervalTuples of them, flushes
  /// work into the accountant and polls the cancellation token. The
  /// disabled path (no token, no accountant) is the increment + compare.
  Status CountExamined() {
    counters_->tuples_examined++;
    if (++since_check_ < CancellationToken::kCheckIntervalTuples) {
      return Status::OK();
    }
    FlushWork();
    if (options_.cancel != nullptr) {
      LDL_RETURN_NOT_OK(options_.cancel->Check());
    }
    return Status::OK();
  }

  /// Pushes locally accumulated work into the accountant.
  void FlushWork() {
    if (options_.accountant != nullptr && since_check_ != 0) {
      options_.accountant->AddTuplesExamined(since_check_);
    }
    since_check_ = 0;
  }

  Status Step(size_t depth) {
    if (depth == order_.size()) return EmitHead();
    const Literal& lit = rule_.body()[order_[depth]];
    if (lit.IsBuiltin()) return StepBuiltin(lit, depth);
    if (lit.negated()) return StepNegated(lit, depth);
    return StepPositive(lit, depth);
  }

  Status EmitHead() {
    counters_->derivations++;
    if (counters_->derivations > options_.max_derivations) {
      return Status::ResourceExhausted(
          StrCat("rule ", rule_.ToString(), " exceeded ",
                 options_.max_derivations, " derivations"));
    }
    Tuple t;
    t.reserve(rule_.head().arity());
    for (const Term& a : rule_.head().args()) {
      Term v = subst_.Apply(a);
      if (!v.IsGround()) {
        return Status::Unsafe(
            StrCat("non-ground head value ", v.ToString(), " in rule ",
                   rule_.ToString(),
                   " (rule is not range-restricted under this order)"));
      }
      // Fold any arithmetic the head may carry, e.g. p(X+1) <- q(X).
      if (ContainsArithmetic(v)) {
        auto folded = EvalArithmetic(v);
        if (!folded.ok()) return Status::OK();  // arithmetic error: no tuple
        v = std::move(folded).value();
      }
      t.push_back(std::move(v));
    }
    counters_->dedup_probes++;
    if (out_->Insert(std::move(t))) {
      counters_->inserts++;
      ++inserted_;
    }
    return Status::OK();
  }

  Status StepBuiltin(const Literal& lit, size_t depth) {
    size_t mark = subst_.Mark();
    BuiltinOutcome outcome = EvalBuiltin(lit, &subst_);
    switch (outcome) {
      case BuiltinOutcome::kSatisfied: {
        Status st = Step(depth + 1);
        subst_.UndoTo(mark);
        return st;
      }
      case BuiltinOutcome::kFailed:
        return Status::OK();
      case BuiltinOutcome::kNotComputable:
        return Status::Unsafe(
            StrCat("builtin ", subst_.Apply(lit).ToString(),
                   " is not computable at this point of rule ",
                   rule_.ToString(), " (unsafe literal order)"));
    }
    return Status::Internal("unreachable");
  }

  Status StepNegated(const Literal& lit, size_t depth) {
    Literal grounded = subst_.Apply(lit);
    for (const Term& a : grounded.args()) {
      if (!a.IsGround()) {
        return Status::Unsafe(
            StrCat("negated literal ", grounded.ToString(),
                   " has unbound variables in rule ", rule_.ToString()));
      }
    }
    // Negation reads a lower, already complete stratum: no window needed.
    Relation* rel = views_[order_[depth]].rel;
    LDL_RETURN_NOT_OK(CountExamined());
    Tuple key(grounded.args().begin(), grounded.args().end());
    if (rel != nullptr && rel->Contains(key)) return Status::OK();
    return Step(depth + 1);
  }

  Status StepPositive(const Literal& lit, size_t depth) {
    // Determine bound argument positions under the current substitution.
    std::vector<int> bound_cols;
    Tuple key;
    std::vector<Term> patterns(lit.arity());
    for (size_t i = 0; i < lit.arity(); ++i) {
      patterns[i] = subst_.Apply(lit.args()[i]);
      if (patterns[i].IsGround()) {
        bound_cols.push_back(static_cast<int>(i));
        key.push_back(patterns[i]);
      }
    }

    const RelationView& view = views_[order_[depth]];
    Relation* rel = view.rel;
    if (rel == nullptr || view.begin >= view.end) return Status::OK();

    // Zero-copy reads. `rel` may be the relation this firing emits into,
    // so it can grow while it is being read, and the reads stay valid
    // because:
    //  - the only insert happens in EmitHead, deeper in the recursion and
    //    after the examined tuple's unification is done; Unify copies into
    //    the substitution every value it keeps, so the tuple reference is
    //    never used once Step(depth + 1) may have moved the tuple storage;
    //  - the posting list is a node of the index's unordered_map, whose
    //    address survives inserts and rehashes; it is walked by position,
    //    so a reallocation of its vector is harmless;
    //  - rows are only appended, so ids below view.end keep their tuples,
    //    and postings are ascending ids, so the walk stops at view.end.
    auto try_tuple = [&](const Tuple& t) -> Status {
      LDL_RETURN_NOT_OK(CountExamined());
      size_t mark = subst_.Mark();
      bool ok = true;
      for (size_t i = 0; i < lit.arity(); ++i) {
        if (!Unify(patterns[i], t[i], &subst_)) {
          ok = false;
          break;
        }
      }
      Status st = ok ? Step(depth + 1) : Status::OK();
      subst_.UndoTo(mark);
      return st;
    };

    if (!bound_cols.empty()) {
      counters_->index_probes++;
      const std::vector<uint32_t>& ids = rel->Lookup(bound_cols, key);
      size_t i = std::lower_bound(ids.begin(), ids.end(), view.begin) -
                 ids.begin();
      for (; i < ids.size() && ids[i] < view.end; ++i) {
        LDL_RETURN_NOT_OK(try_tuple(rel->tuple(ids[i])));
      }
      return Status::OK();
    }
    for (size_t i = view.begin; i < view.end; ++i) {
      LDL_RETURN_NOT_OK(try_tuple(rel->tuple(i)));
    }
    return Status::OK();
  }

  const Rule& rule_;
  const RelationResolver& resolve_;
  Relation* out_;
  EvalCounters* counters_;
  const RuleEvalOptions& options_;
  std::vector<size_t> order_;
  std::vector<RelationView> views_;  ///< per body position, frozen in Run
  Substitution subst_;
  size_t inserted_ = 0;
  size_t since_check_ = 0;  ///< examined tuples since the last check-point
};

}  // namespace

Result<size_t> EvaluateRule(const Rule& rule, const RelationResolver& resolve,
                            Relation* out, EvalCounters* counters,
                            const RuleEvalOptions& options) {
  RuleEvaluator evaluator(rule, resolve, out, counters, options);
  return evaluator.Run();
}

}  // namespace ldl
