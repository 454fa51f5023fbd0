#include "analysis/analyzer.h"

#include <algorithm>
#include <map>
#include <utility>

#include "base/strings.h"
#include "engine/builtins.h"
#include "obs/metrics.h"
#include "storage/database.h"
#include "storage/statistics.h"

namespace ldl {

namespace {

/// Cardinality cap: the widening target for recursive cliques and the
/// ceiling for body products (avoids double overflow).
constexpr double kCardCap = 1e18;

/// Comparison bands in the engine's term order (TermKind order with the
/// numeric kinds merged — EvalGroundBuiltin compares numerics by value).
enum Band : int {
  kBandNumeric = 0,
  kBandString = 1,
  kBandSymbol = 2,
  kBandFunction = 3,
};

constexpr struct {
  uint8_t bit;
  Band band;
  const char* name;
} kBands[] = {
    {TypeSet::kNumeric, kBandNumeric, "num"},
    {TypeSet::kString, kBandString, "str"},
    {TypeSet::kSymbol, kBandSymbol, "sym"},
    {TypeSet::kFunction, kBandFunction, "fn"},
};

bool IsArithmeticFunctor(const std::string& f) {
  return f == "+" || f == "-" || f == "*" || f == "/" || f == "mod";
}

/// Sort of the value a rule-body expression evaluates to: arithmetic
/// function terms fold to numbers, other function terms are constructors.
TypeSet ExprType(const Term& t) {
  if (t.IsVariable()) return TypeSet::Any();
  if (t.IsFunction()) {
    return IsArithmeticFunctor(t.text()) ? TypeSet(TypeSet::kNumeric)
                                         : TypeSet(TypeSet::kFunction);
  }
  return TypeSet::Of(t);
}

/// Variables that must be numeric because they occur under an arithmetic
/// functor (at any depth of nested arithmetic).
void CollectArithmeticVars(const Term& t, std::vector<std::string>* out) {
  if (!t.IsFunction()) return;
  const bool arith = IsArithmeticFunctor(t.text());
  for (const Term& arg : t.args()) {
    if (arith && arg.IsVariable()) out->push_back(arg.text());
    CollectArithmeticVars(arg, out);
  }
}

/// Could `x <op> y` hold for some x with a sort in `lhs` and y with a sort
/// in `rhs`? Within a band values are unknown (assume possible); across
/// bands the engine's term order decides ordered comparisons.
bool ComparisonPossible(BuiltinKind kind, TypeSet lhs, TypeSet rhs) {
  if (lhs.empty() || rhs.empty()) return true;  // no information: no claim
  switch (kind) {
    case BuiltinKind::kEq:
      return lhs.CompatibleWith(rhs);
    case BuiltinKind::kNe:
      return true;  // distinct values exist in any nonempty sort pair
    case BuiltinKind::kLt:
    case BuiltinKind::kLe:
    case BuiltinKind::kGt:
    case BuiltinKind::kGe:
      break;
    case BuiltinKind::kNone:
      return true;
  }
  const bool less = kind == BuiltinKind::kLt || kind == BuiltinKind::kLe;
  for (const auto& a : kBands) {
    if (!(lhs.bits() & a.bit)) continue;
    for (const auto& b : kBands) {
      if (!(rhs.bits() & b.bit)) continue;
      if (a.band == b.band) return true;  // same band: value-dependent
      if (less ? a.band < b.band : a.band > b.band) return true;
    }
  }
  return false;
}

/// Per-variable sort constraints within one rule, with the provenance of
/// each constraint for diagnostics.
struct VarConstraint {
  TypeSet type = TypeSet::Any();
  std::vector<std::string> sources;  // diagnosis mode only
};

using VarTypes = std::map<std::string, VarConstraint>;

/// Recomputes the per-variable sorts of `rule` from the current predicate
/// types. In inference mode empty position types flow through (least
/// fixpoint over not-yet-derived predicates); in diagnosis mode empty
/// restrictions are skipped — a variable ending empty then means genuinely
/// incompatible nonempty constraints (L013), and provenance is recorded.
VarTypes SolveRuleVarTypes(
    const Rule& rule,
    const std::unordered_map<PredicateId, std::vector<TypeSet>,
                             PredicateIdHash>& pred_types,
    bool diagnosis) {
  VarTypes vars;
  auto restrict_var = [&](const std::string& name, TypeSet t,
                          const std::string& source) -> bool {
    if (diagnosis && t.empty()) return false;
    VarConstraint& c = vars[name];
    TypeSet met = c.type.Meet(t);
    if (diagnosis && !t.IsAny()) {
      c.sources.push_back(StrCat(source, " ", t.ToString()));
    }
    if (met == c.type) return false;
    c.type = met;
    return true;
  };

  bool changed = true;
  for (int pass = 0; pass < 4 && changed; ++pass) {
    changed = false;
    for (const Literal& lit : rule.body()) {
      if (lit.IsBuiltin()) {
        const Term& lhs = lit.args()[0];
        const Term& rhs = lit.args()[1];
        std::vector<std::string> arith;
        CollectArithmeticVars(lhs, &arith);
        CollectArithmeticVars(rhs, &arith);
        for (const std::string& v : arith) {
          changed |= restrict_var(v, TypeSet(TypeSet::kNumeric),
                                  "arithmetic in " + lit.ToString());
        }
        if (lit.builtin() != BuiltinKind::kEq) continue;
        if (lhs.IsVariable() && rhs.IsVariable()) {
          TypeSet met = vars[lhs.text()].type.Meet(vars[rhs.text()].type);
          if (!diagnosis || !met.empty()) {
            changed |= restrict_var(lhs.text(), met, lit.ToString());
            changed |= restrict_var(rhs.text(), met, lit.ToString());
          }
        } else if (lhs.IsVariable()) {
          changed |= restrict_var(lhs.text(), ExprType(rhs), lit.ToString());
        } else if (rhs.IsVariable()) {
          changed |= restrict_var(rhs.text(), ExprType(lhs), lit.ToString());
        }
        continue;
      }
      if (lit.negated()) continue;  // absence does not constrain sorts
      auto it = pred_types.find(lit.predicate());
      if (it == pred_types.end()) continue;  // unknown predicate: Any
      const std::vector<TypeSet>& cols = it->second;
      for (size_t i = 0; i < lit.args().size() && i < cols.size(); ++i) {
        const Term& arg = lit.args()[i];
        if (!arg.IsVariable()) continue;
        changed |= restrict_var(
            arg.text(), cols[i],
            StrCat("argument ", i + 1, " of ", lit.predicate().ToString()));
      }
    }
  }
  return vars;
}

/// theta-subsumption term matching: binds pattern variables to target
/// terms. `sigma` is copied at each choice point by the caller.
bool MatchTerm(const Term& pattern, const Term& target,
               std::map<std::string, Term>* sigma) {
  if (pattern.IsVariable()) {
    auto it = sigma->find(pattern.text());
    if (it != sigma->end()) return it->second == target;
    sigma->emplace(pattern.text(), target);
    return true;
  }
  if (pattern.IsFunction()) {
    if (!target.IsFunction() || pattern.text() != target.text() ||
        pattern.arity() != target.arity()) {
      return false;
    }
    for (size_t i = 0; i < pattern.arity(); ++i) {
      if (!MatchTerm(pattern.args()[i], target.args()[i], sigma)) return false;
    }
    return true;
  }
  return pattern == target;
}

bool MatchLiteral(const Literal& pattern, const Literal& target,
                  std::map<std::string, Term>* sigma) {
  if (pattern.negated() != target.negated()) return false;
  if (pattern.builtin() != target.builtin()) return false;
  if (!pattern.IsBuiltin() && pattern.predicate() != target.predicate()) {
    return false;
  }
  if (pattern.args().size() != target.args().size()) return false;
  for (size_t i = 0; i < pattern.args().size(); ++i) {
    if (!MatchTerm(pattern.args()[i], target.args()[i], sigma)) return false;
  }
  return true;
}

/// Maps body literal `i` of the subsumer (and the rest) into the subsumee's
/// body under a consistent sigma; several subsumer literals may map to the
/// same subsumee literal (theta-subsumption).
bool MatchBodyFrom(const std::vector<Literal>& pattern,
                   const std::vector<Literal>& target, size_t i,
                   const std::map<std::string, Term>& sigma) {
  if (i == pattern.size()) return true;
  for (const Literal& candidate : target) {
    std::map<std::string, Term> next = sigma;
    if (MatchLiteral(pattern[i], candidate, &next) &&
        MatchBodyFrom(pattern, target, i + 1, next)) {
      return true;
    }
  }
  return false;
}

/// True iff `subsumer` theta-subsumes `subsumee`: some substitution maps
/// the subsumer's head onto the subsumee's head and its body into a subset
/// of the subsumee's body. Every tuple the subsumee derives, the subsumer
/// derives too.
bool Subsumes(const Rule& subsumer, const Rule& subsumee) {
  std::map<std::string, Term> sigma;
  if (!MatchLiteral(subsumer.head(), subsumee.head(), &sigma)) return false;
  return MatchBodyFrom(subsumer.body(), subsumee.body(), 0, sigma);
}

}  // namespace

TypeSet TypeSet::Of(const Term& t) { return OfKind(t.kind()); }

TypeSet TypeSet::OfKind(TermKind kind) {
  switch (kind) {
    case TermKind::kVariable:
      return Any();
    case TermKind::kInt:
    case TermKind::kReal:
      return TypeSet(kNumeric);
    case TermKind::kString:
      return TypeSet(kString);
    case TermKind::kSymbol:
      return TypeSet(kSymbol);
    case TermKind::kFunction:
      return TypeSet(kFunction);
  }
  return Any();
}

std::string TypeSet::ToString() const {
  if (IsAny()) return "{any}";
  std::string out = "{";
  for (const auto& band : kBands) {
    if (!(bits_ & band.bit)) continue;
    StrAppend(&out, out.size() > 1 ? "," : "", band.name);
  }
  return out + "}";
}

bool ProgramAnalysis::AdornmentReachable(const AdornedPredicate& ap) const {
  if (!has_goal_ || !reachability_complete_) return true;
  if (!derived_.count(ap.pred)) return true;
  auto it = reachable_.find(ap.pred);
  return it != reachable_.end() && it->second.count(ap.adornment) > 0;
}

size_t ProgramAnalysis::reachable_pair_count() const {
  size_t n = 0;
  for (const auto& [pred, adns] : reachable_) n += adns.size();
  return n;
}

const std::vector<TypeSet>& ProgramAnalysis::TypesOf(
    const PredicateId& pred) const {
  static const std::vector<TypeSet> kEmpty;
  auto it = types_.find(pred);
  return it == types_.end() ? kEmpty : it->second;
}

double ProgramAnalysis::CardinalityBound(const PredicateId& pred) const {
  auto it = cards_.find(pred);
  return it == cards_.end() ? default_card_ : it->second;
}

bool ProgramAnalysis::RuleUnsatisfiable(size_t rule_index) const {
  return rule_index < rule_unsatisfiable_.size() &&
         rule_unsatisfiable_[rule_index] != 0;
}

bool ProgramAnalysis::RuleSubsumed(size_t rule_index) const {
  return rule_index < rule_subsumed_.size() && rule_subsumed_[rule_index] != 0;
}

bool ProgramAnalysis::RuleReachable(size_t rule_index) const {
  if (!has_goal_ || !reachability_complete_) return true;
  return rule_index < rule_reachable_.size() &&
         rule_reachable_[rule_index] != 0;
}

void ProgramAnalysis::ExportTo(MetricsRegistry* metrics) const {
  metrics->counter("analysis.reachable_adornments")
      ->Increment(reachable_pair_count());
  metrics->counter("analysis.dead_rules")->Increment(dead_rules_.size());
  metrics->counter("analysis.findings")->Increment(findings_.size());
  metrics->counter("analysis.dataflow_visits")
      ->Increment(type_stats_.visits + reach_stats_.visits +
                  card_stats_.visits);
  metrics->counter("analysis.widenings")->Increment(card_stats_.widenings);
}

std::string ProgramAnalysis::ToString() const {
  std::string out;
  StrAppend(&out, "types:\n");
  std::map<PredicateId, const std::vector<TypeSet>*> sorted_types;
  for (const auto& [pred, cols] : types_) sorted_types[pred] = &cols;
  for (const auto& [pred, cols] : sorted_types) {
    StrAppend(&out, "  ", pred.ToString(), ": (",
              StrJoin(*cols, ", ", [](TypeSet t) { return t.ToString(); }),
              ")\n");
  }
  if (has_goal_) {
    StrAppend(&out, "reachable (", reachability_complete_ ? "" : "in",
              "complete):");
    std::set<AdornedPredicate> sorted;
    for (const auto& [pred, adns] : reachable_) {
      for (const Adornment& adn : adns) sorted.insert({pred, adn});
    }
    for (const AdornedPredicate& ap : sorted) {
      StrAppend(&out, " ", ap.ToString());
    }
    StrAppend(&out, "\n");
  }
  for (const DeadRule& dead : dead_rules_) {
    StrAppend(&out, "dead rule ", dead.rule_index, ": ", dead.reason, "\n");
  }
  for (const Diagnostic& d : findings_) StrAppend(&out, d.ToString(), "\n");
  return out;
}

ProgramAnalyzer::ProgramAnalyzer(const Program& program,
                                 AnalyzerOptions options)
    : program_(program),
      options_(options),
      graph_(DependencyGraph::Build(program)) {}

ProgramAnalysis ProgramAnalyzer::Analyze(const Literal& goal) const {
  ProgramAnalysis a = AnalyzeProgram();
  a.has_goal_ = true;
  ComputeReachability(goal, &a);
  a.dead_rules_.clear();
  CollectDeadRules(&goal, &a);
  return a;
}

ProgramAnalysis ProgramAnalyzer::AnalyzeProgram() const {
  ProgramAnalysis a;
  for (const PredicateId& pred : program_.DerivedPredicates()) {
    a.derived_.insert(pred);
  }
  a.rule_unsatisfiable_.assign(program_.rules().size(), 0);
  a.rule_subsumed_.assign(program_.rules().size(), 0);
  a.rule_reachable_.assign(program_.rules().size(), 1);
  if (options_.statistics) {
    a.default_card_ = options_.statistics->default_stats().cardinality;
  }
  InferTypes(&a);
  if (options_.check_types) CheckRules(&a);
  if (options_.check_subsumption) DetectSubsumption(&a);
  SketchCardinalities(&a);
  CollectDeadRules(nullptr, &a);
  return a;
}

void ProgramAnalyzer::Lint(DiagnosticSink* sink) const {
  ProgramAnalysis a = AnalyzeProgram();
  for (const Diagnostic& d : a.findings()) sink->Report(d);
}

std::vector<TypeSet> ProgramAnalyzer::BaseTypes(const PredicateId& pred) const {
  std::vector<TypeSet> cols(pred.arity, TypeSet::None());
  bool any_data = false;
  for (const Literal& fact : program_.facts()) {
    if (fact.predicate() != pred) continue;
    any_data = true;
    for (size_t i = 0; i < cols.size(); ++i) {
      cols[i] = cols[i].Join(TypeSet::Of(fact.args()[i]));
    }
  }
  if (options_.database) {
    const Relation* rel = options_.database->Find(pred);
    if (rel && !rel->empty()) {
      any_data = true;
      if (rel->size() > options_.max_type_seed_scan) {
        return std::vector<TypeSet>(pred.arity, TypeSet::Any());
      }
      for (size_t r = 0; r < rel->size(); ++r) {
        const std::span<const Value> row = rel->row(r);
        for (size_t i = 0; i < cols.size(); ++i) {
          cols[i] = cols[i].Join(TypeSet::OfKind(row[i].kind()));
        }
      }
    }
    return cols;  // no data with a database present: statically empty
  }
  if (!any_data) return std::vector<TypeSet>(pred.arity, TypeSet::Any());
  return cols;
}

void ProgramAnalyzer::InferTypes(ProgramAnalysis* a) const {
  for (const PredicateId& pred : program_.BasePredicates()) {
    a->types_[pred] = BaseTypes(pred);
  }
  for (const PredicateId& pred : program_.DerivedPredicates()) {
    a->types_[pred].assign(pred.arity, TypeSet::None());
  }

  DataflowFramework framework(program_, graph_);
  a->type_stats_ = framework.Run(
      DataflowDirection::kBottomUp, [&](const PredicateId& pred) {
        std::vector<TypeSet> value(pred.arity, TypeSet::None());
        for (size_t ri : program_.RulesFor(pred)) {
          const Rule& rule = program_.rules()[ri];
          VarTypes vars =
              SolveRuleVarTypes(rule, a->types_, /*diagnosis=*/false);
          std::vector<TypeSet> contribution(pred.arity);
          bool satisfiable = true;
          for (size_t j = 0; j < pred.arity; ++j) {
            const Term& arg = rule.head().args()[j];
            TypeSet t = arg.IsVariable() ? vars[arg.text()].type
                                         : ExprType(arg);
            if (t.empty()) {
              satisfiable = false;
              break;
            }
            contribution[j] = t;
          }
          if (!satisfiable) continue;
          for (size_t j = 0; j < pred.arity; ++j) {
            value[j] = value[j].Join(contribution[j]);
          }
        }
        std::vector<TypeSet>& current = a->types_[pred];
        bool changed = false;
        for (size_t j = 0; j < pred.arity; ++j) {
          TypeSet joined = current[j].Join(value[j]);
          if (joined != current[j]) {
            current[j] = joined;
            changed = true;
          }
        }
        return changed;
      });
}

void ProgramAnalyzer::CheckRules(ProgramAnalysis* a) const {
  for (size_t ri = 0; ri < program_.rules().size(); ++ri) {
    const Rule& rule = program_.rules()[ri];
    SourceLocation loc = SourceLocation::ForRule(ri, rule.ToString());
    bool unsat = false;

    VarTypes vars = SolveRuleVarTypes(rule, a->types_, /*diagnosis=*/true);
    for (const auto& [name, constraint] : vars) {
      if (!constraint.type.empty() || constraint.sources.size() < 2) continue;
      a->findings_.push_back(
          {"L013", Severity::kWarning,
           StrCat("variable ", name,
                  " has no possible value: incompatible sort constraints ",
                  StrJoin(constraint.sources, " vs ")),
           loc});
      unsat = true;
    }

    for (const Literal& lit : rule.body()) {
      if (lit.IsBuiltin() || lit.negated()) continue;
      const std::vector<TypeSet>& cols = a->TypesOf(lit.predicate());
      if (cols.empty()) continue;
      for (size_t i = 0; i < lit.args().size() && i < cols.size(); ++i) {
        const Term& arg = lit.args()[i];
        if (arg.IsVariable() || cols[i].empty()) continue;
        TypeSet at = TypeSet::Of(arg);
        if (at.CompatibleWith(cols[i])) continue;
        a->findings_.push_back(
            {"L011", Severity::kWarning,
             StrCat("argument ", i + 1, " of ", lit.ToString(), " has sort ",
                    at.ToString(), " but ", lit.predicate().ToString(),
                    " only ever holds ", cols[i].ToString(),
                    " there; the literal can never match"),
             loc});
        unsat = true;
      }
    }

    for (const Literal& lit : rule.body()) {
      if (!lit.IsBuiltin()) continue;
      const Term& lhs = lit.args()[0];
      const Term& rhs = lit.args()[1];
      if (lhs.IsGround() && rhs.IsGround()) {
        if (!EvalGroundBuiltin(lit.builtin(), lhs, rhs)) {
          a->findings_.push_back({"L012", Severity::kWarning,
                                  StrCat("comparison ", lit.ToString(),
                                         " is always false"),
                                  loc});
          unsat = true;
        }
        continue;
      }
      auto side_type = [&](const Term& t) {
        return t.IsVariable() ? vars[t.text()].type : ExprType(t);
      };
      TypeSet lt = side_type(lhs);
      TypeSet rt = side_type(rhs);
      if (!ComparisonPossible(lit.builtin(), lt, rt)) {
        a->findings_.push_back(
            {"L012", Severity::kWarning,
             StrCat("comparison ", lit.ToString(),
                    " is always false: left side has sort ", lt.ToString(),
                    ", right side ", rt.ToString()),
             loc});
        unsat = true;
      }
    }

    if (unsat) a->rule_unsatisfiable_[ri] = 1;
  }
}

void ProgramAnalyzer::DetectSubsumption(ProgramAnalysis* a) const {
  const std::vector<Rule>& rules = program_.rules();
  for (size_t j = 0; j < rules.size(); ++j) {
    if (rules[j].body().size() > options_.max_subsumption_body) continue;
    for (size_t i = 0; i < rules.size(); ++i) {
      if (i == j || a->rule_subsumed_[i]) continue;
      if (rules[i].head().predicate() != rules[j].head().predicate()) continue;
      if (rules[i].body().size() > options_.max_subsumption_body) continue;
      if (!Subsumes(rules[i], rules[j])) continue;
      // Mutually subsuming rules (variants) keep the textually earlier one.
      if (Subsumes(rules[j], rules[i]) && j < i) continue;
      a->rule_subsumed_[j] = 1;
      a->findings_.push_back(
          {"L014", Severity::kWarning,
           StrCat("rule is subsumed by rule ", i, " (",
                  rules[i].ToString(),
                  "): every tuple it derives is already derived"),
           SourceLocation::ForRule(j, rules[j].ToString())});
      break;
    }
  }
}

void ProgramAnalyzer::ComputeReachability(const Literal& goal,
                                          ProgramAnalysis* a) const {
  a->reachability_complete_ = true;
  const PredicateId goal_pred = goal.predicate();
  if (!program_.IsDerived(goal_pred)) {
    a->reachability_complete_ = false;  // nothing to analyze: no pruning
    return;
  }
  for (const Rule& rule : program_.rules()) {
    if (rule.body().size() > options_.max_body_literals) {
      a->reachability_complete_ = false;  // 2^n enumeration too large
      return;
    }
  }

  a->reachable_[goal_pred].insert(Adornment::FromGoal(goal));

  // Per (rule, head adornment): the adorned predicates its body can request
  // under ANY sideways-information-passing order. Enumerating every subset
  // of body literals and closing the bindings over it covers every
  // sequential prefix any join order can produce (the closure of the
  // literals actually evaluated so far), so the optimizer never asks for an
  // adornment outside this set.
  std::map<std::pair<size_t, Adornment>, std::vector<AdornedPredicate>> cache;
  auto requests_of = [&](size_t ri, const Adornment& head_adn)
      -> const std::vector<AdornedPredicate>& {
    auto key = std::make_pair(ri, head_adn);
    auto it = cache.find(key);
    if (it != cache.end()) return it->second;
    const Rule& rule = program_.rules()[ri];
    const std::vector<Literal>& body = rule.body();
    std::vector<AdornedPredicate> out;
    std::set<AdornedPredicate> seen;
    const size_t n = body.size();
    for (size_t mask = 0; mask < (size_t{1} << n); ++mask) {
      BoundVars bound;
      BindHeadVariables(rule.head(), head_adn, &bound);
      bool grew = true;
      while (grew) {
        grew = false;
        for (size_t i = 0; i < n; ++i) {
          if (!(mask >> i & 1)) continue;
          size_t before = bound.size();
          PropagateBindings(body[i], &bound);
          if (bound.size() != before) grew = true;
        }
      }
      for (size_t j = 0; j < n; ++j) {
        const Literal& lit = body[j];
        if (lit.IsBuiltin() || !program_.IsDerived(lit.predicate())) continue;
        AdornedPredicate ap{lit.predicate(), AdornLiteral(lit, bound)};
        if (seen.insert(ap).second) out.push_back(ap);
        if (lit.negated()) {
          AdornedPredicate ff{lit.predicate(),
                              Adornment::AllFree(lit.arity())};
          if (seen.insert(ff).second) out.push_back(ff);
        }
      }
    }
    return cache.emplace(std::move(key), std::move(out)).first->second;
  };

  DataflowFramework framework(program_, graph_);
  a->reach_stats_ = framework.Run(
      DataflowDirection::kTopDown, [&](const PredicateId& pred) {
        std::set<Adornment>& mine = a->reachable_[pred];
        const size_t before = mine.size();
        std::set<PredicateId> heads(graph_.DependentsOf(pred).begin(),
                                    graph_.DependentsOf(pred).end());
        for (const PredicateId& head : heads) {
          auto hit = a->reachable_.find(head);
          if (hit == a->reachable_.end() || hit->second.empty()) continue;
          // Copy: requests_of may add to `mine`, which aliases hit->second
          // when a rule is self-recursive.
          std::vector<Adornment> head_adns(hit->second.begin(),
                                           hit->second.end());
          for (const Adornment& head_adn : head_adns) {
            for (size_t ri : program_.RulesFor(head)) {
              for (const AdornedPredicate& req : requests_of(ri, head_adn)) {
                if (req.pred == pred) mine.insert(req.adornment);
              }
            }
          }
        }
        // Any predicate of a reached recursive clique may be evaluated in
        // full-fixpoint context (semi-naive computes whole cliques, and
        // delta-driven costing probes members free), so seed all-free for
        // every member once the clique is entered at any adornment.
        if (graph_.IsRecursive(pred)) {
          const RecursiveClique& clique =
              graph_.cliques()[graph_.CliqueIndex(pred)];
          bool entered = false;
          for (const PredicateId& member : clique.predicates) {
            auto mit = a->reachable_.find(member);
            if (mit != a->reachable_.end() && !mit->second.empty()) {
              entered = true;
              break;
            }
          }
          if (entered) mine.insert(Adornment::AllFree(pred.arity));
        }
        return mine.size() != before;
      });

  for (size_t ri = 0; ri < program_.rules().size(); ++ri) {
    auto it = a->reachable_.find(program_.rules()[ri].head().predicate());
    a->rule_reachable_[ri] =
        it != a->reachable_.end() && !it->second.empty() ? 1 : 0;
  }
}

void ProgramAnalyzer::SketchCardinalities(ProgramAnalysis* a) const {
  for (const PredicateId& pred : program_.BasePredicates()) {
    double card = a->default_card_;
    if (options_.statistics && options_.statistics->Has(pred)) {
      card = options_.statistics->Get(pred).cardinality;
    } else if (options_.database) {
      const Relation* rel = options_.database->Find(pred);
      card = rel ? static_cast<double>(rel->size()) : 0.0;
    }
    a->cards_[pred] = card;
  }
  DataflowFramework framework(program_, graph_);
  a->card_stats_ = framework.Run(
      DataflowDirection::kBottomUp,
      [&](const PredicateId& pred) {
        double value = 0;
        for (size_t ri : program_.RulesFor(pred)) {
          if (a->RuleUnsatisfiable(ri)) continue;
          double product = 1;
          for (const Literal& lit : program_.rules()[ri].body()) {
            if (lit.IsBuiltin() || lit.negated()) continue;
            auto it = a->cards_.find(lit.predicate());
            double card = it == a->cards_.end() ? a->default_card_
                                                : it->second;
            product = std::min(kCardCap, product * std::max(1.0, card));
          }
          value = std::min(kCardCap, value + product);
        }
        double& current = a->cards_[pred];
        if (value > current) {
          current = value;
          return true;
        }
        return false;
      },
      [&](const PredicateId& pred) { a->cards_[pred] = kCardCap; });
}

void ProgramAnalyzer::CollectDeadRules(const Literal* goal,
                                       ProgramAnalysis* a) const {
  for (size_t ri = 0; ri < program_.rules().size(); ++ri) {
    const Rule& rule = program_.rules()[ri];
    std::string reason;
    if (goal != nullptr && a->reachability_complete_ &&
        !a->rule_reachable_[ri]) {
      reason = StrCat("unreachable from ", goal->predicate().ToString());
    } else if (a->RuleUnsatisfiable(ri)) {
      reason = "body is statically unsatisfiable (sort conflict)";
    } else if (a->RuleSubsumed(ri)) {
      reason = "subsumed by another rule";
    } else {
      for (const Literal& lit : rule.body()) {
        if (lit.IsBuiltin() || lit.negated()) continue;
        const std::vector<TypeSet>& cols = a->TypesOf(lit.predicate());
        if (cols.empty()) continue;
        bool empty_col = false;
        for (TypeSet col : cols) {
          if (col.empty()) {
            empty_col = true;
            break;
          }
        }
        if (empty_col) {
          reason = StrCat("positive occurrence of statically empty ",
                          lit.predicate().ToString());
          break;
        }
      }
    }
    if (!reason.empty()) a->dead_rules_.push_back({ri, std::move(reason)});
  }
}

DeadRuleElimination EliminateDeadRules(const Program& program,
                                       const ProgramAnalysis& analysis) {
  DeadRuleElimination result;
  std::unordered_set<size_t> dead;
  for (const DeadRule& d : analysis.dead_rules()) {
    dead.insert(d.rule_index);
    result.removed_rules.push_back(d.rule_index);
    result.reasons.push_back(d.reason);
  }
  for (size_t ri = 0; ri < program.rules().size(); ++ri) {
    if (!dead.count(ri)) result.program.AddRule(program.rules()[ri]);
  }
  for (const Literal& fact : program.facts()) result.program.AddFact(fact);
  for (const QueryForm& query : program.queries()) {
    result.program.AddQuery(query);
  }
  return result;
}

}  // namespace ldl
