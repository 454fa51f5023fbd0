#ifndef LDLOPT_ENGINE_RULE_EVAL_H_
#define LDLOPT_ENGINE_RULE_EVAL_H_

#include <cstdint>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "ast/rule.h"
#include "base/status.h"
#include "obs/metrics.h"
#include "obs/resource.h"
#include "storage/database.h"

namespace ldl {

/// Work counters accumulated by the evaluator. `tuples_examined` is the
/// machine-independent work measure the recursion benchmarks report
/// alongside wall-clock time. All of them are exact counts, not timings.
struct EvalCounters {
  size_t tuples_examined = 0;  ///< tuples touched during joins/lookups
  size_t derivations = 0;      ///< head tuples produced (before dedup)
  /// Head tuples new to the relation the rule emits into. The fixpoint
  /// emits straight into each predicate's full relation, so this counts
  /// tuples new to the predicate, not new to one firing.
  size_t inserts = 0;
  size_t rule_firings = 0;  ///< rule evaluations started
  size_t dedup_probes = 0;  ///< Relation::Insert calls made by the engine
  size_t index_probes = 0;  ///< Relation::Lookup calls made by the engine
  /// Rows the semi-naive recursive rounds appended, each round's rows being
  /// the next round's delta: the sum of FixpointIteration::delta_tuples.
  size_t delta_rows = 0;
  /// Rules compiled into join programs: one per (rule, body order) each
  /// time a FixpointSchedule is built (PrepareQuery, EvaluateProgram),
  /// however many times the rule then fires. A run of a prepared schedule
  /// compiles nothing, so a plan-cache hit reports 0.
  size_t rules_compiled = 0;
  /// Rows added to any relation's index by the run's probes (base and
  /// scratch relations alike): the cost of building indexes, as opposed to
  /// probing them.
  size_t index_rows_built = 0;

  void Add(const EvalCounters& other);
  std::string ToString() const;

  /// Adds the counters into the registry under the engine.* names
  /// (engine.tuples_examined, engine.derivations, engine.inserts,
  /// engine.rule_firings, engine.dedup_probes, engine.index_probes,
  /// engine.delta_rows, engine.rules_compiled, engine.index_rows_built).
  /// No-op on nullptr.
  void ExportTo(MetricsRegistry* metrics) const;
};

/// The rows of one relation a body literal reads: tuples [begin, end) of
/// `rel`. Relations are append-only until Clear, so a row range names a
/// fixed set of tuples: a semi-naive delta is the range of rows its round
/// appended to the full relation, and capping `end` freezes what a rule
/// may see while rows are still being appended.
struct RelationView {
  Relation* rel = nullptr;  ///< nullptr = empty relation
  size_t begin = 0;
  size_t end = SIZE_MAX;  ///< capped at rel->size() when a firing starts
};

struct RuleEvalOptions {
  /// Guard against runaway evaluation (unsafe programs).
  size_t max_derivations = 200'000'000;
  /// Cooperative cancellation: checked every
  /// CancellationToken::kCheckIntervalTuples examined tuples, bounding
  /// abort latency inside even a single monster rule evaluation.
  CancellationToken* cancel = nullptr;
  /// Per-query work meter; examined/derived tuples are flushed into it at
  /// check-points (not per tuple) to keep the hot loop cheap.
  ResourceAccountant* accountant = nullptr;
};

/// A term compiled against the variables bound where it is evaluated
/// (DESIGN.md §19). Variables are register numbers into a register file
/// of Values; nothing is looked up by name at run time. Constants and
/// functor names are registers too, loaded once per run from the run's
/// ValueStore (RegisterScope::LoadConstants), so compiled code holds no
/// store's ids and any number of stores' runs may share it.
///
/// Every walk over a code loops down its last argument and recurses only
/// into the others, so a long list pattern cannot overflow the stack. A
/// code can be moved but not copied: a copy would recurse.
struct TermCode {
  enum class Op : uint8_t {
    kConst,     ///< a variable-free subterm `term`, in register `reg`
    kRead,      ///< the value in register `reg`
    kWrite,     ///< match only: store the matched value in register `reg`
    kFunction,  ///< a function term with the functor and arity of `term`,
                ///< whose arguments are `args`; `reg` holds its functor
                ///< name as a symbol
    kUnbound,   ///< build only: a variable not bound yet, shown as itself
  };
  Op op = Op::kConst;
  uint32_t reg = 0;
  Term term;  ///< kConst, kFunction, kUnbound: the source term
  std::vector<TermCode> args;

  TermCode() = default;
  TermCode(const TermCode&) = delete;
  TermCode(TermCode&&) noexcept = default;
  TermCode& operator=(const TermCode&) = delete;
  TermCode& operator=(TermCode&&) noexcept = default;
  ~TermCode();

  /// One-way match against the ground `value`, left to right, depth first:
  /// writes store into `regs`; reads and constants compare by
  /// GroundUnifies, so 1 matches 1.0. A failed match may leave registers
  /// written; they are dead, since every later use writes them first.
  bool Match(Value value, Value* regs, const ValueStore& store) const {
    switch (op) {
      case Op::kWrite:
        regs[reg] = value;
        return true;
      case Op::kRead:
      case Op::kConst:
        return store.Unifies(regs[reg], value);
      case Op::kFunction:
        return MatchFunction(value, regs, store);
      case Op::kUnbound:
        return false;
    }
    return false;
  }
  /// The value with every read replaced by its register's value; function
  /// terms are interned into `store`. Not for kUnbound codes.
  Value Build(const Value* regs, ValueStore* store) const {
    if (op != Op::kFunction) return regs[reg];
    return BuildFunction(regs, store);
  }
  /// Build, then EvalArithmetic: the folded value, or nullopt on an
  /// arithmetic error. An arithmetic node whose arguments fold to numbers
  /// is computed without being interned.
  std::optional<Value> Fold(const Value* regs, ValueStore* store) const;
  /// The term as far as it is bound, as error messages show it.
  Term Show(const Value* regs, const ValueStore& store) const;
  /// True iff some register this code reads holds an arithmetic term.
  bool ReadsArithmetic(const Value* regs) const;
  /// True iff building this code may yield arithmetic to fold: it holds an
  /// arithmetic functor or reads a register.
  bool MayHoldArithmetic() const;

 private:
  bool MatchFunction(Value value, Value* regs, const ValueStore& store) const;
  Value BuildFunction(const Value* regs, ValueStore* store) const;
  /// The function codes from this one down the last argument, top first,
  /// and the non-function code that ends the chain.
  const TermCode* Spine(std::vector<const TermCode*>* spine) const;
};

/// The parameter `$i`: a variable no parsed program can contain, standing
/// for a value supplied when a run starts. It compiles to a register that
/// counts as bound everywhere, which RuleState loads from the run's
/// parameter values. A prepared query's seed fact carries the goal's
/// constants this way (engine/query_eval.h), so one compiled rule serves
/// every goal of its shape.
Term ParameterVariable(size_t i);

/// Compile-time register allocation: one register per variable name, per
/// constant and per functor, and which variables are bound at the point
/// being compiled. Compiling in evaluation order makes every binding state
/// static. Parameters `$i` are bound from the start.
class RegisterScope {
 public:
  /// The register of `var`, allocated on first sight.
  uint32_t RegisterOf(const std::string& var);
  /// True iff every variable of `t` is bound.
  bool AllBound(const Term& t) const;

  /// Compiles `t` as a match pattern: a bound variable reads its register,
  /// the first occurrence of an unbound one writes it (and binds it for
  /// everything compiled later), and a variable-free subterm is a constant.
  TermCode CompileMatch(const Term& t) { return Compile(t, true); }
  /// Compiles `t` as a builder: bound variables read their registers and
  /// unbound ones stay variables (kUnbound), so Show yields `t` as far as
  /// it is bound (the text error messages show).
  TermCode CompileBuild(const Term& t) { return Compile(t, false); }

  /// Registers allocated so far.
  size_t size() const { return bound_.size(); }
  /// The parameters met so far: (parameter index i of `$i`, register).
  const std::vector<std::pair<size_t, uint32_t>>& parameters() const {
    return parameters_;
  }
  /// Interns every constant register's term into `store` and writes it to
  /// `regs` (which must hold size() registers).
  void LoadConstants(ValueStore* store, Value* regs) const;

 private:
  bool IsBound(const std::string& var) const;
  uint32_t ConstantRegister(Term t);
  /// CompileMatch (`match`) or CompileBuild.
  TermCode Compile(const Term& t, bool match);

  std::unordered_map<std::string, uint32_t> registers_;
  std::vector<bool> bound_;
  std::vector<std::pair<size_t, uint32_t>> parameters_;
  /// The constant registers: (register, the term it holds). A functor's
  /// register holds its name as a symbol.
  std::vector<std::pair<uint32_t, Term>> constants_;
};

/// A positive literal's arguments split by what is bound before it. Key
/// columns are chosen before any variable of the literal is bound: every
/// variable of a key column is bound earlier, so its value is known when
/// the literal is reached and the index filters on it (by Value ==). The
/// other columns are match patterns, run in column order.
struct LiteralPattern {
  std::vector<int> key_cols;         ///< ascending
  std::vector<TermCode> key_code;    ///< one builder per key column
  std::vector<size_t> match_cols;    ///< ascending, disjoint from key_cols
  std::vector<TermCode> match_code;  ///< one pattern per match column

  static LiteralPattern Compile(const Literal& lit, RegisterScope* scope);
  /// Builds the key values from the registers into `key`.
  void BuildKey(const Value* regs, ValueStore* store, Value* key) const {
    for (size_t i = 0; i < key_code.size(); ++i) {
      key[i] = key_code[i].Build(regs, store);
    }
  }
  /// Matches the match columns of `row` (the index already matched the key
  /// columns).
  bool Match(const Value* row, Value* regs, const ValueStore& store) const {
    for (size_t i = 0; i < match_cols.size(); ++i) {
      if (!match_code[i].Match(row[match_cols[i]], regs, store)) return false;
    }
    return true;
  }
};

class RuleState;

/// A rule compiled for one body order into a join program over a register
/// file (DESIGN.md §19). With the order fixed, every literal's binding
/// pattern is decided here, once: key columns, match patterns, which side
/// of an `=` is bound, which head values may need arithmetic folding, and
/// which literals can only raise Unsafe. A compiled rule is immutable: each
/// run fires it through its own RuleState, which holds the register file,
/// key buffers and head row (DESIGN.md §23).
class CompiledRule {
 public:
  /// Compiles `rule` for the body order `order` (empty = textual order).
  /// `rule` must outlive the result. Fails only when `order` is not a
  /// permutation of the body positions.
  static Result<CompiledRule> Compile(const Rule& rule,
                                      const std::vector<size_t>& order = {});

  const Rule& rule() const { return *rule_; }
  /// One more than the highest parameter index the rule reads (0 = none):
  /// how many parameter values a RuleState for it needs.
  size_t num_params() const;

 private:
  /// One body literal, compiled for the registers bound before it.
  struct BodyStep {
    enum class Kind : uint8_t {
      kScan,            ///< positive: index probe or scan, then match
      kNegated,         ///< absence test of a fully bound literal
      kTest,            ///< builtin with both sides bound
      kAssign,          ///< `=` with one side bound: fold it, match the other
      kUnsafeBuiltin,   ///< builtin not computable here
      kUnsafeNegation,  ///< negated literal with an unbound variable
    };
    Kind kind = Kind::kScan;
    size_t body_pos = 0;
    LiteralPattern pattern;  ///< kScan
    /// Negated and builtin literals: the arguments as bound before the
    /// literal (what error messages show; builders when all bound).
    std::vector<TermCode> args;
    size_t bound_side = 0;  ///< kAssign: index in `args` of the bound side
    TermCode target;        ///< kAssign: the unbound side's pattern
  };
  struct Firing;
  friend class RuleState;
  friend Result<size_t> EvaluateRule(const CompiledRule& rule,
                                     RuleState* state, RelationView* views,
                                     Relation* out, EvalCounters* counters,
                                     const RuleEvalOptions& options);

  const Rule* rule_ = nullptr;
  std::vector<BodyStep> steps_;   ///< in evaluation order
  std::vector<TermCode> head_;    ///< head arguments, built for display
  std::vector<bool> head_bound_;  ///< per head argument: all bound
  /// Per head argument: may hold arithmetic, so its built value's flag is
  /// tested (and the value folded when set).
  std::vector<bool> head_folds_;
  RegisterScope scope_;  ///< the registers, with the constants to load
};

/// The mutable half of a compiled rule for one run: its register file,
/// with the constants and parameters loaded into the run's store, a key
/// buffer and resolved index per body step, and the head row buffer. A run
/// makes one per compiled rule and fires the rule through it, one firing
/// at a time; the compiled rule itself is never written, so any number of
/// runs may share it.
class RuleState {
 public:
  /// A state for `rule` over the values of `store`, with `params` (values
  /// of `store`) as the values of its parameters: `params` must hold at
  /// least rule.num_params() values.
  RuleState(const CompiledRule& rule, const std::vector<Value>& params,
            ValueStore* store);

  /// Resolves the index every keyed scan step probes: `views[pos].rel` is
  /// the relation body position `pos` reads. A firing resolves what is
  /// not resolved yet (or changed relation), so calling this is optional:
  /// a run calls it once when it is set up.
  void ResolveIndexes(const RelationView* views);

 private:
  friend struct CompiledRule::Firing;
  friend Result<size_t> EvaluateRule(const CompiledRule& rule,
                                     RuleState* state, RelationView* views,
                                     Relation* out, EvalCounters* counters,
                                     const RuleEvalOptions& options);
  /// A keyed scan step's index on the relation it last read.
  struct StepIndex {
    const Relation* rel = nullptr;
    Relation::IndexId id = 0;
  };

  const CompiledRule* rule_;
  ValueStore* store_;
  std::vector<Value> registers_;
  /// Per step: a scan's index key or a negated literal's built row; empty
  /// for the other steps.
  std::vector<std::vector<Value>> keys_;
  std::vector<StepIndex> indexes_;  ///< per step
  std::vector<Value> head_;         ///< the row EmitHead builds
};

/// Fires a compiled rule bottom-up through `state`: enumerates all register
/// assignments satisfying the body (in the compiled order), and for each
/// one emits the instantiated head tuple into `out`.
///
/// `views` holds one view per body position (builtin positions are not
/// read). Each view's `end` is capped at its relation's size when the
/// firing starts, so the firing reads every relation as of its own start,
/// even when `out` is one of them.
///
/// Positive literals are matched via hash-index lookups on their key
/// columns. Builtins are computed inline; one that is not computable in
/// the compiled order aborts with kUnsafe when it is reached (the optimizer
/// is responsible for choosing orders where this cannot happen). Negated
/// literals require all their variables bound and test for absence.
///
/// Returns the number of *new* tuples added to `out`.
Result<size_t> EvaluateRule(const CompiledRule& rule, RuleState* state,
                            RelationView* views, Relation* out,
                            EvalCounters* counters,
                            const RuleEvalOptions& options = {});

}  // namespace ldl

#endif  // LDLOPT_ENGINE_RULE_EVAL_H_
