#ifndef LDLOPT_ENGINE_FIXPOINT_H_
#define LDLOPT_ENGINE_FIXPOINT_H_

#include <cstdint>
#include <memory>
#include <ostream>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "ast/program.h"
#include "base/status.h"
#include "engine/rule_eval.h"
#include "obs/context.h"
#include "storage/database.h"

namespace ldl {

/// The recursive-query implementation methods the optimizer chooses among
/// at CC nodes (paper section 7.3): naive/seminaive fixpoint for free
/// query forms, Magic Sets [BMSU 85] and generalized Counting [SZ 86] for
/// bound query forms.
enum class RecursionMethod {
  kNaive,
  kSemiNaive,
  kMagic,
  kCounting,
};

const char* RecursionMethodToString(RecursionMethod method);

struct FixpointOptions {
  /// Hard cap on fixpoint rounds per clique; tripping it means the program
  /// is (or behaves) unsafe.
  size_t max_iterations = 1'000'000;
  /// Cap on derivations inside a single rule firing round.
  size_t max_derivations = 200'000'000;
  /// Body evaluation order per rule index (from the optimizer's chosen
  /// permutations); missing entries use textual order. Read when a
  /// schedule is built (EvaluateProgram, PrepareQuery), not by a run.
  std::unordered_map<size_t, std::vector<size_t>> rule_orders;
  /// Values of the program's parameters for one run, values of the base
  /// database's store: `$i` (ParameterVariable) in any rule reads
  /// params[i]. A prepared query binds its seed fact's parameters to the
  /// goal's constants this way.
  std::vector<Value> params;
  /// Observability handle: spans per clique fixpoint, per-round counters
  /// and delta-size histograms. Inert by default.
  TraceContext trace;
  /// Record a FixpointIteration per round into FixpointStats::per_iteration
  /// (with wall-clock timing; off by default because clock reads per round
  /// are not free).
  bool record_iterations = false;
  /// Label stamped on recorded iterations: the overall recursion method as
  /// the caller sees it ("magic"/"counting" run semi-naive after their
  /// rewrite, and the rewritten rounds should be attributed to the method,
  /// not the machinery). Empty = use the raw fixpoint discipline.
  std::string method_label;
};

/// One fixpoint round of one clique — the convergence curve of the chosen
/// RecursionMethod (delta cardinality per round is the quantity the
/// semi-naive argument is about).
struct FixpointIteration {
  std::string clique;      ///< representative member, e.g. "anc/2"
  std::string method;      ///< method label ("naive", "seminaive", ...)
  size_t iteration = 0;    ///< 1-based round number within the clique
  size_t delta_tuples = 0;  ///< new tuples this round (0 = convergence round)
  size_t derivations = 0;  ///< head tuples produced this round (pre-dedup)
  double wall_ms = 0;
};

struct FixpointStats {
  size_t iterations = 0;  ///< total fixpoint rounds across all cliques
  EvalCounters counters;
  /// Per-round telemetry, only populated when
  /// FixpointOptions::record_iterations is set.
  std::vector<FixpointIteration> per_iteration;

  std::string ToString() const;

  /// Adds the stats into the registry (engine.fixpoint.iterations plus the
  /// EvalCounters engine.* names). No-op on nullptr.
  void ExportTo(MetricsRegistry* metrics) const;

  /// JSON array of the per-round telemetry:
  /// [{"clique","method","iteration","delta_tuples","derivations",
  ///   "wall_ms"}, ...].
  void WriteIterationsJson(std::ostream& os) const;
};

/// A program's bottom-up evaluation laid out once, to run any number of
/// times (DESIGN.md §23). Building it builds the dependency graph, checks
/// stratification, fixes the strata in bottom-up order (each marked
/// recursive or not) with each recursive rule's differentiated
/// occurrences, resolves every body literal to a relation slot (a derived
/// predicate's scratch relation or a base relation), and compiles each
/// rule once for its body order. A run only binds the parameters and runs
/// the rounds: the schedule is never written, so runs may share it.
///
/// The schedule owns its program, on the heap, and its compiled rules
/// point into it: moving the schedule keeps them valid. A default-made
/// schedule is empty and must not run.
class FixpointSchedule {
 public:
  /// Builds the schedule of `program` for `method`, which must be kNaive
  /// or kSemiNaive (the rewriting methods are source-to-source transforms
  /// that then run semi-naive; see engine/magic.h, engine/counting.h).
  /// `rule_orders` gives body orders by rule index. Fails when the program
  /// is not stratified or an order is not a permutation of its rule's
  /// body.
  static Result<FixpointSchedule> Build(
      Program program, RecursionMethod method,
      const std::unordered_map<size_t, std::vector<size_t>>& rule_orders =
          {});

  /// Evaluates every derived predicate of the program bottom-up into
  /// `scratch`, reading base relations from `base`, with options.params as
  /// the parameters' values (options.rule_orders is not read). Derived
  /// relations are created in `scratch`, so runs never pollute the fact
  /// base. Strata are evaluated bottom-up, so negated literals always
  /// refer to completed relations. The run's per-rule register files and
  /// key buffers, relation slots and deltas live in a RunState of its own.
  ///
  /// `slot_rows`, when given, carries one row count per derived slot from
  /// run to run (DESIGN.md §26): when it holds a count per slot, the
  /// scratch relation of each slot is reserved (Relation::Reserve) for
  /// its count before the rounds start, and a run that succeeds leaves its
  /// own counts there. The counts change capacity only, never what a run
  /// derives, in what order, or what it counts.
  Status Run(Database* base, Database* scratch, FixpointStats* stats,
             const FixpointOptions& options = {},
             std::vector<size_t>* slot_rows = nullptr) const;

  /// The program it runs; only for a built schedule.
  const Program& program() const { return *program_; }
  /// Rules compiled when it was built: one per rule of the program.
  size_t rules_compiled() const { return rules_.size(); }

 private:
  /// Where a body literal reads its rows from.
  struct Source {
    enum class Kind : uint8_t { kBuiltin, kBase, kDerived };
    Kind kind = Kind::kBuiltin;
    uint32_t slot = 0;  ///< index into base_ or derived_
    /// A positive literal of the head's own recursive stratum: its
    /// predicate's position among the stratum's members; -1 otherwise.
    int32_t member = -1;
  };
  struct ScheduledRule {
    CompiledRule compiled;
    uint32_t head = 0;         ///< derived slot of the head
    std::vector<Source> body;  ///< per body position
  };
  /// One strongly connected component of the dependency graph.
  struct Stratum {
    uint32_t first = 0;  ///< members: derived slots [first, first + size)
    uint32_t size = 0;
    bool recursive = false;
    /// Non-recursive: every rule of the predicate. Recursive: the clique's
    /// exit rules.
    std::vector<uint32_t> exit_rules;
    std::vector<uint32_t> recursive_rules;
    /// Semi-naive: (rule, body position) of every occurrence of a member
    /// in a recursive rule, in rule then body order; each is one
    /// differentiated firing per round.
    std::vector<std::pair<uint32_t, uint32_t>> differentiated;
    std::string clique;  ///< RecursiveClique::ToString, for errors
  };
  class RunState;

  std::unique_ptr<const Program> program_;
  RecursionMethod method_ = RecursionMethod::kSemiNaive;
  std::vector<PredicateId> derived_;  ///< in bottom-up order
  std::vector<PredicateId> base_;
  std::vector<ScheduledRule> rules_;  ///< per rule index of the program
  std::vector<Stratum> strata_;       ///< bottom-up
  size_t num_params_ = 0;  ///< parameter values a run must bind
  size_t max_body_ = 0;
};

/// Builds the schedule of `program` and runs it once (FixpointSchedule),
/// with options.rule_orders as the body orders. The schedule's compiles
/// count into stats->counters.rules_compiled.
Status EvaluateProgram(const Program& program, RecursionMethod method,
                       Database* base, Database* scratch,
                       FixpointStats* stats,
                       const FixpointOptions& options = {});

}  // namespace ldl

#endif  // LDLOPT_ENGINE_FIXPOINT_H_
