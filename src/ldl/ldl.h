#ifndef LDLOPT_LDL_LDL_H_
#define LDLOPT_LDL_LDL_H_

#include <list>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "ast/parser.h"
#include "ast/program.h"
#include "base/status.h"
#include "engine/query_eval.h"
#include "obs/calibration.h"
#include "obs/query_log.h"
#include "obs/resource.h"
#include "optimizer/optimizer.h"
#include "safety/safety.h"
#include "storage/database.h"
#include "storage/statistics.h"

namespace ldl {

class ProgramAnalysis;
class StatisticsCatalog;
class DriftDetector;

/// Answers plus the plan that produced them and the work it took.
struct QueryAnswer {
  Relation answers{"answers", 0};
  QueryPlan plan;
  FixpointStats exec_stats;
  std::string note;

  // Lifecycle profile, populated by LdlSystem::Query. The resource meters
  // are zero when the query ran unmetered (no limits, no query log, no
  // session accountant installed in options.trace).
  uint64_t peak_bytes = 0;
  uint64_t tuples_examined = 0;
  uint64_t tuples_derived = 0;
  uint64_t fixpoint_rounds = 0;
  uint64_t cancel_checks = 0;
  /// The plan came from the system's plan cache: no projection pushdown,
  /// optimizer search, rewrite or rule compile ran (DESIGN.md §22, §23).
  /// optimize_ms is then the cache lookup, plan.search_stats are zero, and
  /// so is exec_stats.counters.rules_compiled.
  bool plan_cached = false;
  /// The statistics epoch the served plan was costed under: the current
  /// epoch for a plan made now, an earlier one for a cached plan kept
  /// across a statistics refresh (DESIGN.md §24).
  uint64_t plan_epoch = 0;
  double optimize_ms = 0;
  double execute_ms = 0;
};

/// The top-level LDL system facade: a knowledge base (rule base + fact
/// base) with a cost-based, safety-checking query optimizer in front of the
/// evaluation engine. This is the declarative promise of the paper's
/// introduction: "the user need only supply a correct query, and the system
/// is expected to devise an efficient execution strategy for it."
///
/// Typical use:
///
///   LdlSystem sys;
///   sys.LoadProgram(R"(
///     anc(X, Y) <- par(X, Y).
///     anc(X, Y) <- par(X, Z), anc(Z, Y).
///     par(bart, homer).  par(homer, abe).
///   )");
///   auto answer = sys.Query("anc(bart, Y)");
///   // answer->plan chose magic sets and a safe, cheap literal order.
class LdlSystem {
 public:
  explicit LdlSystem(OptimizerOptions options = {});

  /// How far a statistic a cached plan read may move before a refresh
  /// drops the plan: the plan is kept while each value stays strictly
  /// within this factor of its value at planning time, up or down
  /// (DESIGN.md §24). Costs are monotone in operand sizes (paper §6), so
  /// this bounds how stale a kept plan's costs get; every plan gives the
  /// same answers (§5), so keeping one risks regret, never a wrong answer.
  /// A constant, not an option.
  static constexpr double kPlanKeepFactor = 2.0;

  /// Replaces the optimizer options for subsequent Plan/Query/Explain
  /// calls. The loaded program, fact base, and statistics are untouched, so
  /// one system can be queried under many configurations without
  /// re-parsing — the differential-testing oracle (src/testing/difftest.h)
  /// sweeps the strategy × method matrix this way.
  /// Clears the plan cache.
  void set_options(OptimizerOptions options) {
    options_ = std::move(options);
    plan_cache_.Clear();
  }
  const OptimizerOptions& options() const { return options_; }

  /// Parses LDL text; rules extend the rule base, ground facts the fact
  /// base. Queries embedded in the text are remembered (pending_queries()).
  Status LoadProgram(std::string_view text);

  /// Adds a single clause (rule or fact).
  Status AddClause(std::string_view text);

  const Program& program() const { return program_; }
  Database* database() { return &db_; }
  const std::vector<QueryForm>& pending_queries() const {
    return program_.queries();
  }

  /// Recomputes catalog statistics from the current fact base (bumping the
  /// statistics epoch that query-log records carry). Called automatically
  /// on the first query after loading; call explicitly after bulk updates
  /// through database(). Costs O(relations x arity + rows added since the
  /// last refresh): Relation::DistinctCount counts incrementally.
  /// Drops the cached plans whose statistics moved by kPlanKeepFactor or
  /// more since they were planned (DESIGN.md §24); the others are kept,
  /// costed under their older epoch.
  void RefreshStatistics();
  /// The live statistics, refreshed first if a write dirtied them. Like
  /// every other member, for the thread that drives the system only. From
  /// another thread, only the session token in OptimizerOptions::trace.cancel
  /// may be cancelled.
  const Statistics& statistics();

  /// Installs a structured query log: every Query() call appends one
  /// QueryLogRecord (on success AND on typed failure). Also engages
  /// per-query resource metering so records carry real resource profiles.
  /// Pass nullptr to detach. The log must outlive the system or be detached
  /// first.
  void set_query_log(QueryLog* log) { query_log_ = log; }
  QueryLog* query_log() const { return query_log_; }

  /// Attaches the feedback loop (obs/feedback.h). With a catalog attached,
  /// every successful Query() and AnalyzeCalibrated() folds in what its run
  /// measured: the rows per binding the engine computed, the goal's answer
  /// count, and under ANALYZE the fact-base size of every scanned base
  /// relation. With a detector attached too, each harvest is followed by a
  /// drift check: a hot predicate whose measured cardinality diverged
  /// from the current statistics past the q-error threshold bumps the
  /// statistics epoch and schedules a re-collection before the next query.
  /// When options().feedback is also set, planning consults the catalog as
  /// a blended overlay (falling back to estimates for unseen predicates).
  /// Both pointers are non-owning and must outlive the system or be
  /// detached (nullptr) first. Clears the plan cache.
  void set_feedback(StatisticsCatalog* catalog,
                    DriftDetector* detector = nullptr) {
    feedback_catalog_ = catalog;
    drift_detector_ = detector;
    plan_cache_.Clear();
  }
  StatisticsCatalog* feedback_catalog() const { return feedback_catalog_; }
  DriftDetector* drift_detector() const { return drift_detector_; }

  /// Optimizes the query form only (no execution).
  Result<QueryPlan> Plan(std::string_view goal_text);
  Result<QueryPlan> Plan(const Literal& goal);

  /// Optimizes and executes. Unsafe queries fail with kUnsafe and a
  /// diagnostic identifying the offending rule — the compile-time
  /// pinpointing the paper advocates over run-time freezing (section 8.3).
  ///
  /// Plans are prepared once per goal shape, (predicate, adornment), and
  /// kept in a small LRU: a later goal of the same shape re-binds only its
  /// constants (QueryAnswer::plan_cached). Adding rules, set_options and
  /// set_feedback clear the cache. A statistics refresh (after any write)
  /// keeps a plan while every statistic it read, each relation's
  /// cardinality and column distinct counts, stays within kPlanKeepFactor
  /// of its value at planning time, and drops it otherwise; a kept plan
  /// answers as a fresh one would and reports the epoch it was made in
  /// (QueryAnswer::plan_epoch). Writes made through database() reach cached
  /// plans only via RefreshStatistics, as they reach the statistics; the
  /// static analysis reads the fact base directly, so with it on goals are
  /// planned afresh every time.
  Result<QueryAnswer> Query(std::string_view goal_text);
  Result<QueryAnswer> Query(const Literal& goal);

  /// Human-readable optimized plan.
  Result<std::string> Explain(std::string_view goal_text);

  /// EXPLAIN OPTIMIZE: the plan summary followed by the search that chose
  /// it — per-scope candidate orders with dispositions (kept / dominated /
  /// pruned-bound / pruned-unsafe / memo-hit) and the final
  /// (predicate, adornment) memo lattice with the winning subplans marked
  /// (plan/explain.h). Uses the SearchTracer in options.trace.search when
  /// set (recording into it as-is), else a local one.
  Result<std::string> ExplainOptimize(std::string_view goal_text);

  /// The annotated processing tree (paper section 4 view): AND/OR/CC nodes
  /// with materialize/pipeline flags, method labels, chosen orders, and
  /// cost/cardinality estimates.
  Result<std::string> ExplainTree(std::string_view goal_text);

  /// EXPLAIN ANALYZE: runs the goal exactly as Query does (same limits,
  /// plan and engine call; no query-log record), annotates the processing
  /// tree with the same optimizer, and renders the estimates next to the
  /// served run's actuals: rows per binding for every node whose
  /// (predicate, binding) the run computed (plan/explain.h), a footer with
  /// the run's totals, then the CALIBRATION and REGRET sections
  /// (obs/calibration.h). Fails with the status Query would return.
  Result<std::string> ExplainAnalyze(std::string_view goal_text);

  /// ExplainAnalyze plus the structured artifacts: the rendered text, the
  /// CalibrationReport (per-node q-errors, aggregates, regret) for
  /// programmatic consumers (ldl_profile --calibration-json, benches), and
  /// the served run itself.
  struct AnalyzeResult {
    std::string text;
    CalibrationReport report;
    QueryAnswer answer;
  };
  Result<AnalyzeResult> AnalyzeCalibrated(std::string_view goal_text);

  /// Safety analysis without optimization.
  SafetyReport CheckSafety(std::string_view goal_text);

  /// Baseline evaluation with a fixed method and textual rule order,
  /// bypassing the optimizer (for comparisons).
  Result<QueryResult> EvaluateUnoptimized(const Literal& goal,
                                          RecursionMethod method);

 private:
  Status Ingest(Program parsed);

  /// The program the optimizer and engine actually run: the rule base,
  /// optionally rewritten by the [RBK 87] projection-pushing pass for this
  /// goal (options_.push_projections).
  Result<Program> EffectiveProgram(const Literal& goal) const;

  /// Everything one Plan/Query/Explain call needs: the effective program
  /// (projection-pushed, optionally dead-rule-pruned), the semantic
  /// analysis of that program for this goal when static analysis is
  /// enabled, and a per-call copy of the optimizer options whose `analysis`
  /// pointer refers into this context. The context must outlive the
  /// Optimizer built from it.
  struct GoalContext {
    Program working;
    std::unique_ptr<ProgramAnalysis> analysis;
    /// Feedback overlay (StatisticsCatalog::BlendedOverlay) that
    /// options.measured points into when feedback planning is on — heap
    /// storage so the pointer survives the context being moved.
    std::unique_ptr<MeasuredStatistics> overlay;
    OptimizerOptions options;
  };
  Result<GoalContext> PrepareGoal(const Literal& goal);
  /// Dead-rule elimination removed every rule of `goal`'s predicate from
  /// ctx.working: no rule can derive a row, so the goal answers empty, and
  /// safely so.
  bool AllRulesDead(const GoalContext& ctx, const Literal& goal) const;
  /// The plan of `goal` over ctx.working under ctx.options: the
  /// optimizer's, or the empty, safe plan Query serves when every rule of
  /// the goal is dead (Plan, Explain, ExplainOptimize).
  Result<QueryPlan> OptimizeIn(const GoalContext& ctx, const Literal& goal);

  /// A goal shape prepared for serving (DESIGN.md §22): its context, the
  /// plan chosen for it and the engine query prepared from that plan, with
  /// its fixpoint schedule compiled (§23). None of them depends on the
  /// goal's constants, and none is written by a run.
  struct PreparedGoal {
    GoalContext ctx;
    QueryPlan plan;
    /// plan.Fingerprint(), which hashes no constant: what every query the
    /// entry serves logs.
    std::string plan_fingerprint;
    PreparedQuery query;
    /// The statistics epoch the plan was costed under.
    uint64_t plan_epoch = 0;
    /// What the plan read of the statistics: every predicate of
    /// ctx.working, sorted, with its RelationStats, or nullopt when it had
    /// none (costed with the defaults).
    std::vector<std::pair<PredicateId, std::optional<RelationStats>>> read;

    /// Records `stats` for every predicate of ctx.working.
    void RecordRead(const Statistics& stats);
    /// Some statistic `read` holds is kPlanKeepFactor or more away from
    /// its value in `now`, up or down, or a predicate gained or lost its
    /// statistics.
    bool StatisticsMoved(const Statistics& now) const;
  };

  /// Prepared goal shapes keyed by (goal predicate, adornment); the least
  /// recently used entry goes when a new one would exceed kCapacity.
  class PlanCache {
   public:
    static constexpr size_t kCapacity = 64;

    /// The entry for `key`, now the most recently used; null on a miss.
    std::shared_ptr<const PreparedGoal> Find(const AdornedPredicate& key);
    /// Adds the entry for `key` as the most recently used. Returns true
    /// when that evicted the least recently used one.
    bool Insert(const AdornedPredicate& key,
                std::shared_ptr<const PreparedGoal> entry);
    void Clear();
    /// Removes every entry whose statistics moved in `now`
    /// (PreparedGoal::StatisticsMoved). Returns how many went.
    size_t DropMoved(const Statistics& now);

   private:
    using Entry =
        std::pair<AdornedPredicate, std::shared_ptr<const PreparedGoal>>;
    std::list<Entry> lru_;  ///< most recently used first
    std::unordered_map<AdornedPredicate, std::list<Entry>::iterator,
                       AdornedPredicateHash>
        index_;
  };

  /// One run of a goal on the serving path, shared by Query and
  /// AnalyzeCalibrated. Filled by Serve; the caller keeps it on its stack
  /// because the trace refers into the per-query meter and token.
  struct ServedRun {
    explicit ServedRun(const TraceContext& session);
    ~ServedRun();

    /// Per-query meter and token, chained under the session's.
    ResourceAccountant accountant;
    CancellationToken cancel;
    /// The session trace with the per-query meter and token, when metered.
    TraceContext trace;
    /// The prepared goal that served the run, cached or fresh; null for a
    /// base-relation goal, which is answered without planning.
    std::shared_ptr<const PreparedGoal> prepared;
    /// Rows per binding the engine computed (QueryResult::derived_sizes).
    std::vector<std::pair<AdornedPredicate, double>> derived_sizes;
    /// The goal was planned (or is a base relation): the plan is loggable.
    bool have_plan = false;
  };

  /// The serving path: a per-query accountant and cancellation token from
  /// options().limits, then the goal's prepared shape, from the plan cache
  /// or made by PrepareGoal -> Optimize -> PrepareQuery, and RunPrepared
  /// with this goal's constants. Fills `answer` as far as the run got
  /// (plan, answers, stats, timings, resource meters).
  Status Serve(const Literal& goal, QueryAnswer* answer, ServedRun* served);

  /// Whether Serve may use the plan cache: not when the caller pinned the
  /// plan or supplied measurements or an analysis, nor when the static
  /// analysis (analyze_reachability, eliminate_dead_rules) reads the fact
  /// base, nor while feedback planning reads a catalog that changes after
  /// every query.
  bool PlanCacheable() const;

  /// Post-execution half of the feedback loop: folds the measurements into
  /// the attached catalog, runs the drift check, and mirrors the loop's
  /// gauges (feedback.*, stats_epoch). A tripped drift marks the statistics
  /// dirty so the next query re-collects under the bumped epoch.
  void ObserveFeedback(const MeasuredStatistics& measured);

  OptimizerOptions options_;
  Program program_;
  /// The arities program_'s rules and queries use, what a new clause is
  /// validated against.
  Program::Arities arities_;
  Database db_;
  Statistics stats_;
  bool stats_dirty_ = true;
  QueryLog* query_log_ = nullptr;
  StatisticsCatalog* feedback_catalog_ = nullptr;
  DriftDetector* drift_detector_ = nullptr;
  PlanCache plan_cache_;
};

}  // namespace ldl

#endif  // LDLOPT_LDL_LDL_H_
