#include "ldl/ldl.h"

#include <chrono>

#include "analysis/analyzer.h"
#include "base/strings.h"
#include "graph/binding.h"
#include "obs/feedback.h"
#include "obs/search_trace.h"
#include "optimizer/project_pushdown.h"
#include "plan/explain.h"
#include "plan/interpreter.h"

namespace ldl {

namespace {

double MsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

/// "ResourceExhausted" -> "resource_exhausted": the query log's outcome tag.
std::string OutcomeName(StatusCode code) {
  std::string out;
  for (const char* p = StatusCodeToString(code); *p != '\0'; ++p) {
    if (*p >= 'A' && *p <= 'Z') {
      if (!out.empty()) out.push_back('_');
      out.push_back(static_cast<char>(*p - 'A' + 'a'));
    } else {
      out.push_back(*p);
    }
  }
  return out;
}

}  // namespace

LdlSystem::LdlSystem(OptimizerOptions options)
    : options_(std::move(options)) {}

Status LdlSystem::LoadProgram(std::string_view text) {
  LDL_ASSIGN_OR_RETURN(Program parsed, ParseProgram(text));
  return Ingest(std::move(parsed));
}

Status LdlSystem::AddClause(std::string_view text) {
  return LoadProgram(text);
}

Status LdlSystem::Ingest(Program parsed) {
  // Check everything before changing anything: a rejected clause leaves
  // the rules, the facts and the statistics as they were.
  for (const Literal& fact : parsed.facts()) {
    LDL_RETURN_NOT_OK(Database::CheckFact(fact));
  }
  if (!parsed.rules().empty() || !parsed.queries().empty()) {
    Program next = program_;
    for (const Rule& rule : parsed.rules()) next.AddRule(rule);
    for (const QueryForm& query : parsed.queries()) next.AddQuery(query);
    LDL_RETURN_NOT_OK(next.Validate());
    program_ = std::move(next);
  }
  for (const Literal& fact : parsed.facts()) {
    LDL_RETURN_NOT_OK(db_.AddFact(fact));
  }
  stats_dirty_ = true;
  return Status::OK();
}

void LdlSystem::RefreshStatistics() {
  // The epoch survives recollection: it numbers statistics *generations*,
  // so a logged plan can be traced to the catalog state that shaped it.
  Statistics fresh = Statistics::Collect(db_);
  fresh.set_epoch(stats_.epoch() + 1);
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    stats_ = std::move(fresh);
  }
  stats_dirty_ = false;
}

Statistics LdlSystem::StatisticsSnapshot() const {
  std::lock_guard<std::mutex> lock(stats_mu_);
  return stats_;
}

const Statistics& LdlSystem::statistics() {
  if (stats_dirty_) RefreshStatistics();
  return stats_;
}

Result<QueryPlan> LdlSystem::Plan(std::string_view goal_text) {
  LDL_ASSIGN_OR_RETURN(Literal goal, ParseLiteral(goal_text));
  return Plan(goal);
}

Result<Program> LdlSystem::EffectiveProgram(const Literal& goal) const {
  if (options_.push_projections && program_.IsDerived(goal.predicate())) {
    auto projected = PushProjections(program_, goal);
    if (projected.ok()) return std::move(projected->rewritten);
  }
  return program_;
}

Result<LdlSystem::GoalContext> LdlSystem::PrepareGoal(const Literal& goal) {
  GoalContext ctx;
  ctx.options = options_;
  LDL_ASSIGN_OR_RETURN(ctx.working, EffectiveProgram(goal));
  if (options_.feedback && feedback_catalog_ != nullptr &&
      ctx.options.measured == nullptr) {
    // Feedback planning mode: cost this goal under the catalog's blended
    // measured-over-estimated overlay. Predicates the catalog never saw
    // are absent from the overlay, so their estimates stand untouched.
    auto overlay = std::make_unique<MeasuredStatistics>(
        feedback_catalog_->BlendedOverlay(stats_));
    if (!overlay->empty()) {
      ctx.overlay = std::move(overlay);
      ctx.options.measured = ctx.overlay.get();
    }
  }
  const bool wants_analysis =
      options_.analyze_reachability || options_.eliminate_dead_rules;
  if (!wants_analysis || ctx.options.analysis != nullptr ||
      !program_.IsDerived(goal.predicate())) {
    return ctx;
  }

  AnalyzerOptions aopts;
  aopts.database = &db_;
  aopts.statistics = &stats_;

  if (options_.eliminate_dead_rules) {
    ProgramAnalyzer analyzer(ctx.working, aopts);
    DeadRuleElimination pruned =
        EliminateDeadRules(ctx.working, analyzer.Analyze(goal));
    if (!pruned.removed_rules.empty()) {
      ctx.working = std::move(pruned.program);
    }
  }
  if (options_.analyze_reachability) {
    // Analyze the (possibly pruned) working program so the reachable set
    // and rule indices match what the optimizer actually sees.
    ProgramAnalyzer analyzer(ctx.working, aopts);
    ctx.analysis = std::make_unique<ProgramAnalysis>(analyzer.Analyze(goal));
    ctx.options.analysis = ctx.analysis.get();
    if (ctx.options.trace.metrics != nullptr) {
      ctx.analysis->ExportTo(ctx.options.trace.metrics);
    }
  }
  return ctx;
}

Result<QueryPlan> LdlSystem::Plan(const Literal& goal) {
  if (stats_dirty_) RefreshStatistics();
  LDL_ASSIGN_OR_RETURN(GoalContext ctx, PrepareGoal(goal));
  Optimizer optimizer(ctx.working, stats_, ctx.options);
  return optimizer.Optimize(goal);
}

Result<QueryAnswer> LdlSystem::Query(std::string_view goal_text) {
  LDL_ASSIGN_OR_RETURN(Literal goal, ParseLiteral(goal_text));
  return Query(goal);
}

Result<QueryAnswer> LdlSystem::Query(const Literal& goal) {
  const auto query_start = std::chrono::steady_clock::now();

  // Per-query lifecycle: a resource meter and a cancellation token chained
  // under whatever session-level accountant/token the caller installed in
  // options_.trace. Metering engages only when a limit is set or a query
  // log wants the resource profile — otherwise the trace passes through
  // untouched and every hot path stays on its no-accountant fast path.
  ResourceAccountant accountant(options_.trace.accountant);
  CancellationToken cancel(options_.trace.cancel);
  TraceContext trace = options_.trace;
  if (options_.limits.any() || query_log_ != nullptr) {
    ResourceBudget budget;
    budget.max_bytes = options_.limits.budget_bytes;
    budget.max_tuples_examined = options_.limits.budget_tuples;
    accountant.set_budget(budget);
    cancel.set_accountant(&accountant);
    if (options_.limits.deadline_ms > 0) {
      cancel.set_deadline_after(std::chrono::duration<double, std::milli>(
          options_.limits.deadline_ms));
    }
    trace.accountant = &accountant;
    trace.cancel = &cancel;
  }

  QueryAnswer answer;
  bool have_plan = false;
  uint64_t rule_firings = 0;
  std::vector<std::pair<PredicateId, uint64_t>> derived_sizes;

  auto run = [&]() -> Status {
    // Base-relation queries bypass optimization.
    if (!program_.IsDerived(goal.predicate())) {
      if (!db_.Exists(goal.predicate())) {
        return Status::NotFound(
            StrCat("unknown predicate ", goal.predicate().ToString()));
      }
      answer.answers = SelectMatching(db_.Find(goal.predicate()), goal);
      answer.plan.goal = goal;
      answer.plan.safe = true;
      have_plan = true;
      return Status::OK();
    }

    // Plan and execute against the same (possibly projection-rewritten,
    // possibly dead-rule-pruned) program: the plan's rule indices refer to
    // it.
    if (stats_dirty_) RefreshStatistics();
    LDL_ASSIGN_OR_RETURN(GoalContext ctx, PrepareGoal(goal));
    ctx.options.trace = trace;
    const auto optimize_start = std::chrono::steady_clock::now();
    Optimizer optimizer(ctx.working, stats_, ctx.options);
    Result<QueryPlan> plan = optimizer.Optimize(goal);
    answer.optimize_ms = MsSince(optimize_start);
    LDL_RETURN_NOT_OK(plan.status());
    answer.plan = std::move(plan).value();
    have_plan = true;
    if (!answer.plan.safe) {
      return Status::Unsafe(StrCat("query ", goal.ToString(),
                                   "? has no safe execution: ",
                                   answer.plan.unsafe_reason));
    }

    QueryEvalOptions eval_options;
    eval_options.fixpoint.trace = trace;
    eval_options.fixpoint.record_iterations =
        options_.record_fixpoint_iterations;
    eval_options.sips = answer.plan.sips;
    eval_options.fixpoint.rule_orders.insert(answer.plan.rule_orders.begin(),
                                             answer.plan.rule_orders.end());
    const auto execute_start = std::chrono::steady_clock::now();
    Result<QueryResult> result = EvaluateQuery(
        ctx.working, &db_, goal, answer.plan.top_method, eval_options);
    answer.execute_ms = MsSince(execute_start);
    LDL_RETURN_NOT_OK(result.status());
    answer.answers = std::move(result->answers);
    answer.exec_stats = result->stats;
    answer.note = result->note;
    derived_sizes = std::move(result->derived_sizes);
    rule_firings = result->stats.counters.rule_firings;
    return Status::OK();
  };
  const Status status = run();

  if (trace.accountant != nullptr) {
    answer.peak_bytes = trace.accountant->peak_bytes();
    answer.tuples_examined = trace.accountant->tuples_examined();
    answer.tuples_derived = trace.accountant->tuples_derived();
    answer.fixpoint_rounds = trace.accountant->fixpoint_rounds();
  }
  if (trace.cancel != nullptr) answer.cancel_checks = trace.cancel->checks();

  if (query_log_ != nullptr) {
    QueryLogRecord rec;
    rec.query = goal.ToString();
    rec.adornment = Adornment::FromGoal(goal).ToString();
    if (have_plan) {
      rec.method = program_.IsDerived(goal.predicate())
                       ? RecursionMethodToString(answer.plan.top_method)
                       : "base";
      rec.plan_fingerprint = answer.plan.Fingerprint();
    }
    rec.stats_epoch = stats_.epoch();
    rec.prune = options_.eliminate_dead_rules;
    if (status.ok()) {
      rec.answers = answer.answers.size();
      rec.answer_fingerprint = AnswerFingerprint(answer.answers);
    } else {
      rec.outcome = OutcomeName(status.code());
      rec.error = status.message();
    }
    rec.budget_bytes = options_.limits.budget_bytes;
    rec.deadline_ms = options_.limits.deadline_ms;
    rec.peak_bytes = answer.peak_bytes;
    rec.tuples_examined = answer.tuples_examined;
    rec.tuples_derived = answer.tuples_derived;
    rec.fixpoint_rounds = answer.fixpoint_rounds;
    rec.rule_firings = rule_firings;
    rec.cancel_checks = answer.cancel_checks;
    rec.optimize_ms = answer.optimize_ms;
    rec.execute_ms = answer.execute_ms;
    rec.total_ms = MsSince(query_start);
    query_log_->Append(std::move(rec));
  }

  // Close the loop after the record is written: the log carries the epoch
  // the plan was made under; a drift bump here shapes the *next* query.
  if (status.ok()) {
    ObserveFeedback(goal, answer.answers.size(), derived_sizes);
  }
  if (options_.trace.metrics != nullptr) {
    options_.trace.metrics->gauge("stats_epoch")
        ->Set(static_cast<double>(stats_.epoch()));
  }

  LDL_RETURN_NOT_OK(status);
  return answer;
}

void LdlSystem::ObserveFeedback(
    const Literal& goal, size_t answer_rows,
    const std::vector<std::pair<PredicateId, uint64_t>>& derived_sizes) {
  if (feedback_catalog_ == nullptr) return;
  const uint64_t epoch = stats_.epoch();
  // The goal's answer count is a per-binding measurement under the goal's
  // own adornment (for an all-free goal: the predicate's total size).
  feedback_catalog_->Observe(goal.predicate(), Adornment::FromGoal(goal),
                             static_cast<double>(answer_rows), epoch);
  for (const auto& [pred, rows] : derived_sizes) {
    feedback_catalog_->Observe(pred, Adornment::AllFree(pred.arity),
                               static_cast<double>(rows), epoch);
  }
  FeedbackDriftCheck();
}

void LdlSystem::FeedbackDriftCheck() {
  if (feedback_catalog_ == nullptr) return;
  size_t tripped = 0;
  if (drift_detector_ != nullptr) {
    // Check may bump the epoch in place: a write that StatisticsSnapshot
    // readers must not see half done.
    std::lock_guard<std::mutex> lock(stats_mu_);
    tripped = drift_detector_->Check(*feedback_catalog_, &stats_,
                                     options_.trace.metrics);
  }
  if (tripped > 0) {
    // The detector bumped the epoch: mark the statistics dirty so the next
    // query re-collects instead of planning under the drifted generation.
    stats_dirty_ = true;
  }
  feedback_catalog_->ExportTo(options_.trace.metrics);
}

Result<std::string> LdlSystem::Explain(std::string_view goal_text) {
  LDL_ASSIGN_OR_RETURN(Literal goal, ParseLiteral(goal_text));
  if (stats_dirty_) RefreshStatistics();
  LDL_ASSIGN_OR_RETURN(GoalContext ctx, PrepareGoal(goal));
  Optimizer optimizer(ctx.working, stats_, ctx.options);
  LDL_ASSIGN_OR_RETURN(QueryPlan plan, optimizer.Optimize(goal));
  return plan.Explain(ctx.working);
}

Result<std::string> LdlSystem::ExplainOptimize(std::string_view goal_text) {
  LDL_ASSIGN_OR_RETURN(Literal goal, ParseLiteral(goal_text));
  if (stats_dirty_) RefreshStatistics();
  LDL_ASSIGN_OR_RETURN(GoalContext ctx, PrepareGoal(goal));
  SearchTracer local;
  if (ctx.options.trace.search == nullptr) ctx.options.trace.search = &local;
  Optimizer optimizer(ctx.working, stats_, ctx.options);
  LDL_ASSIGN_OR_RETURN(QueryPlan plan, optimizer.Optimize(goal));
  std::string out = plan.Explain(ctx.working);
  StrAppend(&out, "\n", RenderExplainOptimize(*ctx.options.trace.search));
  return out;
}

Result<std::string> LdlSystem::ExplainTree(std::string_view goal_text) {
  LDL_ASSIGN_OR_RETURN(Literal goal, ParseLiteral(goal_text));
  if (stats_dirty_) RefreshStatistics();
  LDL_ASSIGN_OR_RETURN(GoalContext ctx, PrepareGoal(goal));
  LDL_ASSIGN_OR_RETURN(std::unique_ptr<PlanNode> tree,
                       BuildProcessingTree(ctx.working, goal));
  Optimizer optimizer(ctx.working, stats_, ctx.options);
  LDL_RETURN_NOT_OK(optimizer.AnnotateTree(tree.get()));
  return tree->ToString();
}

Result<std::string> LdlSystem::ExplainAnalyze(std::string_view goal_text) {
  LDL_ASSIGN_OR_RETURN(AnalyzeResult res, AnalyzeCalibrated(goal_text));
  return std::move(res.text);
}

Result<LdlSystem::AnalyzeResult> LdlSystem::AnalyzeCalibrated(
    std::string_view goal_text) {
  LDL_ASSIGN_OR_RETURN(Literal goal, ParseLiteral(goal_text));
  if (stats_dirty_) RefreshStatistics();
  LDL_ASSIGN_OR_RETURN(GoalContext ctx, PrepareGoal(goal));
  const Program& working = ctx.working;
  // Optimize first: the chosen QueryPlan feeds the regret analysis, and an
  // unsafe plan must not reach the interpreter (it may not terminate).
  Optimizer optimizer(working, stats_, ctx.options);
  LDL_ASSIGN_OR_RETURN(QueryPlan plan, optimizer.Optimize(goal));
  if (!plan.safe) {
    return Status::Unsafe(StrCat("query ", goal.ToString(),
                                 "? has no safe execution: ",
                                 plan.unsafe_reason));
  }
  LDL_ASSIGN_OR_RETURN(std::unique_ptr<PlanNode> tree,
                       BuildProcessingTree(working, goal));
  LDL_RETURN_NOT_OK(optimizer.AnnotateTree(tree.get()));

  TreeInterpreter interpreter(working, &db_);
  interpreter.set_trace(options_.trace);
  LDL_ASSIGN_OR_RETURN(Relation answers,
                       interpreter.Execute(*tree, tree->goal));

  std::string out = RenderExplain(*tree, &interpreter.profile());
  const EvalCounters& c = interpreter.counters();
  StrAppend(&out, "\nAnswers: ", answers.size(), " rows\n");
  StrAppend(&out, "Totals: ", c.tuples_examined, " tuples examined, ",
            c.derivations, " derivations, ", interpreter.memo_hits(),
            " memo hits\n");

  CalibrationReport report = CalibrationReport::Build(
      *tree, interpreter.profile(), goal.ToString());
  MeasuredStatistics measured =
      HarvestMeasuredStatistics(*tree, interpreter.profile());
  report.set_regret(
      ComputePlanRegret(working, stats_, ctx.options, goal, plan, measured));
  report.ExportTo(options_.trace.metrics);
  if (feedback_catalog_ != nullptr) {
    // The analyzed run's full per-(predicate, adornment) harvest — the
    // richest observation stream the catalog gets — then the drift gate.
    feedback_catalog_->ObserveMeasured(measured, stats_.epoch());
    FeedbackDriftCheck();
  }
  StrAppend(&out, "\n", report.ToString());

  AnalyzeResult res;
  res.text = std::move(out);
  res.report = std::move(report);
  return res;
}

SafetyReport LdlSystem::CheckSafety(std::string_view goal_text) {
  auto goal = ParseLiteral(goal_text);
  if (!goal.ok()) {
    SafetyReport report;
    report.safe = false;
    report.problems.push_back(goal.status().ToString());
    return report;
  }
  return AnalyzeQuerySafety(program_, *goal);
}

Result<QueryResult> LdlSystem::EvaluateUnoptimized(const Literal& goal,
                                                   RecursionMethod method) {
  return EvaluateQuery(program_, &db_, goal, method);
}

}  // namespace ldl
