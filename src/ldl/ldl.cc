#include "ldl/ldl.h"

#include <algorithm>
#include <chrono>
#include <cstdio>

#include "analysis/analyzer.h"
#include "base/strings.h"
#include "graph/binding.h"
#include "obs/feedback.h"
#include "obs/search_trace.h"
#include "optimizer/project_pushdown.h"
#include "plan/explain.h"

namespace ldl {

namespace {

double MsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

std::string FormatMillis(double ms) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.3f", ms);
  return buf;
}

/// What a successful run measured, as rows per binding: the engine's
/// entries, plus the goal's answer count under its own adornment (for an
/// all-free goal, the predicate's total size) when the engine reported no
/// entry for that key.
MeasuredStatistics RunMeasurements(
    const Literal& goal, const QueryAnswer& answer,
    const std::vector<std::pair<AdornedPredicate, double>>& derived_sizes) {
  MeasuredStatistics measured;
  for (const auto& [ap, rows] : derived_sizes) {
    measured.Set(ap.pred, ap.adornment, rows);
  }
  const Adornment adn = Adornment::FromGoal(goal);
  if (measured.Find(goal.predicate(), adn) == nullptr) {
    measured.Set(goal.predicate(), adn,
                 static_cast<double>(answer.answers.size()));
  }
  return measured;
}

/// The plan of a goal whose every rule dead-rule elimination removed.
QueryPlan NoRulePlan(const Literal& goal) {
  QueryPlan plan;
  plan.goal = goal;
  plan.adornment = Adornment::FromGoal(goal);
  plan.safe = true;
  return plan;
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
    // Only the new clauses are checked, against the arities the program
    // already uses, so loading a program clause by clause stays linear.
    LDL_RETURN_NOT_OK(parsed.ValidateAdditions(&arities_));
    for (const Rule& rule : parsed.rules()) program_.AddRule(rule);
    for (const QueryForm& query : parsed.queries()) program_.AddQuery(query);
    if (!parsed.rules().empty()) plan_cache_.Clear();
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
  stats_ = std::move(fresh);
  stats_dirty_ = false;
  const size_t dropped = plan_cache_.DropMoved(stats_);
  if (dropped > 0) options_.trace.Count("ldl.plan_cache.dropped", dropped);
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

bool LdlSystem::AllRulesDead(const GoalContext& ctx,
                             const Literal& goal) const {
  return program_.IsDerived(goal.predicate()) &&
         !ctx.working.IsDerived(goal.predicate());
}

Result<QueryPlan> LdlSystem::OptimizeIn(const GoalContext& ctx,
                                        const Literal& goal) {
  if (AllRulesDead(ctx, goal)) return NoRulePlan(goal);
  Optimizer optimizer(ctx.working, stats_, ctx.options);
  return optimizer.Optimize(goal);
}

Result<QueryPlan> LdlSystem::Plan(const Literal& goal) {
  if (stats_dirty_) RefreshStatistics();
  LDL_ASSIGN_OR_RETURN(GoalContext ctx, PrepareGoal(goal));
  return OptimizeIn(ctx, goal);
}

Result<QueryAnswer> LdlSystem::Query(std::string_view goal_text) {
  LDL_ASSIGN_OR_RETURN(Literal goal, ParseLiteral(goal_text));
  return Query(goal);
}

std::shared_ptr<const LdlSystem::PreparedGoal> LdlSystem::PlanCache::Find(
    const AdornedPredicate& key) {
  auto it = index_.find(key);
  if (it == index_.end()) return nullptr;
  lru_.splice(lru_.begin(), lru_, it->second);
  return it->second->second;
}

bool LdlSystem::PlanCache::Insert(const AdornedPredicate& key,
                                  std::shared_ptr<const PreparedGoal> entry) {
  lru_.emplace_front(key, std::move(entry));
  index_[key] = lru_.begin();
  if (lru_.size() <= kCapacity) return false;
  index_.erase(lru_.back().first);
  lru_.pop_back();
  return true;
}

void LdlSystem::PlanCache::Clear() {
  index_.clear();
  lru_.clear();
}

size_t LdlSystem::PlanCache::DropMoved(const Statistics& now) {
  size_t dropped = 0;
  for (auto it = lru_.begin(); it != lru_.end();) {
    if (it->second->StatisticsMoved(now)) {
      index_.erase(it->first);
      it = lru_.erase(it);
      ++dropped;
    } else {
      ++it;
    }
  }
  return dropped;
}

void LdlSystem::PreparedGoal::RecordRead(const Statistics& stats) {
  std::vector<PredicateId> preds;
  for (const Rule& rule : ctx.working.rules()) {
    preds.push_back(rule.head().predicate());
    for (const Literal& lit : rule.body()) {
      if (!lit.IsBuiltin()) preds.push_back(lit.predicate());
    }
  }
  std::sort(preds.begin(), preds.end());
  preds.erase(std::unique(preds.begin(), preds.end()), preds.end());
  read.clear();
  read.reserve(preds.size());
  for (PredicateId& pred : preds) {
    std::optional<RelationStats> rs;
    if (stats.Has(pred)) rs = stats.Get(pred);
    read.emplace_back(std::move(pred), std::move(rs));
  }
}

bool LdlSystem::PreparedGoal::StatisticsMoved(const Statistics& now) const {
  auto moved = [](double was, double is) {
    return was != is &&
           (is >= was * kPlanKeepFactor || was >= is * kPlanKeepFactor);
  };
  for (const auto& [pred, was] : read) {
    if (was.has_value() != now.Has(pred)) return true;
    if (!was.has_value()) continue;
    const RelationStats& is = now.Get(pred);
    if (moved(was->cardinality, is.cardinality) ||
        was->distinct.size() != is.distinct.size()) {
      return true;
    }
    for (size_t c = 0; c < is.distinct.size(); ++c) {
      if (moved(was->distinct[c], is.distinct[c])) return true;
    }
  }
  return false;
}

LdlSystem::ServedRun::ServedRun(const TraceContext& session)
    : accountant(session.accountant), cancel(session.cancel) {}

LdlSystem::ServedRun::~ServedRun() = default;

bool LdlSystem::PlanCacheable() const {
  // The static analysis reads the fact base itself (statically empty
  // relations, the sorts of stored values), and writes through database()
  // clear nothing, so its plans are made afresh for every query.
  return options_.measured == nullptr && options_.pinned == nullptr &&
         options_.analysis == nullptr && !options_.analyze_reachability &&
         !options_.eliminate_dead_rules &&
         !(options_.feedback && feedback_catalog_ != nullptr);
}

Status LdlSystem::Serve(const Literal& goal, QueryAnswer* answer,
                        ServedRun* served) {
  // Per-query lifecycle: a resource meter and a cancellation token chained
  // under whatever session-level accountant/token the caller installed in
  // options_.trace. Metering engages only when a limit is set or a query
  // log wants the resource profile — otherwise the trace passes through
  // untouched and every hot path stays on its no-accountant fast path.
  ResourceAccountant& accountant = served->accountant;
  CancellationToken& cancel = served->cancel;
  TraceContext& trace = served->trace;
  trace = options_.trace;
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

  auto run = [&]() -> Status {
    // Base-relation queries bypass optimization.
    if (!program_.IsDerived(goal.predicate())) {
      if (!db_.Exists(goal.predicate())) {
        return Status::NotFound(
            StrCat("unknown predicate ", goal.predicate().ToString()));
      }
      answer->answers = SelectMatching(db_.Find(goal.predicate()), goal);
      answer->plan.goal = goal;
      answer->plan.safe = true;
      served->have_plan = true;
      return Status::OK();
    }

    // The goal's shape from the plan cache, or planned now against the
    // same (possibly projection-rewritten, possibly dead-rule-pruned)
    // program the engine will run, since the plan's rule indices refer to
    // it.
    if (stats_dirty_) RefreshStatistics();
    const bool cacheable = PlanCacheable();
    const AdornedPredicate key{goal.predicate(), Adornment::FromGoal(goal)};
    const auto lookup_start = std::chrono::steady_clock::now();
    if (cacheable) served->prepared = plan_cache_.Find(key);
    std::shared_ptr<PreparedGoal> fresh;
    if (served->prepared != nullptr) {
      trace.Count("ldl.plan_cache.hits");
      answer->plan = served->prepared->plan;
      answer->plan.goal = goal;
      answer->plan.search_stats = PlanSearchStats{};
      answer->plan_cached = true;
      answer->plan_epoch = served->prepared->plan_epoch;
      answer->optimize_ms = MsSince(lookup_start);
    } else {
      if (cacheable) trace.Count("ldl.plan_cache.misses");
      fresh = std::make_shared<PreparedGoal>();
      LDL_ASSIGN_OR_RETURN(fresh->ctx, PrepareGoal(goal));
      if (AllRulesDead(fresh->ctx, goal)) {
        // Nothing is planned, run or cached.
        answer->answers = Relation("answers", goal.arity());
        answer->plan = NoRulePlan(goal);
        fresh->plan = answer->plan;
        fresh->plan_fingerprint = fresh->plan.Fingerprint();
        served->prepared = std::move(fresh);
        served->have_plan = true;
        return Status::OK();
      }
      fresh->ctx.options.trace = trace;
      const auto optimize_start = std::chrono::steady_clock::now();
      Optimizer optimizer(fresh->ctx.working, stats_, fresh->ctx.options);
      Result<QueryPlan> plan = optimizer.Optimize(goal);
      answer->optimize_ms = MsSince(optimize_start);
      LDL_RETURN_NOT_OK(plan.status());
      answer->plan = std::move(plan).value();
    }
    served->have_plan = true;
    if (!answer->plan.safe) {
      return Status::Unsafe(StrCat("query ", goal.ToString(),
                                   "? has no safe execution: ",
                                   answer->plan.unsafe_reason));
    }

    const auto execute_start = std::chrono::steady_clock::now();
    const bool prepared_now = fresh != nullptr;
    if (prepared_now) {
      // Preparing (the magic/counting rewrite, the schedule and its
      // compiles) counts as execution time.
      QueryEvalOptions prepare_options;
      prepare_options.fixpoint.trace = trace;
      prepare_options.sips = answer->plan.sips;
      prepare_options.fixpoint.rule_orders.insert(
          answer->plan.rule_orders.begin(), answer->plan.rule_orders.end());
      LDL_ASSIGN_OR_RETURN(fresh->query,
                           PrepareQuery(fresh->ctx.working, goal,
                                        answer->plan.top_method,
                                        prepare_options));
      // The entry outlives this query: it keeps the session trace, not the
      // per-query meter and token.
      fresh->ctx.options.trace = options_.trace;
      fresh->plan = answer->plan;
      fresh->plan_fingerprint = fresh->plan.Fingerprint();
      fresh->plan_epoch = stats_.epoch();
      served->prepared = fresh;
      if (cacheable) {
        fresh->RecordRead(stats_);
        if (plan_cache_.Insert(key, std::move(fresh))) {
          trace.Count("ldl.plan_cache.evictions");
        }
      }
    }
    const PreparedGoal& prepared = *served->prepared;
    QueryEvalOptions eval_options;
    eval_options.fixpoint.trace = trace;
    eval_options.fixpoint.record_iterations =
        options_.record_fixpoint_iterations;
    // Only counting's divergence fallback adorns a program at run time.
    if (prepared.query.method == RecursionMethod::kCounting) {
      eval_options.sips = prepared.plan.sips;
    }
    Result<QueryResult> result = RunPrepared(
        prepared.query, prepared.ctx.working, &db_, goal, eval_options);
    answer->execute_ms = MsSince(execute_start);
    LDL_RETURN_NOT_OK(result.status());
    answer->answers = std::move(result->answers);
    answer->exec_stats = result->stats;
    // A miss compiled the entry's rules; a hit runs them as compiled.
    if (prepared_now) {
      answer->exec_stats.counters.rules_compiled +=
          prepared.query.schedule.rules_compiled();
    }
    answer->note = result->note;
    served->derived_sizes = std::move(result->derived_sizes);
    return Status::OK();
  };
  const Status status = run();
  if (!answer->plan_cached) answer->plan_epoch = stats_.epoch();

  if (trace.accountant != nullptr) {
    answer->peak_bytes = trace.accountant->peak_bytes();
    answer->tuples_examined = trace.accountant->tuples_examined();
    answer->tuples_derived = trace.accountant->tuples_derived();
    answer->fixpoint_rounds = trace.accountant->fixpoint_rounds();
  }
  if (trace.cancel != nullptr) answer->cancel_checks = trace.cancel->checks();
  return status;
}

Result<QueryAnswer> LdlSystem::Query(const Literal& goal) {
  const auto query_start = std::chrono::steady_clock::now();
  QueryAnswer answer;
  ServedRun served(options_.trace);
  const Status status = Serve(goal, &answer, &served);

  if (query_log_ != nullptr) {
    QueryLogRecord rec;
    rec.query = goal.ToString();
    rec.adornment = Adornment::FromGoal(goal).ToString();
    if (served.have_plan) {
      rec.method = program_.IsDerived(goal.predicate())
                       ? RecursionMethodToString(answer.plan.top_method)
                       : "base";
      rec.plan_fingerprint = served.prepared != nullptr
                                 ? served.prepared->plan_fingerprint
                                 : answer.plan.Fingerprint();
    }
    rec.stats_epoch = stats_.epoch();
    rec.plan_epoch = answer.plan_epoch;
    rec.prune = options_.eliminate_dead_rules;
    rec.plan_cached = answer.plan_cached;
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
    rec.rule_firings = answer.exec_stats.counters.rule_firings;
    rec.cancel_checks = answer.cancel_checks;
    rec.optimize_ms = answer.optimize_ms;
    rec.execute_ms = answer.execute_ms;
    rec.total_ms = MsSince(query_start);
    query_log_->Append(std::move(rec));
  }

  // Close the loop after the record is written: the log carries the epoch
  // the plan was made under; a drift bump here shapes the *next* query.
  if (status.ok() && feedback_catalog_ != nullptr) {
    ObserveFeedback(RunMeasurements(goal, answer, served.derived_sizes));
  }
  if (options_.trace.metrics != nullptr) {
    options_.trace.metrics->gauge("stats_epoch")
        ->Set(static_cast<double>(stats_.epoch()));
  }

  LDL_RETURN_NOT_OK(status);
  return answer;
}

void LdlSystem::ObserveFeedback(const MeasuredStatistics& measured) {
  if (feedback_catalog_ == nullptr) return;
  feedback_catalog_->ObserveMeasured(measured, stats_.epoch());
  size_t tripped = 0;
  if (drift_detector_ != nullptr) {
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
  LDL_ASSIGN_OR_RETURN(QueryPlan plan, OptimizeIn(ctx, goal));
  return plan.Explain(ctx.working);
}

Result<std::string> LdlSystem::ExplainOptimize(std::string_view goal_text) {
  LDL_ASSIGN_OR_RETURN(Literal goal, ParseLiteral(goal_text));
  if (stats_dirty_) RefreshStatistics();
  LDL_ASSIGN_OR_RETURN(GoalContext ctx, PrepareGoal(goal));
  SearchTracer local;
  if (ctx.options.trace.search == nullptr) ctx.options.trace.search = &local;
  LDL_ASSIGN_OR_RETURN(QueryPlan plan, OptimizeIn(ctx, goal));
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
  if (!program_.IsDerived(goal.predicate())) {
    return Status::InvalidArgument(
        StrCat("query predicate ", goal.predicate().ToString(),
               " is not defined by any rule"));
  }
  AnalyzeResult res;
  ServedRun served(options_.trace);
  LDL_RETURN_NOT_OK(Serve(goal, &res.answer, &served));
  const QueryAnswer& answer = res.answer;

  // Annotate with an optimizer over the program and options the served
  // plan came from (cached or fresh), under this query's meter and token.
  const GoalContext& ctx = served.prepared->ctx;
  OptimizerOptions options = ctx.options;
  options.trace = served.trace;
  // A plan kept across a refresh was chosen under older statistics: pin
  // its decisions so the tree prices the plan that ran, not the one a
  // search under today's statistics would choose.
  const bool kept = answer.plan_epoch != stats_.epoch();
  PlanConstraints pins;
  if (kept) {
    pins.rule_orders = answer.plan.rule_orders;
    pins.clique_methods = answer.plan.clique_methods;
    options.pinned = &pins;
  }
  LDL_ASSIGN_OR_RETURN(std::unique_ptr<PlanNode> tree,
                       BuildProcessingTree(ctx.working, goal));
  Optimizer annotator(ctx.working, stats_, options);
  LDL_RETURN_NOT_OK(annotator.AnnotateTree(tree.get()));
  if (AllRulesDead(ctx, goal)) {
    // The pruned program has no rule for the goal, so the tree is a scan
    // of a relation no fact fills: price it as the plan that was served.
    const QueryPlan none = NoRulePlan(goal);
    tree->est_cost = none.TotalCost();
    tree->est_cardinality = none.estimate.card;
  }
  MeasuredStatistics actuals =
      RunMeasurements(goal, answer, served.derived_sizes);
  AddScanSizes(*tree, db_, &actuals);

  std::string out = RenderExplain(*tree, [&actuals](const PlanNode& node) {
    return NodeActualRows(node, actuals);
  });
  const EvalCounters& c = answer.exec_stats.counters;
  StrAppend(&out, "\nAnswers: ", answer.answers.size(), " rows\n");
  StrAppend(&out, "Totals: ", c.tuples_examined, " tuples examined, ",
            c.derivations, " derivations, ", answer.exec_stats.iterations,
            " fixpoint rounds, ", FormatMillis(answer.execute_ms),
            " ms execute\n");
  if (kept) {
    StrAppend(&out, "Plan: kept from the plan cache, planned under statistics "
              "epoch ", answer.plan_epoch, " (now ", stats_.epoch(), ")\n");
  }

  res.report = CalibrationReport::Build(*tree, actuals, goal.ToString());
  res.report.set_regret(ComputePlanRegret(ctx.working, stats_, options,
                                          goal, answer.plan, actuals));
  res.report.ExportTo(options_.trace.metrics);
  ObserveFeedback(actuals);
  StrAppend(&out, "\n", res.report.ToString());
  res.text = std::move(out);
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
