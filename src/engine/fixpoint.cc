#include "engine/fixpoint.h"

#include <algorithm>
#include <chrono>
#include <memory>

#include "base/strings.h"
#include "graph/dependency_graph.h"

namespace ldl {

const char* RecursionMethodToString(RecursionMethod method) {
  switch (method) {
    case RecursionMethod::kNaive:
      return "naive";
    case RecursionMethod::kSemiNaive:
      return "seminaive";
    case RecursionMethod::kMagic:
      return "magic";
    case RecursionMethod::kCounting:
      return "counting";
  }
  return "?";
}

std::string FixpointStats::ToString() const {
  return StrCat("iterations=", iterations, " ", counters.ToString());
}

void FixpointStats::ExportTo(MetricsRegistry* metrics) const {
  if (metrics == nullptr) return;
  metrics->counter("engine.fixpoint.iterations")->Increment(iterations);
  counters.ExportTo(metrics);
}

void FixpointStats::WriteIterationsJson(std::ostream& os) const {
  os << "[";
  for (size_t i = 0; i < per_iteration.size(); ++i) {
    const FixpointIteration& it = per_iteration[i];
    if (i > 0) os << ",";
    os << "\n  {\"clique\": \"" << JsonEscape(it.clique)
       << "\", \"method\": \"" << JsonEscape(it.method)
       << "\", \"iteration\": " << it.iteration
       << ", \"delta_tuples\": " << it.delta_tuples
       << ", \"derivations\": " << it.derivations
       << ", \"wall_ms\": " << it.wall_ms << "}";
  }
  if (!per_iteration.empty()) os << "\n";
  os << "]\n";
}

namespace {

/// Shared machinery for evaluating one program bottom-up, one strongly
/// connected component at a time.
class ProgramEvaluator {
 public:
  ProgramEvaluator(const Program& program, RecursionMethod method,
                   Database* base, Database* scratch, FixpointStats* stats,
                   const FixpointOptions& options)
      : program_(program),
        method_(method),
        base_(base),
        scratch_(scratch),
        stats_(stats),
        options_(options),
        compiled_(program.rules().size()) {
    rule_options_.max_derivations = options.max_derivations;
    rule_options_.cancel = options.trace.cancel;
    rule_options_.accountant = options.trace.accountant;
  }

  Status Run() {
    DependencyGraph graph = DependencyGraph::Build(program_);
    LDL_RETURN_NOT_OK(graph.CheckStratified());
    for (const auto& component : graph.topological_components()) {
      // Ensure relations exist for every member up front.
      for (const PredicateId& pred : component) scratch_->GetOrCreate(pred);
      bool recursive = graph.IsRecursive(component[0]);
      if (!recursive) {
        LDL_RETURN_NOT_OK(EvaluateOnce(component[0]));
      } else if (method_ == RecursionMethod::kNaive) {
        LDL_RETURN_NOT_OK(EvaluateCliqueNaive(component, graph));
      } else {
        LDL_RETURN_NOT_OK(EvaluateCliqueSemiNaive(component, graph));
      }
    }
    return Status::OK();
  }

 private:
  Relation* Resolve(const Literal& lit) {
    const PredicateId pred = lit.predicate();
    if (program_.IsDerived(pred)) return scratch_->GetOrCreate(pred);
    return base_->Find(pred);
  }

  RelationResolver MakeResolver() {
    return [this](const Literal& lit, size_t) {
      return RelationView{Resolve(lit)};
    };
  }

  /// Fires one rule, emitting straight into its head's full relation. The
  /// rule is compiled for its body order on its first firing, and that
  /// compiled rule serves every later firing of this evaluation: all
  /// rounds and all differentiated occurrences.
  Status Fire(size_t rule_index, const RelationResolver& resolve) {
    const Rule& rule = program_.rules()[rule_index];
    std::unique_ptr<CompiledRule>& compiled = compiled_[rule_index];
    if (compiled == nullptr) {
      auto it = options_.rule_orders.find(rule_index);
      LDL_ASSIGN_OR_RETURN(
          CompiledRule fresh,
          CompiledRule::Compile(rule,
                                it == options_.rule_orders.end()
                                    ? std::vector<size_t>{}
                                    : it->second,
                                &options_.params));
      compiled = std::make_unique<CompiledRule>(std::move(fresh));
      stats_->counters.rules_compiled++;
    }
    return EvaluateRule(compiled.get(), resolve,
                        scratch_->GetOrCreate(rule.head().predicate()),
                        &stats_->counters, rule_options_)
        .status();
  }

  /// Position of `lit`'s predicate in `members`, or members.size() when
  /// `lit` is not a positive literal of the clique.
  static size_t MemberIndex(const std::vector<PredicateId>& members,
                            const Literal& lit) {
    if (lit.IsBuiltin() || lit.negated()) return members.size();
    return static_cast<size_t>(
        std::find(members.begin(), members.end(), lit.predicate()) -
        members.begin());
  }

  /// The members' current full-relation sizes: row marks that later
  /// bound what a round reads or what it appended.
  std::vector<size_t> Marks(const std::vector<PredicateId>& members) {
    std::vector<size_t> marks;
    for (const PredicateId& pred : members) {
      marks.push_back(scratch_->GetOrCreate(pred)->size());
    }
    return marks;
  }

  /// Per-round check-point: polls cancellation/deadline/budget and charges
  /// the round into the accountant.
  Status RoundCheckpoint() {
    if (options_.trace.accountant != nullptr) {
      options_.trace.accountant->AddFixpointRounds(1);
    }
    return options_.trace.CheckCancel();
  }

  /// The method name to stamp on recorded iterations: the caller's label
  /// (e.g. "magic" for a rewritten program running semi-naive) when given,
  /// else the raw fixpoint discipline.
  std::string_view MethodLabel(std::string_view discipline) const {
    return options_.method_label.empty()
               ? discipline
               : std::string_view(options_.method_label);
  }

  void RecordIteration(const PredicateId& clique_rep,
                       std::string_view method, size_t round, size_t delta,
                       size_t derivations, double wall_ms) {
    FixpointIteration it;
    it.clique = clique_rep.ToString();
    it.method = std::string(method);
    it.iteration = round;
    it.delta_tuples = delta;
    it.derivations = derivations;
    it.wall_ms = wall_ms;
    stats_->per_iteration.push_back(std::move(it));
    if (options_.trace.metrics != nullptr) {
      options_.trace.Observe(StrCat("engine.fixpoint.iteration_ms.", method),
                             wall_ms);
    }
  }

  // Non-recursive predicate: fire each of its rules once.
  Status EvaluateOnce(const PredicateId& pred) {
    Span span = options_.trace.StartSpan("eval-once", "engine");
    if (span.active()) span.AddArg("predicate", pred.ToString());
    LDL_RETURN_NOT_OK(options_.trace.CheckCancel());
    RelationResolver resolve = MakeResolver();
    for (size_t rule_index : program_.RulesFor(pred)) {
      LDL_RETURN_NOT_OK(Fire(rule_index, resolve));
    }
    return Status::OK();
  }

  // Naive fixpoint: every round re-fires every rule of the clique against
  // the full current relations, until a round adds nothing.
  Status EvaluateCliqueNaive(const std::vector<PredicateId>& members,
                             const DependencyGraph& graph) {
    const RecursiveClique& clique =
        graph.cliques()[graph.CliqueIndex(members[0])];
    Span span = options_.trace.StartSpan("fixpoint", "engine");
    if (span.active()) {
      span.AddArg("clique", members[0].ToString());
      span.AddArg("method", "naive");
    }
    // Rules emit straight into the full relations but read the clique's
    // relations only up to the marks taken when the round began, so each
    // round sees exactly the previous round's state.
    std::vector<size_t> round_marks;
    RelationResolver resolve = [this, &members, &round_marks](
                                   const Literal& lit, size_t) {
      RelationView view{Resolve(lit)};
      size_t m = MemberIndex(members, lit);
      if (m < members.size()) view.end = round_marks[m];
      return view;
    };
    std::vector<size_t> all_rules = clique.exit_rules;
    all_rules.insert(all_rules.end(), clique.recursive_rules.begin(),
                     clique.recursive_rules.end());
    size_t round = 0;
    while (true) {
      if (++round > options_.max_iterations) {
        return Status::ResourceExhausted(
            StrCat("naive fixpoint exceeded ", options_.max_iterations,
                   " iterations for ", clique.ToString()));
      }
      stats_->iterations++;
      LDL_RETURN_NOT_OK(RoundCheckpoint());
      const size_t deriv_before = stats_->counters.derivations;
      std::chrono::steady_clock::time_point round_start;
      if (options_.record_iterations) {
        round_start = std::chrono::steady_clock::now();
      }
      round_marks = Marks(members);
      for (size_t rule_index : all_rules) {
        LDL_RETURN_NOT_OK(Fire(rule_index, resolve));
      }
      size_t added = 0;
      for (size_t m = 0; m < members.size(); ++m) {
        added += scratch_->GetOrCreate(members[m])->size() - round_marks[m];
      }
      options_.trace.Count("engine.fixpoint.rounds");
      options_.trace.Observe("engine.fixpoint.delta_tuples",
                             static_cast<double>(added));
      if (options_.record_iterations) {
        // Every naive round does full-rule work, including the final
        // added == 0 convergence round — record them all.
        RecordIteration(members[0], MethodLabel("naive"), round, added,
                        stats_->counters.derivations - deriv_before,
                        std::chrono::duration<double, std::milli>(
                            std::chrono::steady_clock::now() - round_start)
                            .count());
      }
      if (added == 0) break;
    }
    if (span.active()) span.AddArg("rounds", std::to_string(round));
    return Status::OK();
  }

  // Semi-naive fixpoint: exit rules once; then each round fires each
  // recursive rule once per occurrence of a clique predicate in its body,
  // with that occurrence reading the previous round's delta.
  //
  // Every firing emits straight into its head's full relation, so each
  // derivation costs one dedup probe. A member's delta is the row range
  // the previous round appended to its full relation: the differentiated
  // occurrence reads that range, and every other literal reads its
  // relation as of the firing's start (EvaluateRule freezes the windows).
  Status EvaluateCliqueSemiNaive(const std::vector<PredicateId>& members,
                                 const DependencyGraph& graph) {
    const RecursiveClique& clique =
        graph.cliques()[graph.CliqueIndex(members[0])];
    Span span = options_.trace.StartSpan("fixpoint", "engine");
    if (span.active()) {
      span.AddArg("clique", members[0].ToString());
      span.AddArg("method", "seminaive");
    }

    // delta[m]: the rows of members[m] appended by the last round.
    std::vector<RelationView> delta(members.size());
    // Closes a round that began at `marks`; returns the rows it appended.
    auto close_round = [&](const std::vector<size_t>& marks) {
      size_t added = 0;
      for (size_t m = 0; m < members.size(); ++m) {
        Relation* full = scratch_->GetOrCreate(members[m]);
        delta[m] = RelationView{full, marks[m], full->size()};
        added += full->size() - marks[m];
      }
      return added;
    };

    // Seed with the exit rules.
    RelationResolver resolve = MakeResolver();
    std::vector<size_t> marks = Marks(members);
    for (size_t rule_index : clique.exit_rules) {
      LDL_RETURN_NOT_OK(Fire(rule_index, resolve));
    }
    close_round(marks);

    size_t round = 0;
    while (true) {
      if (++round > options_.max_iterations) {
        return Status::ResourceExhausted(
            StrCat("seminaive fixpoint exceeded ", options_.max_iterations,
                   " iterations for ", clique.ToString()));
      }
      stats_->iterations++;
      LDL_RETURN_NOT_OK(RoundCheckpoint());
      bool any_delta =
          std::any_of(delta.begin(), delta.end(),
                      [](const RelationView& d) { return d.begin < d.end; });
      if (!any_delta) break;
      // Work rounds only: the final empty-delta round breaks above without
      // firing a rule, so per_iteration holds iterations - 1 entries.
      const size_t deriv_before = stats_->counters.derivations;
      std::chrono::steady_clock::time_point round_start;
      if (options_.record_iterations) {
        round_start = std::chrono::steady_clock::now();
      }

      marks = Marks(members);
      for (size_t rule_index : clique.recursive_rules) {
        const Rule& rule = program_.rules()[rule_index];
        // One differentiated firing per clique-predicate occurrence.
        for (size_t occ = 0; occ < rule.body().size(); ++occ) {
          if (MemberIndex(members, rule.body()[occ]) == members.size()) {
            continue;
          }
          RelationResolver diff_resolve =
              [this, &members, &delta, occ](const Literal& lit,
                                            size_t body_pos) {
                return body_pos == occ ? delta[MemberIndex(members, lit)]
                                       : RelationView{Resolve(lit)};
              };
          LDL_RETURN_NOT_OK(Fire(rule_index, diff_resolve));
        }
      }
      const size_t added = close_round(marks);
      stats_->counters.delta_rows += added;
      if (options_.trace.metrics != nullptr || options_.record_iterations) {
        options_.trace.Count("engine.fixpoint.rounds");
        options_.trace.Observe("engine.fixpoint.delta_tuples",
                               static_cast<double>(added));
        if (options_.record_iterations) {
          RecordIteration(members[0], MethodLabel("seminaive"), round, added,
                          stats_->counters.derivations - deriv_before,
                          std::chrono::duration<double, std::milli>(
                              std::chrono::steady_clock::now() - round_start)
                              .count());
        }
      }
    }
    if (span.active()) span.AddArg("rounds", std::to_string(round));
    return Status::OK();
  }

  const Program& program_;
  RecursionMethod method_;
  Database* base_;
  Database* scratch_;
  FixpointStats* stats_;
  const FixpointOptions& options_;
  RuleEvalOptions rule_options_;
  /// Per rule index: its compiled form, built by the rule's first firing.
  std::vector<std::unique_ptr<CompiledRule>> compiled_;
};

}  // namespace

Status EvaluateProgram(const Program& program, RecursionMethod method,
                       Database* base, Database* scratch,
                       FixpointStats* stats, const FixpointOptions& options) {
  if (method != RecursionMethod::kNaive &&
      method != RecursionMethod::kSemiNaive) {
    return Status::InvalidArgument(
        StrCat("EvaluateProgram supports naive/seminaive, got ",
               RecursionMethodToString(method),
               " (use MagicRewrite/CountingRewrite first)"));
  }
  FixpointStats local;
  ProgramEvaluator evaluator(program, method, base, scratch, &local, options);
  Status st = evaluator.Run();
  local.ExportTo(options.trace.metrics);
  if (stats != nullptr) {
    stats->iterations += local.iterations;
    stats->counters.Add(local.counters);
    for (FixpointIteration& it : local.per_iteration) {
      stats->per_iteration.push_back(std::move(it));
    }
  }
  return st;
}

}  // namespace ldl
