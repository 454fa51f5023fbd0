#include "engine/fixpoint.h"

#include <algorithm>
#include <chrono>
#include <memory>
#include <span>
#include <string_view>

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

Result<FixpointSchedule> FixpointSchedule::Build(
    Program program, RecursionMethod method,
    const std::unordered_map<size_t, std::vector<size_t>>& rule_orders) {
  if (method != RecursionMethod::kNaive &&
      method != RecursionMethod::kSemiNaive) {
    return Status::InvalidArgument(
        StrCat("a fixpoint schedule runs naive/seminaive, got ",
               RecursionMethodToString(method),
               " (use MagicRewrite/CountingRewrite first)"));
  }
  FixpointSchedule s;
  s.program_ = std::make_unique<const Program>(std::move(program));
  s.method_ = method;
  const Program& p = *s.program_;
  const DependencyGraph graph = DependencyGraph::Build(p);
  LDL_RETURN_NOT_OK(graph.CheckStratified());

  // Derived slots in bottom-up order, so each stratum's members are one
  // contiguous range.
  std::unordered_map<PredicateId, uint32_t, PredicateIdHash> derived_slot;
  std::vector<uint32_t> stratum_of;  // per derived slot
  auto narrow = [](const std::vector<size_t>& rules) {
    return std::vector<uint32_t>(rules.begin(), rules.end());
  };
  for (const std::vector<PredicateId>& component :
       graph.topological_components()) {
    Stratum stratum;
    stratum.first = static_cast<uint32_t>(s.derived_.size());
    stratum.size = static_cast<uint32_t>(component.size());
    stratum.recursive = graph.IsRecursive(component[0]);
    for (const PredicateId& pred : component) {
      derived_slot.emplace(pred, static_cast<uint32_t>(s.derived_.size()));
      s.derived_.push_back(pred);
      stratum_of.push_back(static_cast<uint32_t>(s.strata_.size()));
    }
    if (!stratum.recursive) {
      stratum.exit_rules = narrow(p.RulesFor(component[0]));
    } else {
      const RecursiveClique& clique =
          graph.cliques()[graph.CliqueIndex(component[0])];
      stratum.exit_rules = narrow(clique.exit_rules);
      stratum.recursive_rules = narrow(clique.recursive_rules);
      stratum.clique = clique.ToString();
    }
    s.strata_.push_back(std::move(stratum));
  }

  std::unordered_map<PredicateId, uint32_t, PredicateIdHash> base_slot;
  s.rules_.reserve(p.rules().size());
  for (size_t i = 0; i < p.rules().size(); ++i) {
    const Rule& rule = p.rules()[i];
    auto order = rule_orders.find(i);
    ScheduledRule scheduled;
    LDL_ASSIGN_OR_RETURN(scheduled.compiled,
                         CompiledRule::Compile(
                             rule, order == rule_orders.end()
                                       ? std::vector<size_t>{}
                                       : order->second));
    scheduled.head = derived_slot.at(rule.head().predicate());
    const Stratum& home = s.strata_[stratum_of[scheduled.head]];
    for (const Literal& lit : rule.body()) {
      Source source;
      if (!lit.IsBuiltin()) {
        const PredicateId pred = lit.predicate();
        auto derived = derived_slot.find(pred);
        if (derived != derived_slot.end()) {
          source.kind = Source::Kind::kDerived;
          source.slot = derived->second;
          if (home.recursive && !lit.negated() &&
              stratum_of[source.slot] == stratum_of[scheduled.head]) {
            source.member = static_cast<int32_t>(source.slot - home.first);
          }
        } else {
          source.kind = Source::Kind::kBase;
          auto [it, added] = base_slot.emplace(
              pred, static_cast<uint32_t>(s.base_.size()));
          if (added) s.base_.push_back(pred);
          source.slot = it->second;
        }
      }
      scheduled.body.push_back(source);
    }
    s.num_params_ = std::max(s.num_params_, scheduled.compiled.num_params());
    s.max_body_ = std::max(s.max_body_, rule.body().size());
    s.rules_.push_back(std::move(scheduled));
  }
  for (Stratum& stratum : s.strata_) {
    for (uint32_t rule_index : stratum.recursive_rules) {
      const std::vector<Source>& body = s.rules_[rule_index].body;
      for (size_t pos = 0; pos < body.size(); ++pos) {
        if (body[pos].member >= 0) {
          stratum.differentiated.emplace_back(rule_index,
                                              static_cast<uint32_t>(pos));
        }
      }
    }
  }
  return s;
}

/// One run of a schedule: the per-rule register files and key buffers, the
/// relations behind every slot, and the views and deltas of the firing and
/// round in progress. Everything a run writes lives here (and in the
/// scratch relations), never in the schedule.
class FixpointSchedule::RunState {
 public:
  RunState(const FixpointSchedule& schedule, Database* base,
           Database* scratch, FixpointStats* stats,
           const FixpointOptions& options,
           std::span<const size_t> slot_rows)
      : schedule_(schedule),
        stats_(stats),
        options_(options),
        store_(base->store()),
        views_(schedule.max_body_) {
    rule_options_.max_derivations = options.max_derivations;
    rule_options_.cancel = options.trace.cancel;
    rule_options_.accountant = options.trace.accountant;
    // Rows move between base and scratch relations as values: one store.
    scratch->UseStore(base->shared_store());
    arena_bytes_ = store_->bytes();
    base_.reserve(schedule.base_.size());
    for (const PredicateId& pred : schedule.base_) {
      base_.push_back(base->Find(pred));
    }
    // Every derived relation up front, so each rule's index probes resolve
    // once, here, and at the size the last run left it.
    derived_.reserve(schedule.derived_.size());
    for (size_t slot = 0; slot < schedule.derived_.size(); ++slot) {
      derived_.push_back(scratch->GetOrCreate(schedule.derived_[slot]));
      if (!slot_rows.empty()) derived_.back()->Reserve(slot_rows[slot]);
    }
    rules_.reserve(schedule.rules_.size());
    for (const ScheduledRule& rule : schedule.rules_) {
      rules_.emplace_back(rule.compiled, options.params, store_);
      for (size_t pos = 0; pos < rule.body.size(); ++pos) {
        views_[pos] = RelationView{SourceRelation(rule.body[pos])};
      }
      rules_.back().ResolveIndexes(views_.data());
    }
  }

  /// Releases the store growth the run was charged for.
  ~RunState() {
    if (options_.trace.accountant != nullptr && arena_charged_ != 0) {
      options_.trace.accountant->ReleaseBytes(arena_charged_);
    }
  }

  /// The rows each derived slot holds, in slot order.
  void SlotRows(std::vector<size_t>* out) const {
    out->resize(derived_.size());
    for (size_t slot = 0; slot < derived_.size(); ++slot) {
      (*out)[slot] = derived_[slot]->size();
    }
  }

  Status Run() {
    for (const Stratum& stratum : schedule_.strata_) {
      if (!stratum.recursive) {
        LDL_RETURN_NOT_OK(EvaluateOnce(stratum));
      } else if (schedule_.method_ == RecursionMethod::kNaive) {
        LDL_RETURN_NOT_OK(EvaluateCliqueNaive(stratum));
      } else {
        LDL_RETURN_NOT_OK(EvaluateCliqueSemiNaive(stratum));
      }
    }
    return Status::OK();
  }

 private:
  /// How a firing reads the members of the stratum in progress.
  enum class Reads {
    kFull,        ///< whole relations
    kRoundMarks,  ///< naive: up to the marks taken when the round began
    kDelta,       ///< semi-naive: one occurrence reads the last delta
  };

  /// The relation a body literal reads, in full.
  Relation* SourceRelation(const Source& source) const {
    switch (source.kind) {
      case Source::Kind::kBuiltin:
        return nullptr;
      case Source::Kind::kBase:
        return base_[source.slot];
      case Source::Kind::kDerived:
        return derived_[source.slot];
    }
    return nullptr;
  }

  /// Fires one rule, emitting straight into its head's full relation.
  /// `delta_pos` is the body position that reads its member's delta under
  /// Reads::kDelta.
  Status Fire(uint32_t rule_index, Reads reads, size_t delta_pos = 0) {
    LDL_RETURN_NOT_OK(FireRule(rule_index, reads, delta_pos));
    ChargeArena();
    return Status::OK();
  }

  /// Charges the accountant with what the store grew by (head values new
  /// to it) since the last charge: the arena's share of the run's bytes.
  void ChargeArena() {
    if (options_.trace.accountant == nullptr) return;
    const size_t now = store_->bytes();
    if (now > arena_bytes_) {
      options_.trace.accountant->AddBytes(now - arena_bytes_);
      arena_charged_ += now - arena_bytes_;
    }
    arena_bytes_ = now;
  }

  Status FireRule(uint32_t rule_index, Reads reads, size_t delta_pos) {
    const ScheduledRule& rule = schedule_.rules_[rule_index];
    for (size_t pos = 0; pos < rule.body.size(); ++pos) {
      const Source& source = rule.body[pos];
      RelationView& view = views_[pos];
      switch (source.kind) {
        case Source::Kind::kBuiltin:
          continue;
        case Source::Kind::kBase:
          view = RelationView{base_[source.slot]};
          continue;
        case Source::Kind::kDerived:
          if (reads == Reads::kDelta && pos == delta_pos) {
            view = delta_[source.member];
          } else {
            view = RelationView{derived_[source.slot]};
            if (reads == Reads::kRoundMarks && source.member >= 0) {
              view.end = marks_[source.member];
            }
          }
          continue;
      }
    }
    return EvaluateRule(rule.compiled, &rules_[rule_index], views_.data(),
                        derived_[rule.head], &stats_->counters, rule_options_)
        .status();
  }

  /// Takes the members' current full-relation sizes into marks_: row marks
  /// that later bound what a round reads or what it appended.
  void TakeMarks(const Stratum& stratum) {
    marks_.resize(stratum.size);
    for (uint32_t m = 0; m < stratum.size; ++m) {
      marks_[m] = derived_[stratum.first + m]->size();
    }
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

  void RecordIteration(const Stratum& stratum, std::string_view method,
                       size_t round, size_t delta, size_t derivations,
                       double wall_ms) {
    FixpointIteration it;
    it.clique = schedule_.derived_[stratum.first].ToString();
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
  Status EvaluateOnce(const Stratum& stratum) {
    Span span = options_.trace.StartSpan("eval-once", "engine");
    if (span.active()) {
      span.AddArg("predicate", schedule_.derived_[stratum.first].ToString());
    }
    LDL_RETURN_NOT_OK(options_.trace.CheckCancel());
    for (uint32_t rule_index : stratum.exit_rules) {
      LDL_RETURN_NOT_OK(Fire(rule_index, Reads::kFull));
    }
    return Status::OK();
  }

  // Naive fixpoint: every round re-fires every rule of the clique against
  // the full current relations, until a round adds nothing.
  Status EvaluateCliqueNaive(const Stratum& stratum) {
    Span span = options_.trace.StartSpan("fixpoint", "engine");
    if (span.active()) {
      span.AddArg("clique", schedule_.derived_[stratum.first].ToString());
      span.AddArg("method", "naive");
    }
    // Rules emit straight into the full relations but read the clique's
    // relations only up to the marks taken when the round began, so each
    // round sees exactly the previous round's state.
    size_t round = 0;
    while (true) {
      if (++round > options_.max_iterations) {
        return Status::ResourceExhausted(
            StrCat("naive fixpoint exceeded ", options_.max_iterations,
                   " iterations for ", stratum.clique));
      }
      stats_->iterations++;
      LDL_RETURN_NOT_OK(RoundCheckpoint());
      const size_t deriv_before = stats_->counters.derivations;
      std::chrono::steady_clock::time_point round_start;
      if (options_.record_iterations) {
        round_start = std::chrono::steady_clock::now();
      }
      TakeMarks(stratum);
      for (uint32_t rule_index : stratum.exit_rules) {
        LDL_RETURN_NOT_OK(Fire(rule_index, Reads::kRoundMarks));
      }
      for (uint32_t rule_index : stratum.recursive_rules) {
        LDL_RETURN_NOT_OK(Fire(rule_index, Reads::kRoundMarks));
      }
      size_t added = 0;
      for (uint32_t m = 0; m < stratum.size; ++m) {
        added += derived_[stratum.first + m]->size() - marks_[m];
      }
      options_.trace.Count("engine.fixpoint.rounds");
      options_.trace.Observe("engine.fixpoint.delta_tuples",
                             static_cast<double>(added));
      if (options_.record_iterations) {
        // Every naive round does full-rule work, including the final
        // added == 0 convergence round — record them all.
        RecordIteration(stratum, MethodLabel("naive"), round, added,
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
  Status EvaluateCliqueSemiNaive(const Stratum& stratum) {
    Span span = options_.trace.StartSpan("fixpoint", "engine");
    if (span.active()) {
      span.AddArg("clique", schedule_.derived_[stratum.first].ToString());
      span.AddArg("method", "seminaive");
    }

    // delta_[m]: the rows of member m appended by the last round.
    delta_.assign(stratum.size, RelationView{});
    // Closes the round that began at marks_; returns the rows it appended.
    auto close_round = [&]() {
      size_t added = 0;
      for (uint32_t m = 0; m < stratum.size; ++m) {
        Relation* full = derived_[stratum.first + m];
        delta_[m] = RelationView{full, marks_[m], full->size()};
        added += full->size() - marks_[m];
      }
      return added;
    };

    // Seed with the exit rules.
    TakeMarks(stratum);
    for (uint32_t rule_index : stratum.exit_rules) {
      LDL_RETURN_NOT_OK(Fire(rule_index, Reads::kFull));
    }
    close_round();

    size_t round = 0;
    while (true) {
      if (++round > options_.max_iterations) {
        return Status::ResourceExhausted(
            StrCat("seminaive fixpoint exceeded ", options_.max_iterations,
                   " iterations for ", stratum.clique));
      }
      stats_->iterations++;
      LDL_RETURN_NOT_OK(RoundCheckpoint());
      bool any_delta =
          std::any_of(delta_.begin(), delta_.end(),
                      [](const RelationView& d) { return d.begin < d.end; });
      if (!any_delta) break;
      // Work rounds only: the final empty-delta round breaks above without
      // firing a rule, so per_iteration holds iterations - 1 entries.
      const size_t deriv_before = stats_->counters.derivations;
      std::chrono::steady_clock::time_point round_start;
      if (options_.record_iterations) {
        round_start = std::chrono::steady_clock::now();
      }

      TakeMarks(stratum);
      for (const auto& [rule_index, pos] : stratum.differentiated) {
        LDL_RETURN_NOT_OK(Fire(rule_index, Reads::kDelta, pos));
      }
      const size_t added = close_round();
      stats_->counters.delta_rows += added;
      if (options_.trace.metrics != nullptr || options_.record_iterations) {
        options_.trace.Count("engine.fixpoint.rounds");
        options_.trace.Observe("engine.fixpoint.delta_tuples",
                               static_cast<double>(added));
        if (options_.record_iterations) {
          RecordIteration(stratum, MethodLabel("seminaive"), round, added,
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

  const FixpointSchedule& schedule_;
  FixpointStats* stats_;
  const FixpointOptions& options_;
  ValueStore* store_;
  size_t arena_bytes_ = 0;    ///< store bytes at the last charge
  size_t arena_charged_ = 0;  ///< store growth charged so far
  RuleEvalOptions rule_options_;
  std::vector<Relation*> base_;     ///< per base slot; null = no relation
  std::vector<Relation*> derived_;  ///< per derived slot
  std::vector<RuleState> rules_;    ///< per rule
  std::vector<RelationView> views_;  ///< the firing in progress
  std::vector<RelationView> delta_;  ///< per member of the stratum
  std::vector<size_t> marks_;        ///< per member of the stratum
};

Status FixpointSchedule::Run(Database* base, Database* scratch,
                             FixpointStats* stats,
                             const FixpointOptions& options,
                             std::vector<size_t>* slot_rows) const {
  if (options.params.size() < num_params_) {
    return Status::InvalidArgument(
        StrCat("the program reads ", num_params_, " parameters, the run ",
               "binds ", options.params.size()));
  }
  FixpointStats local;
  std::span<const size_t> reserve;
  if (slot_rows != nullptr && slot_rows->size() == derived_.size()) {
    reserve = *slot_rows;
  }
  RunState run(*this, base, scratch, &local, options, reserve);
  Status st = run.Run();
  if (st.ok() && slot_rows != nullptr) run.SlotRows(slot_rows);
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

Status EvaluateProgram(const Program& program, RecursionMethod method,
                       Database* base, Database* scratch,
                       FixpointStats* stats, const FixpointOptions& options) {
  LDL_ASSIGN_OR_RETURN(
      FixpointSchedule schedule,
      FixpointSchedule::Build(program, method, options.rule_orders));
  options.trace.Count("engine.rules_compiled", schedule.rules_compiled());
  if (stats != nullptr) {
    stats->counters.rules_compiled += schedule.rules_compiled();
  }
  return schedule.Run(base, scratch, stats, options);
}

}  // namespace ldl
