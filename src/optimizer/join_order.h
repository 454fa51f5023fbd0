#ifndef LDLOPT_OPTIMIZER_JOIN_ORDER_H_
#define LDLOPT_OPTIMIZER_JOIN_ORDER_H_

#include <memory>
#include <string>
#include <vector>

#include "base/rng.h"
#include "base/status.h"
#include "optimizer/cost_model.h"

namespace ldl {

class SearchTracer;  // obs/search_trace.h

/// The generic search strategies of the paper's section 7.1. All of them
/// minimize the same cost function over permutations of a conjunct; they
/// trade optimality guarantees against running time, and the optimizer can
/// use them interchangeably (a design goal stated explicitly in the paper).
enum class SearchStrategy {
  kExhaustive,          ///< n! enumeration with branch-and-bound pruning
  kDynamicProgramming,  ///< Selinger-style O(n 2^n) over subsets [Sel 79]
  kKbz,                 ///< quadratic ASI-based ordering [KBZ 86]
  kAnnealing,           ///< simulated annealing, swap-two neighbors [IW 87]
  kLexicographic,       ///< Prolog's textual order (the unoptimized baseline)
};

const char* SearchStrategyToString(SearchStrategy strategy);

struct StrategyOptions {
  /// Exhaustive enumeration refuses conjuncts larger than this (the paper's
  /// "10-15 join" practicality bound); callers fall back to DP/annealing.
  size_t exhaustive_limit = 10;
  /// DP refuses conjuncts larger than this and falls back to annealing. DP
  /// costs about n 2^n evaluations: 13 literals plan in about 70 ms, 16 in
  /// about 0.8 s (EXPERIMENTS.md E30).
  size_t dp_limit = 13;

  /// Simulated annealing schedule.
  uint64_t anneal_seed = 0x1d10f7;
  double anneal_initial_temp_factor = 0.5;  ///< T0 = factor * initial cost
  double anneal_cooling = 0.9;
  size_t anneal_moves_per_temp = 0;  ///< 0 = 4*n*n
  size_t anneal_max_no_improve = 8;  ///< temperature levels w/o improvement
};

/// The outcome of one join-order search.
struct OrderResult {
  std::vector<size_t> order;
  double cost = kInfiniteCost;
  double out_card = 0;
  bool safe = false;
  /// Number of full-or-partial sequence costings performed — the unit in
  /// which the paper compares strategy efforts (experiments E2/E3).
  size_t cost_evaluations = 0;
};

/// Interface implemented by every search strategy.
class JoinOrderStrategy {
 public:
  virtual ~JoinOrderStrategy() = default;

  virtual std::string name() const = 0;

  /// Finds a (hopefully minimal-cost) order of `items` starting from the
  /// variables in `initial`. When every order is unsafe the result has
  /// safe=false and infinite cost — the caller reports the query unsafe
  /// (section 8.2).
  ///
  /// When `trace` is non-null and enabled, every candidate the search
  /// visits — complete orders, abandoned prefixes, rejected moves — is
  /// recorded with its disposition (obs/search_trace.h). A null or
  /// disabled tracer costs one branch per candidate.
  virtual OrderResult FindOrder(const std::vector<ConjunctItem>& items,
                                const BoundVars& initial,
                                const CostModel& model,
                                SearchTracer* trace) = 0;

  /// Untraced convenience overload.
  OrderResult FindOrder(const std::vector<ConjunctItem>& items,
                        const BoundVars& initial, const CostModel& model) {
    return FindOrder(items, initial, model, nullptr);
  }
};

/// Creates the strategy implementation for `strategy`.
std::unique_ptr<JoinOrderStrategy> MakeStrategy(SearchStrategy strategy,
                                                const StrategyOptions& options);

}  // namespace ldl

#endif  // LDLOPT_OPTIMIZER_JOIN_ORDER_H_
