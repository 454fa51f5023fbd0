// Experiment E3 — the complexity analysis of the paper's section 7.2:
//
//   exhaustive:  O(N * 2^k * n!)      (practical to n ~ 10-15 joins)
//   DP [Sel 79]: O(N * 2^k * 2^n)
//   KBZ [KBZ 86]: quadratic
//
// We measure optimizer wall-clock per strategy as the conjunct size n
// grows, confirming the feasibility bound the paper quotes from commercial
// systems ("must limit the queries to no more than 10 or 15 joins") and
// the flat profile of the quadratic strategy.

#include <benchmark/benchmark.h>

#include "bench_util.h"
#include "optimizer/join_order.h"
#include "testing/query_gen.h"

namespace ldl {
namespace {

using bench::Fmt;
using bench::Stopwatch;
using bench::Table;
using testing::MakeRandomConjunct;
using testing::QueryShape;

double MeasureMs(SearchStrategy strategy, size_t n, size_t* evals) {
  StrategyOptions options;
  options.exhaustive_limit = 12;
  options.dp_limit = 22;
  CostModel model;
  auto s = MakeStrategy(strategy, options);
  double total_ms = 0;
  *evals = 0;
  const size_t reps = 3;
  for (size_t rep = 0; rep < reps; ++rep) {
    Rng rng(rep * 7919 + n);
    auto q = MakeRandomConjunct(QueryShape::kRandom, n, &rng);
    BoundVars none;
    Stopwatch watch;
    OrderResult r = s->FindOrder(q.items, none, model);
    total_ms += watch.ElapsedMs();
    *evals += r.cost_evaluations;
  }
  *evals /= reps;
  return total_ms / static_cast<double>(reps);
}

}  // namespace

void PrintExperiment() {
  bench::Banner("E3", "optimizer time by strategy and conjunct size "
                      "(ms per optimization, avg of 3 random queries)");
  Table table({"n", "exhaustive ms", "(evals)", "dp ms", "(evals)", "kbz ms",
               "(evals)", "anneal ms", "(evals)"});
  for (size_t n : {2, 4, 6, 8, 10, 12, 14, 16}) {
    std::vector<std::string> row{std::to_string(n)};
    for (SearchStrategy strategy :
         {SearchStrategy::kExhaustive, SearchStrategy::kDynamicProgramming,
          SearchStrategy::kKbz, SearchStrategy::kAnnealing}) {
      if (strategy == SearchStrategy::kExhaustive && n > 10) {
        row.push_back("-");
        row.push_back("-");
        continue;
      }
      if (strategy == SearchStrategy::kDynamicProgramming && n > 16) {
        row.push_back("-");
        row.push_back("-");
        continue;
      }
      size_t evals = 0;
      double ms = MeasureMs(strategy, n, &evals);
      row.push_back(Fmt(ms, "%.3f"));
      row.push_back(Fmt(static_cast<double>(evals), "%.0f"));
    }
    table.AddRow(std::move(row));
  }
  table.Print();
  std::printf(
      "Expected shape: exhaustive explodes combinatorially past n ~ 10;\n"
      "DP grows as 2^n (usable to ~16); KBZ and annealing stay flat.\n"
      "(Past its limit, exhaustive falls back to DP — marked '-'.)\n\n");
}

namespace {

void BM_Strategy(benchmark::State& state) {
  auto strategy = static_cast<SearchStrategy>(state.range(0));
  size_t n = static_cast<size_t>(state.range(1));
  Rng rng(n * 31);
  auto q = MakeRandomConjunct(QueryShape::kRandom, n, &rng);
  StrategyOptions options;
  options.dp_limit = 14;  // so the n = 14 DP case runs DP, not annealing
  CostModel model;
  auto s = MakeStrategy(strategy, options);
  BoundVars none;
  for (auto _ : state) {
    benchmark::DoNotOptimize(s->FindOrder(q.items, none, model));
  }
  state.SetLabel(SearchStrategyToString(strategy));
}
BENCHMARK(BM_Strategy)
    ->Args({static_cast<int>(SearchStrategy::kExhaustive), 8})
    ->Args({static_cast<int>(SearchStrategy::kDynamicProgramming), 8})
    ->Args({static_cast<int>(SearchStrategy::kDynamicProgramming), 14})
    ->Args({static_cast<int>(SearchStrategy::kKbz), 8})
    ->Args({static_cast<int>(SearchStrategy::kKbz), 14})
    ->Args({static_cast<int>(SearchStrategy::kAnnealing), 8});

}  // namespace
}  // namespace ldl

int main(int argc, char** argv) {
  ldl::PrintExperiment();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  ldl::bench::FlushJson("strategy_scaling");
  return 0;
}
