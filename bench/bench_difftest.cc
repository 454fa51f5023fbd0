// Experiment E13 — throughput of the differential-testing harness: how many
// randomly generated recursive programs per second the full method x
// strategy x annotation matrix sustains, per EDB shape and per matrix
// slice. The harness is only useful if iterations are cheap enough to run
// hundreds per CI job; this table is the budget behind the CI difftest job
// (`ldl_difftest --seed 1..5 --iters 50`).

#include <benchmark/benchmark.h>

#include <string>

#include "base/rng.h"
#include "bench_util.h"
#include "testing/difftest.h"
#include "testing/program_gen.h"

namespace ldl {
namespace {

using bench::Fmt;
using bench::Stopwatch;
using bench::Table;

struct SweepResult {
  size_t iterations = 0;
  size_t configs = 0;
  size_t failures = 0;
  double ms = 0;
};

SweepResult Sweep(const testing::DiffTestOptions& options, uint64_t seed,
                  size_t iters) {
  SweepResult r;
  Rng rng(seed);
  Stopwatch watch;
  for (size_t i = 0; i < iters; ++i) {
    testing::GeneratedProgram prog =
        testing::GenerateProgram(&rng, options.gen);
    testing::DiffOutcome outcome = testing::RunDifferential(prog, options);
    ++r.iterations;
    r.configs += outcome.configs.size();
    if (outcome.failed() || outcome.reference_failed) ++r.failures;
  }
  r.ms = watch.ElapsedMs();
  return r;
}

}  // namespace

void PrintExperiment() {
  constexpr uint64_t kSeed = 1;
  constexpr size_t kIters = 40;

  bench::Banner("E13", "differential-testing throughput "
                       "(full matrix per generated program)");
  {
    Table table({"shape", "iters", "configs", "failures", "ms", "iters/s"});
    for (testing::EdbShape shape :
         {testing::EdbShape::kChain, testing::EdbShape::kTree,
          testing::EdbShape::kCycle, testing::EdbShape::kRandom,
          testing::EdbShape::kMixed}) {
      testing::DiffTestOptions options;
      options.gen.shape = shape;
      SweepResult r = Sweep(options, kSeed, kIters);
      table.AddRow({testing::EdbShapeToString(shape),
                    std::to_string(r.iterations), std::to_string(r.configs),
                    std::to_string(r.failures), Fmt(r.ms, "%.1f"),
                    Fmt(r.iterations / (r.ms / 1000.0), "%.0f")});
    }
    table.Print();
  }

  bench::Banner("E13b", "matrix-slice cost (mixed shapes; where the "
                        "difftest budget goes)");
  {
    Table table({"slice", "configs", "ms", "iters/s"});
    struct Slice {
      const char* name;
      bool methods, strategies, metamorphic;
    };
    for (const Slice& s : {Slice{"reference only", false, false, false},
                           Slice{"+ recursion methods", true, false, false},
                           Slice{"+ optimizer strategies", true, true, false},
                           Slice{"full (+ metamorphic)", true, true, true}}) {
      testing::DiffTestOptions options;
      options.run_naive = options.run_magic = options.run_counting =
          s.methods;
      if (!s.strategies) options.strategies.clear();
      options.run_metamorphic = s.metamorphic;
      SweepResult r = Sweep(options, kSeed, kIters);
      table.AddRow({s.name, std::to_string(r.configs), Fmt(r.ms, "%.1f"),
                    Fmt(r.iterations / (r.ms / 1000.0), "%.0f")});
    }
    table.Print();
  }
}

namespace {

void BM_FullMatrixIteration(benchmark::State& state) {
  testing::DiffTestOptions options;
  Rng rng(static_cast<uint64_t>(state.range(0)));
  for (auto _ : state) {
    testing::GeneratedProgram prog =
        testing::GenerateProgram(&rng, options.gen);
    testing::DiffOutcome outcome = testing::RunDifferential(prog, options);
    benchmark::DoNotOptimize(outcome);
  }
}
BENCHMARK(BM_FullMatrixIteration)->Arg(1)->Arg(2);

}  // namespace
}  // namespace ldl

int main(int argc, char** argv) {
  ldl::PrintExperiment();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  ldl::bench::FlushJson("difftest");
  return 0;
}
