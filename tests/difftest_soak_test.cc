// Soak run of the differential harness — labeled `slow` in CMake, excluded
// from `ctest -L tier1`. Broad seed sweep over the full method x strategy
// x annotation matrix; any disagreement is a genuine engine/optimizer bug.

#include <gtest/gtest.h>

#include "base/rng.h"
#include "testing/difftest.h"
#include "testing/program_gen.h"

namespace ldl {
namespace testing {
namespace {

TEST(DiffTestSoakTest, FullMatrixOverManySeeds) {
  DiffTestOptions options;
  size_t iterations = 0;
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    Rng rng(seed);
    for (int i = 0; i < 60; ++i) {
      GeneratedProgram prog = GenerateProgram(&rng, options.gen);
      DiffOutcome outcome = RunDifferential(prog, options);
      ASSERT_FALSE(outcome.reference_failed)
          << "seed " << seed << " iter " << i << ": " << outcome.detail
          << "\n" << prog.ToLdl();
      ASSERT_FALSE(outcome.failed())
          << "seed " << seed << " iter " << i << " (" << prog.summary
          << "):\n" << outcome.detail << prog.ToLdl();
      ++iterations;
    }
  }
  EXPECT_EQ(iterations, 480u);
}

TEST(DiffTestSoakTest, PerShapeSweeps) {
  for (EdbShape shape : {EdbShape::kChain, EdbShape::kTree, EdbShape::kCycle,
                         EdbShape::kRandom}) {
    DiffTestOptions options;
    options.gen.shape = shape;
    Rng rng(99);
    for (int i = 0; i < 40; ++i) {
      GeneratedProgram prog = GenerateProgram(&rng, options.gen);
      DiffOutcome outcome = RunDifferential(prog, options);
      ASSERT_FALSE(outcome.reference_failed) << outcome.detail;
      ASSERT_FALSE(outcome.failed())
          << EdbShapeToString(shape) << " iter " << i << " ("
          << prog.summary << "):\n" << outcome.detail << prog.ToLdl();
    }
  }
}

}  // namespace
}  // namespace testing
}  // namespace ldl
