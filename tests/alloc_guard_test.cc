// Allocation guards. This executable replaces the global operator new with
// one that counts calls, so a test can assert how many heap allocations a
// piece of code makes. Counts are exact for a given standard library; the
// bounds below leave a small margin over what was measured (see each test).

#include <gtest/gtest.h>

#include <cstdlib>
#include <new>
#include <utility>

#include "ldl/ldl.h"
#include "storage/relation.h"
#include "testing/workloads.h"

namespace {

bool g_counting = false;
size_t g_allocations = 0;

/// Counts the allocations made while it is alive.
class AllocationCounter {
 public:
  AllocationCounter() {
    g_allocations = 0;
    g_counting = true;
  }
  ~AllocationCounter() { g_counting = false; }
  size_t count() const { return g_allocations; }
};

}  // namespace

void* operator new(size_t size) {
  if (g_counting) ++g_allocations;
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, size_t) noexcept { std::free(p); }

namespace ldl {
namespace {

// A relation that never holds a row allocates nothing, however it is made,
// moved, reserved for no rows or destroyed: scratch and answer relations
// are made and moved several times per query.
TEST(AllocGuardTest, EmptyRelationAllocatesNothing) {
  AllocationCounter counter;
  {
    Relation a("r", 2);
    Relation b(std::move(a));
    Relation c("s", 3);
    c = std::move(b);
    Relation d;
    d = std::move(c);
    d.Reserve(0);
  }
  EXPECT_EQ(counter.count(), 0u);
}

// A warm plan-cache hit of a bound same-generation goal run by counting.
// Measured at 67 allocations with libstdc++ 12 (g++ 12.2). About 25 copy
// the cached plan into the answer and 17 make the run's RuleStates. The
// rest are the goal's parse, the scratch database, one row array and one
// dedup table per scratch relation, sized by the entry's last run, and the
// answer relation. The bound allows 5 more, for standard libraries that
// grow vectors or hash tables differently; a per-run selector compile,
// index build, intermediate relation or per-relation container node would
// each exceed it, and so did relations grown row by row (75).
TEST(AllocGuardTest, WarmCountingHitOnASmallKb) {
  LdlSystem sys;
  ASSERT_TRUE(sys.LoadProgram(R"(
    up(1, 2). up(2, 3). up(1, 4). up(4, 5).
    flat(3, 3). flat(5, 6). flat(2, 7).
    dn(3, 8). dn(8, 9). dn(6, 10). dn(10, 11). dn(7, 12).
    sg(X, Y) <- flat(X, Y).
    sg(X, Y) <- up(X, X1), sg(X1, Y1), dn(Y1, Y).
  )").ok());
  for (int warm = 0; warm < 3; ++warm) {
    auto answer = sys.Query("sg(1, Y)");
    ASSERT_TRUE(answer.ok()) << answer.status();
  }
  size_t allocations = 0;
  {
    AllocationCounter counter;
    auto answer = sys.Query("sg(1, Y)");
    allocations = counter.count();
    ASSERT_TRUE(answer.ok()) << answer.status();
    EXPECT_TRUE(answer->plan_cached);
    EXPECT_EQ(answer->plan.top_method, RecursionMethod::kCounting);
    EXPECT_EQ(answer->answers.size(), 3u);
  }
  EXPECT_LE(allocations, 72u);
}

/// The allocations of a warm all-free `anc(X, Y)` hit over a par-tree of
/// `fanout` and `depth`, after three queries to warm the plan cache.
size_t WarmClosureHitAllocations(size_t fanout, size_t depth) {
  LdlSystem sys;
  EXPECT_TRUE(sys.LoadProgram(R"(
    anc(X, Y) <- par(X, Y).
    anc(X, Y) <- par(X, Z), anc(Z, Y).
  )").ok());
  testing::MakeTreeParentData(fanout, depth, sys.database());
  sys.RefreshStatistics();
  for (int warm = 0; warm < 3; ++warm) {
    auto answer = sys.Query("anc(X, Y)");
    EXPECT_TRUE(answer.ok()) << answer.status();
  }
  AllocationCounter counter;
  auto answer = sys.Query("anc(X, Y)");
  const size_t allocations = counter.count();
  EXPECT_TRUE(answer.ok()) << answer.status();
  EXPECT_TRUE(answer->plan_cached);
  EXPECT_EQ(answer->plan.top_method, RecursionMethod::kSemiNaive);
  return allocations;
}

// A warm semi-naive hit sizes each scratch relation once, at the size the
// entry's last run reached, so its allocations do not grow with the data:
// the same count (44 with libstdc++ 12) over trees of 511 and 1023 nodes,
// where relations grown by doubling made 65 and 69.
TEST(AllocGuardTest, WarmClosureHitAllocatesIndependentlyOfSize) {
  EXPECT_EQ(WarmClosureHitAllocations(2, 8), WarmClosureHitAllocations(2, 9));
}

}  // namespace
}  // namespace ldl
