#include "graph/dependency_graph.h"

#include <gtest/gtest.h>

#include "ast/parser.h"
#include "base/strings.h"

namespace ldl {
namespace {

Program P(const char* text) {
  auto r = ParseProgram(text);
  EXPECT_TRUE(r.ok()) << r.status();
  return *r;
}

TEST(DepGraphTest, DirectRecursionFormsClique) {
  Program p = P(R"(
    anc(X, Y) <- par(X, Y).
    anc(X, Y) <- par(X, Z), anc(Z, Y).
  )");
  DependencyGraph g = DependencyGraph::Build(p);
  EXPECT_TRUE(g.IsRecursive({"anc", 2}));
  ASSERT_EQ(g.cliques().size(), 1u);
  EXPECT_EQ(g.cliques()[0].recursive_rules.size(), 1u);
  EXPECT_EQ(g.cliques()[0].exit_rules.size(), 1u);
}

// A dependency chain far deeper than the call stack allows recursion for:
// p0 <- b, p1 <- p0, ..., each its own non-recursive component, bottom-up
// in chain order. The strongly connected components are found with an
// explicit stack.
TEST(DepGraphTest, DeepChainBuildsWithoutRecursion) {
  constexpr size_t kDepth = 200'000;
  Program p;
  const Term x = Term::MakeVariable("X");
  p.AddRule(Rule(Literal::Make("p0", {x}), {Literal::Make("b", {x})}));
  for (size_t i = 1; i < kDepth; ++i) {
    p.AddRule(Rule(Literal::Make(StrCat("p", i), {x}),
                   {Literal::Make(StrCat("p", i - 1), {x})}));
  }
  DependencyGraph g = DependencyGraph::Build(p);
  EXPECT_TRUE(g.CheckStratified().ok());
  EXPECT_TRUE(g.cliques().empty());
  ASSERT_EQ(g.topological_components().size(), kDepth);
  const std::vector<PredicateId>& order = g.topological_order();
  ASSERT_EQ(order.size(), kDepth);
  for (size_t i = 0; i < kDepth; ++i) {
    ASSERT_EQ(order[i], (PredicateId{StrCat("p", i), 1})) << i;
  }
  EXPECT_TRUE(g.DependsOn({"p9", 1}, {"p0", 1}));
  EXPECT_FALSE(g.DependsOn({"p0", 1}, {"p9", 1}));
}

TEST(DepGraphTest, MutualRecursionOneClique) {
  Program p = P(R"(
    even(X) <- zero(X).
    even(X) <- succ(Y, X), odd(Y).
    odd(X) <- succ(Y, X), even(Y).
  )");
  DependencyGraph g = DependencyGraph::Build(p);
  ASSERT_EQ(g.cliques().size(), 1u);
  EXPECT_EQ(g.cliques()[0].predicates.size(), 2u);
  EXPECT_EQ(g.CliqueIndex({"even", 1}), g.CliqueIndex({"odd", 1}));
}

TEST(DepGraphTest, NonRecursiveHasNoCliques) {
  Program p = P(R"(
    grandparent(X, Z) <- par(X, Y), par(Y, Z).
    cousin(X, Y) <- grandparent(X, G), grandparent(Y, G).
  )");
  DependencyGraph g = DependencyGraph::Build(p);
  EXPECT_TRUE(g.cliques().empty());
  EXPECT_FALSE(g.IsRecursive({"grandparent", 2}));
}

TEST(DepGraphTest, TopologicalOrderIsBottomUp) {
  Program p = P(R"(
    a(X) <- base(X).
    b(X) <- a(X).
    c(X) <- b(X), a(X).
  )");
  DependencyGraph g = DependencyGraph::Build(p);
  const auto& order = g.topological_order();
  auto pos = [&order](const char* name) {
    for (size_t i = 0; i < order.size(); ++i) {
      if (order[i].name == name) return i;
    }
    return order.size();
  };
  EXPECT_LT(pos("a"), pos("b"));
  EXPECT_LT(pos("b"), pos("c"));
  EXPECT_LT(pos("a"), pos("c"));
}

TEST(DepGraphTest, SeparateCliquesFollowOrder) {
  // tc2 is defined on top of tc1's results: tc1's clique precedes tc2's.
  Program p = P(R"(
    tc1(X, Y) <- e1(X, Y).
    tc1(X, Y) <- e1(X, Z), tc1(Z, Y).
    tc2(X, Y) <- tc1(X, Y).
    tc2(X, Y) <- e2(X, Z), tc2(Z, Y).
  )");
  DependencyGraph g = DependencyGraph::Build(p);
  ASSERT_EQ(g.cliques().size(), 2u);
  const auto& order = g.topological_order();
  size_t p1 = 0, p2 = 0;
  for (size_t i = 0; i < order.size(); ++i) {
    if (order[i].name == "tc1") p1 = i;
    if (order[i].name == "tc2") p2 = i;
  }
  EXPECT_LT(p1, p2);
  EXPECT_TRUE(g.DependsOn({"tc2", 2}, {"tc1", 2}));
  EXPECT_FALSE(g.DependsOn({"tc1", 2}, {"tc2", 2}));
}

TEST(DepGraphTest, StratificationAcceptsLayeredNegation) {
  Program p = P(R"(
    reach(X) <- source(X).
    reach(X) <- reach(Y), edge(Y, X).
    unreachable(X) <- node(X), not reach(X).
  )");
  DependencyGraph g = DependencyGraph::Build(p);
  EXPECT_TRUE(g.CheckStratified().ok());
  EXPECT_LT(g.Stratum({"reach", 1}), g.Stratum({"unreachable", 1}));
}

TEST(DepGraphTest, StratificationRejectsNegationInClique) {
  Program p = P(R"(
    win(X) <- move(X, Y), not win(Y).
  )");
  DependencyGraph g = DependencyGraph::Build(p);
  EXPECT_FALSE(g.CheckStratified().ok());
}

TEST(DepGraphTest, SelfLoopOnlyThroughBuiltinIsNotRecursive) {
  Program p = P("p(X) <- q(X), X > 0.");
  DependencyGraph g = DependencyGraph::Build(p);
  EXPECT_FALSE(g.IsRecursive({"p", 1}));
}

TEST(DepGraphTest, CliqueRulePartition) {
  Program p = P(R"(
    sg(X, Y) <- flat(X, Y).
    sg(X, Y) <- up(X, X1), sg(X1, Y1), dn(Y1, Y).
  )");
  DependencyGraph g = DependencyGraph::Build(p);
  ASSERT_EQ(g.cliques().size(), 1u);
  const RecursiveClique& c = g.cliques()[0];
  ASSERT_EQ(c.exit_rules.size(), 1u);
  ASSERT_EQ(c.recursive_rules.size(), 1u);
  EXPECT_EQ(p.rules()[c.exit_rules[0]].body().size(), 1u);
  EXPECT_EQ(p.rules()[c.recursive_rules[0]].body().size(), 3u);
}

}  // namespace
}  // namespace ldl
