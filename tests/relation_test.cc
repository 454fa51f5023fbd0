#include "storage/relation.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "storage/database.h"
#include "storage/statistics.h"
#include "ast/parser.h"
#include "base/rng.h"

namespace ldl {
namespace {

Tuple Pair(int64_t a, int64_t b) {
  return {Term::MakeInt(a), Term::MakeInt(b)};
}

TEST(RelationTest, InsertDeduplicates) {
  Relation r("edge", 2);
  EXPECT_TRUE(r.Insert(Pair(1, 2)));
  EXPECT_FALSE(r.Insert(Pair(1, 2)));
  EXPECT_TRUE(r.Insert(Pair(2, 1)));
  EXPECT_EQ(r.size(), 2u);
  EXPECT_TRUE(r.Contains(Pair(1, 2)));
  EXPECT_FALSE(r.Contains(Pair(3, 3)));
}

TEST(RelationTest, IndexLookup) {
  Relation r("edge", 2);
  for (int64_t i = 0; i < 100; ++i) {
    r.Insert(Pair(i % 10, i));
  }
  const auto& ids = r.Lookup({0}, {Term::MakeInt(3)});
  EXPECT_EQ(ids.size(), 10u);
  for (uint32_t id : ids) {
    EXPECT_EQ(r.tuple(id)[0].int_value(), 3);
  }
}

TEST(RelationTest, IndexExtendsAfterInsert) {
  Relation r("edge", 2);
  r.Insert(Pair(1, 10));
  EXPECT_EQ(r.Lookup({0}, {Term::MakeInt(1)}).size(), 1u);
  r.Insert(Pair(1, 11));  // insert after the index exists
  EXPECT_EQ(r.Lookup({0}, {Term::MakeInt(1)}).size(), 2u);
}

TEST(RelationTest, MultiColumnIndex) {
  Relation r("t", 3);
  r.Insert({Term::MakeInt(1), Term::MakeInt(2), Term::MakeInt(3)});
  r.Insert({Term::MakeInt(1), Term::MakeInt(2), Term::MakeInt(4)});
  r.Insert({Term::MakeInt(1), Term::MakeInt(9), Term::MakeInt(3)});
  EXPECT_EQ(r.Lookup({0, 1}, {Term::MakeInt(1), Term::MakeInt(2)}).size(), 2u);
  EXPECT_EQ(r.Lookup({0, 2}, {Term::MakeInt(1), Term::MakeInt(3)}).size(), 2u);
}

TEST(RelationTest, ZeroArityRelation) {
  Relation r("flag", 0);
  EXPECT_TRUE(r.Insert({}));
  EXPECT_FALSE(r.Insert({}));
  EXPECT_EQ(r.size(), 1u);
  EXPECT_TRUE(r.Contains({}));
}

TEST(RelationTest, ComplexTermColumns) {
  Relation r("shape", 1);
  auto t1 = ParseTerm("poly([p(0,0), p(1,0), p(0,1)])");
  auto t2 = ParseTerm("poly([p(0,0), p(1,0), p(0,1)])");
  ASSERT_TRUE(t1.ok() && t2.ok());
  EXPECT_TRUE(r.Insert({*t1}));
  EXPECT_FALSE(r.Insert({*t2}));  // structurally equal -> dedup
}

TEST(RelationTest, DistinctCount) {
  Relation r("edge", 2);
  for (int64_t i = 0; i < 30; ++i) r.Insert(Pair(i % 3, i));
  EXPECT_EQ(r.DistinctCount(0), 3u);
  EXPECT_EQ(r.DistinctCount(1), 30u);
}

// A random ground value from small domains, so inserts collide often: ints,
// reals, symbols and strings with the same spelling (distinct kinds), and
// function terms nesting them.
Term RandomValue(Rng* rng) {
  const std::string name = "v" + std::to_string(rng->Uniform(6));
  switch (rng->Uniform(6)) {
    case 0:
      return Term::MakeInt(rng->UniformInt(-3, 8));
    case 1:
      return Term::MakeReal(static_cast<double>(rng->Uniform(6)) / 2);
    case 2:
      return Term::MakeSymbol(name);
    case 3:
      return Term::MakeString(name);
    case 4:
      return Term::MakeFunction("f", {Term::MakeInt(rng->UniformInt(0, 3))});
    default:
      return Term::MakeFunction(
          rng->Uniform(2) == 0 ? "f" : "g",
          {Term::MakeSymbol(name), Term::MakeInt(rng->UniformInt(0, 2))});
  }
}

// The reference: a relation's rows under set semantics, counted with the
// std::set walk that DistinctCount replaced.
struct ModelRelation {
  std::vector<Tuple> rows;

  void Insert(const Tuple& t) {
    if (std::find(rows.begin(), rows.end(), t) == rows.end()) {
      rows.push_back(t);
    }
  }
  size_t DistinctCount(size_t col) const {
    std::set<Term> values;
    for (const Tuple& t : rows) values.insert(t[col]);
    return values.size();
  }
};

// The relation holds exactly the model's rows, in insertion order, and its
// dedup table, every index and every distinct table agree with them. Index
// probes cover every strictly increasing column subset, keyed on every key
// the model holds, so the probes also extend (or build) each index from
// wherever the mutation left it.
void ExpectMatchesModel(Relation& r, const ModelRelation& model,
                        const std::string& where) {
  ASSERT_EQ(r.size(), model.rows.size()) << where;
  ASSERT_TRUE(r.tuples() == model.rows) << where << ": row order";
  for (const Tuple& t : model.rows) {
    ASSERT_TRUE(r.Contains(t)) << where << ": " << TupleToString(t);
  }
  Tuple absent(r.arity(), Term::MakeSymbol("absent"));
  ASSERT_FALSE(r.Contains(absent)) << where;
  for (size_t c = 0; c < r.arity(); ++c) {
    ASSERT_EQ(r.DistinctCount(c), model.DistinctCount(c))
        << where << " column " << c;
  }
  for (unsigned mask = 1; mask < (1u << r.arity()); ++mask) {
    std::vector<int> cols;
    for (size_t c = 0; c < r.arity(); ++c) {
      if (mask & (1u << c)) cols.push_back(static_cast<int>(c));
    }
    std::map<Tuple, std::vector<uint32_t>> expected;
    for (size_t row = 0; row < model.rows.size(); ++row) {
      Tuple key;
      for (int c : cols) key.push_back(model.rows[row][c]);
      expected[key].push_back(static_cast<uint32_t>(row));
    }
    for (const auto& [key, rows] : expected) {
      ASSERT_EQ(r.Lookup(cols, key), rows)
          << where << " mask " << mask << " key " << TupleToString(key);
    }
  }
}

// Incremental distinct counts stay exact across every way a relation's rows
// change or move: duplicate and new inserts, Clear, copy and move
// construction and assignment, and std::swap, with counts taken after every
// step so tables are extended from every possible high-water mark.
TEST(RelationTest, DistinctCountMatchesSetReferenceUnderMutation) {
  constexpr size_t kArity = 3;
  for (uint64_t seed = 1; seed <= 5; ++seed) {
    Rng rng(seed);
    Relation a("a", kArity);
    Relation b("b", kArity);
    ModelRelation ma;
    ModelRelation mb;
    for (int step = 0; step < 600; ++step) {
      const bool on_a = rng.Uniform(2) == 0;
      Relation& x = on_a ? a : b;
      Relation& y = on_a ? b : a;
      ModelRelation& mx = on_a ? ma : mb;
      ModelRelation& my = on_a ? mb : ma;
      const uint64_t op = rng.Uniform(20);
      if (op < 14) {
        // A burst of inserts, often of rows already present.
        for (uint64_t n = rng.Uniform(4) + 1; n > 0; --n) {
          Tuple t;
          for (size_t c = 0; c < kArity; ++c) t.push_back(RandomValue(&rng));
          if (rng.Uniform(4) == 0 && !mx.rows.empty()) {
            t = mx.rows[rng.Uniform(mx.rows.size())];
          }
          x.Insert(t);
          mx.Insert(t);
        }
      } else if (op == 14) {
        x.Clear();
        mx.rows.clear();
      } else if (op == 15) {
        Relation copy(x);
        ExpectMatchesModel(copy, mx, "copy-constructed");
        copy.Insert({Term::MakeInt(100), Term::MakeInt(100),
                     Term::MakeInt(step)});
        ExpectMatchesModel(x, mx, "copy source after copy grew");
      } else if (op == 16) {
        y = x;
        my = mx;
      } else if (op == 17) {
        // Over a live relation whose tables may be built.
        y = std::move(x);
        my = mx;
        mx.rows.clear();
        ExpectMatchesModel(x, mx, "moved-from by assignment");
      } else if (op == 18) {
        Relation moved(std::move(x));
        ExpectMatchesModel(x, ModelRelation{}, "moved-from by construction");
        x = std::move(moved);
      } else {
        std::swap(a, b);
        std::swap(ma, mb);
      }
      const std::string where =
          "seed " + std::to_string(seed) + " step " + std::to_string(step);
      ExpectMatchesModel(a, ma, where + " a");
      ExpectMatchesModel(b, mb, where + " b");
    }
  }
}

// A posting list walked by position, the way the rule evaluator walks
// tc(X, Z) <- tc(X, Y), tc(Y, Z), sees every id appended to it during the
// walk, while new keys grow (and rehash) the same index and probes on the
// same and other columns run between its steps.
TEST(RelationTest, PostingListSurvivesGrowthDuringWalk) {
  Relation r("tc", 2);
  for (int64_t i = 0; i < 4; ++i) r.Insert(Pair(1, i));
  const Relation::Postings ids = r.Lookup({0}, {Term::MakeInt(1)});
  std::vector<uint32_t> seen;
  std::vector<uint32_t> expected;
  int64_t next_key = 1000;
  for (size_t i = 0; i < ids.size(); ++i) {
    seen.push_back(ids[i]);
    if (i < 40) {
      r.Insert(Pair(1, 100 + static_cast<int64_t>(i)));
      for (int n = 0; n < 25; ++n) r.Insert(Pair(next_key++, 0));
    }
    EXPECT_EQ(r.Lookup({0}, {Term::MakeInt(next_key - 1)}).size(), 1u);
    EXPECT_EQ(r.Lookup({1}, {Term::MakeInt(0)}).size(),
              static_cast<size_t>(next_key - 999));
  }
  for (uint32_t id = 0; id < r.size(); ++id) {
    if (r.tuple(id)[0] == Term::MakeInt(1)) expected.push_back(id);
  }
  EXPECT_EQ(expected.size(), 44u);
  EXPECT_EQ(seen, expected);
}

// A million-element list is an ordinary column value: interning, dedup,
// Contains and index probes all walk its spine without recursion, and the
// relation is charged for the arena cells its insert added to the store.
TEST(RelationTest, MillionElementListColumn) {
  std::vector<Term> items;
  for (int i = 0; i < 1000000; ++i) items.push_back(Term::MakeInt(i % 10));
  const Term list = Term::MakeList(items);
  const Term copy = Term::MakeList(items);
  ResourceAccountant accountant;
  {
    Relation r("deep", 2);
    r.set_accountant(&accountant);
    EXPECT_TRUE(r.Insert({list, Term::MakeInt(1)}));
    EXPECT_FALSE(r.Insert({copy, Term::MakeInt(1)}));
    EXPECT_TRUE(r.Contains({copy, Term::MakeInt(1)}));
    EXPECT_FALSE(r.Contains({copy, Term::MakeInt(2)}));
    EXPECT_EQ(r.Lookup({0}, {copy}), std::vector<uint32_t>{0});
    // Each cons cell holds its two argument values.
    EXPECT_GT(accountant.current_bytes(), 1000000 * 2 * sizeof(Value));
    EXPECT_EQ(accountant.current_bytes(), r.charged_bytes());
  }
  EXPECT_EQ(accountant.current_bytes(), 0u);
}

// The distinct-value tables are charged like index postings, and released
// with the rest of the relation.
TEST(RelationTest, DistinctTablesAreChargedAndReleased) {
  ResourceAccountant accountant;
  {
    Relation r("edge", 2);
    r.set_accountant(&accountant);
    for (int64_t i = 0; i < 1000; ++i) r.Insert(Pair(i % 7, i));
    const uint64_t before = r.charged_bytes();
    EXPECT_EQ(r.DistinctCount(0), 7u);
    EXPECT_EQ(r.DistinctCount(1), 1000u);
    EXPECT_GT(r.charged_bytes(), before);
    EXPECT_EQ(accountant.current_bytes(), r.charged_bytes());
    r.Clear();
    EXPECT_EQ(accountant.current_bytes(), 0u);
    r.Insert(Pair(1, 2));
    EXPECT_EQ(r.DistinctCount(1), 1u);
  }
  EXPECT_EQ(accountant.current_bytes(), 0u);
}

// The rows of `r` in row order.
std::vector<Tuple> Rows(const Relation& r) { return r.tuples(); }

// A relation reserved for its rows and then filled is the relation that
// growing row by row makes: the same rows under the same ids, the same
// membership and postings, the same byte estimate (what attaching an
// accountant charges) and, attached while filled, the same charge.
TEST(RelationTest, ReservedRelationMatchesGrownOne) {
  for (size_t n : {1, 7, 8, 9, 100, 1000}) {
    SCOPED_TRACE(n);
    ResourceAccountant grown_bytes;
    ResourceAccountant reserved_bytes;
    Relation grown("edge", 2);
    Relation reserved("edge", 2);
    grown.set_accountant(&grown_bytes);
    reserved.set_accountant(&reserved_bytes);
    reserved.Reserve(n);
    EXPECT_EQ(reserved.size(), 0u);
    const uint64_t slot_bytes = reserved_bytes.current_bytes();
    EXPECT_GT(slot_bytes, 0u);
    // Each row twice, the second time a duplicate.
    for (size_t pass = 0; pass < 2; ++pass) {
      for (size_t i = 0; i < n; ++i) {
        const Tuple t = Pair(static_cast<int64_t>(i % 5),
                             static_cast<int64_t>(i));
        EXPECT_EQ(grown.Insert(t), pass == 0);
        EXPECT_EQ(reserved.Insert(t), pass == 0);
      }
    }
    EXPECT_EQ(Rows(reserved), Rows(grown));
    // Filling it charged its rows and no further slot: the table never
    // grew.
    EXPECT_EQ(reserved_bytes.current_bytes(),
              slot_bytes + n * 2 * sizeof(Value));
    EXPECT_EQ(reserved.charged_bytes(), grown.charged_bytes());
    EXPECT_EQ(reserved_bytes.current_bytes(), grown_bytes.current_bytes());
    for (int64_t i = -1; i <= static_cast<int64_t>(n); ++i) {
      EXPECT_EQ(reserved.Contains(Pair(i % 5, i)),
                grown.Contains(Pair(i % 5, i)));
    }
    for (int64_t key = 0; key < 6; ++key) {
      EXPECT_EQ(reserved.Lookup({0}, {Term::MakeInt(key)}).ToVector(),
                grown.Lookup({0}, {Term::MakeInt(key)}).ToVector());
    }
    EXPECT_EQ(reserved.charged_bytes(), grown.charged_bytes());
    // Re-attaching charges a fresh estimate of the contents.
    reserved.set_accountant(nullptr);
    grown.set_accountant(nullptr);
    reserved.set_accountant(&reserved_bytes);
    grown.set_accountant(&grown_bytes);
    EXPECT_EQ(reserved.charged_bytes(), grown.charged_bytes());
  }
}

// Reserve(0) sizes nothing, and reserving a relation that holds a row
// changes nothing: its charge, and what filling it further gives.
TEST(RelationTest, ReserveOfNothingOrOfAFilledRelationIsANoOp) {
  ResourceAccountant accountant;
  Relation none("edge", 2);
  none.set_accountant(&accountant);
  none.Reserve(0);
  EXPECT_EQ(none.charged_bytes(), 0u);
  EXPECT_EQ(accountant.current_bytes(), 0u);

  Relation grown("edge", 2);
  Relation reserved("edge", 2);
  grown.set_accountant(&accountant);
  reserved.set_accountant(&accountant);
  grown.Insert(Pair(0, 0));
  reserved.Insert(Pair(0, 0));
  const uint64_t charged = reserved.charged_bytes();
  reserved.Reserve(1000);
  EXPECT_EQ(reserved.charged_bytes(), charged);
  for (int64_t i = 1; i < 100; ++i) {
    grown.Insert(Pair(i, i));
    reserved.Insert(Pair(i, i));
  }
  EXPECT_EQ(Rows(reserved), Rows(grown));
  EXPECT_EQ(reserved.charged_bytes(), grown.charged_bytes());
}

TEST(DatabaseTest, GetOrCreateAndFacts) {
  Database db;
  EXPECT_EQ(db.Find({"edge", 2}), nullptr);
  Relation* r = db.GetOrCreate({"edge", 2});
  EXPECT_EQ(db.Find({"edge", 2}), r);

  auto lit = ParseLiteral("edge(1, 2)");
  ASSERT_TRUE(lit.ok());
  ASSERT_TRUE(db.AddFact(*lit).ok());
  EXPECT_EQ(r->size(), 1u);
  EXPECT_EQ(db.TotalTuples(), 1u);
}

TEST(DatabaseTest, RejectsNonGroundFact) {
  Database db;
  auto lit = ParseLiteral("edge(1, X)");
  ASSERT_TRUE(lit.ok());
  EXPECT_FALSE(db.AddFact(*lit).ok());
}

TEST(DatabaseTest, SameNameDifferentArityAreDistinct) {
  Database db;
  db.GetOrCreate({"p", 1})->Insert({Term::MakeInt(1)});
  db.GetOrCreate({"p", 2})->Insert(Pair(1, 2));
  EXPECT_EQ(db.Find({"p", 1})->size(), 1u);
  EXPECT_EQ(db.Find({"p", 2})->size(), 1u);
}

TEST(StatisticsTest, CollectComputesCardinalityAndDistinct) {
  Database db;
  Relation* r = db.GetOrCreate({"edge", 2});
  for (int64_t i = 0; i < 20; ++i) r->Insert(Pair(i % 4, i));
  Statistics stats = Statistics::Collect(db);
  const RelationStats& rs = stats.Get({"edge", 2});
  EXPECT_DOUBLE_EQ(rs.cardinality, 20.0);
  EXPECT_DOUBLE_EQ(rs.distinct[0], 4.0);
  EXPECT_DOUBLE_EQ(rs.distinct[1], 20.0);
  EXPECT_DOUBLE_EQ(rs.EqConstSelectivity(0), 0.25);
  EXPECT_DOUBLE_EQ(rs.FanOut(0), 5.0);
}

TEST(StatisticsTest, UnknownPredicateFallsBackToDefault) {
  Statistics stats;
  EXPECT_DOUBLE_EQ(stats.Get({"nope", 3}).cardinality,
                   stats.default_stats().cardinality);
}

TEST(StatisticsTest, EqJoinSelectivityUsesLargerDomain) {
  RelationStats rs;
  rs.cardinality = 100;
  rs.distinct = {10, 50};
  EXPECT_DOUBLE_EQ(rs.EqJoinSelectivity(0, 20.0), 1.0 / 20.0);
  EXPECT_DOUBLE_EQ(rs.EqJoinSelectivity(1, 20.0), 1.0 / 50.0);
}

}  // namespace
}  // namespace ldl
