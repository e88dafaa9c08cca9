// Leaf scans borrow the Database's tables instead of copying them: the
// tables belong to the Database, so a governed query is not charged for
// them, and no operator may write through the borrowed reference.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "eca/optimizer.h"
#include "exec/executor.h"
#include "exec/query_context.h"
#include "tpch/paper_queries.h"

#include "../test_util.h"

namespace eca {
namespace {

void ExpectIdentical(const Relation& expected, const Relation& actual,
                     const std::string& context) {
  ASSERT_EQ(expected.schema(), actual.schema()) << context;
  ASSERT_EQ(expected.NumRows(), actual.NumRows()) << context;
  for (size_t r = 0; r < expected.rows().size(); ++r) {
    ASSERT_EQ(CompareTuples(expected.rows()[r], actual.rows()[r]), 0)
        << context << ": first difference at row " << r;
  }
}

Relation KeyRel(int rel_id, int rows, int key_mod) {
  Relation rel(Schema({{rel_id, "a", DataType::kInt64},
                       {rel_id, "b", DataType::kInt64}}));
  for (int i = 0; i < rows; ++i) rel.Add({I(i % key_mod), I(i)});
  return rel;
}

TEST(BorrowedScanTest, GovernedBareLeafIsUncharged) {
  Database db;
  db.Add(KeyRel(0, 500, 7));
  QueryContext ctx;
  Executor ex;
  StatusOr<Relation> got = ex.Execute(*Plan::Leaf(0), db, &ctx);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  ExpectIdentical(db.table(0), *got, "bare leaf");
  EXPECT_EQ(ex.stats().peak_bytes, 0);
  EXPECT_EQ(ctx.tracker()->peak(), 0);
  EXPECT_EQ(ctx.tracker()->used(), 0);
  ASSERT_EQ(ex.stats().profile.size(), 1u);
  EXPECT_EQ(ex.stats().profile[0].rows, 500);
  EXPECT_EQ(ex.stats().profile[0].ms, 0);
}

// The query's peak over R join S is the join's own working set (its build
// index and buffered output) or its charged output, whichever is larger:
// neither input table appears in it.
TEST(BorrowedScanTest, JoinOverLeavesPeaksWithoutTheTables) {
  Database db;
  db.Add(KeyRel(0, 900, 50));
  db.Add(KeyRel(1, 300, 60));
  const PredRef pred = EquiJoin(0, "a", 1, "a", "p01");
  const Relation& r = db.table(0);
  const Relation& s = db.table(1);

  QueryContext alone_ctx;
  const Relation alone = EvalJoin(JoinOp::kInner, pred, r, s,
                                  Executor::JoinPreference::kHash,
                                  /*stats=*/nullptr, /*pool=*/nullptr,
                                  &alone_ctx);
  ASSERT_GT(alone.NumRows(), 0);
  const int64_t join_peak = alone_ctx.tracker()->peak();
  ASSERT_GT(join_peak, 0);

  QueryContext ctx;
  Executor ex;
  StatusOr<Relation> got = ex.Execute(
      *Plan::Join(JoinOp::kInner, pred, Plan::Leaf(0), Plan::Leaf(1)), db,
      &ctx);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  ExpectIdentical(alone, *got, "R join S");
  EXPECT_EQ(ex.stats().peak_bytes,
            std::max(join_peak, ApproxRowsBytes(alone.rows())));
  EXPECT_LT(ex.stats().peak_bytes, join_peak + ApproxRowsBytes(r.rows()) +
                                       ApproxRowsBytes(s.rows()));
  EXPECT_EQ(ctx.tracker()->used(), 0);
}

// Every paper query variant, as written and as optimized, at 1 and 4
// threads, ungoverned and governed: the Database's tables come out byte
// for byte as they went in.
TEST(BorrowedScanTest, PaperQueriesLeaveTheDatabaseUnchanged) {
  const TpchData data = GenerateTpch(TpchScale::OfSF(0.001), 7);
  std::vector<PaperQuery> queries;
  for (double nu : {0.0, 5.0, 50.0, 200.0, 1000.0, 5000.0}) {
    queries.push_back(BuildQ1(data, nu));
    queries.push_back(BuildQ2(data, nu));
    queries.push_back(BuildQ3(data, nu));
  }
  // Q1..Q3 share relation ids, so Q3's database serves every variant.
  const Database& db = queries.back().db;
  std::vector<Relation> before;
  for (int i = 0; i < db.NumTables(); ++i) before.push_back(db.table(i));

  std::vector<PlanPtr> optimized;
  for (const PaperQuery& q : queries) {
    optimized.push_back(Optimizer().Optimize(*q.plan, db).plan);
    ASSERT_NE(optimized.back(), nullptr) << q.name;
  }

  for (int threads : {1, 4}) {
    Executor::Options opts;
    opts.num_threads = threads;
    Executor ex(opts);
    for (size_t i = 0; i < queries.size(); ++i) {
      const std::string& name = queries[i].name;
      for (const Plan* plan : {queries[i].plan.get(), optimized[i].get()}) {
        ASSERT_TRUE(ex.Execute(*plan, db).ok()) << name;
        QueryContext ctx;
        ASSERT_TRUE(ex.Execute(*plan, db, &ctx).ok()) << name;
        EXPECT_EQ(ctx.tracker()->used(), 0) << name;
      }
    }
  }

  ASSERT_EQ(db.NumTables(), static_cast<int>(before.size()));
  for (int i = 0; i < db.NumTables(); ++i) {
    ExpectIdentical(before[static_cast<size_t>(i)], db.table(i),
                    "table " + std::to_string(i));
  }
}

}  // namespace
}  // namespace eca
