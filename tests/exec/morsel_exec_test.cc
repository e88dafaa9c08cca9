// Morsel-scheduler edge cases and partition-stat accounting.
//
// The vectorized executor claims work in fixed-size morsels whose
// boundaries depend only on (total_rows, morsel_rows) — never the thread
// count — and assembles output in morsel-index order. The contract under
// test: byte-identical results for EVERY legal (threads, morsel_rows,
// chunk_rows) combination, including the degenerate corners (empty
// inputs, sub-morsel inputs, single-row morsels, all-NULL key chunks
// through fused compensation, and the grace-join spill path).

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "algebra/comp_op.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "exec/executor.h"
#include "exec/query_context.h"
#include "testing/random_data.h"

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

const JoinOp kAllOps[] = {
    JoinOp::kInner,     JoinOp::kLeftOuter, JoinOp::kRightOuter,
    JoinOp::kFullOuter, JoinOp::kLeftSemi,  JoinOp::kRightSemi,
    JoinOp::kLeftAnti,  JoinOp::kRightAnti,
};

Relation EmptyRel(int rel_id) {
  return MakeRelation({{rel_id, "a", DataType::kInt64},
                       {rel_id, "b", DataType::kInt64}},
                      {});
}

Relation SmallRel(int rel_id, uint64_t seed, int rows, double null_prob) {
  Rng rng(seed);
  RandomDataOptions opts;
  opts.min_rows = rows;
  opts.max_rows = rows;
  opts.null_prob = null_prob;
  opts.empty_prob = 0;
  return RandomRelation(rng, rel_id, opts);
}

// Empty build side, empty probe side, and both empty: every join operator
// at every tuning corner must match the sequential default (outer joins
// emit padded rows from the non-empty side; semi/anti keep or drop it).
TEST(MorselEdgeTest, EmptyInputsAllOpsAllTunings) {
  Relation left = SmallRel(0, 11, 20, 0.2);
  Relation right = SmallRel(1, 13, 20, 0.2);
  Relation empty_left = EmptyRel(0);
  Relation empty_right = EmptyRel(1);
  PredRef pred = EquiJoin(0, "a", 1, "a", "p01");

  struct Pair {
    const Relation* l;
    const Relation* r;
    const char* name;
  };
  const Pair pairs[] = {{&empty_left, &right, "empty-left"},
                        {&left, &empty_right, "empty-right"},
                        {&empty_left, &empty_right, "both-empty"}};
  for (JoinOp op : kAllOps) {
    for (const Pair& p : pairs) {
      Relation expect = EvalJoin(op, pred, *p.l, *p.r);
      for (int64_t morsel : {int64_t{1}, int64_t{3}, int64_t{4096}}) {
        ExecTuning tuning;
        tuning.morsel_rows = morsel;
        tuning.chunk_rows = 2;
        ThreadPool pool(3);
        Relation got = EvalJoin(op, pred, *p.l, *p.r,
                                Executor::JoinPreference::kHash,
                                /*stats=*/nullptr, &pool, /*ctx=*/nullptr,
                                &tuning);
        ExpectIdentical(expect, got,
                        std::string(JoinOpName(op)) + " " + p.name +
                            " morsel=" + std::to_string(morsel));
      }
    }
  }
}

// Inputs smaller than one morsel and morsels of a single row: the two
// extremes of the claim granularity, with a chunk size that never divides
// the morsel size evenly.
TEST(MorselEdgeTest, SubMorselAndSingleRowMorselsByteIdentical) {
  Relation left = SmallRel(0, 17, 7, 0.3);
  Relation right = SmallRel(1, 19, 5, 0.3);
  PredRef pred = EquiJoin(0, "a", 1, "a", "p01");
  for (JoinOp op : kAllOps) {
    Relation expect = EvalJoin(op, pred, left, right);
    for (int64_t morsel : {int64_t{1}, int64_t{100}}) {
      for (int64_t chunk : {int64_t{1}, int64_t{3}}) {
        ExecTuning tuning;
        tuning.morsel_rows = morsel;
        tuning.chunk_rows = chunk;
        for (int threads : {1, 4}) {
          ThreadPool pool(threads);
          Relation got = EvalJoin(op, pred, left, right,
                                  Executor::JoinPreference::kHash,
                                  /*stats=*/nullptr, &pool, /*ctx=*/nullptr,
                                  &tuning);
          ExpectIdentical(expect, got,
                          std::string(JoinOpName(op)) + " morsel=" +
                              std::to_string(morsel) + " chunk=" +
                              std::to_string(chunk) + " threads=" +
                              std::to_string(threads));
        }
      }
    }
  }
}

// Chunks whose join keys are ALL NULL, flowing through a fused
// lambda+gamma compensation chain above a full outer join. NULL keys
// never match, so every output row is padding — the fused chain still has
// to see each of them exactly once, in order.
TEST(MorselEdgeTest, NullKeyOnlyChunksThroughFusedCompensation) {
  std::vector<Tuple> lrows, rrows;
  for (int i = 0; i < 30; ++i) {
    lrows.push_back({N(), I(i)});
    rrows.push_back({N(), I(100 + i)});
  }
  Database db;
  db.Add(MakeRelation(
      {{0, "a", DataType::kInt64}, {0, "b", DataType::kInt64}},
      std::move(lrows)));
  db.Add(MakeRelation(
      {{1, "a", DataType::kInt64}, {1, "b", DataType::kInt64}},
      std::move(rrows)));
  PlanPtr plan = Plan::Comp(
      CompOp::Gamma(RelSet::Single(0)),
      Plan::Comp(
          CompOp::Lambda(Predicate::Compare(Predicate::CmpOp::kLe, Col(0, "b"),
                                            Col(1, "b")),
                         RelSet::Single(1)),
          Plan::Join(JoinOp::kFullOuter, EquiJoin(0, "a", 1, "a", "p01"),
                     Plan::Leaf(0), Plan::Leaf(1))));
  Executor sequential;
  Relation expect = sequential.Execute(*plan, db).value();
  EXPECT_GT(expect.NumRows(), 0);  // gamma keeps the right-padded rows
  for (int threads : {1, 2, 4}) {
    for (int64_t morsel : {int64_t{1}, int64_t{7}, int64_t{4096}}) {
      Executor::Options opts;
      opts.num_threads = threads;
      opts.tuning.morsel_rows = morsel;
      opts.tuning.chunk_rows = 4;
      Executor ex(opts);
      Relation got = ex.Execute(*plan, db).value();
      ExpectIdentical(expect, got,
                      "null-key fused chain threads=" +
                          std::to_string(threads) + " morsel=" +
                          std::to_string(morsel));
    }
  }
}

// The spill (grace hash join + external sort) path must honor the same
// tuning contract: byte-identical output for every morsel/chunk setting,
// with the tracker balanced afterwards.
TEST(MorselEdgeTest, SpillPathByteIdenticalAcrossTunings) {
  Relation left = SmallRel(0, 23, 300, 0.2);
  Relation right = SmallRel(1, 29, 250, 0.2);
  Database db;
  db.Add(std::move(left));
  db.Add(std::move(right));
  PlanPtr plan = Plan::Comp(
      CompOp::Beta(),
      Plan::Comp(
          CompOp::Lambda(EquiJoin(0, "a", 1, "a", "p01"), RelSet::Single(1)),
          Plan::Join(JoinOp::kFullOuter, EquiJoin(0, "b", 1, "b", "pb"),
                     Plan::Leaf(0), Plan::Leaf(1))));
  Executor plain;
  Relation expect = plain.Execute(*plan, db).value();
  for (int64_t morsel : {int64_t{5}, int64_t{4096}}) {
    QueryContext::Limits limits;
    limits.mem_limit_bytes = int64_t{1} << 30;
    limits.mem_soft_bytes = 1;  // spill everything
    QueryContext ctx(limits);
    Executor::Options opts;
    opts.num_threads = 2;
    opts.tuning.morsel_rows = morsel;
    opts.tuning.chunk_rows = 3;
    Executor ex(opts);
    StatusOr<Relation> got = ex.Execute(*plan, db, &ctx);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    ExpectIdentical(expect, *got,
                    "spilled morsel=" + std::to_string(morsel));
    EXPECT_GT(ex.stats().spilled_partitions, 0);
    EXPECT_EQ(ctx.tracker()->used(), 0);
  }
}

// --- Partition-stat accounting (regression) --------------------------------

// One hot key on a 1-thread run used to report partition_skew == 1.000
// exactly: the histogram was built over `threads` partitions, so a single
// thread meant a single partition and the report carried no information.
// The fixed kStatFanout=16 histogram makes the 1-thread report meaningful.
TEST(PartitionStatTest, SkewMeaningfulAtOneThread) {
  // A left outer join builds its table on the right input; every build
  // key is identical, so all 320 build rows land in one stat partition.
  std::vector<Tuple> lrows, rrows;
  for (int i = 0; i < 320; ++i) {
    lrows.push_back({I(i % 40), I(i)});
    rrows.push_back({I(7), I(i)});
  }
  Relation left = MakeRelation(
      {{0, "a", DataType::kInt64}, {0, "b", DataType::kInt64}},
      std::move(lrows));
  Relation right = MakeRelation(
      {{1, "a", DataType::kInt64}, {1, "b", DataType::kInt64}},
      std::move(rrows));
  ExecStats stats;
  EvalJoin(JoinOp::kLeftOuter, EquiJoin(0, "a", 1, "a", "p01"), left, right,
           Executor::JoinPreference::kHash, &stats, /*pool=*/nullptr);
  EXPECT_TRUE(stats.partition_stats_seeded);
  EXPECT_EQ(stats.partitions_built, 16);
  EXPECT_EQ(stats.max_partition_rows, 320);  // the hot key's partition
  EXPECT_EQ(stats.min_partition_rows, 0);
  // All 320 rows in one of 16 partitions: skew = 320 / (320/16) = 16.
  EXPECT_NEAR(stats.partition_skew, 16.0, 1e-9);
}

// The same query must report the same partition shape at every thread
// count — the histogram fanout is fixed, not tied to the pool size.
TEST(PartitionStatTest, ShapeIndependentOfThreadCount) {
  Relation left = SmallRel(0, 31, 200, 0.1);
  Relation right = SmallRel(1, 37, 150, 0.1);
  PredRef pred = EquiJoin(0, "a", 1, "a", "p01");
  ExecStats base;
  EvalJoin(JoinOp::kInner, pred, left, right,
           Executor::JoinPreference::kHash, &base, /*pool=*/nullptr);
  for (int threads : {2, 4, 8}) {
    ThreadPool pool(threads);
    ExecStats stats;
    EvalJoin(JoinOp::kInner, pred, left, right,
             Executor::JoinPreference::kHash, &stats, &pool);
    EXPECT_EQ(stats.partitions_built, base.partitions_built) << threads;
    EXPECT_EQ(stats.max_partition_rows, base.max_partition_rows) << threads;
    EXPECT_EQ(stats.min_partition_rows, base.min_partition_rows) << threads;
    EXPECT_DOUBLE_EQ(stats.partition_skew, base.partition_skew) << threads;
  }
}

// Regression for the first-join misfire: "is this the first build?" was
// detected as `partitions_built == num_partitions`, which is ALSO true
// after exactly one build — so a query's second hash join re-seeded
// min/max instead of folding into them. The explicit seeded flag keeps
// the min from the first join even when the second join's partitions are
// all larger, and vice versa.
TEST(PartitionStatTest, MinMaxFoldAcrossMultipleJoins) {
  // First join: a left outer join builds on the right input, whose 160
  // rows share one key -> max 160, min 0.
  std::vector<Tuple> hot;
  for (int i = 0; i < 160; ++i) hot.push_back({I(7), I(i)});
  Relation hot_right = MakeRelation(
      {{1, "a", DataType::kInt64}, {1, "b", DataType::kInt64}},
      std::move(hot));
  Relation probe = SmallRel(0, 41, 50, 0.0);
  ExecStats stats;
  EvalJoin(JoinOp::kLeftOuter, EquiJoin(0, "a", 1, "a", "p01"), probe,
           hot_right, Executor::JoinPreference::kHash, &stats);
  ASSERT_EQ(stats.max_partition_rows, 160);
  ASSERT_EQ(stats.min_partition_rows, 0);

  // Second join (same stats object): an evenly spread build whose own
  // min/max are strictly inside [0, 160]. Folding must keep 0 and 160;
  // the old heuristic re-seeded and lost both.
  Relation spread_left = SmallRel(0, 43, 64, 0.0);
  Relation spread_right = SmallRel(1, 47, 64, 0.0);
  EvalJoin(JoinOp::kInner, EquiJoin(0, "a", 1, "a", "p01"), spread_left,
           spread_right, Executor::JoinPreference::kHash, &stats);
  EXPECT_EQ(stats.partitions_built, 32);  // two builds, 16 stat bins each
  EXPECT_EQ(stats.max_partition_rows, 160);
  EXPECT_EQ(stats.min_partition_rows, 0);
  EXPECT_GE(stats.partition_skew, 16.0);  // the hot join's skew survives
}

}  // namespace
}  // namespace eca
