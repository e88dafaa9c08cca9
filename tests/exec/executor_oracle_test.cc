// The executor must agree with the definition-level oracle (EvalPlanNaive:
// nested-loop joins, the O(n^2) best-match, row-at-a-time compensation
// operators) on every plan — random queries as written, compensated plans
// coming out of the rewrite layer, fused compensation pipelines and
// semi/anti joins.

#include <gtest/gtest.h>

#include "enumerate/enumerator.h"
#include "testing/random_data.h"
#include "testing/random_query.h"

#include "../test_util.h"

namespace eca {
namespace {

class ExecutorOracleEquivalence : public ::testing::TestWithParam<int> {};

TEST_P(ExecutorOracleEquivalence, MatchesNaiveOracleOnQueries) {
  int seed = GetParam();
  Rng rng(static_cast<uint64_t>(seed) * 733 + 1);
  RandomDataOptions dopts;
  RandomQueryOptions qopts;
  qopts.num_rels = 3 + seed % 3;
  qopts.allow_full_outer = seed % 4 == 0;
  Database db = RandomDatabase(rng, qopts.num_rels, dopts);
  PlanPtr query = RandomQuery(rng, qopts, dopts);

  Executor ex;
  ExpectSameRelation(EvalPlanNaive(*query, db), ex.Execute(*query, db).value(),
                     "executor vs naive oracle:\n" + query->ToString());
}

TEST_P(ExecutorOracleEquivalence, MatchesNaiveOracleOnCompensatedPlans) {
  int seed = GetParam();
  Rng rng(static_cast<uint64_t>(seed) * 11 + 3);
  RandomDataOptions dopts;
  RandomQueryOptions qopts;
  qopts.num_rels = 4;
  Database db = RandomDatabase(rng, qopts.num_rels, dopts);
  PlanPtr query = RandomQuery(rng, qopts, dopts);
  CostModel cost = CostModel::FromDatabase(db);
  EnumeratorOptions opts;
  TopDownEnumerator e(&cost, opts);
  auto result = e.Optimize(*query);
  ASSERT_NE(result.plan, nullptr);

  Executor ex;
  ExpectSameRelation(EvalPlanNaive(*result.plan, db),
                     ex.Execute(*result.plan, db).value(),
                     "executor vs naive oracle on a compensated plan:\n" +
                         result.plan->ToString());
}

INSTANTIATE_TEST_SUITE_P(Seeds, ExecutorOracleEquivalence,
                         ::testing::Range(0, 20));

TEST(ExecutorOracleTest, FusedPipelineMatchesNaiveOracle) {
  Rng rng(17);
  RandomDataOptions dopts;
  Database db = RandomDatabase(rng, 2, dopts);
  PredRef p = EquiJoin(0, "a", 1, "a", "p01");
  // lambda over gamma over loj: one chain fused into the join probe.
  PlanPtr plan = Plan::Comp(
      CompOp::Lambda(p, RelSet::Single(1)),
      Plan::Comp(CompOp::Gamma(RelSet::Single(1)),
                 Plan::Join(JoinOp::kLeftOuter, p, Plan::Leaf(0),
                            Plan::Leaf(1))));
  Executor ex;
  ExpectSameRelation(EvalPlanNaive(*plan, db), ex.Execute(*plan, db).value());
}

TEST(ExecutorOracleTest, SemiAndAntiMatchNaiveOracle) {
  Rng rng(23);
  RandomDataOptions dopts;
  Database db = RandomDatabase(rng, 2, dopts);
  for (JoinOp op : {JoinOp::kLeftSemi, JoinOp::kLeftAnti}) {
    PlanPtr plan = Plan::Join(op, EquiJoin(0, "a", 1, "a"), Plan::Leaf(0),
                              Plan::Leaf(1));
    Executor ex;
    ExpectSameRelation(EvalPlanNaive(*plan, db),
                       ex.Execute(*plan, db).value(), JoinOpName(op));
  }
}

}  // namespace
}  // namespace eca
