// Machine verification of the paper's named rules in their closed forms:
// Table 3 (rules 14-25, reconstructed per Appendix A), the CBA canonical
// forms of Section 2.2 (Equations 1-2 plus the beta properties), and
// Table 4 (lambda swap rules 26-27). Each rule is executed on randomized
// databases; LHS and RHS must agree on every trial.

#include <gtest/gtest.h>

#include "exec/executor.h"
#include "rewrite/paper_rules.h"
#include "testing/random_data.h"

#include "../test_util.h"

namespace eca {
namespace {

class Table3Rules
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(Table3Rules, ClosedFormHolds) {
  auto [rule_index, seed] = GetParam();
  const PaperRule& rule = PaperTable3Rules()[static_cast<size_t>(rule_index)];
  Rng rng(static_cast<uint64_t>(seed) * 2551 +
          static_cast<uint64_t>(rule.number) * 17);
  RandomDataOptions opts;
  opts.max_rows = 7;
  Database db = RandomDatabase(rng, 3, opts);
  PredRef pa = RandomJoinPredicate(rng, RelSet::Single(rule.endpoints[0]),
                                   RelSet::Single(rule.endpoints[1]), opts,
                                   "pa");
  PredRef pb = RandomJoinPredicate(rng, RelSet::Single(rule.endpoints[2]),
                                   RelSet::Single(rule.endpoints[3]), opts,
                                   "pb");
  PlanPtr lhs = rule.lhs(pa, pb);
  PlanPtr rhs = rule.rhs(pa, pb);
  ExpectPlansEquivalent(
      *lhs, *rhs, db,
      "Rule " + std::to_string(rule.number) + " " + rule.transform);
}

INSTANTIATE_TEST_SUITE_P(
    AllRules, Table3Rules,
    ::testing::Combine(::testing::Range(0, 12), ::testing::Range(0, 25)));

TEST(Table3Rules, TwelveRulesRegistered) {
  EXPECT_EQ(PaperTable3Rules().size(), 12u);
  EXPECT_EQ(PaperTable3Rules().front().number, 14);
  EXPECT_EQ(PaperTable3Rules().back().number, 25);
}

// --------------------------------------------------------------------------
// CBA canonical forms (Section 2.2)
// --------------------------------------------------------------------------

TEST(CbaRules, InnerJoinCanonicalForm) {
  for (int seed = 0; seed < 25; ++seed) {
    Rng rng(static_cast<uint64_t>(seed) * 3 + 7);
    RandomDataOptions opts;
    opts.empty_prob = 0.25;  // the empty-operand edge needs the all-NULL
                             // spurious-tuple convention; exercise it
    Database db = RandomDatabase(rng, 2, opts);
    PredRef p = RandomJoinPredicate(rng, RelSet::Single(0),
                                    RelSet::Single(1), opts, "p01");
    PlanPtr join =
        Plan::Join(JoinOp::kInner, p, Plan::Leaf(0), Plan::Leaf(1));
    PlanPtr canonical = CbaInnerJoinCanonical(p, Plan::Leaf(0),
                                              Plan::Leaf(1));
    ExpectPlansEquivalent(*join, *canonical, db, "CBA Equation 1");
  }
}

TEST(CbaRules, LeftOuterJoinCanonicalForm) {
  for (int seed = 0; seed < 25; ++seed) {
    Rng rng(static_cast<uint64_t>(seed) * 11 + 7);
    RandomDataOptions opts;
    opts.empty_prob = 0.25;
    Database db = RandomDatabase(rng, 2, opts);
    PredRef p = RandomJoinPredicate(rng, RelSet::Single(0),
                                    RelSet::Single(1), opts, "p01");
    PlanPtr join =
        Plan::Join(JoinOp::kLeftOuter, p, Plan::Leaf(0), Plan::Leaf(1));
    PlanPtr canonical = CbaLeftOuterJoinCanonical(p, Plan::Leaf(0),
                                                  Plan::Leaf(1));
    ExpectPlansEquivalent(*join, *canonical, db, "CBA Equation 2");
  }
}

TEST(CbaRules, OuterCrossPreservesNonEmptyOperands) {
  Relation left = MakeRelation({{0, "a", DataType::kInt64}}, {{I(1)}});
  Relation empty{Schema({{1, "b", DataType::kInt64}})};
  Database db;
  db.Add(left);
  db.Add(empty);
  PlanPtr cross = OuterCross(Plan::Leaf(0), Plan::Leaf(1));
  Executor ex;
  Relation out = ex.Execute(*cross, db).value();
  // The plain cartesian product would be empty; the outer variant keeps
  // R0's tuple padded with NULLs.
  ASSERT_EQ(out.NumRows(), 1);
  EXPECT_EQ(out.rows()[0][0].AsInt(), 1);
  EXPECT_TRUE(out.rows()[0][1].is_null());
}

TEST(CbaRules, BetaIdempotent) {
  // CBA Equation 3: beta(beta(R)) = beta(R).
  for (int seed = 0; seed < 10; ++seed) {
    Rng rng(static_cast<uint64_t>(seed));
    RandomDataOptions opts;
    opts.null_prob = 0.5;
    Relation r = RandomRelation(rng, 0, opts);
    Relation once = EvalBeta(r);
    ExpectSameRelation(once, EvalBeta(once));
  }
}

// --------------------------------------------------------------------------
// Table 4: lambda swap rules
// --------------------------------------------------------------------------

PlanPtr LambdaChain(PredRef p1, RelSet m, PredRef p2, RelSet n) {
  PlanPtr base = Plan::Join(
      JoinOp::kLeftOuter, EquiJoin(0, "a", 1, "a", "j01"),
      Plan::Join(JoinOp::kLeftOuter, EquiJoin(0, "b", 2, "b", "j02"),
                 Plan::Leaf(0), Plan::Leaf(2)),
      Plan::Leaf(1));
  return Plan::Comp(CompOp::Lambda(std::move(p1), m),
                    Plan::Comp(CompOp::Lambda(std::move(p2), n),
                               std::move(base)));
}

TEST(LambdaSwapRules, Rule26IndependentLambdasCommute) {
  for (int seed = 0; seed < 15; ++seed) {
    Rng rng(static_cast<uint64_t>(seed) * 5 + 3);
    RandomDataOptions opts;
    Database db = RandomDatabase(rng, 3, opts);
    // p1 references {R0,R1}, nullifies M={R1}; p2 references {R0,R2},
    // nullifies N={R2}: independent.
    PredRef p1 = EquiJoin(0, "a", 1, "a", "p1");
    PredRef p2 = EquiJoin(0, "b", 2, "b", "p2");
    PlanPtr chain = LambdaChain(p1, RelSet::Single(1), p2, RelSet::Single(2));
    PlanPtr original = chain->Clone();
    PlanPtr swapped = SwapLambdaPair(std::move(chain));
    ASSERT_NE(swapped, nullptr);
    ExpectPlansEquivalent(*original, *swapped, db, "Table 4 Rule 26");
    // Shape: the p2 lambda is now outermost with unchanged attrs.
    EXPECT_EQ(swapped->comp().pred->DisplayName(), "p2");
    EXPECT_EQ(swapped->comp().attrs, RelSet::Single(2));
  }
}

TEST(LambdaSwapRules, Rule27DependentLambdaWidens) {
  for (int seed = 0; seed < 15; ++seed) {
    Rng rng(static_cast<uint64_t>(seed) * 31 + 1);
    RandomDataOptions opts;
    Database db = RandomDatabase(rng, 3, opts);
    // p1 references N = {R2} (the inner lambda's attrs): dependent case.
    PredRef p1 = EquiJoin(1, "a", 2, "a", "p1");
    PredRef p2 = EquiJoin(0, "b", 2, "b", "p2");
    PlanPtr chain = LambdaChain(p1, RelSet::Single(1), p2, RelSet::Single(2));
    PlanPtr original = chain->Clone();
    PlanPtr swapped = SwapLambdaPair(std::move(chain));
    ASSERT_NE(swapped, nullptr);
    ExpectPlansEquivalent(*original, *swapped, db, "Table 4 Rule 27");
    // Shape: outermost lambda is p2 over N+M = {R1,R2}.
    EXPECT_EQ(swapped->comp().pred->DisplayName(), "p2");
    EXPECT_EQ(swapped->comp().attrs,
              RelSet::Single(1).Union(RelSet::Single(2)));
  }
}

TEST(LambdaSwapRules, RejectsMutualDependence) {
  // p2 references M: neither rule applies.
  PredRef p1 = EquiJoin(1, "a", 2, "a", "p1");
  PredRef p2 = EquiJoin(1, "b", 2, "b", "p2");
  PlanPtr chain = LambdaChain(p1, RelSet::Single(1), p2, RelSet::Single(2));
  EXPECT_EQ(SwapLambdaPair(std::move(chain)), nullptr);
}

}  // namespace
}  // namespace eca
