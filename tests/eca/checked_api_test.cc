// The validating front door for user-supplied plans: ValidatePlanStatus
// turns malformed input into Status errors before the optimizer or the
// executor (which CHECK-fail on it) ever see it.

#include <gtest/gtest.h>

#include "algebra/plan_parser.h"
#include "algebra/validate.h"
#include "eca/optimizer.h"
#include "testing/random_data.h"

#include "../test_util.h"

namespace eca {
namespace {

Database SmallDb(int rels) {
  Rng rng(99);
  RandomDataOptions opts;
  opts.min_rows = 2;
  opts.max_rows = 4;
  opts.empty_prob = 0;
  return RandomDatabase(rng, rels, opts);
}

TEST(CheckedApiTest, ValidQueryOptimizesAndExecutes) {
  Database db = SmallDb(3);
  PlanPtr q = Plan::Join(
      JoinOp::kLeftOuter, EquiJoin(0, "a", 1, "a", "p01"),
      Plan::Join(JoinOp::kInner, EquiJoin(1, "b", 2, "b", "p12"),
                 Plan::Leaf(1), Plan::Leaf(2)),
      Plan::Leaf(0));
  ASSERT_TRUE(ValidatePlanStatus(*q, db.BaseSchemas()).ok());
  Optimizer opt;
  auto best = opt.Optimize(*q, db);
  // Optimizer output validates too (Yannakakis reducers may repeat a
  // relation inside a pruning side).
  ValidateOptions vopts;
  vopts.allow_hidden_duplicates = true;
  Status valid = ValidatePlanStatus(*best.plan, db.BaseSchemas(), vopts);
  ASSERT_TRUE(valid.ok()) << valid.ToString();
  ExpectSameRelation(opt.Execute(*q, db), opt.Execute(*best.plan, db),
                     "validated round trip");
}

TEST(CheckedApiTest, LeafOutsideDatabaseIsInvalidArgument) {
  Database db = SmallDb(2);
  // R7 does not exist in a 2-table database.
  PlanPtr q = Plan::Join(JoinOp::kInner, EquiJoin(0, "a", 7, "a", "p07"),
                         Plan::Leaf(0), Plan::Leaf(7));
  Status valid = ValidatePlanStatus(*q, db.BaseSchemas());
  ASSERT_FALSE(valid.ok());
  EXPECT_EQ(valid.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(valid.message().find("rel_id 7"), std::string::npos)
      << valid.ToString();
}

TEST(CheckedApiTest, DuplicateLeafIsInvalidArgument) {
  Database db = SmallDb(2);
  PlanPtr q = Plan::Join(JoinOp::kInner, EquiJoin(0, "a", 0, "b", "p00"),
                         Plan::Leaf(0), Plan::Leaf(0));
  Status valid = ValidatePlanStatus(*q, db.BaseSchemas());
  ASSERT_FALSE(valid.ok());
  EXPECT_NE(valid.message().find("more than one leaf"), std::string::npos)
      << valid.ToString();
}

TEST(CheckedApiTest, UnknownColumnIsReportedWithCandidates) {
  Database db = SmallDb(2);
  // Column "zz" exists in no relation; execution would abort on the
  // unresolved column, so validation must catch it first — with the
  // relaxed options an optimized plan is checked under, too.
  PlanPtr q = Plan::Join(JoinOp::kInner, EquiJoin(0, "zz", 1, "a", "p01"),
                         Plan::Leaf(0), Plan::Leaf(1));
  Status valid = ValidatePlanStatus(*q, db.BaseSchemas());
  ASSERT_FALSE(valid.ok());
  EXPECT_NE(valid.message().find("R0.zz"), std::string::npos)
      << valid.ToString();
  ValidateOptions vopts;
  vopts.allow_hidden_duplicates = true;
  EXPECT_FALSE(ValidatePlanStatus(*q, db.BaseSchemas(), vopts).ok());
}

TEST(CheckedApiTest, HiddenPredicateReferenceIsInvalidArgument) {
  Database db = SmallDb(3);
  // p02 references R2, which is not visible under this join.
  PlanPtr q = Plan::Join(JoinOp::kInner, EquiJoin(0, "a", 2, "a", "p02"),
                         Plan::Leaf(0), Plan::Leaf(1));
  EXPECT_FALSE(ValidatePlanStatus(*q, db.BaseSchemas()).ok());
}

TEST(CheckedApiTest, ParseApproachNamesAndErrors) {
  EXPECT_EQ(*Optimizer::ParseApproach("eca"), Optimizer::Approach::kECA);
  EXPECT_EQ(*Optimizer::ParseApproach("TBA"), Optimizer::Approach::kTBA);
  EXPECT_EQ(*Optimizer::ParseApproach("Cba"), Optimizer::Approach::kCBA);
  auto bad = Optimizer::ParseApproach("postgres");
  ASSERT_FALSE(bad.ok());
  EXPECT_NE(bad.status().message().find("postgres"), std::string::npos);
  EXPECT_STREQ(Optimizer::ApproachName(Optimizer::Approach::kECA), "ECA");
}

// A parsed-then-validated pipeline, as tools use it: garbage text fails at
// the parser, semantically-broken plans fail at validation, and neither
// path aborts the process.
TEST(CheckedApiTest, ParserAndValidatorComposeWithoutAborting) {
  Database db = SmallDb(2);
  std::map<std::string, PredRef> preds;
  preds["p01"] = EquiJoin(0, "a", 1, "a", "p01");
  std::string error;
  EXPECT_EQ(ParsePlan("(R0 join[p01", preds, &error), nullptr);
  EXPECT_FALSE(error.empty());

  PlanPtr dup = ParsePlan("(R0 join[p01] R0)", preds, &error);
  if (dup != nullptr) {
    EXPECT_FALSE(ValidatePlanStatus(*dup, db.BaseSchemas()).ok());
  }
}

}  // namespace
}  // namespace eca
