// The planner policy layer (eca/policy.h, docs/planner-policies.md):
// flag parsing, the policy/degradation distinction (a deliberate policy
// choice is never flagged degraded), the greedy max_join_size gate, and
// result identity of every policy against the DP enumerator.

#include <gtest/gtest.h>

#include <string>

#include "eca/optimizer.h"
#include "eca/policy.h"
#include "sqlgen/workload.h"

#include "../test_util.h"

namespace eca {
namespace {

TEST(PlanPolicyTest, ParseAcceptsCanonicalAndAliasSpellings) {
  EXPECT_EQ(*ParsePlanPolicy("dp"), PlanPolicy::kDp);
  EXPECT_EQ(*ParsePlanPolicy("DP"), PlanPolicy::kDp);
  EXPECT_EQ(*ParsePlanPolicy("sizes-only"), PlanPolicy::kSizesOnly);
  EXPECT_EQ(*ParsePlanPolicy("sizes_only"), PlanPolicy::kSizesOnly);
  EXPECT_EQ(*ParsePlanPolicy("Greedy"), PlanPolicy::kGreedy);
  EXPECT_EQ(*ParsePlanPolicy("semijoin"), PlanPolicy::kSemijoin);
}

TEST(PlanPolicyTest, ParseRejectsUnknownNamesWithTheValidList) {
  StatusOr<PlanPolicy> bad = ParsePlanPolicy("cascades");
  ASSERT_FALSE(bad.ok());
  EXPECT_NE(bad.status().message().find("sizes-only"), std::string::npos)
      << bad.status().message();
}

TEST(PlanPolicyTest, NamesRoundTripThroughParse) {
  for (PlanPolicy p : {PlanPolicy::kDp, PlanPolicy::kSizesOnly,
                       PlanPolicy::kGreedy, PlanPolicy::kSemijoin}) {
    EXPECT_EQ(*ParsePlanPolicy(PlanPolicyName(p)), p);
  }
}

Workload MakeWorkload(Topology topo, int rels, uint64_t seed) {
  WorkloadOptions wopts;
  wopts.topology = topo;
  wopts.num_rels = rels;
  wopts.seed = seed;
  return GenerateWorkload(wopts);
}

// Every policy must produce a plan whose result is the unoptimized
// query's multiset — the same oracle ecafuzz --policy runs at scale.
TEST(PolicyOptimizeTest, EveryPolicyMatchesTheUnoptimizedQuery) {
  for (Topology topo :
       {Topology::kChain, Topology::kStar, Topology::kClique}) {
    Workload w = MakeWorkload(topo, 5, 21);
    Relation direct = Optimizer().Execute(*w.query, w.db);
    for (PlanPolicy policy : {PlanPolicy::kDp, PlanPolicy::kSizesOnly,
                              PlanPolicy::kGreedy, PlanPolicy::kSemijoin}) {
      Optimizer::Options opts;
      opts.plan_policy = policy;
      Optimizer opt(opts);
      auto best = opt.Optimize(*w.query, w.db);
      ASSERT_NE(best.plan, nullptr);
      Relation got = opt.Execute(*best.plan, w.db);
      ExpectSameRelation(direct, got,
                         std::string(TopologyName(topo)) + " under " +
                             PlanPolicyName(policy));
    }
  }
}

// A deliberately chosen cheap policy is NOT a degradation: the degraded
// flag stays reserved for budget/deadline/admission fallbacks, so the
// service's alerting doesn't fire on every sizes-only request.
TEST(PolicyOptimizeTest, DeliberatePoliciesAreNotFlaggedDegraded) {
  Workload w = MakeWorkload(Topology::kChain, 6, 3);
  for (PlanPolicy policy : {PlanPolicy::kSizesOnly, PlanPolicy::kGreedy,
                            PlanPolicy::kSemijoin}) {
    Optimizer::Options opts;
    opts.plan_policy = policy;
    Optimizer opt(opts);
    auto best = opt.Optimize(*w.query, w.db);
    EXPECT_FALSE(best.stats.degraded) << PlanPolicyName(policy);
    EXPECT_EQ(best.stats.trigger, BudgetTrigger::kNone)
        << PlanPolicyName(policy);
    EXPECT_EQ(best.provenance.policy, PlanPolicyName(policy));
  }
}

// In contrast, a governed query whose remaining deadline is below
// sizes_only_fallback_ms takes the degraded path (deadline/admission
// fallback): same ordering, but flagged, with the fallback trigger.
TEST(PolicyOptimizeTest, DeadlineSqueezedSizesOnlyIsTheDegradedPath) {
  Workload w = MakeWorkload(Topology::kChain, 5, 4);
  Optimizer::Options opts;
  opts.sizes_only_fallback_ms = 60000;
  Optimizer opt(opts);
  QueryContext::Limits limits;
  limits.timeout_ms = 30000;  // below the fallback threshold
  QueryContext ctx(limits);
  ctx.Arm();
  auto best = opt.OptimizeGoverned(*w.query, w.db, &ctx);
  EXPECT_TRUE(best.stats.degraded);
  EXPECT_EQ(best.stats.trigger, BudgetTrigger::kSizesOnlyFallback);
  EXPECT_EQ(best.provenance.policy, "sizes-only");
  EXPECT_NE(best.provenance.policy_note.find("degraded to sizes-only"),
            std::string::npos)
      << best.provenance.policy_note;
  Relation direct = opt.Execute(*w.query, w.db);
  Relation got = opt.Execute(*best.plan, w.db);
  ExpectSameRelation(direct, got, "degraded sizes-only");

  // The same query with room to spare plans with DP, undegraded.
  QueryContext::Limits roomy;
  roomy.timeout_ms = 600000;
  QueryContext roomy_ctx(roomy);
  roomy_ctx.Arm();
  EXPECT_FALSE(opt.OptimizeGoverned(*w.query, w.db, &roomy_ctx).stats.degraded);
}

// The greedy gate: at or below max_join_size the policy defers to DP (and
// says so in the provenance note); above it the greedy order is used.
TEST(PolicyOptimizeTest, GreedyGateFiresOnlyAboveMaxJoinSize) {
  Workload w = MakeWorkload(Topology::kStar, 6, 7);
  Optimizer::Options opts;
  opts.plan_policy = PlanPolicy::kGreedy;

  opts.max_join_size = 10;  // 6 relations: within the gate, DP runs
  auto deferred = Optimizer(opts).Optimize(*w.query, w.db);
  EXPECT_NE(deferred.provenance.policy_note.find("dp ran"),
            std::string::npos)
      << deferred.provenance.policy_note;

  opts.max_join_size = 4;  // 6 relations: above the gate, greedy runs
  auto greedy = Optimizer(opts).Optimize(*w.query, w.db);
  EXPECT_TRUE(greedy.provenance.policy_note.empty())
      << greedy.provenance.policy_note;
  EXPECT_FALSE(greedy.stats.degraded);

  Relation direct = Optimizer().Execute(*w.query, w.db);
  ExpectSameRelation(direct, Optimizer(opts).Execute(*greedy.plan, w.db),
                     "greedy order");
}

// Sizes-only and greedy must cost no enumeration at all: the plans come
// from orderings, not from a DP search.
TEST(PolicyOptimizeTest, CheapPoliciesSkipEnumeration) {
  Workload w = MakeWorkload(Topology::kStar, 8, 2);
  for (PlanPolicy policy : {PlanPolicy::kSizesOnly, PlanPolicy::kGreedy}) {
    Optimizer::Options opts;
    opts.plan_policy = policy;
    opts.max_join_size = 4;
    auto best = Optimizer(opts).Optimize(*w.query, w.db);
    EXPECT_EQ(best.stats.subplan_calls, 0) << PlanPolicyName(policy);
  }
}

// The explain/provenance surface carries the policy line.
TEST(PolicyOptimizeTest, ProvenanceRendersThePolicy) {
  Workload w = MakeWorkload(Topology::kChain, 4, 1);
  Optimizer::Options opts;
  opts.plan_policy = PlanPolicy::kSemijoin;
  Optimizer opt(opts);
  auto best = opt.Optimize(*w.query, w.db);
  std::string text = best.provenance.ToString();
  EXPECT_NE(text.find("policy: semijoin"), std::string::npos) << text;
  EXPECT_NE(text.find("yannakakis"), std::string::npos) << text;
}

}  // namespace
}  // namespace eca
