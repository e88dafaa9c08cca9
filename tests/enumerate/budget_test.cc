// Enumeration budgets and graceful degradation: a budget-capped or
// fault-injected Optimize must still return a plan that executes to the
// same relation as the unoptimized query, and must say it degraded.

#include <gtest/gtest.h>

#include "eca/optimizer.h"
#include "enumerate/enumerator.h"
#include "exec/query_context.h"
#include "testing/fault_injection.h"
#include "testing/random_data.h"
#include "testing/random_query.h"

#include "../test_util.h"

namespace eca {
namespace {

struct Fixture {
  Database db;
  PlanPtr query;
};

Fixture MakeFixture(int seed, int rels = 4) {
  Rng rng(static_cast<uint64_t>(seed) * 131 + 7);
  RandomDataOptions dopts;
  RandomQueryOptions qopts;
  qopts.num_rels = rels;
  Fixture f;
  f.db = RandomDatabase(rng, rels, dopts);
  f.query = RandomQuery(rng, qopts, dopts);
  return f;
}

// The acceptance bar: max_enumerated_nodes=1 leaves no room to enumerate
// anything, so no complete plan exists and the optimizer reroutes through
// the sizes-only order (docs/planner-policies.md, "Degradation") — the
// same trigger the service's admission degrade path reports, with the
// cause recorded in the provenance note.
TEST(BudgetTest, OneNodeBudgetDegradesToSizesOnlyOrder) {
  for (int seed = 0; seed < 6; ++seed) {
    Fixture f = MakeFixture(seed);
    Optimizer::Options opts;
    opts.budget.max_enumerated_nodes = 1;
    Optimizer opt(opts);
    auto best = opt.Optimize(*f.query, f.db);
    ASSERT_NE(best.plan, nullptr);
    EXPECT_TRUE(best.stats.degraded);
    EXPECT_EQ(best.stats.trigger, BudgetTrigger::kSizesOnlyFallback);
    EXPECT_NE(best.provenance.policy_note.find("no complete plan"),
              std::string::npos)
        << best.provenance.policy_note;
    Relation direct = opt.Execute(*f.query, f.db);
    Relation capped = opt.Execute(*best.plan, f.db);
    ExpectSameRelation(direct, capped, "1-node budget fallback");
  }
}

// Intermediate budgets return the best-so-far complete plan; every budget
// level must stay result-identical to the query.
TEST(BudgetTest, EveryNodeBudgetLevelStaysCorrect) {
  Fixture f = MakeFixture(3);
  Optimizer unlimited;
  Relation direct = unlimited.Execute(*f.query, f.db);
  int64_t full_calls = unlimited.Optimize(*f.query, f.db).stats.subplan_calls;
  ASSERT_GT(full_calls, 1);
  for (int64_t cap : {int64_t{1}, int64_t{2}, full_calls / 2, full_calls}) {
    Optimizer::Options opts;
    opts.budget.max_enumerated_nodes = cap;
    Optimizer opt(opts);
    auto best = opt.Optimize(*f.query, f.db);
    ASSERT_NE(best.plan, nullptr) << "cap " << cap;
    EXPECT_LE(best.stats.subplan_calls, cap);
    Relation capped = opt.Execute(*best.plan, f.db);
    ExpectSameRelation(direct, capped,
                       "budget cap " + std::to_string(cap));
  }
}

TEST(BudgetTest, UnlimitedBudgetNotDegraded) {
  Fixture f = MakeFixture(1, 4);
  Optimizer opt;
  auto best = opt.Optimize(*f.query, f.db);
  EXPECT_FALSE(best.stats.degraded);
  EXPECT_EQ(best.stats.trigger, BudgetTrigger::kNone);
}

TEST(BudgetTest, MemoCapBoundsCacheAndKeepsSearchingCorrectly) {
  Fixture f = MakeFixture(2);
  Optimizer::Options opts;
  opts.budget.max_memo_entries = 2;
  Optimizer opt(opts);
  auto best = opt.Optimize(*f.query, f.db);
  ASSERT_NE(best.plan, nullptr);
  EXPECT_LE(best.stats.cache_entries, 2);
  Relation direct = opt.Execute(*f.query, f.db);
  Relation capped = opt.Execute(*best.plan, f.db);
  ExpectSameRelation(direct, capped, "memo-capped optimization");
}

TEST(BudgetTest, WallClockDeadlineDegrades) {
  Fixture small = MakeFixture(4);
  Optimizer::Options opts;
  opts.budget.wall_clock_ms = -1;  // <= 0 means unlimited...
  Optimizer opt(opts);
  EXPECT_FALSE(opt.Optimize(*small.query, small.db).stats.degraded);

  // ...so use the smallest positive deadline and a query big enough that
  // enumeration cannot finish within it (6 relations). If the machine is
  // superhumanly fast the test still passes (the plan stays correct), it
  // just won't degrade.
  Fixture f = MakeFixture(4, 6);
  opts.budget.wall_clock_ms = 1;
  Optimizer timed(opts);
  auto best = timed.Optimize(*f.query, f.db);
  ASSERT_NE(best.plan, nullptr);
  Relation direct = timed.Execute(*f.query, f.db);
  Relation capped = timed.Execute(*best.plan, f.db);
  ExpectSameRelation(direct, capped, "deadline-capped optimization");
  if (best.stats.degraded) {
    // kWallClock when a complete plan survived the deadline,
    // kSizesOnlyFallback when none did and the reroute produced the order.
    EXPECT_TRUE(best.stats.trigger == BudgetTrigger::kWallClock ||
                best.stats.trigger == BudgetTrigger::kSizesOnlyFallback)
        << BudgetTriggerName(best.stats.trigger);
  }
}

// Deterministic wall-clock degradation via the fault clock: every NowMs
// observation advances fake time 1ms, so the deadline trips after a fixed
// number of budget checks — no sleeping, no flakiness. Different deadlines
// trip at different depths of the search (inside the root's first
// decomposition, or after some root decompositions completed), and every
// one must degrade to a valid plan: kWallClock when a complete
// best-so-far plan survived the deadline, kSizesOnlyFallback when none
// did and the sizes-only reroute produced the order instead.
TEST(BudgetTest, FaultClockDeadlineDegradesAtEveryDepth) {
  Fixture f = MakeFixture(5, 6);
  Relation direct = Optimizer().Execute(*f.query, f.db);
  for (int64_t deadline_ms : {2, 10, 40, 120}) {
    Optimizer::Options opts;
    opts.budget.wall_clock_ms = deadline_ms;
    Optimizer opt(opts);
    Optimizer::Optimized best;
    {
      ScopedFaultClock clock(/*now_ms=*/1000, /*step_ms=*/1);
      best = opt.Optimize(*f.query, f.db);
    }
    ASSERT_NE(best.plan, nullptr) << "deadline " << deadline_ms;
    EXPECT_TRUE(best.stats.degraded) << "deadline " << deadline_ms;
    EXPECT_TRUE(best.stats.trigger == BudgetTrigger::kWallClock ||
                best.stats.trigger == BudgetTrigger::kSizesOnlyFallback)
        << "deadline " << deadline_ms << " trigger "
        << BudgetTriggerName(best.stats.trigger);
    Relation timed = opt.Execute(*best.plan, f.db);
    ExpectSameRelation(direct, timed,
                       "fault-clock deadline " +
                           std::to_string(deadline_ms) + "ms");
  }
}

// OptimizeGoverned clamps the enumeration budget to the context's
// remaining deadline: one --timeout-ms covers optimization too. The fake
// clock eats the whole deadline before any complete plan exists, so the
// no-complete-plan reroute stamps the sizes-only trigger.
TEST(BudgetTest, GovernedOptimizeSharesDeadlineWithEnumerator) {
  Fixture f = MakeFixture(6, 6);
  ScopedFaultClock clock(/*now_ms=*/1000, /*step_ms=*/1);
  QueryContext::Limits limits;
  limits.timeout_ms = 30;
  QueryContext ctx(limits);
  ctx.Arm();
  Optimizer opt;
  auto best = opt.OptimizeGoverned(*f.query, f.db, &ctx);
  ASSERT_NE(best.plan, nullptr);
  EXPECT_TRUE(best.stats.degraded);
  EXPECT_EQ(best.stats.trigger, BudgetTrigger::kSizesOnlyFallback);
}

// A context already past its deadline still yields a plan (the sizes-only
// order, degraded) — the caller decides whether to bother executing it.
TEST(BudgetTest, ExpiredContextDegradesImmediately) {
  Fixture f = MakeFixture(7, 4);
  ScopedFaultClock clock(/*now_ms=*/1000, /*step_ms=*/1);
  QueryContext::Limits limits;
  limits.timeout_ms = 1;
  QueryContext ctx(limits);
  ctx.Arm();
  for (int i = 0; i < 10 && !ctx.ShouldStop(); ++i) {
  }
  EXPECT_TRUE(ctx.ShouldStop());
  auto best = Optimizer().OptimizeGoverned(*f.query, f.db, &ctx);
  ASSERT_NE(best.plan, nullptr);
  EXPECT_TRUE(best.stats.degraded);
  EXPECT_EQ(best.stats.trigger, BudgetTrigger::kSizesOnlyFallback);
}

// Each fault-injection point, armed: valid plan, degraded=true, result
// identical to the unoptimized query (the acceptance criterion).
TEST(FaultInjectedOptimizeTest, EachPointDegradesGracefully) {
  for (FaultPoint point : {FaultPoint::kEnumeratorBudget,
                           FaultPoint::kRewriteRule,
                           FaultPoint::kAllocation}) {
    for (int seed = 0; seed < 4; ++seed) {
      Fixture f = MakeFixture(seed);
      FaultInjector::Reset();
      ScopedFault fault(point);
      Optimizer opt;
      auto best = opt.Optimize(*f.query, f.db);
      FaultInjector::Disarm(point);
      ASSERT_NE(best.plan, nullptr)
          << FaultPointName(point) << " seed " << seed;
      EXPECT_TRUE(best.stats.degraded)
          << FaultPointName(point) << " seed " << seed;
      Relation direct = opt.Execute(*f.query, f.db);
      Relation faulted = opt.Execute(*best.plan, f.db);
      ExpectSameRelation(direct, faulted,
                         std::string("fault point ") + FaultPointName(point));
    }
  }
  FaultInjector::Reset();
}

// A fault armed for a later hit (skip > 0) degrades mid-search: the
// best-so-far plan must be complete and correct.
TEST(FaultInjectedOptimizeTest, MidSearchFaultKeepsBestSoFar) {
  for (int seed = 0; seed < 4; ++seed) {
    Fixture f = MakeFixture(seed);
    FaultInjector::Reset();
    ScopedFault fault(FaultPoint::kEnumeratorBudget, /*skip=*/50);
    Optimizer opt;
    auto best = opt.Optimize(*f.query, f.db);
    ASSERT_NE(best.plan, nullptr);
    Relation direct = opt.Execute(*f.query, f.db);
    Relation faulted = opt.Execute(*best.plan, f.db);
    ExpectSameRelation(direct, faulted, "mid-search fault");
  }
  FaultInjector::Reset();
}

}  // namespace
}  // namespace eca
