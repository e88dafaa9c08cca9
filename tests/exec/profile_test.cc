// The executor's per-node profile (ExecStats::profile, rendered by
// ExplainAnalyze): one entry per plan node in preorder, rows exact for
// every node — fused compensation steps included — and identical at any
// thread count and under a governed run that spills, with times that add
// up to the ExecStats totals.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/rng.h"
#include "exec/explain.h"
#include "exec/query_context.h"
#include "testing/random_data.h"

#include "../test_util.h"

namespace eca {
namespace {

// gamma*_{R2 keep R0,R1}     chain top over a breaker: runs its own pass
//   beta                     pipeline breaker
//     lambda[p01]{R1}        fused into loj[p12]'s probe
//       gamma{R2}            fused into loj[p12]'s probe (drops rows)
//         loj[p12]
//           loj[p01]
//             scan R0
//             scan R1
//           scan R2
PlanPtr ProfiledPlan() {
  PredRef p01 = EquiJoin(0, "a", 1, "a", "p01");
  PredRef p12 = EquiJoin(1, "b", 2, "b", "p12");
  PlanPtr join = Plan::Join(
      JoinOp::kLeftOuter, p12,
      Plan::Join(JoinOp::kLeftOuter, p01, Plan::Leaf(0), Plan::Leaf(1)),
      Plan::Leaf(2));
  PlanPtr chain = Plan::Comp(
      CompOp::Lambda(p01, RelSet::Single(1)),
      Plan::Comp(CompOp::Gamma(RelSet::Single(2)), std::move(join)));
  return Plan::Comp(
      CompOp::GammaStar(RelSet::Single(2),
                        RelSet::Single(0).Union(RelSet::Single(1))),
      Plan::Comp(CompOp::Beta(), std::move(chain)));
}

Database ProfiledData() {
  Rng rng(41);
  RandomDataOptions opts;
  opts.min_rows = 60;
  opts.max_rows = 60;
  opts.domain = 8;
  opts.empty_prob = 0;
  return RandomDatabase(rng, 3, opts);
}

void Preorder(const Plan& plan, int depth,
              std::vector<std::pair<const Plan*, int>>* out) {
  out->push_back({&plan, depth});
  if (plan.kind() == Plan::Kind::kJoin) {
    Preorder(*plan.left(), depth + 1, out);
    Preorder(*plan.right(), depth + 1, out);
  } else if (plan.kind() == Plan::Kind::kComp) {
    Preorder(*plan.child(), depth + 1, out);
  }
}

std::vector<int64_t> Rows(const ExecStats& stats) {
  std::vector<int64_t> rows;
  for (const NodeProfile& p : stats.profile) rows.push_back(p.rows);
  return rows;
}

TEST(ExecProfileTest, OneExactEntryPerNodeInPreorder) {
  Database db = ProfiledData();
  PlanPtr plan = ProfiledPlan();
  Executor ex;
  Relation result = ex.Execute(*plan, db).value();
  const std::vector<NodeProfile>& profile = ex.stats().profile;

  std::vector<std::pair<const Plan*, int>> nodes;
  Preorder(*plan, 0, &nodes);
  ASSERT_EQ(profile.size(), nodes.size());
  EXPECT_EQ(profile[0].rows, result.NumRows());
  for (size_t i = 0; i < nodes.size(); ++i) {
    const Plan& node = *nodes[i].first;
    EXPECT_EQ(profile[i].depth, nodes[i].second) << i;
    if (node.kind() == Plan::Kind::kComp) {
      EXPECT_EQ(profile[i].label, node.comp().ToString()) << i;
    }
    // Every node's rows — fused steps included — are its subplan's
    // output, as the definition-level oracle computes it.
    EXPECT_EQ(profile[i].rows, EvalPlanNaive(node, db).NumRows())
        << i << ": " << profile[i].label;
  }
  EXPECT_EQ(profile[6].label, "scan R0");
  EXPECT_EQ(profile[4].label, "loj[p12]");
  // The lambda/gamma chain ran inside loj[p12]'s probe; gamma* ran its
  // own pass over the breaker below it.
  for (size_t i = 0; i < profile.size(); ++i) {
    EXPECT_EQ(profile[i].fused, i == 2 || i == 3) << profile[i].label;
  }
  // The gamma filter dropped rows between the join and the lambda.
  EXPECT_GT(profile[4].rows, profile[3].rows);

  std::string rendered = ExplainAnalyze(profile);
  EXPECT_NE(rendered.find("loj[p01]"), std::string::npos) << rendered;
  EXPECT_NE(rendered.find("rows="), std::string::npos) << rendered;
  EXPECT_NE(rendered.find("(fused)"), std::string::npos) << rendered;
}

TEST(ExecProfileTest, RowsIdenticalAcrossThreadsTuningAndSpilling) {
  Database db = ProfiledData();
  PlanPtr plan = ProfiledPlan();
  Executor seq;
  Relation expected = seq.Execute(*plan, db).value();
  const std::vector<int64_t> rows = Rows(seq.stats());

  Executor::Options opts;
  opts.num_threads = 4;
  opts.tuning.morsel_rows = 7;
  opts.tuning.chunk_rows = 3;
  Executor parallel(opts);
  parallel.Execute(*plan, db).value();
  EXPECT_EQ(Rows(parallel.stats()), rows);

  for (int threads : {1, 4}) {
    QueryContext::Limits limits;
    limits.mem_limit_bytes = int64_t{1} << 30;
    limits.mem_soft_bytes = 1;  // joins spill, best-matches sort externally
    QueryContext ctx(limits);
    Executor::Options gopts;
    gopts.num_threads = threads;
    Executor governed(gopts);
    StatusOr<Relation> got = governed.Execute(*plan, db, &ctx);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    EXPECT_GT(governed.stats().spilled_partitions, 0);
    EXPECT_EQ(Rows(governed.stats()), rows) << threads << " thread(s)";
    EXPECT_EQ(got->NumRows(), expected.NumRows());
  }
}

TEST(ExecProfileTest, NodeTimesAddUpToStatsTotals) {
  Database db = ProfiledData();
  PlanPtr plan = ProfiledPlan();
  Executor ex;
  ex.Execute(*plan, db).value();
  const ExecStats& stats = ex.stats();
  double scan_ms = 0, join_comp_ms = 0;
  for (const NodeProfile& p : stats.profile) {
    EXPECT_GE(p.ms, 0) << p.label;
    if (p.label.rfind("scan ", 0) == 0) {
      scan_ms += p.ms;
    } else {
      join_comp_ms += p.ms;
    }
  }
  EXPECT_LE(join_comp_ms, stats.join_ms + stats.comp_ms + scan_ms + 1e-9);
  // Each join/comp entry is the very measurement ExecStats accumulated.
  EXPECT_NEAR(join_comp_ms, stats.join_ms + stats.comp_ms, 1e-6);

  // A second run replaces the profile rather than appending to it.
  const size_t entries = stats.profile.size();
  ex.Execute(*plan, db).value();
  EXPECT_EQ(ex.stats().profile.size(), entries);
}

}  // namespace
}  // namespace eca
