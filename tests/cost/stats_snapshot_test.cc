// Tests for the per-Database statistics snapshot (Database::Stats,
// CostModel::FromDatabase): built once on first planning use, shared by
// later plans and by copies, dropped by Add(), built exactly once under
// concurrent first use, and choosing the same plans as statistics
// computed afresh. The concurrent case runs under the TSan CI lane.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/metrics.h"
#include "common/rng.h"
#include "common/str_util.h"
#include "cost/cost_model.h"
#include "eca/optimizer.h"
#include "enumerate/enumerator.h"
#include "rewrite/comp_simplify.h"
#include "testing/random_query.h"
#include "tpch/paper_queries.h"

namespace eca {
namespace {

constexpr double kNuSweep[] = {0, 5, 50, 200, 1000, 5000};

int64_t StatsBuildsSince(const MetricsSnapshot& before) {
  MetricsSnapshot diff =
      MetricsRegistry::Global().Snapshot().DiffSince(before);
  return diff.counters["cost.stats_builds"];
}

MetricsSnapshot Now() { return MetricsRegistry::Global().Snapshot(); }

TpchData Data() { return GenerateTpch(TpchScale::OfSF(0.002), 7); }

// Q1..Q3 share relation ids (supplier, partsupp, part, lineitem, orders),
// so every paper query plans over Q3's database.
std::vector<PlanPtr> PaperPlans(const TpchData& data) {
  std::vector<PlanPtr> plans;
  for (int q = 1; q <= 3; ++q) {
    for (double nu : kNuSweep) {
      plans.push_back(q == 1   ? BuildQ1(data, nu).plan
                      : q == 2 ? BuildQ2(data, nu).plan
                               : BuildQ3(data, nu).plan);
    }
  }
  return plans;
}

// The statistics the cost model computed per query before the snapshot
// existed: an exact hashed distinct count per column, a histogram per
// numeric column and a 64-row systematic sample per table.
std::shared_ptr<const BaseStats> FreshStats(const Database& db) {
  auto out = std::make_shared<BaseStats>();
  for (int i = 0; i < db.NumTables(); ++i) {
    const Relation& rel = db.table(i);
    TableStats stats;
    stats.rows = rel.NumRows();
    for (int c = 0; c < rel.schema().NumColumns(); ++c) {
      std::unordered_map<uint64_t, int> seen;
      for (const Tuple& t : rel.rows()) {
        const Value& v = t[static_cast<size_t>(c)];
        if (!v.is_null()) seen[v.Hash()] = 1;
      }
      const std::string& name = rel.schema().column(c).name;
      stats.distinct[name] =
          std::max<int64_t>(1, static_cast<int64_t>(seen.size()));
      if (rel.schema().column(c).type != DataType::kString) {
        stats.histograms[name] = EquiDepthHistogram::Build(rel, c);
      }
    }
    out->tables.push_back(std::move(stats));
    Relation sample(rel.schema());
    const int64_t n = rel.NumRows();
    const int64_t step = std::max<int64_t>(1, n / 64);
    for (int64_t r = 0; r < n && sample.NumRows() < 64; r += step) {
      sample.Add(rel.rows()[static_cast<size_t>(r)]);
    }
    out->samples.push_back(std::move(sample));
  }
  return out;
}

struct Choice {
  std::string plan;
  uint64_t cost_bits = 0;
};

// OptimizeGoverned's dp path (enumerate, clean up, cost) over `model`.
Choice ChooseWith(const CostModel& model, const Plan& query) {
  TopDownEnumerator enumerator(&model, EnumeratorOptions{});
  TopDownEnumerator::Result r = enumerator.Optimize(query);
  SimplifyCompensations(&r.plan);
  return {r.plan->ToString(), std::bit_cast<uint64_t>(model.Cost(*r.plan))};
}

Choice ChooseServed(const Plan& query, const Database& db) {
  Optimizer::Optimized best = Optimizer().OptimizeGoverned(query, db, nullptr);
  return {best.plan->ToString(), std::bit_cast<uint64_t>(best.estimated_cost)};
}

void ExpectSameChoice(const Plan& query, const Database& db,
                      const std::string& context) {
  const Choice fresh = ChooseWith(CostModel(FreshStats(db)), query);
  // Twice: the first call may build the snapshot, the second reuses it.
  for (int round = 0; round < 2; ++round) {
    const Choice served = ChooseServed(query, db);
    EXPECT_EQ(served.plan, fresh.plan) << context;
    EXPECT_EQ(served.cost_bits, fresh.cost_bits) << context;
  }
}

TEST(StatsSnapshotTest, EighteenPlansOverOneDatabaseBuildOnce) {
  const TpchData data = Data();
  const PaperQuery q3 = BuildQ3(data, 0);
  const MetricsSnapshot before = Now();
  for (const PlanPtr& plan : PaperPlans(data)) {
    Optimizer::Optimized best =
        Optimizer().OptimizeGoverned(*plan, q3.db, nullptr);
    ASSERT_NE(best.plan, nullptr);
  }
  EXPECT_EQ(StatsBuildsSince(before), 1);
}

TEST(StatsSnapshotTest, FromDatabaseReportsWhoBuilt) {
  const PaperQuery q1 = BuildQ1(Data(), 0);
  EXPECT_TRUE(CostModel::FromDatabase(q1.db).built_stats());
  EXPECT_FALSE(CostModel::FromDatabase(q1.db).built_stats());
}

TEST(StatsSnapshotTest, CopiesShareTheSnapshot) {
  const PaperQuery q2 = BuildQ2(Data(), 50);
  CostModel::FromDatabase(q2.db);
  const Database copy = q2.db;
  auto must_not_build = [] {
    ADD_FAILURE() << "snapshot rebuilt";
    return std::shared_ptr<const BaseStats>();
  };
  EXPECT_EQ(copy.Stats(must_not_build), q2.db.Stats(must_not_build));
  const MetricsSnapshot before = Now();
  Optimizer().OptimizeGoverned(*q2.plan, copy, nullptr);
  EXPECT_EQ(StatsBuildsSince(before), 0);
}

TEST(StatsSnapshotTest, AddForcesOneRebuild) {
  PaperQuery q1 = BuildQ1(Data(), 200);
  const Optimizer opt;
  opt.OptimizeGoverned(*q1.plan, q1.db, nullptr);
  const int64_t supplier_rows = q1.db.table(0).NumRows();

  // A fourth table: the next plan rebuilds, the one after reuses.
  Rng rng(3);
  q1.db.Add(RandomRelation(rng, q1.db.NumTables(), RandomDataOptions()));
  const MetricsSnapshot before = Now();
  EXPECT_TRUE(CostModel::FromDatabase(q1.db).built_stats());
  opt.OptimizeGoverned(*q1.plan, q1.db, nullptr);
  EXPECT_EQ(StatsBuildsSince(before), 1);

  std::shared_ptr<const BaseStats> stats =
      q1.db.Stats([] { return std::shared_ptr<const BaseStats>(); });
  ASSERT_NE(stats, nullptr);
  ASSERT_EQ(stats->tables.size(), 4u);
  EXPECT_EQ(stats->tables[0].rows, supplier_rows);
}

TEST(StatsSnapshotTest, MovedFromDatabasePlansWithoutCrashing) {
  PaperQuery q1 = BuildQ1(Data(), 5);
  const Optimizer opt;
  opt.OptimizeGoverned(*q1.plan, q1.db, nullptr);

  const MetricsSnapshot before = Now();
  Database moved = std::move(q1.db);
  // The snapshot moved with the tables...
  opt.OptimizeGoverned(*q1.plan, moved, nullptr);
  EXPECT_EQ(StatsBuildsSince(before), 0);
  // ...and the source is empty but usable: it plans over default
  // estimates, and an Add() gives it a cached snapshot again.
  EXPECT_EQ(q1.db.NumTables(), 0);  // NOLINT(bugprone-use-after-move)
  Optimizer::Optimized best = opt.OptimizeGoverned(*q1.plan, q1.db, nullptr);
  EXPECT_NE(best.plan, nullptr);
  q1.db.Add(moved.table(0));
  EXPECT_TRUE(CostModel::FromDatabase(q1.db).built_stats());
  EXPECT_FALSE(CostModel::FromDatabase(q1.db).built_stats());
}

TEST(StatsSnapshotTest, ConcurrentFirstUseBuildsOnce) {
  const TpchData data = Data();
  const PaperQuery q3 = BuildQ3(data, 1000);
  constexpr int kThreads = 8;
  std::vector<Choice> choices(kThreads);
  std::atomic<int> ready{0};
  const MetricsSnapshot before = Now();
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      ready.fetch_add(1);
      while (ready.load() < kThreads) std::this_thread::yield();
      choices[static_cast<size_t>(t)] = ChooseServed(*q3.plan, q3.db);
    });
  }
  for (std::thread& th : threads) th.join();
  EXPECT_EQ(StatsBuildsSince(before), 1);
  for (const Choice& c : choices) {
    EXPECT_EQ(c.plan, choices[0].plan);
    EXPECT_EQ(c.cost_bits, choices[0].cost_bits);
  }
}

TEST(StatsSnapshotTest, SnapshotStatsEqualFreshStats) {
  const PaperQuery q3 = BuildQ3(Data(), 0);
  std::shared_ptr<const BaseStats> fresh = FreshStats(q3.db);
  std::shared_ptr<const BaseStats> snapshot = q3.db.Stats([&] {
    return std::make_shared<const BaseStats>(BaseStats::Build(q3.db));
  });
  ASSERT_EQ(snapshot->tables.size(), fresh->tables.size());
  for (size_t i = 0; i < fresh->tables.size(); ++i) {
    EXPECT_EQ(snapshot->tables[i].rows, fresh->tables[i].rows);
    EXPECT_EQ(snapshot->tables[i].distinct, fresh->tables[i].distinct)
        << "table " << i;
    EXPECT_TRUE(SameMultiset(snapshot->samples[i], fresh->samples[i]));
  }
}

TEST(StatsSnapshotTest, PaperVariantsChooseAsWithFreshStats) {
  const TpchData data = Data();
  const PaperQuery q3 = BuildQ3(data, 0);
  std::vector<PlanPtr> plans = PaperPlans(data);
  for (size_t i = 0; i < plans.size(); ++i) {
    ExpectSameChoice(*plans[i], q3.db,
                     StrCat("Q", std::to_string(i / 6 + 1), " nu=",
                            std::to_string(kNuSweep[i % 6])));
  }
}

TEST(StatsSnapshotTest, RandomQueriesChooseAsWithFreshStats) {
  for (uint64_t seed = 1; seed <= 50; ++seed) {
    Rng rng(seed);
    RandomDataOptions dopts;
    dopts.max_rows = 200;  // larger than the 64-row sample
    RandomQueryOptions qopts;
    qopts.num_rels = static_cast<int>(rng.Uniform(2, 6));
    qopts.allow_full_outer = rng.Bernoulli(0.15);
    const Database db = RandomDatabase(rng, qopts.num_rels, dopts);
    PlanPtr query = RandomQuery(rng, qopts, dopts);
    ExpectSameChoice(*query, db, "seed " + std::to_string(seed));
  }
}

}  // namespace
}  // namespace eca
