// Differential soak run: random queries cross-checked along every axis the
// library offers —
//   * optimizer policies (ECA / TBA / CBA, basic and enhanced enumeration)
//   * both engine profiles (hash, sort-merge)
//   * every realizable ordering of each query
// Every produced plan must evaluate to the same multiset as the query as
// written. This is the capstone end-to-end validation; run it with a large
// query count for soak testing.
//
// Usage: bench_differential [queries] [max_rels] [check_all_orderings 0/1]

#include <chrono>
#include <cstdio>
#include <cstdlib>

#include "enumerate/enumerator.h"
#include "enumerate/join_order.h"
#include "enumerate/realize.h"
#include "exec/executor.h"
#include "testing/random_data.h"
#include "testing/random_query.h"

namespace eca {
namespace {

int Run(int queries, int max_rels, bool all_orderings) {
  int64_t plans_checked = 0, failures = 0;
  auto t0 = std::chrono::steady_clock::now();
  for (int seed = 0; seed < queries; ++seed) {
    Rng rng(static_cast<uint64_t>(seed) * 6151 + 29);
    RandomDataOptions dopts;
    RandomQueryOptions qopts;
    qopts.num_rels = 3 + seed % (max_rels - 2);
    qopts.allow_full_outer = seed % 3 == 0;
    qopts.tolerant_pred_prob = seed % 5 == 0 ? 0.4 : 0.0;
    Database db = RandomDatabase(rng, qopts.num_rels, dopts);
    PlanPtr query = RandomQuery(rng, qopts, dopts);
    Executor reference_engine;
    Relation reference =
        CanonicalizeColumnOrder(reference_engine.Execute(*query, db).value());

    auto check = [&](const Plan& plan, const char* what) {
      // Materializing hash engine.
      Executor hash_engine;
      ++plans_checked;
      Relation hashed = hash_engine.Execute(plan, db).value();
      if (!SameMultiset(reference, CanonicalizeColumnOrder(hashed))) {
        ++failures;
        std::printf("!! %s (hash) wrong on seed %d\n%s", what, seed,
                    plan.ToString().c_str());
        return;
      }
      // Sort-merge engine.
      Executor::Options smj_opts;
      smj_opts.join_preference = Executor::JoinPreference::kSortMerge;
      Executor smj_engine(smj_opts);
      ++plans_checked;
      Relation merged = smj_engine.Execute(plan, db).value();
      if (!SameMultiset(reference, CanonicalizeColumnOrder(merged))) {
        ++failures;
        std::printf("!! %s (sort-merge) wrong on seed %d\n", what, seed);
      }
    };

    CostModel cost = CostModel::FromDatabase(db);
    for (SwapPolicy policy :
         {SwapPolicy::kECA, SwapPolicy::kTBA, SwapPolicy::kCBA}) {
      for (bool reuse : {false, true}) {
        EnumeratorOptions opts;
        opts.policy = policy;
        opts.reuse_subplans = reuse;
        TopDownEnumerator e(&cost, opts);
        auto result = e.Optimize(*query);
        if (result.plan != nullptr) check(*result.plan, "optimizer plan");
      }
    }
    if (all_orderings) {
      for (const OrderingNodePtr& theta : AllJoinOrderingTrees(
               query->leaves(), PredicateRefSets(*query))) {
        PlanPtr plan = RealizeOrdering(*query, *theta, SwapPolicy::kECA);
        if (plan != nullptr) check(*plan, "realized ordering");
      }
    }
  }
  auto t1 = std::chrono::steady_clock::now();
  std::printf("differential soak: %lld plan executions cross-checked over "
              "%d queries in %.1f s — %lld failures\n",
              static_cast<long long>(plans_checked), queries,
              std::chrono::duration<double>(t1 - t0).count(),
              static_cast<long long>(failures));
  return failures == 0 ? 0 : 1;
}

}  // namespace
}  // namespace eca

int main(int argc, char** argv) {
  int queries = argc > 1 ? std::atoi(argv[1]) : 60;
  int max_rels = argc > 2 ? std::atoi(argv[2]) : 5;
  bool all_orderings = argc > 3 ? std::atoi(argv[3]) != 0 : true;
  return eca::Run(queries, max_rels, all_orderings);
}
