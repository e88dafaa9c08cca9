#include "testing/random_query.h"

#include <vector>

#include "common/str_util.h"

namespace eca {

PlanPtr RandomQuery(Rng& rng, const RandomQueryOptions& qopts,
                    const RandomDataOptions& dopts) {
  ECA_CHECK(qopts.num_rels >= 2);
  std::vector<PlanPtr> forest;
  forest.reserve(static_cast<size_t>(qopts.num_rels));
  for (int i = 0; i < qopts.num_rels; ++i) {
    forest.push_back(Plan::Leaf(i));
  }
  int pred_counter = 0;
  while (forest.size() > 1) {
    // Pick two distinct subplans to join.
    size_t a = static_cast<size_t>(
        rng.Uniform(0, static_cast<int64_t>(forest.size()) - 1));
    size_t b = static_cast<size_t>(
        rng.Uniform(0, static_cast<int64_t>(forest.size()) - 2));
    if (b >= a) ++b;
    PlanPtr left = std::move(forest[a]);
    PlanPtr right = std::move(forest[b]);

    // Choose an operator.
    double total = qopts.inner_weight + qopts.outer_weight +
                   (qopts.allow_semi_anti ? qopts.semi_weight : 0) +
                   (qopts.allow_semi_anti ? qopts.anti_weight : 0) +
                   (qopts.allow_full_outer ? 0.15 : 0);
    double dice = rng.NextDouble() * total;
    JoinOp op;
    if ((dice -= qopts.inner_weight) < 0) {
      op = JoinOp::kInner;
    } else if ((dice -= qopts.outer_weight) < 0) {
      op = rng.Bernoulli(0.5) ? JoinOp::kLeftOuter : JoinOp::kRightOuter;
    } else if (qopts.allow_semi_anti && (dice -= qopts.semi_weight) < 0) {
      op = rng.Bernoulli(0.5) ? JoinOp::kLeftSemi : JoinOp::kRightSemi;
    } else if (qopts.allow_semi_anti && (dice -= qopts.anti_weight) < 0) {
      op = rng.Bernoulli(0.5) ? JoinOp::kLeftAnti : JoinOp::kRightAnti;
    } else {
      op = JoinOp::kFullOuter;
    }

    // Predicate over one visible relation of each side.
    std::string label = StrCat("p", std::to_string(pred_counter++));
    PredRef pred =
        rng.Bernoulli(qopts.tolerant_pred_prob)
            ? RandomTolerantJoinPredicate(rng, left->output_rels(),
                                          right->output_rels(), dopts, label)
            : RandomJoinPredicate(rng, left->output_rels(),
                                  right->output_rels(), dopts, label);
    PlanPtr joined = Plan::Join(op, std::move(pred), std::move(left),
                                std::move(right));
    // Compact the forest.
    forest.erase(forest.begin() + static_cast<long>(std::max(a, b)));
    forest.erase(forest.begin() + static_cast<long>(std::min(a, b)));
    forest.push_back(std::move(joined));
  }
  return std::move(forest[0]);
}

}  // namespace eca
