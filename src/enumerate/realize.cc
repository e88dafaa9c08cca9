#include "enumerate/realize.h"

#include "common/str_util.h"
#include "enumerate/subtree.h"
#include "rewrite/oj_simplify.h"

namespace eca {

std::string OrderingNode::Key() const {
  if (is_leaf()) return StrCat("R", std::to_string(rels.SingleId()));
  return StrCat("(", left->Key(), ",", right->Key(), ")");
}

namespace {

std::vector<OrderingNodePtr> TreesOver(RelSet s,
                                       const std::vector<RelSet>& preds) {
  std::vector<OrderingNodePtr> out;
  if (s.Count() == 1) {
    auto leaf = std::make_shared<OrderingNode>();
    leaf->rels = s;
    out.push_back(std::move(leaf));
    return out;
  }
  const uint64_t sbits = s.bits();
  const uint64_t low = sbits & (~sbits + 1);
  for (uint64_t m = (sbits - 1) & sbits; m != 0; m = (m - 1) & sbits) {
    if (!(m & low)) continue;
    RelSet s1(m), s2(sbits ^ m);
    int crossing = 0;
    bool feasible = true;
    for (const RelSet& p : preds) {
      if (!s.ContainsAll(p)) continue;
      if (p.Intersects(s1) && p.Intersects(s2)) {
        ++crossing;
      } else if (!s1.ContainsAll(p) && !s2.ContainsAll(p)) {
        feasible = false;
        break;
      }
    }
    if (!feasible || crossing != 1) continue;
    for (const OrderingNodePtr& l : TreesOver(s1, preds)) {
      for (const OrderingNodePtr& r : TreesOver(s2, preds)) {
        auto node = std::make_shared<OrderingNode>();
        node->rels = s;
        if (l->rels.Min() <= r->rels.Min()) {
          node->left = l;
          node->right = r;
        } else {
          node->left = r;
          node->right = l;
        }
        out.push_back(std::move(node));
      }
    }
  }
  return out;
}

// Positions the join for the decomposition (theta.left, theta.right) as the
// direct child join of `i_node` (or the topmost join when i_node is null),
// then recurses into the two sides. Returns false when a required swap is
// infeasible under the policy.
bool RealizeRec(PlanPtr& root, RewriteContext* ctx, const Plan* i_node,
                const OrderingNode& theta) {
  if (theta.is_leaf()) return true;
  RelSet s1 = theta.left->rels, s2 = theta.right->rels;
  // The unique join whose predicate crosses the decomposition.
  std::vector<Plan*> joins;
  CollectJoins(root.get(), &joins);
  Plan* j = nullptr;
  int count = 0;
  for (Plan* cand : joins) {
    RelSet refs = cand->pred() ? cand->pred()->refs() : RelSet();
    if (refs.Intersects(s1) && refs.Intersects(s2) &&
        theta.rels.ContainsAll(refs)) {
      ++count;
      j = cand;
    }
  }
  if (count != 1) return false;
  int guard = 0;
  while (ParentJoin(root.get(), j) != i_node) {
    j = SwapUp(root, j, ctx);
    if (j == nullptr || ++guard > 128) return false;
  }
  // j's children now cover s1 and s2; recurse.
  if (!RealizeRec(root, ctx, j, *theta.left)) return false;
  return RealizeRec(root, ctx, j, *theta.right);
}

}  // namespace

std::vector<OrderingNodePtr> AllJoinOrderingTrees(
    RelSet rels, const std::vector<RelSet>& pred_refs) {
  return TreesOver(rels, pred_refs);
}

PlanPtr RealizeOrdering(const Plan& query, const OrderingNode& theta,
                        SwapPolicy policy) {
  ECA_CHECK(theta.rels == query.leaves());
  PlanPtr root = query.Clone();
  SimplifyOuterJoins(root.get());
  RewriteContext ctx;
  ctx.policy = policy;
  if (!RealizeRec(root, &ctx, nullptr, theta)) return nullptr;
  return root;
}

}  // namespace eca
