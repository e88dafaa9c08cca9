#include "enumerate/subtree.h"

#include "common/str_util.h"

namespace eca {

namespace {

bool PathToImpl(const Plan* cur, const Plan* node, NodePath* out) {
  if (cur == node) return true;
  switch (cur->kind()) {
    case Plan::Kind::kLeaf:
      return false;
    case Plan::Kind::kJoin:
      out->push_back(0);
      if (PathToImpl(cur->left(), node, out)) return true;
      out->back() = 1;
      if (PathToImpl(cur->right(), node, out)) return true;
      out->pop_back();
      return false;
    case Plan::Kind::kComp:
      out->push_back(0);
      if (PathToImpl(cur->child(), node, out)) return true;
      out->pop_back();
      return false;
  }
  return false;
}

}  // namespace

bool PathTo(const Plan* root, const Plan* node, NodePath* out) {
  out->clear();
  return PathToImpl(root, node, out);
}

Plan* ResolvePath(Plan* root, const NodePath& path) {
  Plan* cur = root;
  for (int step : path) {
    switch (cur->kind()) {
      case Plan::Kind::kLeaf:
        return nullptr;
      case Plan::Kind::kJoin:
        cur = step == 0 ? cur->left() : cur->right();
        break;
      case Plan::Kind::kComp:
        if (step != 0) return nullptr;
        cur = cur->child();
        break;
    }
    if (cur == nullptr) return nullptr;
  }
  return cur;
}

Plan* SubtreeOf(Plan* root, RelSet s) {
  // Descend to the lowest node covering S.
  Plan* cur = root;
  while (true) {
    switch (cur->kind()) {
      case Plan::Kind::kLeaf:
        return cur;
      case Plan::Kind::kJoin: {
        if (cur->left()->leaves().ContainsAll(s)) {
          cur = cur->left();
          continue;
        }
        if (cur->right()->leaves().ContainsAll(s)) {
          cur = cur->right();
          continue;
        }
        // cur is the lowest join covering S; extend upward over the comp
        // chain directly above it (part of the subplan per Section 5.1).
        Plan* top = cur;
        while (true) {
          Plan* parent = ParentNode(root, top);
          if (parent == nullptr || !parent->is_comp()) break;
          top = parent;
        }
        return top;
      }
      case Plan::Kind::kComp:
        if (cur->child()->leaves().ContainsAll(s)) {
          // Only descend past a comp if a *lower* node still covers S —
          // which it always does (comp is unary); but we must not descend
          // below the lowest cover's comp chain. Descend; the upward
          // extension above re-adds the chain.
          cur = cur->child();
          continue;
        }
        return cur;
    }
  }
}

const Plan* SubtreeOf(const Plan* root, RelSet s) {
  return SubtreeOf(const_cast<Plan*>(root), s);
}

std::vector<JoinablePair> JoinablePairs(Plan* root, RelSet s) {
  std::vector<JoinablePair> out;
  if (s.Count() < 2) return out;
  std::vector<Plan*> joins;
  CollectJoins(root, &joins);
  // Enumerate unordered splits; keep the smallest relation in s1.
  const uint64_t sbits = s.bits();
  const uint64_t low = sbits & (~sbits + 1);
  for (uint64_t m = (sbits - 1) & sbits; m != 0;
       m = (m - 1) & sbits) {
    if (!(m & low)) continue;  // canonical orientation
    RelSet s1(m), s2(sbits ^ m);
    if (s2.Empty()) continue;
    Plan* unique_node = nullptr;
    int count = 0;
    for (Plan* j : joins) {
      RelSet refs = j->pred() ? j->pred()->refs() : RelSet();
      // Only predicates contained in S can be the node for this
      // decomposition; a crossing predicate that also references relations
      // outside S sits above the S-subtree and does not interfere.
      if (!s.ContainsAll(refs)) continue;
      if (refs.Intersects(s1) && refs.Intersects(s2)) {
        ++count;
        unique_node = j;
        if (count > 1) break;
      }
    }
    if (count == 1) {
      out.push_back({s1, s2, unique_node});
    }
  }
  return out;
}

namespace {

std::string OrderingKeyImpl(const Plan& plan, int* min_rel) {
  switch (plan.kind()) {
    case Plan::Kind::kLeaf:
      *min_rel = plan.rel_id();
      return StrCat("R", std::to_string(plan.rel_id()));
    case Plan::Kind::kJoin: {
      int lmin = 0, rmin = 0;
      std::string l = OrderingKeyImpl(*plan.left(), &lmin);
      std::string r = OrderingKeyImpl(*plan.right(), &rmin);
      *min_rel = std::min(lmin, rmin);
      if (lmin <= rmin) return StrCat("(", l, ",", r, ")");
      return StrCat("(", r, ",", l, ")");
    }
    case Plan::Kind::kComp:
      return OrderingKeyImpl(*plan.child(), min_rel);
  }
  return "?";
}

}  // namespace

std::string OrderingKey(const Plan& plan) {
  int min_rel = 0;
  return OrderingKeyImpl(plan, &min_rel);
}

}  // namespace eca
