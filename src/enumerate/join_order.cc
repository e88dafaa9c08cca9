#include "enumerate/join_order.h"

#include <algorithm>

#include "common/str_util.h"

namespace eca {

namespace {

struct KeyedOrdering {
  std::string key;
  int min_rel;
};

// All orderings over `s` using the predicates in `preds` whose references
// fall within s. Each internal node hosts exactly one predicate (the
// paper's trees have one internal node per predicate).
std::vector<KeyedOrdering> Orderings(RelSet s,
                                     const std::vector<RelSet>& preds) {
  std::vector<KeyedOrdering> out;
  if (s.Count() == 1) {
    out.push_back({StrCat("R", std::to_string(s.SingleId())), s.SingleId()});
    return out;
  }
  const uint64_t sbits = s.bits();
  const uint64_t low = sbits & (~sbits + 1);
  for (uint64_t m = (sbits - 1) & sbits; m != 0; m = (m - 1) & sbits) {
    if (!(m & low)) continue;  // canonical unordered split
    RelSet s1(m), s2(sbits ^ m);
    // Exactly one in-scope predicate must cross the split, and every other
    // in-scope predicate must fall entirely within one side.
    int crossing = 0;
    bool feasible = true;
    for (const RelSet& p : preds) {
      if (!s.ContainsAll(p)) continue;  // handled above this subtree
      if (p.Intersects(s1) && p.Intersects(s2)) {
        ++crossing;
      } else if (!s1.ContainsAll(p) && !s2.ContainsAll(p)) {
        feasible = false;
        break;
      }
    }
    if (!feasible || crossing != 1) continue;
    std::vector<KeyedOrdering> left = Orderings(s1, preds);
    std::vector<KeyedOrdering> right = Orderings(s2, preds);
    for (const KeyedOrdering& l : left) {
      for (const KeyedOrdering& r : right) {
        if (l.min_rel <= r.min_rel) {
          out.push_back({StrCat("(", l.key, ",", r.key, ")"),
                         std::min(l.min_rel, r.min_rel)});
        } else {
          out.push_back({StrCat("(", r.key, ",", l.key, ")"),
                         std::min(l.min_rel, r.min_rel)});
        }
      }
    }
  }
  return out;
}

}  // namespace

std::set<std::string> AllJoinOrderings(
    RelSet rels, const std::vector<RelSet>& pred_refs) {
  std::set<std::string> out;
  for (const KeyedOrdering& k : Orderings(rels, pred_refs)) {
    out.insert(k.key);
  }
  return out;
}

int64_t CountJoinOrderings(RelSet rels,
                           const std::vector<RelSet>& pred_refs) {
  return static_cast<int64_t>(AllJoinOrderings(rels, pred_refs).size());
}

std::vector<RelSet> PredicateRefSets(const Plan& plan) {
  std::vector<RelSet> out;
  std::vector<Plan*> joins;
  CollectJoins(const_cast<Plan*>(&plan), &joins);
  for (const Plan* j : joins) {
    if (j->pred() != nullptr) out.push_back(j->pred()->refs());
  }
  return out;
}

}  // namespace eca
